"""The package's public names: pinned, imported or loaded lazily, and enough for the CLI, demos
and benchmark."""

import ast
import importlib
from pathlib import Path

import pytest

import neartoeplitz

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "BoundsReport", "BvpProblem", "BvpResult", "DenseMatrix", "DenseSizeError", "DivergenceError",
    "InverseMatrix", "MatrixConfig", "PivotBreakdownError", "SingularMatrixError",
    "UnsupportedCaseError", "UpperBound", "assemble_inverse", "bounds_report", "build_matrix",
    "default_initial_iterate", "exact_infinity_norm", "expected_rate", "is_singular",
    "lipschitz_constant", "lower_bound", "near_toeplitz_inverse_entry", "reference_inverse",
    "reference_norm", "reference_rowsums", "reference_trace", "rowsum", "rowsums", "sign_pattern",
    "singularity_report", "solve_fixed_point", "toeplitz_inverse_entry", "trace_inverse",
    "upper_bound",
]


def _imported_from(path: Path, module: str | None, level: int) -> set[str]:
    """Names a file imports with ``from <module> import ...`` at the given relative level."""
    tree = ast.parse(path.read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module and node.level == level
            for alias in node.names}


def test_public_names_are_pinned():
    assert sorted(neartoeplitz.__all__) == PUBLIC


def test_all_equals_the_names_init_imports():
    """__all__ is the eager imports of __init__ plus its lazy table, which are disjoint."""
    init = Path(neartoeplitz.__file__)
    imported = set()
    for module in ("analysis", "config", "core", "errors"):
        imported |= _imported_from(init, module, 1)
    lazy = set(neartoeplitz._LAZY)
    assert not imported & lazy
    assert imported | lazy == set(neartoeplitz.__all__)
    assert set(neartoeplitz._LAZY.values()) == {"bvp", "oracle"}


def test_lazy_names_are_the_submodule_objects():
    for name, module in neartoeplitz._LAZY.items():
        submodule = importlib.import_module(f"neartoeplitz.{module}")
        assert getattr(neartoeplitz, name) is getattr(submodule, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        neartoeplitz.no_such_name  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from neartoeplitz import *", namespace)
    del namespace["__builtins__"]
    assert len(namespace) == 34 and sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(neartoeplitz, name) for name in PUBLIC)


def test_demos_and_benchmark_import_only_public_names():
    scripts = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("bench/*.py"))
    submodules = {p.stem for p in Path(neartoeplitz.__file__).parent.glob("*.py")}
    used = set().union(*(_imported_from(p, "neartoeplitz", 0) for p in scripts)) - submodules
    assert used <= set(neartoeplitz.__all__), sorted(used - set(neartoeplitz.__all__))
    bench = _imported_from(ROOT / "bench" / "workloads.py", "neartoeplitz", 0)
    assert len(bench) == 16 and bench <= set(neartoeplitz.__all__)
