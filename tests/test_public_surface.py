"""The package's public names: pinned, each loaded from its module on first use, and enough for
the CLI, demos and benchmark."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import neartoeplitz

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "BvpProblem", "BvpResult", "DenseSizeError", "DivergenceError",
    "InverseMatrix", "MatrixConfig", "PivotBreakdownError", "SingularMatrixError",
    "UnsupportedCaseError", "UpperBound", "assemble_inverse", "build_matrix",
    "exact_infinity_norm", "expected_rate", "lower_bound",
    "near_toeplitz_inverse_entry", "reference_inverse", "reference_norm", "reference_rowsums",
    "reference_trace", "rowsum", "rowsums", "sign_pattern", "singularity_report",
    "solve_fixed_point", "trace_inverse", "upper_bound",
]


#: Parameter names of every public callable.  None marks an error class that keeps its builtin
#: base's constructor, which has no signature to inspect.  The matrix is (n, b, b_tilde): the
#: scaling c_hat is the last field of ``BvpProblem``, and no entry function takes ``scaled``.
SIGNATURES = {
    "BvpProblem": ("n", "length", "k_coef", "nonlinearity", "cfg", "bc_left", "bc_right", "c_hat"),
    "BvpResult": ("solution", "iterations", "observed_rate", "expected_rate", "converged", "steps"),
    "DenseSizeError": None,
    "DivergenceError": ("message", "partial"),
    "InverseMatrix": ("entries", "source"),
    "MatrixConfig": ("n", "b", "b_tilde"),
    "PivotBreakdownError": None,
    "SingularMatrixError": None,
    "UnsupportedCaseError": None,
    "UpperBound": ("value", "branch", "terms"),
    "assemble_inverse": ("cfg",),
    "build_matrix": ("cfg",),
    "exact_infinity_norm": ("cfg",),
    "expected_rate": ("prob",),
    "lower_bound": ("cfg",),
    "near_toeplitz_inverse_entry": ("cfg", "i", "j"),
    "reference_inverse": ("m",),
    "reference_norm": ("m",),
    "reference_rowsums": ("m",),
    "reference_trace": ("m",),
    "rowsum": ("cfg", "i"),
    "rowsums": ("cfg",),
    "sign_pattern": ("cfg",),
    "singularity_report": ("n", "b", "b_tilde"),
    "solve_fixed_point": ("prob", "tol", "max_iter"),
    "trace_inverse": ("cfg",),
    "upper_bound": ("cfg",),
}


def _imported_from(path: Path, module: str | None, level: int) -> set[str]:
    """Names a file imports with ``from <module> import ...`` at the given relative level."""
    tree = ast.parse(path.read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module and node.level == level
            for alias in node.names}


def test_public_names_are_pinned():
    assert sorted(neartoeplitz.__all__) == PUBLIC


def _parameters(obj) -> tuple[str, ...] | None:
    """Parameter names of a public callable, None for an error class without an __init__ of
    its own in the package."""
    if isinstance(obj, type) and issubclass(obj, Exception) and not any(
            "__init__" in vars(c) for c in obj.__mro__ if c.__module__.startswith("neartoeplitz")):
        return None
    return tuple(inspect.signature(obj).parameters)


def test_public_signatures_are_pinned():
    """A new parameter or field of a public name is a change to this table, not a side effect."""
    got = {name: _parameters(getattr(neartoeplitz, name)) for name in neartoeplitz.__all__}
    assert got == SIGNATURES


def test_all_equals_the_names_init_imports():
    """__init__ writes each public name once, in its name -> module table, and __all__ is that
    table's keys; every module it names is a file of the package."""
    init = Path(neartoeplitz.__file__)
    strings = [node.value for node in ast.walk(ast.parse(init.read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert all(strings.count(name) == 1 for name in PUBLIC)
    assert neartoeplitz.__all__ == sorted(neartoeplitz._LAZY) == PUBLIC
    assert all((init.parent / f"{module}.py").is_file() for module in neartoeplitz._LAZY.values())


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
    assert len(namespace) == 27 and sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(neartoeplitz, name) for name in PUBLIC)


def test_demos_and_benchmark_import_only_public_names():
    scripts = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("bench/*.py"))
    submodules = {p.stem for p in Path(neartoeplitz.__file__).parent.glob("*.py")}
    used = set().union(*(_imported_from(p, "neartoeplitz", 0) for p in scripts)) - submodules
    assert used <= set(neartoeplitz.__all__), sorted(used - set(neartoeplitz.__all__))
    bench = _imported_from(ROOT / "bench" / "workloads.py", "neartoeplitz", 0)
    assert len(bench) == 16 and bench <= set(neartoeplitz.__all__)


def test_every_public_function_has_a_caller():
    """Each public function is imported by the CLI, the tables, a demo or the benchmark.

    Result types, errors and MatrixConfig are classes, public for the reasons the
    package docstring gives, so only functions are checked.
    """
    package = Path(neartoeplitz.__file__).parent
    used = set()
    for path in (package / "cli.py", package / "tables.py"):
        used |= set().union(*(_imported_from(path, m.stem, 1) for m in package.glob("*.py")))
    for path in sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("bench/*.py")):
        used |= _imported_from(path, "neartoeplitz", 0)
    functions = {name for name in neartoeplitz.__all__
                 if inspect.isfunction(getattr(neartoeplitz, name))}
    assert functions <= used, sorted(functions - used)


def _readers(path: Path, attrs: set[str]) -> set[str]:
    """Top-level functions and classes of a module (``<module>`` for other statements) that
    read an attribute named in ``attrs``."""
    tree = ast.parse(path.read_text())
    return {getattr(stmt, "name", "<module>") for stmt in tree.body for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and node.attr in attrs}


def test_numeric_code_reads_b_only_through_the_frame():
    """b = -2 is computed as the mirrored b = +2 of the config's frame: the closed forms in
    ``core``, ``bvp``, the trace and the bounds read no ``.b``; only the b = -2 row-sum closed
    forms and the b = +2-only statements in ``analysis`` do."""
    package = Path(neartoeplitz.__file__).parent
    assert not hasattr(neartoeplitz.MatrixConfig, "sign")
    for module in ("core", "bvp"):
        assert not _readers(package / f"{module}.py", {"b", "sign"}), module
    allowed = {"_rowsum", "rowsum_bounds", "sign_pattern"}
    assert _readers(package / "analysis.py", {"b", "sign"}) <= allowed
