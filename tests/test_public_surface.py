"""The package's public names: pinned, imported, and enough for the CLI, demos and benchmark."""

import ast
from pathlib import Path

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
    init = Path(neartoeplitz.__file__)
    imported = set()
    for module in ("analysis", "bvp", "config", "core", "errors", "oracle"):
        imported |= _imported_from(init, module, 1)
    assert imported == set(neartoeplitz.__all__)


def test_demos_and_benchmark_import_only_public_names():
    scripts = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("bench/*.py"))
    submodules = {p.stem for p in Path(neartoeplitz.__file__).parent.glob("*.py")}
    used = set().union(*(_imported_from(p, "neartoeplitz", 0) for p in scripts)) - submodules
    assert used <= set(neartoeplitz.__all__), sorted(used - set(neartoeplitz.__all__))
    bench = _imported_from(ROOT / "bench" / "workloads.py", "neartoeplitz", 0)
    assert len(bench) == 16 and bench <= set(neartoeplitz.__all__)
