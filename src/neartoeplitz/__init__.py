"""Symmetric tridiagonal near-Toeplitz matrices with |b| = 2.

Closed-form inverse entries, traces, row sums, sign patterns, exact infinity
norms and their lower/upper bounds, an independent dense reference path, and
a fixed-point solver for discretized u'' = f(u) problems whose contraction
rate is certified by those bounds.

Result types and MatrixConfig are public because public functions take or return them.
The errors are public because callers catch them and the CLI maps them to exit codes.
The oracle is public as the independent reference for the tests and the benchmark checks.
Other functions are public because the CLI, a demo or the benchmark calls them.

numpy is imported only by code that builds an array: the bvp and oracle modules, array code
throughout, load on first use of one of their names, so scalar results never import numpy.
"""

from importlib import import_module

from .analysis import (
    UpperBound,
    exact_infinity_norm,
    lower_bound,
    rowsum,
    rowsums,
    sign_pattern,
    trace_inverse,
    upper_bound,
)
from .config import MatrixConfig, singularity_report
from .core import (
    InverseMatrix,
    assemble_inverse,
    near_toeplitz_inverse_entry,
)
from .errors import (
    DenseSizeError,
    DivergenceError,
    PivotBreakdownError,
    SingularMatrixError,
    UnsupportedCaseError,
)

_LAZY = {name: module for module, names in (
    ("bvp", ("BvpProblem", "BvpResult", "expected_rate", "solve_fixed_point")),
    ("oracle", ("build_matrix", "reference_inverse", "reference_norm", "reference_rowsums",
                "reference_trace")),
) for name in names}


def __getattr__(name):
    """Load a bvp or oracle name on first use and keep it in the package namespace (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(f".{_LAZY[name]}", __name__), name))


__all__ = [
    "BvpProblem",
    "BvpResult",
    "DenseSizeError",
    "DivergenceError",
    "InverseMatrix",
    "MatrixConfig",
    "PivotBreakdownError",
    "SingularMatrixError",
    "UnsupportedCaseError",
    "UpperBound",
    "assemble_inverse",
    "build_matrix",
    "exact_infinity_norm",
    "expected_rate",
    "lower_bound",
    "near_toeplitz_inverse_entry",
    "reference_inverse",
    "reference_norm",
    "reference_rowsums",
    "reference_trace",
    "rowsum",
    "rowsums",
    "sign_pattern",
    "singularity_report",
    "solve_fixed_point",
    "trace_inverse",
    "upper_bound",
]

__version__ = "0.1.0"
