"""Symmetric tridiagonal near-Toeplitz matrices with |b| = 2.

Closed-form inverse entries, traces, row sums, sign patterns, exact infinity
norms and their lower/upper bounds, an independent dense reference path, and
a fixed-point solver for discretized u'' = f(u) problems whose contraction
rate is certified by those bounds.

Result types and MatrixConfig are public because public functions take or return them.
The errors are public because callers catch them and the CLI maps them to exit codes.
The oracle is public as the independent reference for the tests and the benchmark checks.
Other functions are public because the CLI, a demo or the benchmark calls them.

One rule loads them: every public name loads its module on first use (PEP 562), so
``import neartoeplitz`` loads no submodule, and only ``bvp``, ``oracle`` and the functions
that build arrays import numpy.
"""

from importlib import import_module

_LAZY = {name: module for module, names in (
    ("analysis", ("UpperBound", "exact_infinity_norm", "lower_bound", "rowsum", "rowsums",
                  "sign_pattern", "trace_inverse", "upper_bound")),
    ("bvp", ("BvpProblem", "BvpResult", "expected_rate", "solve_fixed_point")),
    ("config", ("InverseMatrix", "MatrixConfig", "singularity_report")),
    ("core", ("assemble_inverse", "near_toeplitz_inverse_entry")),
    ("errors", ("DenseSizeError", "DivergenceError", "SingularMatrixError", "UnsupportedCaseError")),
    ("oracle", ("build_matrix", "reference_inverse", "reference_norm", "reference_rowsums",
                "reference_trace")),
) for name in names}

__all__ = sorted(_LAZY)

__version__ = "0.1.0"


def __getattr__(name):
    """Load a public name's module on first use and keep the name in the package namespace."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(f".{_LAZY[name]}", __name__), name))


def __dir__():
    return __all__
