"""Symmetric tridiagonal near-Toeplitz matrices with |b| = 2.

Closed-form inverse entries, traces, row sums, sign patterns, exact infinity
norms and their lower/upper bounds, an independent dense reference path, and
a fixed-point solver for discretized u'' = f(u) problems whose contraction
rate is certified by those bounds.
"""

from .analysis import (
    BoundsReport,
    RowSumReport,
    SignPattern,
    UpperBound,
    bounds_report,
    exact_infinity_norm,
    lower_bound,
    rowsum,
    rowsum_bounds,
    rowsum_report,
    rowsums,
    sign_pattern,
    trace_inverse,
    upper_bound,
)
from .bvp import (
    BvpProblem,
    BvpResult,
    default_initial_iterate,
    expected_rate,
    lipschitz_constant,
    solve_fixed_point,
)
from .config import (
    MatrixConfig,
    delta_below_threshold,
    is_singular,
    singularity_report,
)
from .core import (
    InverseMatrix,
    assemble_inverse,
    near_toeplitz_inverse_entry,
    toeplitz_inverse_entry,
)
from .errors import (
    DenseSizeError,
    DivergenceError,
    PivotBreakdownError,
    SingularMatrixError,
    UnsupportedCaseError,
)
from .oracle import (
    DenseMatrix,
    build_matrix,
    reference_inverse,
    reference_norm,
    reference_rowsums,
    reference_trace,
)

__all__ = [
    "BoundsReport",
    "BvpProblem",
    "BvpResult",
    "DenseMatrix",
    "DenseSizeError",
    "DivergenceError",
    "InverseMatrix",
    "MatrixConfig",
    "PivotBreakdownError",
    "RowSumReport",
    "SignPattern",
    "SingularMatrixError",
    "UnsupportedCaseError",
    "UpperBound",
    "assemble_inverse",
    "bounds_report",
    "build_matrix",
    "default_initial_iterate",
    "delta_below_threshold",
    "exact_infinity_norm",
    "expected_rate",
    "is_singular",
    "lipschitz_constant",
    "lower_bound",
    "near_toeplitz_inverse_entry",
    "reference_inverse",
    "reference_norm",
    "reference_rowsums",
    "reference_trace",
    "rowsum",
    "rowsum_bounds",
    "rowsum_report",
    "rowsums",
    "sign_pattern",
    "singularity_report",
    "solve_fixed_point",
    "toeplitz_inverse_entry",
    "trace_inverse",
    "upper_bound",
]

__version__ = "0.1.0"
