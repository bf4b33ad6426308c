"""Brute-force reference path for every property test.

Builds the dense matrix explicitly and inverts it by Gauss-Jordan elimination
with partial pivoting.  Deliberately shares no code with the closed-form
modules: no entry formulas, no tridiagonal shortcuts, no library inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MatrixConfig, require_dense_order
from .core import ORACLE, InverseMatrix
from .errors import PivotBreakdownError

#: A pivot below this multiple of the max-abs entry declares breakdown.
PIVOT_RTOL = 1e-13


@dataclass
class DenseMatrix:
    """Explicit n x n storage of the tridiagonal operator."""

    data: np.ndarray


def build_matrix(cfg: MatrixConfig) -> DenseMatrix:
    """Place b on the diagonal, -1 off it, b_tilde at both corners; n > 2**14 raises DenseSizeError.

    The scaled matrix of the same config is ``-cfg.c_hat * build_matrix(cfg).data``.
    """
    n = cfg.n
    require_dense_order(n)
    data = np.zeros((n, n))
    np.fill_diagonal(data, float(cfg.b))
    idx = np.arange(n - 1)
    data[idx, idx + 1] = -1.0
    data[idx + 1, idx] = -1.0
    data[0, 0] = cfg.b_tilde
    data[n - 1, n - 1] = cfg.b_tilde
    return DenseMatrix(data=data)


def _as_array(m: DenseMatrix | np.ndarray) -> np.ndarray:
    data = m.data if isinstance(m, DenseMatrix) else np.asarray(m, dtype=float)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {data.shape}")
    return np.array(data, dtype=float)


def reference_inverse(m: DenseMatrix | np.ndarray) -> InverseMatrix:
    """Invert by Gauss-Jordan elimination with partial pivoting.

    Raises PivotBreakdownError when the selected pivot magnitude falls to
    PIVOT_RTOL times the max-abs entry of the input, which flags singular and
    near-singular matrices.
    """
    a = _as_array(m)
    n = a.shape[0]
    scale = np.max(np.abs(a))
    if scale == 0.0:
        raise PivotBreakdownError("zero matrix")
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        p = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[p, col]
        if abs(pivot) <= PIVOT_RTOL * scale:
            raise PivotBreakdownError(
                f"pivot {pivot:.3e} at column {col + 1} below threshold "
                f"{PIVOT_RTOL * scale:.3e}"
            )
        if p != col:
            aug[[col, p]] = aug[[p, col]]
        aug[col] /= aug[col, col]
        # Eliminate from every row in place; that zeroes the pivot row, so put it back.
        pivot_row = aug[col].copy()
        aug -= np.outer(aug[:, col], pivot_row)
        aug[col] = pivot_row
    return InverseMatrix(entries=aug[:, n:], source=ORACLE)


def reference_norm(m: DenseMatrix | np.ndarray) -> float:
    """Infinity norm (max absolute row sum) of the inverse of m."""
    inv = reference_inverse(m)
    return float(np.abs(inv.entries).sum(axis=1).max())


def reference_trace(m: DenseMatrix | np.ndarray) -> float:
    """Trace of the inverse of m."""
    inv = reference_inverse(m)
    return float(np.trace(inv.entries))


def reference_rowsums(m: DenseMatrix | np.ndarray) -> np.ndarray:
    """Row sums of the inverse of m."""
    inv = reference_inverse(m)
    return inv.entries.sum(axis=1)
