"""Closed-form entries of the inverse and full-inverse assembly.

All index arguments are 1-based, matching the usual statement of the entry
formulas.  Formulas are written for the lower triangle (i >= j); the upper
triangle follows by symmetry and is obtained by swapping indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import MatrixConfig, require_dense_order, require_nonsingular

if TYPE_CHECKING:
    import numpy as np

CLOSED_FORM = "closed_form"
ORACLE = "oracle"

#: Rows per band of the grid; a band of 64 rows at n = 3000 is 1.5 MB.
_BAND = 64


@dataclass
class InverseMatrix:
    """A realized n x n inverse with provenance tag ('closed_form' or 'oracle')."""

    n: int
    entries: np.ndarray
    source: str


def _check_index(n: int, i: int, j: int) -> None:
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"indices must lie in 1..{n}, got (i={i}, j={j})")


def _generators(n: int, r: float, j, i):
    """(u_j, v_i, D) at corner ratio r, for scalar or array indices j and i."""
    return j * (1.0 + r) - r, (n - i) * (1.0 + r) + 1.0, (1.0 + r) * (n + 1 + r * (n - 1))


def _parity(i):
    """(-1)^i at an integer or integer array i; S = diag((-1)^i): A_{-2}(bt)^-1 = -S A_{+2}(-bt)^-1 S."""
    return 1.0 - 2.0 * (i & 1)


def _entry(n: int, b: int, r: float, i: int, j: int) -> float:
    """s_ij u_min(i,j) v_max(i,j) / D at corner ratio r; r = 0 is the Toeplitz inverse."""
    if i < j:
        i, j = j, i
    u, v, d = _generators(n, r, j, i)
    value = u * v / d
    if b == -2 and (i + 1 - j) % 2 == 1:
        value = -value
    return value


def toeplitz_inverse_entry(n: int, b: int, i: int, j: int) -> float:
    """Entry (i, j) of the inverse of tridiag(-1, b, -1), |b| = 2.

    For i >= j the value is (2/b)^(i+1-j) * j*(n+1-i)/(n+1); the (2/b) power
    is a parity sign for b = -2 and is computed as such.  Any (i, j) order is
    accepted; symmetry swaps internally.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if b not in (2, -2):
        raise ValueError(f"diagonal b must be +2 or -2, got {b!r}")
    _check_index(n, i, j)
    return _entry(n, b, 0.0, i, j)


def near_toeplitz_inverse_entry(
    cfg: MatrixConfig, i: int, j: int, scaled: bool = False
) -> float:
    """Entry (i, j) of the inverse of the corner-perturbed matrix.

    With beta = b_tilde - b and r = 2*beta/b, the lower-triangle entry is

        (2/b)^(i+1-j) * (j*(1+r) - r) * ((n-i)*(1+r) + 1)
                      / ((1+r) * (n+1 + r*(n-1))).

    ``scaled=True`` returns the entry of the inverse of the -c_hat multiple
    of the matrix, i.e. divides by -c_hat.

    Raises SingularMatrixError for singular configurations and IndexError for
    indices outside 1..n.
    """
    require_nonsingular(cfg)
    _check_index(cfg.n, i, j)
    value = _entry(cfg.n, cfg.b, 2.0 * (cfg.b_tilde - cfg.b) / cfg.b, i, j)
    if scaled:
        value /= -cfg.c_hat
    return value


def _bands(cfg: MatrixConfig, out: np.ndarray | None = None, absolute: bool = False):
    """Yield s_ij u_min(i,j) v_max(i,j) / D in bands of _BAND rows, into ``out`` or one buffer.

    For b = -2 the parity (-1)^(i+1-j) = -(-1)^i (-1)^j is folded into u and v;
    ``absolute`` uses |u|, |v| and |D|, exact as IEEE rounding is sign-symmetric.
    Bands are divided by D in cache, with no -0.0, and each diagonal block
    mirrors its lower part, so the grid is exactly symmetric.
    """
    import numpy as np

    n = cfg.n
    k = np.arange(1, n + 1, dtype=float)
    u, v, d = _generators(n, 2.0 * (cfg.b_tilde - cfg.b) / cfg.b, k, k)
    if absolute:
        u, v, d = np.abs(u), np.abs(v), abs(d)
    elif cfg.b == -2:
        sigma = _parity(np.arange(1, n + 1))
        u *= sigma
        v *= -sigma
    buf = np.empty((_BAND, n)) if out is None else None
    upper = ~np.tri(_BAND, dtype=bool)
    for s in range(0, n, _BAND):
        e = min(s + _BAND, n)
        band = out[s:e] if buf is None else buf[: e - s]
        np.einsum("i,j->ij", v[s:e], u[:e], out=band[:, :e])
        np.einsum("i,j->ij", u[s:e], v[e:], out=band[:, e:])
        block = band[:, s:e]
        np.copyto(block, block.T, where=upper[: e - s, : e - s])
        band /= d
        if not absolute:
            band += 0.0  # b_tilde = 0 makes some u_k v_k products signed zeros
        yield band


def _inverse_grid(cfg: MatrixConfig) -> np.ndarray:
    """All n x n entries drained from ``_bands``; n > 2**14 raises DenseSizeError first."""
    import numpy as np

    require_dense_order(cfg.n)
    grid = np.empty((cfg.n, cfg.n))
    for _ in _bands(cfg, grid):
        pass
    return grid


def _inverse_solver(cfg: MatrixConfig, scale: float):
    """Factor the operator once; return ``solve(x, out=None)`` giving scale * A^{-1} x in O(n).

    For b = +2, A = T + beta (e1 e1^T + en en^T) with T = tridiag(-1, 2, -1)
    and beta = b_tilde - 2.  T^{-1} is applied through its LU factors, written
    as two prefix sums: w_k = sum_{j<=k} j x_j, then
    z_i = i * sum_{k>=i} w_k / (k (k+1)).  The corners are removed by
    y = z - c1 (n+1-i)/(n+1) - c2 i/(n+1), where (c1, c2) solves the symmetric
    2x2 capacitance system with m11 = 1 + beta n/(n+1), m12 = beta/(n+1),
    through its eigenvalues 1 + beta and 1 + beta (n-1)/(n+1).  Their product
    is the factored determinant delta, so the solve breaks down exactly at the
    two singular corners.  b = -2 goes through
    A_{-2}(bt)^{-1} = -D A_{+2}(-bt)^{-1} D, D = diag((-1)^i), with D, the
    sign and ``scale`` folded into precomputed weights.

    This is the LU order, so the solve is backward stable: the residual
    ||A y - x|| stays within a few eps of ||A|| ||y|| + ||x||, also near the
    singular corners.  The rank-one generator product u_min(i,j) v_max(i,j) / D
    is not: it loses digits on oscillating right-hand sides and near the
    corners.  ``solve`` reuses one internal buffer, so it is not reentrant.
    """
    import numpy as np

    require_nonsingular(cfg)
    n = cfg.n
    s1, s2 = cfg.singular_points()
    sign = cfg.sign
    beta = sign * cfg.b_tilde - 2.0
    # Eigenvalues of the capacitance matrix, on the eigenvectors (1, 1) and
    # (1, -1), each a multiple of the distance to one singular corner.
    q_sum = beta / (sign * (cfg.b_tilde - s1))
    q_diff = beta / (sign * (n - 1) / (n + 1) * (cfg.b_tilde - s2))
    k = np.arange(1.0, n + 1.0)
    mid = 1.0 / (k * (k + 1.0))
    if sign > 0:
        sigma = None
        pre = scale * k
        post = k
    else:
        sigma = _parity(np.arange(1, n + 1))
        pre = -scale * sigma * k
        post = sigma * k
    buf = np.empty(n)

    def solve(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(n)
        np.multiply(x, pre, out=buf)
        np.add.accumulate(buf, out=buf)
        np.multiply(buf, mid, out=buf)
        rev = buf[::-1]
        np.add.accumulate(rev, out=rev)
        z1, zn = float(buf[0]), n * float(buf[-1])
        c_sum, c_diff = q_sum * (z1 + zn), q_diff * (z1 - zn)
        c1 = 0.5 * (c_sum + c_diff)
        # y_i = i (s_i + (c1 - c2)/(n+1)) - c1 in the b = +2 frame.
        np.add(buf, c_diff / (n + 1), out=buf)
        np.multiply(buf, post, out=out)
        if sigma is None:
            out -= c1
        else:
            out -= np.multiply(sigma, c1, out=buf)
        return out

    return solve


def assemble_inverse(cfg: MatrixConfig, scaled: bool = False) -> InverseMatrix:
    """Materialize the full inverse from the closed-form entries (``_inverse_grid``).

    Exactly symmetric with no -0.0, centrosymmetric to rounding; n > 2**14 raises DenseSizeError.
    """
    require_nonsingular(cfg)
    entries = _inverse_grid(cfg)
    if scaled:
        entries /= -cfg.c_hat
    return InverseMatrix(n=cfg.n, entries=entries, source=CLOSED_FORM)
