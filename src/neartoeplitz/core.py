"""Closed-form entries of the inverse and full-inverse assembly.

All index arguments are 1-based, matching the usual statement of the entry
formulas.  Formulas are written for the lower triangle (i >= j) in the b = +2
frame of ``config._plus_frame``; symmetry swaps indices, the frame flips b = -2.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import MatrixConfig, _plus_frame, require_dense_order, require_nonsingular

if TYPE_CHECKING:
    import numpy as np

CLOSED_FORM = "closed_form"
ORACLE = "oracle"

#: Rows per band of the grid; a band of 64 rows at n = 3000 is 1.5 MB.
_BAND = 64


@dataclass
class InverseMatrix:
    """A realized n x n inverse with provenance tag ('closed_form' or 'oracle')."""

    entries: np.ndarray
    source: str


def _generators(n: int, r: float, j, i):
    """(u_j, u_{n+1-i}, D) at corner ratio r, for scalar or array indices; v_i is u_{n+1-i}."""
    return j * (1.0 + r) - r, (n + 1 - i) * (1.0 + r) - r, (1.0 + r) * (n + 1 + r * (n - 1))


def _parity(i):
    """(-1)^i at an integer or integer array i: the diagonal of S in ``config._plus_frame``."""
    return 1.0 - 2.0 * (i & 1)


def near_toeplitz_inverse_entry(
    cfg: MatrixConfig, i: int, j: int, scaled: bool = False
) -> float:
    """Entry (i, j) of the inverse of the corner-perturbed matrix; b_tilde = b is Toeplitz.

    With r = sgn(b)*b_tilde - 2 = 2*(b_tilde - b)/b, the lower-triangle entry is

        (2/b)^(i+1-j) * (j*(1+r) - r) * ((n+1-i)*(1+r) - r)
                      / ((1+r) * (n+1 + r*(n-1))).

    ``scaled=True`` returns the entry of the inverse of the -c_hat multiple
    of the matrix, i.e. divides by -c_hat.

    Raises SingularMatrixError for singular configurations and IndexError for
    indices outside 1..n.
    """
    require_nonsingular(cfg)
    if not (1 <= operator.index(i) <= cfg.n and 1 <= operator.index(j) <= cfg.n):
        raise IndexError(f"indices must lie in 1..{cfg.n}, got (i={i}, j={j})")
    if i < j:
        i, j = j, i
    bt, flip = _plus_frame(cfg)
    u, v, d = _generators(cfg.n, bt - 2.0, j, i)
    value = u * v / d
    if flip and (i + 1 - j) % 2 == 1:
        value = -value
    if scaled:
        value /= -cfg.c_hat
    return value


def _bands(cfg: MatrixConfig, out: np.ndarray | None = None, absolute: bool = False):
    """Yield s_ij u_min(i,j) v_max(i,j) / D for the top ceil(n/2) rows, in bands of _BAND rows.

    Bands go into ``out`` or one buffer; row n+1-i is row i reversed, bit for bit.  For
    b = -2 the parity (-1)^(i+1-j) = -(-1)^i (-1)^j is folded into u and v; ``absolute``
    uses |u|, |v| and |D|, exact as IEEE rounding is sign-symmetric.  Bands are divided
    by D in cache, with no -0.0, and each diagonal block mirrors its lower part.  Only a
    zero generator (u_k = 0 at sgn(b) b_tilde = (k-2)/(k-1)) gives zero entries, -0.0
    where D < 0, so only then does the + 0.0 pass run: the other products are nonzero,
    and the ``MatrixConfig`` ranges keep them from underflowing.
    """
    import numpy as np

    n = cfg.n
    bt, flip = _plus_frame(cfg)
    k = np.arange(1, n + 1, dtype=float)
    u, v, d = _generators(n, bt - 2.0, k, k)
    signed_zeros = not absolute and not u.all()
    if absolute:
        u, v, d = np.abs(u), np.abs(v), abs(d)
    elif flip:
        sigma = _parity(np.arange(1, n + 1))
        u *= sigma
        v *= -sigma
    buf = np.empty((_BAND, n)) if out is None else None
    upper = ~np.tri(_BAND, dtype=bool)
    h = (n + 1) // 2
    for s in range(0, h, _BAND):
        e = min(s + _BAND, h)
        band = out[s:e] if buf is None else buf[: e - s]
        np.einsum("i,j->ij", v[s:e], u[:e], out=band[:, :e])
        np.einsum("i,j->ij", u[s:e], v[e:], out=band[:, e:])
        block = band[:, s:e]
        np.copyto(block, block.T, where=upper[: e - s, : e - s])
        band /= d
        if signed_zeros:
            band += 0.0
        yield band


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
    two singular corners.  b = -2 goes through ``config._plus_frame``, with
    -S and ``scale`` folded into the weights before and S into those after.

    This is the LU order, so the solve is backward stable: the residual
    ||A y - x|| stays within a few eps of ||A|| ||y|| + ||x||, also near the
    singular corners.  The rank-one generator product u_min(i,j) v_max(i,j) / D
    is not: it loses digits on oscillating right-hand sides and near the
    corners.  ``solve`` works in ``out`` alone, so it is reentrant, and ``x``
    may be ``out``: each entry of ``x`` is read before that entry of ``out``
    is written, and ``x`` is not read again.
    """
    import numpy as np

    require_nonsingular(cfg)
    n = cfg.n
    bt, flip = _plus_frame(cfg)
    beta = bt - 2.0
    # Eigenvalues of the capacitance matrix, on the eigenvectors (1, 1) and
    # (1, -1), each a multiple of the distance to one singular corner.
    q_sum = beta / (bt - 1.0)
    q_diff = beta / ((n - 1) / (n + 1) * (bt - (n - 3) / (n - 1)))
    post = np.arange(1.0, n + 1.0)
    mid = post + 1.0
    mid *= post
    np.divide(1.0, mid, out=mid)
    pre = post * scale
    if flip:  # pre = -scale (-1)^i i and post = (-1)^i i, built in place
        np.negative(pre[1::2], out=pre[1::2])
        np.negative(post[::2], out=post[::2])

    def solve(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply(x, pre, out=out)
        np.add.accumulate(out, out=out)
        out *= mid
        rev = out[::-1]
        np.add.accumulate(rev, out=rev)
        z1, zn = float(out[0]), n * float(out[-1])
        c_sum, c_diff = q_sum * (z1 + zn), q_diff * (z1 - zn)
        c1 = 0.5 * (c_sum + c_diff)
        # y_i = i (s_i + (c1 - c2)/(n+1)) - c1 in the b = +2 frame.
        out += c_diff / (n + 1)
        out *= post
        if flip:
            out[::2] += c1
            out[1::2] -= c1
        else:
            out -= c1
        return out

    return solve


def assemble_inverse(cfg: MatrixConfig, scaled: bool = False) -> InverseMatrix:
    """Materialize the full inverse: the top ceil(n/2) rows from ``_bands``, the rest reversed.

    Exactly symmetric and centrosymmetric with no -0.0; n > 2**14 raises DenseSizeError.
    """
    import numpy as np

    require_nonsingular(cfg)
    require_dense_order(cfg.n)
    n, h = cfg.n, (cfg.n + 1) // 2
    entries = np.empty((n, n))
    for _ in _bands(cfg, entries):
        pass
    if scaled:
        entries[:h] /= -cfg.c_hat
    entries[h:] = entries[: n - h][::-1, ::-1]
    return InverseMatrix(entries=entries, source=CLOSED_FORM)
