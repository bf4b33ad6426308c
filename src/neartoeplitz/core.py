"""Closed-form entries of the inverse and full-inverse assembly.

All index arguments are 1-based, matching the usual statement of the entry
formulas.  Formulas are written for the lower triangle (i >= j) in the b = +2
frame that ``MatrixConfig`` carries; symmetry swaps indices, the frame flips b = -2.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

from .config import InverseMatrix, MatrixConfig, _parity, require_dense_order

if TYPE_CHECKING:
    import numpy as np

#: Rows per band of the grid; a band of 64 rows at n = 3000 is 1.5 MB.
_BAND = 64
#: Inverses of at least this many bytes (n >= 1024) get their own mapping (``_empty_square``).
_MAPPED_BYTES = 8 << 20


def near_toeplitz_inverse_entry(cfg: MatrixConfig, i: int, j: int) -> float:
    """Entry (i, j) of the inverse of the normalized matrix; b_tilde = b is Toeplitz.

    With r = sgn(b)*b_tilde - 2 = 2*(b_tilde - b)/b, the lower-triangle entry is

        (2/b)^(i+1-j) * (j*(1+r) - r) * ((n+1-i)*(1+r) - r)
                      / ((1+r) * (n+1 + r*(n-1))).

    The inverse of -c_hat A is this divided by -c_hat, as the CLI's ``entry`` and
    ``invert`` print it.

    Raises IndexError for indices outside 1..n.
    """
    n = cfg.n
    if not (1 <= operator.index(i) <= n and 1 <= operator.index(j) <= n):
        raise IndexError(f"indices must lie in 1..{n}, got (i={i}, j={j})")
    if i < j:
        i, j = j, i
    r, r1 = cfg._r, cfg._r1
    # u_j v_i / D as ``assemble_inverse`` computes it, + 0.0 too: an entry has the grid's bits.
    value = (j * r1 - r) * ((n + 1 - i) * r1 - r) / cfg._d
    return (-value if cfg._flip and (i + 1 - j) % 2 else value) + 0.0


def _inverse_solver(cfg: MatrixConfig, scale: float):
    """Factor the operator once; return the input weights ``pre`` and the in-place ``back``.

    ``back(pre * x)`` is scale * A^{-1} x in O(n), written over its argument.  The
    weights are scale * i, or -scale (-1)^i i for b = -2, so a caller may weight x itself.

    For b = +2, A = T + beta (e1 e1^T + en en^T) with T = tridiag(-1, 2, -1)
    and beta = b_tilde - 2.  T^{-1} is applied through its LU factors, written
    as two prefix sums: w_k = sum_{j<=k} j x_j, then
    z_i = i * sum_{k>=i} w_k / (k (k+1)).  The corners are removed by
    y = z - c1 (n+1-i)/(n+1) - c2 i/(n+1), where (c1, c2) solves the symmetric
    2x2 capacitance system with m11 = 1 + beta n/(n+1), m12 = beta/(n+1),
    through its eigenvalues 1 + beta and 1 + beta (n-1)/(n+1), formed here from
    the corner gaps b_tilde - 1 and b_tilde - (n-3)/(n-1).  Their product is the
    factored determinant delta, which vanishes only at the two singular corners
    that no config admits.  b = -2 goes through the config's b = +2 frame, with
    -S and ``scale`` folded into the weights before and S into those after.

    This is the LU order, so the solve is backward stable: the residual
    ||A y - x|| stays within a few eps of ||A|| ||y|| + ||x||, also near the
    singular corners.  The rank-one generator product u_min(i,j) v_max(i,j) / D
    is not: it loses digits on oscillating right-hand sides and near the
    corners.  ``back`` works in its argument alone, so it is reentrant.
    """
    import numpy as np

    n, beta, flip = cfg.n, cfg._r, cfg._flip
    g1, g2 = cfg._bt - 1.0, cfg._bt - (n - 3) / (n - 1)
    # beta over the eigenvalues of the capacitance matrix, on the eigenvectors
    # (1, 1) and (1, -1); each eigenvalue is a multiple of one corner gap.
    q_sum = beta / g1
    q_diff = beta / ((n - 1) / (n + 1) * g2)
    post = np.arange(1.0, n + 1.0)
    mid = post + 1.0
    mid *= post
    np.divide(1.0, mid, out=mid)
    pre = post * scale
    if flip:  # pre = -scale (-1)^i i and post = (-1)^i i, built in place
        np.negative(pre[1::2], out=pre[1::2])
        np.negative(post[::2], out=post[::2])

    def back(out: np.ndarray) -> np.ndarray:
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

    return pre, back


def _empty_square(n: int) -> np.ndarray:
    """An uninitialized n x n float array; in its own anonymous mapping when large.

    glibc malloc raises its mmap threshold to the size of each mapped block it frees (up
    to 32 MB), so dense inverses of varying order end up sharing the heap, and how much
    of it freed ones leave resident depends on the small blocks allocated around them.
    A mapping is unmapped when the array dies, so peak memory no longer depends on that
    layout.  Its pages are faulted in fresh on every call; below ``_MAPPED_BYTES`` that
    costs a large share of the assembly, so smaller arrays come from numpy as usual.
    """
    import numpy as np

    if n * n * 8 < _MAPPED_BYTES:
        return np.empty((n, n))
    import mmap

    if not hasattr(mmap, "MAP_ANONYMOUS"):  # Windows
        return np.empty((n, n))
    buf = mmap.mmap(-1, n * n * 8, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)  # as numpy does for its own arrays of 4 MB and up
    return np.frombuffer(buf).reshape(n, n)


def assemble_inverse(cfg: MatrixConfig) -> InverseMatrix:
    """Materialize the full inverse; n > 2**14 raises DenseSizeError.

    The top ceil(n/2) rows get s_ij u_min(i,j) v_max(i,j) / D and row n+1-i is row i
    reversed, so the result is exactly symmetric and centrosymmetric.  For b = -2 the
    parity (-1)^(i+1-j) = -(-1)^i (-1)^j is folded into u and v.  Bands of _BAND rows are
    divided by D in cache, with no -0.0, and each diagonal block mirrors its lower part.
    Only a zero generator (u_k = 0 at sgn(b) b_tilde = (k-2)/(k-1)) gives zero entries,
    -0.0 where D < 0, so only then does the + 0.0 pass run: the other products are nonzero,
    and the ``MatrixConfig`` ranges keep them from underflowing.
    """
    import numpy as np

    require_dense_order(cfg.n)
    n, r, r1, d, h = cfg.n, cfg._r, cfg._r1, cfg._d, (cfg.n + 1) // 2
    entries = _empty_square(n)
    k = np.arange(1, n + 1, dtype=float)
    u, v = k * r1 - r, (n + 1 - k) * r1 - r  # the generators u_k and v_k = u_{n+1-k}
    signed_zeros = not u.all()
    if cfg._flip:
        sigma = _parity(np.arange(1, n + 1))
        u *= sigma
        v *= -sigma
    upper = ~np.tri(_BAND, dtype=bool)
    for s in range(0, h, _BAND):
        e = min(s + _BAND, h)
        band = entries[s:e]
        np.einsum("i,j->ij", v[s:e], u[:e], out=band[:, :e])
        np.einsum("i,j->ij", u[s:e], v[e:], out=band[:, e:])
        block = band[:, s:e]
        np.copyto(block, block.T, where=upper[: e - s, : e - s])
        band /= d
        if signed_zeros:
            band += 0.0
    entries[h:] = entries[: n - h][::-1, ::-1]
    return InverseMatrix(entries)
