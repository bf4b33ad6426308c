"""Exact scalar summaries and norm bounds for the inverse.

Row sums and the trace have closed forms; the exact infinity norm takes n^2/2
products and O(n) memory over the closed-form entries, with the mirrored rows
summed in their own order.  The lower / upper norm bounds implement the
published bound formulas with explicit branch selection on b_tilde.  The trace, the norm and the bounds for b = -2 are the b = +2 ones
at the mirrored corner (``config._plus_frame``); the b = -2 row-sum closed
forms, branch names and sign-pattern statement are kept as stated.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, NamedTuple

from .config import MatrixConfig, _plus_frame, require_dense_order, require_nonsingular
from .core import _bands, _parity
from .errors import UnsupportedCaseError

if TYPE_CHECKING:
    import numpy as np


class UpperBound(NamedTuple):
    value: float
    branch: str
    terms: dict[str, float]


def trace_inverse(cfg: MatrixConfig) -> float:
    """Exact trace of the inverse.

    Tr = n(n+2)/6 - 2*r*n / (3*(1+r)) + r*n / (3*(1+r)*(n+1+r*(n-1)))
    with r = b_tilde - 2 in the b = +2 frame (``config._plus_frame``); b = -2 returns
    0.0 - Tr, so an exact zero stays +0.0.  Nonsingularity guarantees 1 + r != 0.
    """
    require_nonsingular(cfg)
    bt, flip = _plus_frame(cfg)
    n, r = cfg.n, bt - 2.0
    t = n * (n + 2) / 6.0 - 2.0 * r * n / (3.0 * (1.0 + r)) + r * n / (
        3.0 * (1.0 + r) * (n + 1 + r * (n - 1)))
    return 0.0 - t if flip else t


def _rowsum(cfg: MatrixConfig, i):
    """Row sum at the 1-based row i, an integer or integer array; closed forms for b = +2 / -2."""
    n, bt = cfg.n, cfg.b_tilde
    if cfg.b == 2:
        return 0.5 * i * (n + 1 - i) - (n / 2.0) * (bt - 2.0) / (bt - 1.0)
    # beta here is b_tilde + 2; even and odd n have distinct closed forms.
    beta = bt + 2.0
    sign = _parity(i)
    if n % 2 == 0:
        variable = (beta * n - i * (beta + 1.0)) / (2.0 * (n + 1 - beta * (n - 1)))
    else:
        variable = beta / (2.0 * (1.0 - beta))
    return (sign - 1.0) / 4.0 + sign * variable


def rowsums(cfg: MatrixConfig) -> np.ndarray:
    """All n row sums of the inverse, from the closed forms for b = +2 / -2."""
    import numpy as np

    require_nonsingular(cfg)
    return _rowsum(cfg, np.arange(1, cfg.n + 1))


def rowsum(cfg: MatrixConfig, i: int) -> float:
    """Row sum of row i (1-based) of the inverse, in O(1): the expression ``rowsums`` evaluates."""
    i = operator.index(i)
    if not 1 <= i <= cfg.n:
        raise IndexError(f"row index must lie in 1..{cfg.n}, got {i}")
    require_nonsingular(cfg)
    return _rowsum(cfg, i)


def rowsum_bounds(cfg: MatrixConfig) -> tuple[float, float]:
    """Lower and upper bounds valid for every row sum; b = 2 only.

        n / (2*(b_tilde-1))  <=  rowsum_i  <=  (n+1)^2/8 - n*(b_tilde-2)/(2*(b_tilde-1))

    The lower bound is attained at the first and last row.
    """
    if cfg.b != 2:
        raise UnsupportedCaseError("row-sum bounds are stated for b = +2 only")
    require_nonsingular(cfg)
    n, bt = cfg.n, cfg.b_tilde
    lower = n / (2.0 * (bt - 1.0))
    upper = (n + 1) ** 2 / 8.0 - n * (bt - 2.0) / (2.0 * (bt - 1.0))
    return lower, upper


def sign_pattern(cfg: MatrixConfig) -> np.ndarray:
    """Predicted signs of the inverse as an n x n int8 array; b = 2, b_tilde <= 0, n <= 2**14.

    b_tilde < 0: +1 on the interior block {2..n-1}^2 and at the two
    antidiagonal corners (1,n), (n,1); -1 elsewhere.

    b_tilde = 0: rows/columns 2 and n-1 vanish except next to the corners,
    the +1 block shrinks to {3..n-2}^2, and the remaining frame is -1.
    """
    import numpy as np

    if cfg.b != 2 or cfg.b_tilde > 0:
        raise UnsupportedCaseError("sign pattern is stated for b = +2 with b_tilde <= 0")
    require_nonsingular(cfg)
    require_dense_order(cfg.n)
    n = cfg.n
    pattern = -np.ones((n, n), dtype=np.int8)
    if cfg.b_tilde < 0:
        pattern[1 : n - 1, 1 : n - 1] = 1
        pattern[0, n - 1] = pattern[n - 1, 0] = 1
    else:
        pattern[2 : n - 2, 2 : n - 2] = 1
        pattern[0, n - 1] = pattern[n - 1, 0] = 1
        pattern[1, :] = pattern[n - 2, :] = 0
        pattern[:, 1] = pattern[:, n - 2] = 0
        pattern[0, 1] = pattern[1, 0] = -1
        pattern[n - 2, n - 1] = pattern[n - 1, n - 2] = -1
    return pattern


def exact_infinity_norm(cfg: MatrixConfig) -> float:
    """Max absolute row sum of the inverse from n^2/2 products; n > 2**14 raises DenseSizeError.

    The top ceil(n/2) rows of |entries| come one band at a time from ``core._bands``, so
    memory is O(n).  Row n+1-i is row i summed through a reversed view, in its own order,
    so numpy's pairwise summation gives the bits of the full grid's row sums.
    """
    require_nonsingular(cfg)
    require_dense_order(cfg.n)
    best, mirrored = 0.0, cfg.n // 2  # odd n: the middle row is its own mirror
    for band in _bands(cfg, absolute=True):
        best = max(best, band.sum(axis=1).max(), band[:mirrored, ::-1].sum(axis=1).max(initial=0.0))
        mirrored -= len(band)
    return float(best)


def lower_bound(cfg: MatrixConfig) -> float:
    """Lower bound on the infinity norm of the inverse.

    L = max{ |n(n-2)/8 - n/(2(1-b_tilde))|, |n/(2(1-b_tilde))| } for b = 2;
    for b = -2 the same value at the mirrored corner (``config._plus_frame``).
    """
    require_nonsingular(cfg)
    n = cfg.n
    bt, _ = _plus_frame(cfg)
    half = n / (2.0 * (1.0 - bt))
    return max(abs(n * (n - 2) / 8.0 - half), abs(half))


_BRANCHES_B2 = (
    "btilde_gt_1",
    "nm2_le_btilde_lt_1",
    "nm3_lt_btilde_lt_nm2",
    "0_lt_btilde_lt_nm3",
    "btilde_le_0",
)
_BRANCHES_BM2 = (
    "btilde_lt_m1",
    "m1_lt_btilde_le_mnm2",
    "mnm2_lt_btilde_lt_mnm3",
    "mnm3_lt_btilde_lt_0",
    "btilde_ge_0",
)


def upper_bound(cfg: MatrixConfig) -> UpperBound:
    """Upper bound on the infinity norm, with branch id and named intermediates.

    The five regimes are stated for b = +2 and evaluated at the corner of
    ``config._plus_frame``; the b = -2 intervals are their mirror images.  Branch
    endpoints: b_tilde equal to (n-2)/(n-1) takes the linear branch, b_tilde = 0
    the max{S, T} branch.  For n >= 9 and b_tilde <= 0 max{S, T} collapses to S.
    """
    require_nonsingular(cfg)
    n = cfg.n
    bt, flip = _plus_frame(cfg)
    names = _BRANCHES_BM2 if flip else _BRANCHES_B2
    gamma = (2.0 - bt) / (1.0 - bt)
    if bt > 1.0:
        return UpperBound((n + 1) ** 2 / 8.0 - n * gamma / 2.0, names[0], {})
    if bt >= (n - 2) / (n - 1):
        return UpperBound(n * (gamma - 1.0) / 2.0, names[1], {})
    if bt > (n - 3) / (n - 1):
        P = n * (1.0 - gamma) / 2.0 + (gamma - 1.0) ** 2 * (gamma + 1.0) / (2.0 * gamma - n - 1)
        Q = n * (gamma - 1.0) / 2.0 + gamma / (2.0 * gamma - n - 1) * (n + 1) ** 2 / 16.0 + 0.5
        return UpperBound(max(P, Q), names[2], {"P": P, "Q": Q})
    if bt > 0.0:
        P = n * (1.0 - gamma) / 2.0 + (gamma - 1.0) ** 2 * (gamma + 1.0) / (2.0 * gamma - n - 1)
        R = (n + 1) ** 2 / 8.0 - gamma * ((n + 1) / 2.0 - gamma)
        return UpperBound(max(-P, R), names[3], {"P": P, "R": R})
    S = (n + 1) ** 2 / 8.0 + (4.0 - n * (2.0 - bt)) / (2.0 * (1.0 - bt))
    T = (1.0 / (1.0 - bt)) * (n / 2.0 + 2.0 / ((n - 1) * (1.0 - bt) - 2.0))
    return UpperBound(max(S, T), names[4], {"S": S, "T": T})
