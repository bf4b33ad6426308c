"""Exact scalar summaries and norm bounds for the inverse.

Row sums and the trace have closed forms; the exact infinity norm is one O(n) pass in Python
integers, rounded once, in O(1) memory.  The sign pattern is n row tuples, at most five of them
distinct objects, in O(n) memory; only ``rowsums`` builds a numpy array.  The lower / upper
bounds implement the published formulas with explicit branch selection on b_tilde.  The trace,
the norm and the bounds for b = -2 are the b = +2 ones at the mirrored corner (the config's
b = +2 frame); the b = -2 row-sum closed forms, branch names and sign-pattern statement are
kept as stated.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, NamedTuple

from .config import MatrixConfig, require_dense_order, require_vector_order
from .core import _parity
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
    with r = b_tilde - 2 in the config's b = +2 frame; b = -2 returns 0.0 - Tr, so an
    exact zero stays +0.0.  A config is nonsingular, so 1 + r != 0.
    """
    n, r, r1 = cfg.n, cfg._r, cfg._r1
    t = n * (n + 2) / 6.0 - 2.0 * r * n / (3.0 * r1) + r * n / (3.0 * r1 * (n + 1 + r * (n - 1)))
    return 0.0 - t if cfg._flip else t


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
    """All n row sums of the inverse, from the closed forms for b = +2 / -2; n > 2**28 raises
    DenseSizeError."""
    require_vector_order(cfg.n)
    import numpy as np

    return _rowsum(cfg, np.arange(1, cfg.n + 1))


def rowsum(cfg: MatrixConfig, i: int) -> float:
    """Row sum of row i (1-based) of the inverse, in O(1): the expression ``rowsums`` evaluates."""
    i = operator.index(i)
    if not 1 <= i <= cfg.n:
        raise IndexError(f"row index must lie in 1..{cfg.n}, got {i}")
    return _rowsum(cfg, i)


def rowsum_bounds(cfg: MatrixConfig) -> tuple[float, float]:
    """Lower and upper bounds valid for every row sum; b = 2 only.

        n / (2*(b_tilde-1))  <=  rowsum_i  <=  (n+1)^2/8 - n*(b_tilde-2)/(2*(b_tilde-1))

    The lower bound is attained at the first and last row.
    """
    if cfg.b != 2:
        raise UnsupportedCaseError("row-sum bounds are stated for b = +2 only")
    n, bt = cfg.n, cfg.b_tilde
    lower = n / (2.0 * (bt - 1.0))
    upper = (n + 1) ** 2 / 8.0 - n * (bt - 2.0) / (2.0 * (bt - 1.0))
    return lower, upper


def sign_pattern(cfg: MatrixConfig) -> tuple[tuple[int, ...], ...]:
    """Predicted signs of the inverse as n rows of n ints; b = 2, b_tilde <= 0, n <= 2**14.

    b_tilde < 0: +1 on the interior block {2..n-1}^2 and at the two
    antidiagonal corners (1,n), (n,1); -1 elsewhere.

    b_tilde = 0: rows/columns 2 and n-1 vanish except next to the corners,
    the +1 block shrinks to {3..n-2}^2, and the remaining frame is -1.  Both are constant on
    the blocks of {1}, {2}, {3..n-2}, {n-1}, {n}; the rows in {3..n-2} are one object.
    """
    if cfg.b != 2 or cfg.b_tilde > 0:
        raise UnsupportedCaseError("sign pattern is stated for b = +2 with b_tilde <= 0")
    require_dense_order(cfg.n)
    if cfg.b_tilde < 0:
        blocks = ((-1, -1, -1, -1, 1),) + ((-1, 1, 1, 1, -1),) * 3 + ((1, -1, -1, -1, -1),)
    else:
        blocks = ((-1, -1, -1, 0, 1), (-1, 0, 0, 0, 0), (-1, 0, 1, 0, -1), (0, 0, 0, 0, -1),
                  (1, 0, -1, -1, -1))

    def widen(first, second, mid, before_last, last):
        return (first, second) + (mid,) * (cfg.n - 4) + (before_last, last)

    return widen(*(widen(*block) for block in blocks))


def exact_infinity_norm(cfg: MatrixConfig) -> float:
    """Max absolute row sum of the inverse, exact and rounded once; n > 2**14 raises DenseSizeError.

    In the b = +2 frame (|A_{-2}(b_tilde)^{-1}| is |A_{+2}(-b_tilde)^{-1}| entrywise), b_tilde =
    num/den makes U_j = den u_j = j a - c and den^2 D = a ((n+1) den + c (n-1)) integers, and so
    row i's scaled sum |U_{n+1-i}| sum_{j<=i} |U_j| + |U_i| sum_{j<=n-i} |U_j|.  One O(n) pass over
    the top ceil(n/2) rows (the inverse is centrosymmetric) carries both sums; the cap bounds it,
    and int / int division rounds the max correctly.
    """
    require_dense_order(cfg.n)
    n = cfg.n
    num, den = cfg._bt.as_integer_ratio()
    a, c = num - den, num - 2 * den
    rising, falling, best = 0, sum(abs(j * a - c) for j in range(1, n + 1)), 0
    for i in range(1, (n + 1) // 2 + 1):
        u, v = abs(i * a - c), abs((n + 1 - i) * a - c)  # |U_i|, |U_{n+1-i}|
        rising, falling = rising + u, falling - v
        best = max(best, v * rising + u * falling)
    return best / abs(a * ((n + 1) * den + c * (n - 1)))


def lower_bound(cfg: MatrixConfig) -> float:
    """Lower bound on the infinity norm of the inverse.

    L = max{ |n(n-2)/8 - n/(2(1-b_tilde))|, |n/(2(1-b_tilde))| } for b = 2;
    for b = -2 the same value at the mirrored corner of the config's b = +2 frame.
    """
    n, bt = cfg.n, cfg._bt
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

    The five regimes are stated for b = +2 and evaluated at the corner of the
    config's b = +2 frame; the b = -2 intervals are their mirror images.  Branch
    endpoints: b_tilde equal to (n-2)/(n-1) takes the linear branch, b_tilde = 0
    the max{S, T} branch.  For n >= 9 and b_tilde <= 0 max{S, T} collapses to S.
    """
    n, bt = cfg.n, cfg._bt
    names = _BRANCHES_BM2 if cfg._flip else _BRANCHES_B2
    gamma = (2.0 - bt) / (1.0 - bt)
    if bt > 1.0:
        return UpperBound((n + 1) ** 2 / 8.0 - n * gamma / 2.0, names[0], {})
    if bt >= (n - 2) / (n - 1):
        return UpperBound(n * (gamma - 1.0) / 2.0, names[1], {})
    if bt > 0.0:  # (n-3)/(n-1) > 0 for n >= 4, so P serves both middle branches
        P = n * (1.0 - gamma) / 2.0 + (gamma - 1.0) ** 2 * (gamma + 1.0) / (2.0 * gamma - n - 1)
        if bt > (n - 3) / (n - 1):
            Q = n * (gamma - 1.0) / 2.0 + gamma / (2.0 * gamma - n - 1) * (n + 1) ** 2 / 16.0 + 0.5
            return UpperBound(max(P, Q), names[2], {"P": P, "Q": Q})
        R = (n + 1) ** 2 / 8.0 - gamma * ((n + 1) / 2.0 - gamma)
        return UpperBound(max(-P, R), names[3], {"P": P, "R": R})
    S = (n + 1) ** 2 / 8.0 + (4.0 - n * (2.0 - bt)) / (2.0 * (1.0 - bt))
    T = (1.0 / (1.0 - bt)) * (n / 2.0 + 2.0 / ((n - 1) * (1.0 - bt) - 2.0))
    return UpperBound(max(S, T), names[4], {"S": S, "T": T})
