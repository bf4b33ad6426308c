"""Matrix configuration, carrying its b = +2 frame; singularity detection.

The library works on the normalized operator: an n x n symmetric tridiagonal
matrix with constant diagonal ``b`` (|b| = 2), off-diagonals -1, and both
corner diagonal entries replaced by ``b_tilde``; (n, b, b_tilde) fix it.  A
``MatrixConfig`` derives its b = +2 frame (the mirrored corner, r, 1 + r, the generators'
denominator D, the two corner gaps and the one singular flag) once, at construction, and the
closed forms and the singularity report read those fields.  The scaling ``c_hat`` of -c_hat A
belongs to the BVP and to the CLI's ``entry`` and ``invert``, which check it with ``_c_hat``.
"""

from __future__ import annotations

import math
import operator

from .errors import DenseSizeError, SingularMatrixError

#: Half-width of the singular neighborhoods on the b_tilde axis.
SINGULARITY_TOL = 1e-10
#: Largest order: above 2**53, n - i is not an exact float.
_MAX_ORDER = 2**53
#: Largest order of an n x n result: one float64 array at the cap takes 2 GiB.
_MAX_DENSE_ORDER = 2**14
#: Largest |b_tilde|: (2**53 * 2**400)**2 < 2**1024, so no generator product, determinant
#: or bound term overflows at any admitted order.
_MAX_CORNER = 2.0**400
#: Largest |c_hat| and 1/|c_hat|: outside the singular neighborhoods an entry stays far
#: below 2**100 at any admitted order, so dividing it by -c_hat stays finite and nonzero.
_MAX_SCALE = 2.0**400


#: The published tables that ``reproduce`` recomputes (``tables.reproduce``).
TABLE_IDS = ("fig2_table", "fig3_table", "table5", "table6")


def _real(value) -> float:
    """``value`` as a Python float, so that a numpy scalar is range-checked and computed in
    float64.  An int beyond the float range becomes an infinity of its sign, which the range
    checks refuse; a str raises TypeError, as any other non-number does."""
    if isinstance(value, (str, bytes, bytearray)):
        raise TypeError(f"expected a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _c_hat(value) -> float:
    """The scaling c_hat of -c_hat A as a float; ValueError unless 2**-400 <= |c_hat| <= 2**400."""
    scale = _real(value)
    if not 1 / _MAX_SCALE <= abs(scale) <= _MAX_SCALE:
        raise ValueError(f"scaling |c_hat| must lie in [2**-400, 2**400], got {value!r}")
    return scale


class MatrixConfig:
    """The triple (n, b, b_tilde) defining the normalized operator, and its b = +2 frame.

    n       : matrix order, 4..2**53; any integer type (``operator.index``)
    b       : Toeplitz diagonal after normalization, +2 or -2 of any number type; stored as an int
    b_tilde : corner diagonal after normalization, |b_tilde| <= 2**400 (beyond it the
              closed forms overflow; NaN and infinities are refused too); stored as a float

    Immutable; ``==``, ``hash``, ``repr``, ``copy`` and ``pickle`` see these three fields only.
    The frame is derived from them once: A_{-2}(b_tilde)^{-1} = -S A_{+2}(-b_tilde)^{-1} S
    with S = diag((-1)^i), so the closed forms work at b = +2 on ``_bt`` = sgn(b) b_tilde,
    with ``_r`` = _bt - 2 (the same float as 2 (b_tilde - b) / b, since scaling by 2 and
    negation are exact), ``_r1`` = 1 + r and ``_d`` = D = (1 + r)(n + 1 + r (n - 1)), and
    flip once at the output when ``_flip`` (b = -2): entry (i, j) by -(-1)^(i+j), the
    trace by negation.  Numeric code reads b only here.  ``_gaps`` = b_tilde - (s1, s2), the
    ``singular_points()``, in this frame (negate both for b = +2 when ``_flip``: exact), and
    ``_singular``, the one singularity decision, is min |gap| <= ``SINGULARITY_TOL``.
    """

    __slots__ = ("n", "b", "b_tilde", "_bt", "_flip", "_r", "_r1", "_d", "_gaps", "_singular")

    def __init__(self, n: int, b: int, b_tilde: float):
        try:
            order = operator.index(n)
        except TypeError:
            order = None
        if order is None or not 4 <= order <= _MAX_ORDER:
            raise ValueError(f"matrix order must be an integer in 4..2**53, got {n!r}")
        if b not in (2, -2):
            raise ValueError(f"diagonal b must be +2 or -2, got {b!r}")
        corner = _real(b_tilde)
        if not abs(corner) <= _MAX_CORNER:
            raise ValueError(f"corner value must lie in [-2**400, 2**400], got {b_tilde!r}")
        bt, flip, s = (-corner, True, -1) if b < 0 else (corner, False, 1)
        r, gaps = bt - 2.0, (corner - s, corner - s * (order - 3) / (order - 1))
        frame = (order, -2 if flip else 2, corner, bt, flip, r, 1.0 + r,
                 (1.0 + r) * (order + 1 + r * (order - 1)), gaps,
                 min(abs(gaps[0]), abs(gaps[1])) <= SINGULARITY_TOL)
        for name, value in zip(self.__slots__, frame):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return self.n, self.b, self.b_tilde

    def __setattr__(self, name, value=None):
        raise AttributeError(f"MatrixConfig is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "MatrixConfig(n={!r}, b={!r}, b_tilde={!r})".format(*self._fields())

    def __reduce__(self):
        return MatrixConfig, self._fields()

    def singular_points(self) -> tuple[float, float]:
        """The two corner values at which the matrix is singular, sgn(b) (1, (n-3)/(n-1))."""
        s = 1 if self.b > 0 else -1
        return (s * 1.0, s * (self.n - 3) / (self.n - 1))


def is_singular(cfg: MatrixConfig) -> bool:
    """True when b_tilde lies within ``SINGULARITY_TOL`` of either singular corner value."""
    return cfg._singular


def singularity_report(cfg: MatrixConfig) -> dict:
    """The decision and, from the config's gaps, what it rests on: ``distance`` (answers at
    any other tolerance) and ``delta`` = (n-1)/(n+1) (b_tilde - s1)(b_tilde - s2), the factored
    determinant, stable near the roots.  ``delta_test`` repeats ``singular`` only because
    ``bench/workloads.py`` reads that key; it goes once the benchmark stops reading it."""
    g1, g2 = cfg._gaps
    return {
        "singular_points": list(cfg.singular_points()),
        "distance": min(abs(g1), abs(g2)),
        "delta": (cfg.n - 1) / (cfg.n + 1) * g1 * g2,
        "singular": cfg._singular,
        "delta_test": cfg._singular,
    }


def require_nonsingular(cfg: MatrixConfig) -> None:
    """Raise :class:`SingularMatrixError` for configurations within ``SINGULARITY_TOL``."""
    if cfg._singular:
        s1, s2 = cfg.singular_points()
        raise SingularMatrixError(
            f"corner value {cfg.b_tilde} is within {SINGULARITY_TOL} of a singular point "
            f"({s1} or {s2:.17g}) at n={cfg.n}, b={cfg.b}"
        )


def require_dense_order(n: int) -> None:
    """Raise :class:`DenseSizeError` for orders above the cap, before the capped work starts."""
    if n > _MAX_DENSE_ORDER:
        raise DenseSizeError(f"order {n} is above {_MAX_DENSE_ORDER}, the cap on n x n arrays, "
                             "the sign pattern and the exact norm's pass")
