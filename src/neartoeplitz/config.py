"""Matrix configuration, carrying its b = +2 frame; singularity detection; what modules share.

The library works on the normalized operator: an n x n symmetric tridiagonal
matrix with constant diagonal ``b`` (|b| = 2), off-diagonals -1, and both
corner diagonal entries replaced by ``b_tilde``; (n, b, b_tilde) fix it.  One validator,
``_triple``, checks a triple and measures its distance to the two singular corners.  A
``MatrixConfig`` refuses a singular triple and derives its b = +2 frame (the mirrored corner,
r, 1 + r, the generators' denominator D) once; the closed forms read it, and the O(n) solve
forms the corner gaps from it.  ``singularity_report`` answers for any valid triple.  The
scaling ``c_hat`` of -c_hat A belongs to the BVP and to the CLI's ``entry`` and ``invert``,
which check it with ``_c_hat``.  ``core``, ``analysis`` and ``oracle`` share this module and
``errors`` only: here are also the size caps, the frame's parity sign ``_parity`` and the type
of both dense inverses, ``InverseMatrix``, so the oracle loads no closed-form code.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, NamedTuple

from .errors import DenseSizeError, SingularMatrixError

if TYPE_CHECKING:
    import numpy as np

#: Half-width of the singular neighborhoods on the b_tilde axis.
SINGULARITY_TOL = 1e-10
#: Largest order: above 2**53, n - i is not an exact float.
_MAX_ORDER = 2**53
#: Largest order of an n x n result: one float64 array at the cap takes 2 GiB.
_MAX_DENSE_ORDER = 2**14
#: Largest order of an n-vector result or work array: the same 2 GiB per float64 array.
_MAX_VECTOR_ORDER = _MAX_DENSE_ORDER**2
#: Largest |b_tilde|: (2**53 * 2**400)**2 < 2**1024, so no generator product, determinant
#: or bound term overflows at any admitted order.
_MAX_CORNER = 2.0**400
#: Largest |c_hat| and 1/|c_hat|: outside the singular neighborhoods an entry stays far
#: below 2**100 at any admitted order, so dividing it by -c_hat stays finite and nonzero.
_MAX_SCALE = 2.0**400


#: The published tables that ``reproduce`` recomputes (``tables.reproduce``).
TABLE_IDS = ("fig2_table", "fig3_table", "table5", "table6")


class InverseMatrix(NamedTuple):
    """The n x n inverse that ``assemble_inverse`` and ``reference_inverse`` return; its one
    field, ``entries``, is what the benchmark reads."""

    entries: np.ndarray


def _parity(i):
    """(-1)^i at an integer or integer array i: the diagonal of S in ``MatrixConfig``'s frame."""
    return 1.0 - 2.0 * (i & 1)


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


def _triple(n, b, b_tilde) -> tuple:
    """Check (n, b, b_tilde) and return (order, b, corner, points, gaps, distance): the order as
    an int, b as the int +2 or -2, b_tilde as a float, the two singular corner values sgn(b) (1,
    (n-3)/(n-1)), the gaps b_tilde minus each, and the smaller |gap|.  A value out of range
    raises ValueError; the caller decides what the distance means."""
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
    s = 1 if b > 0 else -1
    points = (s * 1.0, s * (order - 3) / (order - 1))
    gaps = (corner - points[0], corner - points[1])
    return order, 2 * s, corner, points, gaps, min(abs(gaps[0]), abs(gaps[1]))


class MatrixConfig:
    """The triple (n, b, b_tilde) defining a nonsingular normalized operator, and its b = +2 frame.

    n       : matrix order, 4..2**53; any integer type (``operator.index``)
    b       : Toeplitz diagonal after normalization, +2 or -2 of any number type; stored as an int
    b_tilde : corner diagonal after normalization, |b_tilde| <= 2**400 (beyond it the
              closed forms overflow; NaN and infinities are refused too); stored as a float

    A value out of range raises ValueError.  A b_tilde within ``SINGULARITY_TOL`` of a singular
    corner, sgn(b) or sgn(b) (n-3)/(n-1), raises SingularMatrixError: there the inverse does not
    exist, so every config is nonsingular and no function that takes one checks again.

    Immutable; ``==``, ``hash``, ``repr``, ``copy`` and ``pickle`` see these three fields only.
    The frame is derived from them once: A_{-2}(b_tilde)^{-1} = -S A_{+2}(-b_tilde)^{-1} S
    with S = diag((-1)^i), so the closed forms work at b = +2 on ``_bt`` = sgn(b) b_tilde,
    with ``_r`` = _bt - 2 (the same float as 2 (b_tilde - b) / b, since scaling by 2 and
    negation are exact), ``_r1`` = 1 + r and ``_d`` = D = (1 + r)(n + 1 + r (n - 1)), and
    flip once at the output when ``_flip`` (b = -2): entry (i, j) by -(-1)^(i+j), the
    trace by negation.  The closed forms of ``core``, ``bvp``, the trace and the bounds read
    b only through this frame; in ``analysis`` only the b = -2 row sums (``_rowsum``) and the
    b = +2-only statements (``rowsum_bounds``, ``sign_pattern``) read ``.b``.  The corner gaps
    _bt - 1 and _bt - (n-3)/(n-1) are not stored: ``core._inverse_solver`` forms them.
    """

    __slots__ = ("n", "b", "b_tilde", "_bt", "_flip", "_r", "_r1", "_d")

    def __init__(self, n: int, b: int, b_tilde: float):
        order, b, corner, (s1, s2), _, distance = _triple(n, b, b_tilde)
        if distance <= SINGULARITY_TOL:
            raise SingularMatrixError(
                f"corner value {corner} is within {SINGULARITY_TOL} of a singular point "
                f"({s1} or {s2:.17g}) at n={order}, b={b}"
            )
        bt, flip = (-corner, True) if b < 0 else (corner, False)
        r = bt - 2.0
        store = object.__setattr__
        store(self, "n", order)
        store(self, "b", b)
        store(self, "b_tilde", corner)
        store(self, "_bt", bt)
        store(self, "_flip", flip)
        store(self, "_r", r)
        store(self, "_r1", 1.0 + r)
        store(self, "_d", (1.0 + r) * (order + 1 + r * (order - 1)))

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


def singularity_report(n: int, b: int, b_tilde: float) -> dict:
    """Whether (n, b, b_tilde) is singular, and what that rests on, for any valid triple (the
    ranges of ``MatrixConfig``): ``distance`` (answers at any other tolerance) and ``delta`` =
    (n-1)/(n+1) (b_tilde - s1)(b_tilde - s2), the factored determinant, stable near the roots.
    ``delta_test`` repeats ``singular`` only because ``bench/workloads.py`` reads that key; it
    goes once the benchmark stops reading it."""
    order, _, _, points, (g1, g2), distance = _triple(n, b, b_tilde)
    singular = distance <= SINGULARITY_TOL
    return {
        "singular_points": list(points),
        "distance": distance,
        "delta": (order - 1) / (order + 1) * g1 * g2,
        "singular": singular,
        "delta_test": singular,
    }


def require_dense_order(n: int) -> None:
    """Raise :class:`DenseSizeError` for orders above the cap, before the capped work starts."""
    if n > _MAX_DENSE_ORDER:
        raise DenseSizeError(f"order {n} is above {_MAX_DENSE_ORDER}, the cap on n x n arrays, "
                             "the sign pattern and the exact norm's pass")


def require_vector_order(n: int) -> None:
    """Raise :class:`DenseSizeError` for orders whose n-vectors exceed the per-array budget,
    before the first one is allocated."""
    if n > _MAX_VECTOR_ORDER:
        raise DenseSizeError(f"order {n} is above {_MAX_VECTOR_ORDER} (2**28), the cap on "
                             "n-vectors of float64, 2 GiB each")
