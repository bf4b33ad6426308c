"""Shared sweep grid and cached reference data for the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from neartoeplitz import (
    BvpResult,
    DivergenceError,
    MatrixConfig,
    PivotBreakdownError,
    assemble_inverse,
    build_matrix,
    exact_infinity_norm,
    expected_rate,
    is_singular,
    reference_inverse,
)
from neartoeplitz.config import _delta_factored, require_nonsingular
from neartoeplitz.core import _parity
from neartoeplitz.oracle import PIVOT_RTOL

SWEEP_N = range(4, 31)
SWEEP_B = (2, -2)
SAMPLES_PER_N = 60
EXCLUSION = 1e-6


def btilde_samples(n: int, b: int, count: int = SAMPLES_PER_N) -> np.ndarray:
    """Deterministic corner-value grid on [-8, 8].

    Values landing inside the EXCLUSION neighborhood of a singular point are
    nudged just outside it.
    """
    sign = 1.0 if b > 0 else -1.0
    singular = np.array([sign, sign * (n - 3) / (n - 1)])
    pts = np.linspace(-8.0, 8.0, count)
    out = []
    for p in pts:
        while np.min(np.abs(p - singular)) < EXCLUSION:
            p += 3.0 * EXCLUSION
        out.append(p)
    return np.array(out)


def sweep_configs():
    """Every (cfg) of the canonical acceptance sweep."""
    for n in SWEEP_N:
        for b in SWEEP_B:
            for bt in btilde_samples(n, b):
                yield MatrixConfig(n=n, b=b, b_tilde=float(bt))


@lru_cache(maxsize=None)
def oracle_entries(n: int, b: int, bt: float) -> np.ndarray:
    """Cached dense reference inverse."""
    cfg = MatrixConfig(n=n, b=b, b_tilde=bt)
    return reference_inverse(build_matrix(cfg)).entries


@lru_cache(maxsize=None)
def closed_form_entries(n: int, b: int, bt: float) -> np.ndarray:
    """Cached closed-form inverse."""
    cfg = MatrixConfig(n=n, b=b, b_tilde=bt)
    return assemble_inverse(cfg).entries


#: Half-width of the rounding window of a corner value printed to two decimals.
PRINTED_HALF_WIDTH = 0.005
WINDOW_POINTS = 201
BISECTION_STEPS = 60


def fit_printed_corner(n: int, b: int, bt: float, published_norm: float) -> float:
    """Corner value in [bt - 0.005, bt + 0.005] whose exact norm best fits a published cell.

    The published norm/bound tables print b_tilde to two decimals but were
    computed from unrounded corner values.  The closed window is scanned at
    WINDOW_POINTS evenly spaced points (points flagged by ``is_singular`` are
    skipped); every bracket where ``exact_infinity_norm - published_norm``
    changes sign is bisected.  The candidate, grid point or bisected root,
    with the least absolute difference is returned, so a window without a
    sign change yields its best grid point, possibly an endpoint.
    """

    def diff(x: float) -> float:
        return exact_infinity_norm(MatrixConfig(n=n, b=b, b_tilde=x)) - published_norm

    grid = np.linspace(bt - PRINTED_HALF_WIDTH, bt + PRINTED_HALF_WIDTH, WINDOW_POINTS)
    scanned = [
        (float(x), diff(float(x)))
        for x in grid
        if not is_singular(MatrixConfig(n=n, b=b, b_tilde=float(x)))
    ]
    candidates = list(scanned)
    for (lo, f_lo), (hi, f_hi) in zip(scanned, scanned[1:]):
        if (f_lo < 0) == (f_hi < 0):
            continue
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            f_mid = diff(mid)
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi, f_hi = mid, f_mid
        candidates += [(lo, f_lo), (hi, f_hi)]
    return min(candidates, key=lambda c: abs(c[1]))[0]


def banded_lu_solve(cfg, x):
    """Banded LU of the scaled operator, for one or more right-hand-side columns.

    This is the per-step solve the fixed-point iteration used before its
    factored O(n) solve; scipy is a test-only dependency.
    """
    from scipy.linalg import solve_banded

    n, s = cfg.n, -cfg.c_hat
    ab = np.zeros((3, n))
    ab[0, 1:] = ab[2, :-1] = -s
    ab[1, :] = cfg.b * s
    ab[1, 0] = ab[1, -1] = cfg.b_tilde * s
    return solve_banded((1, 1), ab, x)


def allocating_inverse_solver(cfg, scale):
    """``core._inverse_solver`` as it was before it built its weights in place.

    Kept as the bitwise reference of the factored solve; see that function for
    the algebra.
    """
    require_nonsingular(cfg)
    n = cfg.n
    s1, s2 = cfg.singular_points()
    sign = 1 if cfg.b > 0 else -1
    beta = sign * cfg.b_tilde - 2.0
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

    def solve(x, out=None):
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
        np.add(buf, c_diff / (n + 1), out=buf)
        np.multiply(buf, post, out=out)
        if sigma is None:
            out -= c1
        else:
            out -= np.multiply(sigma, c1, out=buf)
        return out

    return solve


def nonlinearity(prob, u):
    """f(u) = k u (1 - u) or k exp(u) as a new array, the same bits as the solver's in-place f."""
    if prob.nonlinearity == "fisher":
        return prob.k_coef * u * (1.0 - u)
    return prob.k_coef * np.exp(u)


def allocating_fixed_point(prob, u0=None, tol=1e-10, max_iter=10_000):
    """``bvp.solve_fixed_point`` as it was before it reused its n-vectors.

    f(u), the sine bump, the solver's weights and g are new arrays here, made
    by the same expressions; kept as the bitwise reference of the in-place
    iteration, with the same step history, rates and DivergenceError messages.
    """
    require_nonsingular(prob.cfg)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if u0 is None:
        i = np.arange(1, prob.n + 1, dtype=float)
        u = np.sin(np.pi * i / (prob.n + 1))
        if prob.cfg.b < 0:
            u = u * -_parity(np.arange(1, prob.n + 1))
        u = 0.5 * u / np.abs(u).max()
    else:
        u = np.array(u0, dtype=float)

    h2 = prob.h**2
    solve = allocating_inverse_solver(prob.cfg, scale=h2 / -prob.cfg.c_hat)
    bc = np.zeros(prob.n)
    bc[0], bc[-1] = prob.bc_left, prob.bc_right
    g = solve(bc * (-prob.cfg.c_hat / h2))

    exp_rate = expected_rate(prob)
    steps = []
    growth_streak = 0
    u_next = np.empty(prob.n)
    diff = np.empty(prob.n)

    def result(converged=False):
        rate = max((b / a for a, b in zip(steps, steps[1:])), default=0.0)
        return BvpResult(solution=u, iterations=len(steps), observed_rate=rate,
                         expected_rate=exp_rate, converged=converged, steps=steps)

    with np.errstate(invalid="ignore"):
        for _ in range(max_iter):
            solve(nonlinearity(prob, u), out=u_next)
            u_next += g
            np.subtract(u_next, u, out=diff)
            step = float(np.abs(diff, out=diff).max())
            if not math.isfinite(step):
                raise DivergenceError("iterate overflowed", partial=result())
            if steps:
                growth_streak = growth_streak + 1 if step > steps[-1] else 0
            steps.append(step)
            u, u_next = u_next, u
            if step <= tol:
                return result(True)
            if growth_streak >= 5:
                raise DivergenceError(
                    "step size grew for 5 consecutive iterations", partial=result()
                )
    return result()


def entry_b2_simplified(n: int, b_tilde: float, i: int, j: int) -> float:
    """b = 2 entry in the equivalent (j - gamma) form; used for cross-checks."""
    if i < j:
        i, j = j, i
    gamma = (2.0 - b_tilde) / (1.0 - b_tilde)
    return (j - gamma) * ((n - i) * (1.0 - b_tilde) - 1.0) / ((n - 1) * (1.0 - b_tilde) - 2.0)


@dataclass(frozen=True)
class DerivedParams:
    """Scalars computed once per configuration.

    beta       : b_tilde - b (the rank-2 corner update strength)
    gamma      : (2 - b_tilde) / (1 - b_tilde), defined only for b = +2
    gamma_plus : (2 + b_tilde) / (1 + b_tilde), defined only for b = -2
    m11, m12   : entries of the 2x2 capacitance matrix of the corner update
    delta      : its determinant m11^2 - m12^2
    """

    beta: float
    gamma: float | None
    gamma_plus: float | None
    m11: float
    m12: float
    delta: float


def derived_params(cfg: MatrixConfig) -> DerivedParams:
    """Compute beta, gamma / gamma_plus, the capacitance entries, and delta.

    delta is the factored quadratic in b_tilde, which equals m11^2 - m12^2 but
    stays accurate near the singular corners, where the difference of squares
    cancels.
    """
    n, b, bt = cfg.n, cfg.b, cfg.b_tilde
    beta = bt - b
    ratio = 2.0 * beta / b
    m11 = 1.0 + ratio * n / (n + 1)
    # (2/b)^n reduced to a parity sign for b = -2; never a floating-point power.
    corner_sign = 1.0 if (b == 2 or n % 2 == 0) else -1.0
    m12 = beta * corner_sign / (n + 1)

    gamma = (2.0 - bt) / (1.0 - bt) if (b == 2 and bt != 1.0) else None
    gamma_plus = (2.0 + bt) / (1.0 + bt) if (b == -2 and bt != -1.0) else None
    return DerivedParams(
        beta=beta, gamma=gamma, gamma_plus=gamma_plus, m11=m11, m12=m12, delta=_delta_factored(cfg)
    )


def index_grid(cfg):
    """The closed-form grid evaluated on broadcast min/max index arrays.

    This is how ``core.assemble_inverse`` computed the grid before it was
    built from the two generators; kept as its bitwise reference.  v_max(i,j)
    is the u expression at n + 1 - max(i,j), as in ``core._generators``.
    """
    n = cfg.n
    beta = cfg.b_tilde - cfg.b
    r = 2.0 * beta / cfg.b
    i = np.arange(1, n + 1, dtype=float)[:, None]
    j = np.arange(1, n + 1, dtype=float)[None, :]
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    vals = (
        (lo * (1.0 + r) - r)
        * ((n + 1 - hi) * (1.0 + r) - r)
        / ((1.0 + r) * (n + 1 + r * (n - 1)))
    )
    if cfg.b == -2:
        parity = (hi + 1 - lo).astype(int) % 2
        vals = np.where(parity == 1, -vals, vals)
    return vals


def grid_norm(cfg):
    """Max absolute row sum reduced over the whole ``index_grid``.

    This is how ``analysis.exact_infinity_norm`` computed the norm before it
    summed one band of rows at a time; kept as its bitwise reference.
    """
    return float(np.abs(index_grid(cfg)).sum(axis=1).max())


def tril_mirror_assembly(cfg, scaled=False):
    """``index_grid`` mirrored as tril(vals) + tril(vals, -1).T, the former assembly."""
    vals = index_grid(cfg)
    entries = np.tril(vals) + np.tril(vals, -1).T
    if scaled:
        entries = entries / (-cfg.c_hat)
    return entries


def masked_gauss_jordan(m):
    """Gauss-Jordan with partial pivoting on the augmented [A | I], non-pivot rows through a mask.

    This is the n x 2n elimination ``oracle.reference_inverse`` replaced with
    its in-place form; kept as its bitwise reference, signs of zeros included,
    with the same PIVOT_RTOL breakdown rule and message.
    """
    a = np.array(m, dtype=float)
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
        rest = np.arange(n) != col
        aug[rest] -= np.outer(aug[rest, col], aug[col])
    return aug[:, n:]


def bitwise_equal(a, b):
    """Same shape, same values (nan in the same places) and the same sign on every zero."""
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def regime_corners(n, b):
    """Corners in all five bound regimes, both signed zeros, and 1e-9 from each singular point."""
    s = 1.0 if b > 0 else -1.0
    lo, hi = (n - 3) / (n - 1), (n - 2) / (n - 1)
    plus = [5.93, 2.0, 1.5, hi, 0.5 * (lo + hi), 0.5 * lo, -3.7, -0.4]
    plus += [1.0 + 1e-9, 1.0 - 1e-9, lo + 1e-9, lo - 1e-9]
    return [s * bt for bt in plus] + [0.0, -0.0]
