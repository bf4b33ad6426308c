"""Shared sweep grid, cached reference data and the fresh-interpreter runner of the test suite."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from neartoeplitz import (
    BvpResult,
    DivergenceError,
    MatrixConfig,
    SingularMatrixError,
    assemble_inverse,
    build_matrix,
    exact_infinity_norm,
    expected_rate,
    reference_inverse,
    singularity_report,
)
from neartoeplitz.config import _parity
from neartoeplitz.core import _inverse_solver
from neartoeplitz.oracle import PIVOT_RTOL

SWEEP_N = range(4, 31)
SWEEP_B = (2, -2)
SAMPLES_PER_N = 60
EXCLUSION = 1e-6


def btilde_samples(n: int, b: int, count: int = SAMPLES_PER_N) -> np.ndarray:
    """Deterministic corner-value grid on [-8, 8].

    Values landing inside the EXCLUSION neighborhood of a singular point
    (``singularity_report``'s) are nudged just outside it.
    """
    singular = np.array(singularity_report(n, b, 0.0)["singular_points"])
    pts = np.linspace(-8.0, 8.0, count)
    out = []
    for p in pts:
        while np.min(np.abs(p - singular)) < EXCLUSION:
            p += 3.0 * EXCLUSION
        out.append(p)
    return np.array(out)


def singular_matrix(n: int, b: int, bt: float) -> np.ndarray:
    """The dense operator at a corner value that no ``MatrixConfig`` admits, such as a
    singular corner: the Toeplitz matrix of (n, b) with both corner entries set to bt."""
    m = build_matrix(MatrixConfig(n, b, float(b)))
    m[0, 0] = m[-1, -1] = bt
    return m


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
    WINDOW_POINTS evenly spaced points (points ``singularity_report`` flags as
    singular are skipped); every bracket where ``exact_infinity_norm - published_norm``
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
        if not singularity_report(n, b, float(x))["singular"]
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


def banded_lu_solve(cfg, x, c_hat=-1.0):
    """Banded LU of the scaled operator -c_hat A, for one or more right-hand-side columns.

    This is the per-step solve the fixed-point iteration used before its
    factored O(n) solve; scipy is a test-only dependency.
    """
    from scipy.linalg import solve_banded

    n, s = cfg.n, -c_hat
    ab = np.zeros((3, n))
    ab[0, 1:] = ab[2, :-1] = -s
    ab[1, :] = cfg.b * s
    ab[1, 0] = ab[1, -1] = cfg.b_tilde * s
    return solve_banded((1, 1), ab, x)


def inverse_solver(cfg, scale):
    """``solve(x, out=None)`` giving scale * A^{-1} x: ``core._inverse_solver``'s two halves."""
    pre, back = _inverse_solver(cfg, scale)
    return lambda x, out=None: back(np.multiply(x, pre, out=out))


def allocating_inverse_solver(cfg, scale):
    """``core._inverse_solver`` as it was before it built its weights in place.

    Returns ``(pre, back)`` as that function does, but ``back(x)`` leaves the
    weighted input x alone and returns a new array.  Kept as the bitwise
    reference of the factored solve; see that function for the algebra.
    """
    n = cfg.n
    s1, s2 = singularity_report(n, cfg.b, cfg.b_tilde)["singular_points"]
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

    def back(x):
        buf = np.add.accumulate(x)
        np.multiply(buf, mid, out=buf)
        rev = buf[::-1]
        np.add.accumulate(rev, out=rev)
        z1, zn = float(buf[0]), n * float(buf[-1])
        c_sum, c_diff = q_sum * (z1 + zn), q_diff * (z1 - zn)
        c1 = 0.5 * (c_sum + c_diff)
        np.add(buf, c_diff / (n + 1), out=buf)
        out = buf * post
        if sigma is None:
            out -= c1
        else:
            out -= sigma * c1
        return out

    return pre, back


def nonlinearity(prob, u):
    """f(u) = k u (1 - u) or k exp(u) as a new array.

    The solver never forms f(u): it folds k into its input weights w and writes
    (u w)(1 - u) or exp(u) w, as ``allocating_fixed_point`` does with new arrays.
    """
    if prob.nonlinearity == "fisher":
        return prob.k_coef * u * (1.0 - u)
    return prob.k_coef * np.exp(u)


def allocating_fixed_point(prob, tol=1e-10, max_iter=10_000):
    """``bvp.solve_fixed_point`` as it was before it reused its n-vectors.

    The sine bump, the solver's weights w (with h^2 k / -c_hat in them), the
    weighted input (u w)(1 - u) or exp(u) w and the step's |diff| are new
    arrays here, made by the same expressions; the boundary values are added
    to the input's first and last entries times 1 and +-n, the unscaled weights
    of those rows.  Kept as the bitwise reference of the in-place iteration,
    with the same step history, rates and DivergenceError messages.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    i = np.arange(1, prob.n + 1, dtype=float)
    u = np.sin(np.pi * i / (prob.n + 1))
    if prob.cfg.b < 0:
        u = u * -_parity(np.arange(1, prob.n + 1))
    u = 0.5 * u / np.abs(u).max()

    weights, back = allocating_inverse_solver(prob.cfg, prob.h**2 / -prob.c_hat * prob.k_coef)
    last = prob.n if prob.cfg.b > 0 or prob.n % 2 else -prob.n

    exp_rate = expected_rate(prob)
    steps = []
    growth_streak = 0

    def result(converged=False):
        rate = max((b / a for a, b in zip(steps, steps[1:])), default=0.0)
        return BvpResult(solution=u, iterations=len(steps), observed_rate=rate,
                         expected_rate=exp_rate, converged=converged, steps=steps)

    with np.errstate(invalid="ignore"):
        for _ in range(max_iter):
            if prob.nonlinearity == "fisher":
                x = u * weights * (1.0 - u)
            else:
                x = np.exp(u) * weights
            x[0] += prob.bc_left
            x[-1] += prob.bc_right * last
            u_next = back(x)
            step = float(np.abs(u_next - u).max())
            if not math.isfinite(step):
                raise DivergenceError("iterate overflowed", partial=result())
            if steps:
                growth_streak = growth_streak + 1 if step > steps[-1] else 0
            steps.append(step)
            u = u_next
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


def capacitance(cfg: MatrixConfig) -> tuple[float, float]:
    """The entries (m11, m12) of the 2x2 capacitance matrix of the corner update b_tilde - b.

    Its determinant m11^2 - m12^2 equals ``singularity_report``'s ``delta``, the factored
    quadratic in b_tilde, which stays accurate near the singular corners, where the
    difference of squares cancels.
    """
    n, b = cfg.n, cfg.b
    beta = cfg.b_tilde - b
    m11 = 1.0 + 2.0 * beta / b * n / (n + 1)
    # (2/b)^n reduced to a parity sign for b = -2; never a floating-point power.
    corner_sign = 1.0 if (b == 2 or n % 2 == 0) else -1.0
    return m11, beta * corner_sign / (n + 1)


def index_grid(cfg):
    """The closed-form grid evaluated on broadcast min/max index arrays.

    This is how ``core.assemble_inverse`` computed the grid before it was
    built from the two generators; kept as its bitwise reference.  v_max(i,j)
    is the u expression at n + 1 - max(i,j), as in ``core.assemble_inverse``.
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
    """Max absolute row sum reduced over the whole ``index_grid``, in floats.

    The float evaluation of the norm, kept as its reference: it lies within
    ``grid_norm_rtol`` of the exact norm.
    """
    return float(np.abs(index_grid(cfg)).sum(axis=1).max())


def grid_norm_rtol(cfg):
    """Stated relative bound on ``grid_norm``'s error: n eps times the cancellation in D.

    The float D = (1+r)(n+1+r(n-1)) loses the digits its factors cancel, by the factors
    (1+|r|)/|1+r| and (n+1+|r|(n-1))/|n+1+r(n-1)|; the n-term row sums add about n eps.
    Over the ``regime_corners`` sweep the grid sum's error read at most 0.12 of this bound;
    its worst, 2.2e-7, is at the corners 1e-9 from a singular point.
    """
    n, r = cfg.n, 2.0 * (cfg.b_tilde - cfg.b) / cfg.b
    kappa = (1 + abs(r)) / abs(1 + r) + (n + 1 + abs(r) * (n - 1)) / abs(n + 1 + r * (n - 1))
    return n * 2.0**-52 * kappa


def exact_grid_norm(cfg):
    """Max absolute row sum over every row of ``index_grid``'s formula, in exact arithmetic.

    r = 2 (b_tilde - b) / b is a ``Fraction`` at the config's own b (no b = +2 frame), so
    q u_k = k (q + p) - p and q^2 D are integers for r = p/q; each row's sum of
    |u_min(i,j) v_max(i,j)| is formed from full slice sums, the bottom rows too, and the
    max is rounded once.  O(n^2) integer additions: for the sweeps, not for production.
    """
    n, r = cfg.n, 2 * (Fraction(cfg.b_tilde) - cfg.b) / cfg.b
    p, q = r.numerator, r.denominator
    u = [abs(k * (q + p) - p) for k in range(1, n + 1)]  # q |u_k|; q |v_i| = u[n - i]
    rows = (u[n - i] * sum(u[:i]) + u[i - 1] * sum(u[: n - i]) for i in range(1, n + 1))
    return max(rows) / abs((q + p) * ((n + 1) * q + p * (n - 1)))


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
        raise SingularMatrixError("zero matrix")
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        p = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[p, col]
        if abs(pivot) <= PIVOT_RTOL * scale:
            raise SingularMatrixError(
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


def run_fresh(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a fresh interpreter with this checkout's ``src`` first on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
