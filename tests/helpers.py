"""Shared sweep grid and cached reference data for the test suite."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from neartoeplitz import (
    MatrixConfig,
    assemble_inverse,
    build_matrix,
    exact_infinity_norm,
    is_singular,
    reference_inverse,
)

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
