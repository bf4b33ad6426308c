"""Fixed-point solver for u'' = f(u) discretized on a uniform interior grid.

Central differences turn the two-point boundary-value problem into the
nonlinear system  A u = h^2 f(u) + boundary corrections, where A is the scaled
corner-perturbed tridiagonal operator.  The solver runs the substitution
iteration u <- A^{-1} (h^2 f(u) + bc) and reports the observed contraction
rate next to the rate predicted from the infinity-norm upper bound:
h^2 * ||A^{-1}|| * L_c, with L_c a Lipschitz constant of f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import upper_bound
from .config import MatrixConfig, require_nonsingular
from .core import _inverse_solver, _parity
from .errors import DivergenceError

FISHER = "fisher"
BRATU = "bratu"

_DIVERGENCE_STREAK = 5


@dataclass(frozen=True)
class BvpProblem:
    """Discretized problem: n interior points on (0, length), spacing h = length/n.

    nonlinearity 'fisher' means f(u) = k*u*(1-u); 'bratu' means f(u) = k*exp(u).
    cfg describes the tridiagonal operator including its corner value; bc_left
    and bc_right are Dirichlet values entering the right-hand side.
    """

    n: int
    length: float
    k_coef: float
    nonlinearity: str
    cfg: MatrixConfig
    bc_left: float = 0.0
    bc_right: float = 0.0

    def __post_init__(self):
        if self.n != self.cfg.n:
            raise ValueError(f"grid size {self.n} disagrees with operator order {self.cfg.n}")
        if not self.length > 0:
            raise ValueError(f"domain length must be positive, got {self.length}")
        if self.nonlinearity not in (FISHER, BRATU):
            raise ValueError(f"nonlinearity must be 'fisher' or 'bratu', got {self.nonlinearity!r}")

    @property
    def h(self) -> float:
        return self.length / self.n

    def f(self, u: np.ndarray) -> np.ndarray:
        if self.nonlinearity == FISHER:
            return self.k_coef * u * (1.0 - u)
        return self.k_coef * np.exp(u)


@dataclass
class BvpResult:
    """Outcome of a fixed-point run; ``steps`` holds the sup-norm step of every iteration."""

    solution: np.ndarray
    iterations: int
    observed_rate: float
    expected_rate: float
    converged: bool
    steps: list[float] = field(default_factory=list)


def lipschitz_constant(
    nonlinearity: str, k_coef: float, bounds: tuple[float, float] | None = None
) -> float:
    """Lipschitz constant of f over the given iterate range.

    fisher: |f'| = k*|1-2u|, so k*max(|1-2a|, |1-2b|) on [a, b] (equal to k on
    the default [0, 1]).  bratu: f' = k*e^u, so k*e^b; a finite range is
    required.
    """
    if nonlinearity == FISHER:
        a, b = bounds if bounds is not None else (0.0, 1.0)
        return abs(k_coef) * max(abs(1.0 - 2.0 * a), abs(1.0 - 2.0 * b))
    if nonlinearity == BRATU:
        if bounds is None:
            raise ValueError("a finite iterate range is required for the exponential nonlinearity")
        return abs(k_coef) * math.exp(bounds[1])
    raise ValueError(f"nonlinearity must be 'fisher' or 'bratu', got {nonlinearity!r}")


def expected_rate(prob: BvpProblem) -> float:
    """Contraction rate predicted by the norm bound: h^2 * U * L_c / |c_hat|.

    U is the upper bound for the normalized operator; dividing by |c_hat|
    converts it to the scaled system actually iterated.  L_c is taken over [0, 1].
    """
    u = upper_bound(prob.cfg).value
    lc = lipschitz_constant(prob.nonlinearity, prob.k_coef, (0.0, 1.0))
    return prob.h**2 * u * lc / abs(prob.cfg.c_hat)


def default_initial_iterate(prob: BvpProblem) -> np.ndarray:
    """Half-amplitude sine bump over the interior grid.

    For b < 0 the bump is modulated by alternating signs: that is the slowest
    mode of the operator, so the observed rate settles to the true contraction
    factor within a few steps (the smooth bump is the slowest mode when b > 0).
    """
    i = np.arange(1, prob.n + 1, dtype=float)
    u = np.sin(np.pi * i / (prob.n + 1))
    if prob.cfg.b < 0:
        u = u * -_parity(np.arange(1, prob.n + 1))
    return 0.5 * u / np.abs(u).max()


def solve_fixed_point(
    prob: BvpProblem,
    u0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> BvpResult:
    """Iterate u <- A^{-1}(h^2 f(u) + bc) until the sup-norm step is below tol.

    The operator is factored once per solve (``core._inverse_solver``) with
    h^2 folded into its weights; by linearity the boundary part g = A^{-1} bc
    is solved once, so each step is u <- h^2 A^{-1} f(u) + g in O(n), with
    no matrix and no per-step right-hand side.  The inverse is never
    materialized.  The observed rate is the maximum ratio of successive step
    sizes after the first step; ``steps`` records every step size.  Five
    consecutive growing steps, or a non-finite step, raise DivergenceError
    with the partial result attached.
    """
    require_nonsingular(prob.cfg)
    if tol <= 0:
        raise ValueError("tol must be positive")
    u = default_initial_iterate(prob) if u0 is None else np.array(u0, dtype=float)
    if u.shape != (prob.n,):
        raise ValueError(f"initial iterate must have length {prob.n}, got shape {u.shape}")

    h2 = prob.h**2
    # The scaled operator -c_hat * A couples the boundary nodes through its
    # off-diagonal c_hat; moved to the right-hand side they give -c_hat * bc,
    # so g = A^{-1} bc.  The solver carries h^2 / -c_hat, undone on its input.
    solve = _inverse_solver(prob.cfg, scale=h2 / -prob.cfg.c_hat)
    bc = np.zeros(prob.n)
    bc[0], bc[-1] = prob.bc_left, prob.bc_right
    g = solve(bc * (-prob.cfg.c_hat / h2))

    exp_rate = expected_rate(prob)
    steps: list[float] = []
    prev_step = None
    rate = 0.0
    growth_streak = 0
    u_next = np.empty(prob.n)
    diff = np.empty(prob.n)

    def result(converged: bool = False) -> BvpResult:
        return BvpResult(solution=u, iterations=len(steps), observed_rate=rate,
                         expected_rate=exp_rate, converged=converged, steps=steps)

    # An overflowed f(u) turns every entry of the next iterate into inf or
    # nan; the non-finite step reports it, so the prefix sums may stay quiet.
    with np.errstate(invalid="ignore"):
        for _ in range(max_iter):
            solve(prob.f(u), out=u_next)
            u_next += g
            np.subtract(u_next, u, out=diff)
            step = float(np.abs(diff, out=diff).max())
            if not math.isfinite(step):
                raise DivergenceError("iterate overflowed", partial=result())
            steps.append(step)
            if prev_step is not None and prev_step > 0.0:
                rate = max(rate, step / prev_step)
                growth_streak = growth_streak + 1 if step > prev_step else 0
            u, u_next = u_next, u
            if step <= tol:
                return result(True)
            if growth_streak >= _DIVERGENCE_STREAK:
                raise DivergenceError(
                    f"step size grew for {_DIVERGENCE_STREAK} consecutive iterations",
                    partial=result(),
                )
            prev_step = step
    return result()
