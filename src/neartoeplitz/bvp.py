"""Fixed-point solver for u'' = f(u) discretized on a uniform interior grid.

Central differences turn the two-point boundary-value problem into the nonlinear system
-c_hat A u = h^2 f(u) + boundary corrections, with A the normalized corner-perturbed
operator.  The solver runs the substitution iteration u <- (-c_hat A)^{-1} (h^2 f(u) + bc),
one factored solve per step with h^2 k / -c_hat and bc in the solve's input weights, and
reports the observed contraction rate next to the rate predicted from the infinity-norm
upper bound: h^2 * ||A^{-1}|| * L_c / |c_hat|, with L_c the Lipschitz constant of f on [0, 1].
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .analysis import upper_bound
from .config import MatrixConfig, _c_hat, require_nonsingular
from .core import _inverse_solver
from .errors import DivergenceError

FISHER = "fisher"
BRATU = "bratu"

_DIVERGENCE_STREAK = 5


@dataclass(frozen=True)
class BvpProblem:
    """Discretized problem: n interior points on (0, length), spacing h = length/n.

    nonlinearity 'fisher' means f(u) = k*u*(1-u); 'bratu' means f(u) = k*exp(u).
    cfg is the normalized operator A and c_hat (default -1) scales it to -c_hat A; bc_left
    and bc_right are Dirichlet values entering the right-hand side.  2**-400 <= |c_hat| <=
    2**400 (stored as a float), length, k_coef and the boundary values must be finite, and
    h^2/|c_hat| must lie in [2**-1022, inf), so that the solver's weight h^2/-c_hat per unit
    k is finite and normal; anything else raises ValueError.
    """

    n: int
    length: float
    k_coef: float
    nonlinearity: str
    cfg: MatrixConfig
    bc_left: float = 0.0
    bc_right: float = 0.0
    c_hat: float = -1.0

    def __post_init__(self):
        object.__setattr__(self, "c_hat", _c_hat(self.c_hat))
        if not isinstance(self.n, (int, np.integer)) or self.n != self.cfg.n:
            raise ValueError(f"grid size {self.n!r} is not the operator order {self.cfg.n}")
        if not 0 < self.length < math.inf:
            raise ValueError(f"domain length must be positive and finite, got {self.length}")
        # h*h cannot raise where h**2 can; the bound keeps h^2/|c_hat| finite and normal.
        if not 2.0**-1022 <= self.h * self.h / abs(self.c_hat) < math.inf:
            raise ValueError(f"h^2/|c_hat| must be finite and >= 2**-1022, got h = {self.h!r}")
        for name in ("k_coef", "bc_left", "bc_right"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.nonlinearity not in (FISHER, BRATU):
            raise ValueError(f"nonlinearity must be 'fisher' or 'bratu', got {self.nonlinearity!r}")

    @property
    def h(self) -> float:
        return self.length / self.n

    def _f_into(self, u: np.ndarray, w: np.ndarray, out: np.ndarray, scratch: np.ndarray):
        """f(u) / k times the weights w, into ``out`` (not ``u``): (u w)(1 - u) or exp(u) w."""
        if self.nonlinearity == FISHER:
            np.multiply(u, w, out=out)
            out *= np.subtract(1.0, u, out=scratch)
        else:
            np.exp(u, out=out)
            out *= w
        return out


@dataclass
class BvpResult:
    """Outcome of a fixed-point run; ``steps`` holds the sup-norm step of every iteration."""

    solution: np.ndarray
    iterations: int
    observed_rate: float
    expected_rate: float
    converged: bool
    steps: list[float]


def expected_rate(prob: BvpProblem) -> float:
    """Contraction rate predicted by the norm bound: h^2 * U * L_c / |c_hat|.

    U is the upper bound for the normalized operator; dividing by |c_hat|
    converts it to the scaled system actually iterated.  L_c is the Lipschitz
    constant of f on [0, 1]: |k| |1 - 2u| <= |k| for fisher, |k| e^u <= |k| e for bratu.
    """
    u = upper_bound(prob.cfg).value
    lc = abs(prob.k_coef) * (1.0 if prob.nonlinearity == FISHER else math.e)
    return prob.h**2 * u * lc / abs(prob.c_hat)


def _initial_iterate(prob: BvpProblem) -> np.ndarray:
    """Half-amplitude sine bump over the interior grid.

    For b < 0 the bump is modulated by alternating signs: that is the slowest
    mode of the operator, so the observed rate settles to the true contraction
    factor within a few steps (the smooth bump is the slowest mode when b > 0).
    """
    u = np.arange(1, prob.n + 1, dtype=float)
    u *= np.pi
    u /= prob.n + 1
    np.sin(u, out=u)
    if prob.cfg._flip:
        np.negative(u[1::2], out=u[1::2])
    peak = np.abs(u).max()
    u *= 0.5
    return np.divide(u, peak, out=u)


def solve_fixed_point(prob: BvpProblem, *, tol: float = 1e-10, max_iter: int = 10_000) -> BvpResult:
    """Iterate u <- A^{-1}(h^2 f(u) + bc) from ``_initial_iterate`` until the step is below tol.

    The operator is factored once per solve (``core._inverse_solver``) with h^2 k / -c_hat
    in its input weights; each step writes u (1 - u) or exp(u) times them, adds the
    boundary values to rows 1 and n, and finishes one solve in place: O(n), with no
    matrix, no boundary vector and no second solve.  The inverse is never materialized.
    The observed rate is the maximum ratio of successive step sizes after the first
    step; ``steps`` records every step size.  Five consecutive growing steps, or a
    non-finite step, raise DivergenceError with the partial result attached.
    """
    require_nonsingular(prob.cfg)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not operator.index(max_iter) >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    u = _initial_iterate(prob)

    # An overflow in the weights or in f(u) turns entries of the next iterate
    # into inf or nan; the non-finite step reports it, so numpy stays quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        # The scaled operator -c_hat * A couples the boundary nodes through its
        # off-diagonal c_hat; moved to the right-hand side they give -c_hat * bc,
        # so a step is A^{-1} (h^2 / -c_hat f(u) + bc): bc enters with the unscaled input
        # weights of rows 1 and n, 1 and n (-n for b = -2 at an even n).
        pre, back = _inverse_solver(prob.cfg, scale=prob.h**2 / -prob.c_hat * prob.k_coef)
        bc_last = prob.bc_right * (-prob.n if prob.cfg._flip and prob.n % 2 == 0 else prob.n)

        exp_rate = expected_rate(prob)
        steps: list[float] = []
        growth_streak = 0
        u_next = np.empty(prob.n)
        diff = np.empty(prob.n)

        def result(converged: bool = False) -> BvpResult:
            # Every step but the last is above tol > 0, so each ratio is defined.
            rate = max((b / a for a, b in zip(steps, steps[1:])), default=0.0)
            return BvpResult(solution=u, iterations=len(steps), observed_rate=rate,
                             expected_rate=exp_rate, converged=converged, steps=steps)

        for _ in range(max_iter):
            prob._f_into(u, pre, u_next, scratch=diff)
            u_next[0] += prob.bc_left
            u_next[-1] += bc_last
            back(u_next)
            np.subtract(u_next, u, out=diff)
            step = float(max(diff.max(), -diff.min())) + 0.0  # max |diff|, and no -0.0
            if not math.isfinite(step):
                raise DivergenceError("iterate overflowed", partial=result())
            if steps:
                growth_streak = growth_streak + 1 if step > steps[-1] else 0
            steps.append(step)
            u, u_next = u_next, u
            if step <= tol:
                return result(True)
            if growth_streak >= _DIVERGENCE_STREAK:
                raise DivergenceError(
                    f"step size grew for {_DIVERGENCE_STREAK} consecutive iterations",
                    partial=result(),
                )
    return result()
