"""Reproduction of the published experiment tables.

Two norm-versus-bound tables (one per sign of b) and two Fisher fixed-point
tables.  Each ``reproduce_*`` function recomputes every row from scratch and
compares against the published cells at the documented tolerances.
"""

from __future__ import annotations

from .analysis import exact_infinity_norm, upper_bound
from .config import TABLE_IDS, MatrixConfig

# (n, b_tilde, published norm, published upper bound)
NORM_BOUND_B2 = (
    (10, 5.93, 11.014, 11.139),
    (13, -2.28, 16.627, 24.500),
    (16, -3.46, 26.656, 36.125),
    (19, 3.03, 45.188, 45.188),
    (22, 6.39, 57.041, 57.166),
    (25, 0.46, 54.197, 55.506),
    (28, 11.62, 92.319, 92.444),
)
NORM_BOUND_BM2 = (
    (10, 1.93, 8.976, 15.125),
    (13, -6.28, 19.232, 19.232),
    (16, -7.46, 29.238, 29.363),
    (19, -0.97, 361.281, 361.281),
    (22, 2.39, 52.345, 66.125),
    (25, -3.54, 76.925, 76.925),
    (28, 7.62, 89.607, 105.125),
)
#: Printed-cell tolerance (the tables quote three decimals).
CELL_TOL = 5e-4

# (k, published iterations, published observed rate, published expected rate)
FISHER_B2_ROWS = (
    (0.5, 5, 0.0132, 0.0163),
    (1.0, 5, 0.0264, 0.0325),
    (2.0, 6, 0.0527, 0.065),
    (4.0, 8, 0.1054, 0.13),
    (8.0, 10, 0.2109, 0.2601),
    (16.0, 17, 0.4218, 0.5202),
    (32.0, 68, 0.8436, 1.0404),
)
FISHER_BM2_ROWS = (
    (1.0, 3, 0.0003, 0.0003),
    (3.0, 3, 0.0006, 0.001),
    (9.0, 3, 0.002, 0.0029),
    (27.0, 4, 0.0071, 0.0088),
    (81.0, 4, 0.0214, 0.0263),
    (243.0, 6, 0.0641, 0.079),
    (729.0, 9, 0.1922, 0.237),
)
FISHER_B2_SETUP = dict(n=50, b=2, b_tilde=2.0, length=0.5)
FISHER_BM2_SETUP = dict(n=50, b=-2, b_tilde=-2.0, length=0.05)

#: Stopping tolerance that matches the published iteration counts.
REPRODUCTION_TOL = 1e-6
EXPECTED_RATE_TOL_B2 = 1e-3
EXPECTED_RATE_TOL_BM2 = 5e-4
OBSERVED_RATE_RTOL = 0.20
ITERATION_SLACK = 2
#: k value whose iteration count is initialization-sensitive (predicted rate
#: exceeds 1, only convergence is checked).
COUNT_EXEMPT_K = 32.0


def reproduce_norm_bounds(b: int) -> list[dict]:
    """Recompute one norm-versus-bound table; '*_ok' flags use CELL_TOL."""
    rows = []
    table = NORM_BOUND_B2 if b == 2 else NORM_BOUND_BM2
    for n, bt, pub_norm, pub_bound in table:
        cfg = MatrixConfig(n=n, b=b, b_tilde=bt)
        norm = exact_infinity_norm(cfg)
        ub = upper_bound(cfg)
        norm_ok = abs(norm - pub_norm) <= CELL_TOL
        bound_ok = abs(ub.value - pub_bound) <= CELL_TOL
        rows.append(
            {
                "n": n,
                "btilde": bt,
                "norm": norm,
                "upper_bound": ub.value,
                "branch": ub.branch,
                "published_norm": pub_norm,
                "published_bound": pub_bound,
                "pass": norm_ok and bound_ok,
            }
        )
    return rows


def reproduce_fisher(b: int) -> list[dict]:
    """Recompute one Fisher fixed-point table row by row."""
    from .bvp import BvpProblem, solve_fixed_point

    setup = FISHER_B2_SETUP if b == 2 else FISHER_BM2_SETUP
    data = FISHER_B2_ROWS if b == 2 else FISHER_BM2_ROWS
    exp_tol = EXPECTED_RATE_TOL_B2 if b == 2 else EXPECTED_RATE_TOL_BM2
    cfg = MatrixConfig(n=setup["n"], b=setup["b"], b_tilde=setup["b_tilde"])
    rows = []
    for k, pub_iters, pub_rate, pub_expected in data:
        prob = BvpProblem(
            n=setup["n"], length=setup["length"], k_coef=k,
            nonlinearity="fisher", cfg=cfg,
        )
        res = solve_fixed_point(prob, tol=REPRODUCTION_TOL)
        ok = abs(res.expected_rate - pub_expected) <= exp_tol and res.converged
        if b == 2:
            ok = ok and abs(res.observed_rate - pub_rate) <= OBSERVED_RATE_RTOL * pub_rate
        if k != COUNT_EXEMPT_K:
            ok = ok and abs(res.iterations - pub_iters) <= ITERATION_SLACK
        rows.append(
            {
                "k": k,
                "iterations": res.iterations,
                "observed_rate": res.observed_rate,
                "expected_rate": res.expected_rate,
                "converged": res.converged,
                "published_iterations": pub_iters,
                "published_rate": pub_rate,
                "published_expected": pub_expected,
                "pass": ok,
            }
        )
    return rows


def reproduce(table_id: str) -> list[dict]:
    """Dispatch on the published table identifier."""
    if table_id == "fig2_table":
        return reproduce_norm_bounds(2)
    if table_id == "fig3_table":
        return reproduce_norm_bounds(-2)
    if table_id == "table5":
        return reproduce_fisher(2)
    if table_id == "table6":
        return reproduce_fisher(-2)
    raise ValueError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")
