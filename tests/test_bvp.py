"""Fixed-point solver: predicted rates, initial iterate, iteration behavior."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from neartoeplitz import (
    BvpProblem,
    DivergenceError,
    MatrixConfig,
    assemble_inverse,
    build_matrix,
    expected_rate,
    solve_fixed_point,
    upper_bound,
)
from neartoeplitz.bvp import _initial_iterate
from neartoeplitz.tables import REPRODUCTION_TOL

from helpers import allocating_fixed_point, banded_lu_solve, bitwise_equal, nonlinearity


def fisher_problem(n, b, bt, length, k):
    return BvpProblem(n=n, length=length, k_coef=k, nonlinearity="fisher",
                      cfg=MatrixConfig(n, b, bt))


class TestExpectedRate:
    @pytest.mark.parametrize("kind, lc_factor", [("fisher", 1.0), ("bratu", math.e)])
    def test_unit_range_lipschitz_constant(self, kind, lc_factor):
        # L_c on [0, 1]: |k| |1 - 2u| <= |k| for fisher, |k| e^u <= |k| e for bratu.
        cfg = MatrixConfig(30, 2, 2.5)
        prob = BvpProblem(n=30, length=0.7, k_coef=-2.0, nonlinearity=kind, cfg=cfg)
        assert expected_rate(prob) == prob.h**2 * upper_bound(cfg).value * (2.0 * lc_factor)

    def test_table_b2_setup(self):
        rate = expected_rate(fisher_problem(50, 2, 2.0, 0.5, 1.0))
        assert rate == pytest.approx(0.0325125, rel=1e-12)
        assert rate == pytest.approx(0.0325, abs=5e-4)

    def test_table_b2_large_k(self):
        rate = expected_rate(fisher_problem(50, 2, 2.0, 0.5, 32.0))
        assert rate == pytest.approx(1.0404, abs=1e-3)

    def test_table_bm2_setup(self):
        rate = expected_rate(fisher_problem(50, -2, -2.0, 0.05, 1.0))
        assert rate == pytest.approx(0.0003, abs=5e-5)

    def test_linear_in_k(self):
        prev = expected_rate(fisher_problem(50, 2, 2.0, 0.5, 0.5))
        for k in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            cur = expected_rate(fisher_problem(50, 2, 2.0, 0.5, k))
            assert cur == 2.0 * prev
            prev = cur

    def test_scaled_system(self):
        base = expected_rate(fisher_problem(20, 2, 2.0, 1.0, 1.0))
        prob = BvpProblem(n=20, length=1.0, k_coef=1.0, nonlinearity="fisher",
                          cfg=MatrixConfig(20, 2, 2.0), c_hat=-4.0)
        assert expected_rate(prob) == pytest.approx(base / 4.0, rel=1e-14)


class TestInitialIterate:
    def test_amplitude_and_length(self):
        u = _initial_iterate(fisher_problem(50, 2, 2.0, 0.5, 1.0))
        assert u.shape == (50,)
        assert np.abs(u).max() == pytest.approx(0.5)
        assert (u > 0).all()

    def test_parity_modulation_for_negative_b(self):
        u = _initial_iterate(fisher_problem(50, -2, -2.0, 0.05, 1.0))
        assert np.abs(u).max() == pytest.approx(0.5)
        inner = u[1:-1]
        assert (np.sign(inner[1:]) != np.sign(inner[:-1])).all()


class TestSolveFixedPoint:
    def test_zero_nonlinearity_converges_immediately(self):
        # The first step lands on the fixed point 0; the second one finds it there.
        prob = fisher_problem(10, 2, 2.0, 1.0, 0.0)
        res = solve_fixed_point(prob)
        assert res.converged
        assert res.iterations == 2
        assert np.max(np.abs(res.solution)) == 0.0

    def test_table_b2_row_with_tight_tolerance(self):
        # k = 1 row: count 5 +- 2 even at the strict default tolerance
        res = solve_fixed_point(fisher_problem(50, 2, 2.0, 0.5, 1.0), tol=1e-10)
        assert res.converged
        assert abs(res.iterations - 5) <= 2
        assert res.observed_rate == pytest.approx(0.0264, rel=0.2)

    def test_table_bm2_last_row(self):
        res = solve_fixed_point(fisher_problem(50, -2, -2.0, 0.05, 729.0), tol=REPRODUCTION_TOL)
        assert res.converged
        assert abs(res.iterations - 9) <= 2
        assert res.observed_rate == pytest.approx(0.1922, rel=0.2)

    def test_contraction_guard(self):
        res = solve_fixed_point(fisher_problem(50, -2, -2.0, 0.05, 729.0), tol=REPRODUCTION_TOL)
        assert res.observed_rate <= res.expected_rate * 1.05

    def test_contraction_guard_across_both_tables(self):
        # sub-unit predicted rate implies convergence with observed <= 1.05x
        from neartoeplitz.tables import reproduce_fisher

        for b in (2, -2):
            for row in reproduce_fisher(b):
                if row["expected_rate"] < 1.0:
                    assert row["converged"]
                    assert row["observed_rate"] <= row["expected_rate"] * 1.05

    def test_solver_path_equals_explicit_inverse_apply(self):
        # one substitution step through the factored solve must equal applying
        # the assembled inverse to the same right-hand side
        for n, b, bt, bc in [(8, 2, 2.0, 0.0), (32, -2, -2.0, 0.0), (64, 2, 3.5, 0.7)]:
            cfg = MatrixConfig(n, b, bt)
            prob = BvpProblem(n=n, length=1.0, k_coef=2.0, nonlinearity="fisher",
                              cfg=cfg, bc_left=bc, bc_right=-bc)
            u0 = _initial_iterate(prob)
            one_step = solve_fixed_point(prob, tol=np.inf)
            inv = assemble_inverse(cfg).entries / -prob.c_hat
            rhs_bc = np.zeros(n)
            rhs_bc[0] = -prob.c_hat * prob.bc_left
            rhs_bc[-1] = -prob.c_hat * prob.bc_right
            explicit = inv @ (prob.h**2 * nonlinearity(prob, u0) + rhs_bc)
            assert np.max(np.abs(one_step.solution - explicit)) <= 1e-10

    def test_boundary_values_enter_rhs(self):
        prob = BvpProblem(n=10, length=1.0, k_coef=0.0, nonlinearity="fisher",
                          cfg=MatrixConfig(10, 2, 2.0), bc_left=1.0, bc_right=2.0)
        res = solve_fixed_point(prob, tol=1e-12)
        # k = 0 makes the problem linear: solution solves A u = bc corrections
        A = np.diag(np.full(10, 2.0)) + np.diag(np.full(9, -1.0), 1) + np.diag(np.full(9, -1.0), -1)
        expected = np.linalg.solve(A, np.array([1.0] + [0.0] * 8 + [2.0]))
        assert res.converged
        assert np.max(np.abs(res.solution - expected)) <= 1e-12
        # Row n's input weight is +-n for b = -2, with the sign of n's parity; -c_hat
        # cancels from -c_hat A u = -c_hat bc.
        for n, b, bt, c_hat in [(10, -2, -2.0, -1.0), (11, -2, -2.0, -1.0), (12, -2, 0.4, 2.5),
                                (9, -2, -3.0, -0.5), (10, 2, 3.5, 4.0), (11, 2, 2.0, -2.5)]:
            cfg = MatrixConfig(n, b, bt)
            prob = BvpProblem(n=n, length=1.0, k_coef=0.0, nonlinearity="fisher", cfg=cfg,
                              bc_left=1.0, bc_right=2.0, c_hat=c_hat)
            res = solve_fixed_point(prob, tol=1e-12)
            expected = np.linalg.solve(build_matrix(cfg), np.array([1.0] + [0.0] * (n - 2) + [2.0]))
            assert res.converged
            assert np.max(np.abs(res.solution - expected)) <= 1e-12, (n, b, bt, c_hat)

    def test_divergence_detection(self):
        prob = BvpProblem(n=10, length=1.0, k_coef=3.0, nonlinearity="bratu",
                          cfg=MatrixConfig(10, 2, 2.0))
        with pytest.raises(DivergenceError) as err:
            solve_fixed_point(prob, tol=1e-10, max_iter=500)
        assert err.value.partial is not None
        assert err.value.partial.converged is False
        assert err.value.partial.iterations > 0

    @pytest.mark.filterwarnings("error")
    def test_overflow_reports_divergence(self):
        prob = BvpProblem(n=10, length=1.0, k_coef=80.0, nonlinearity="bratu",
                          cfg=MatrixConfig(10, 2, 2.0))
        with pytest.raises(DivergenceError):
            solve_fixed_point(prob, tol=1e-10, max_iter=500)

    def test_singular_configuration_rejected(self):
        from neartoeplitz import SingularMatrixError

        with pytest.raises(SingularMatrixError):
            solve_fixed_point(fisher_problem(10, 2, 1.0, 1.0, 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            BvpProblem(n=9, length=1.0, k_coef=1.0, nonlinearity="fisher",
                       cfg=MatrixConfig(10, 2, 2.0))
        with pytest.raises(ValueError):
            BvpProblem(n=10, length=-1.0, k_coef=1.0, nonlinearity="fisher",
                       cfg=MatrixConfig(10, 2, 2.0))
        with pytest.raises(ValueError):
            BvpProblem(n=10, length=1.0, k_coef=1.0, nonlinearity="cubic",
                       cfg=MatrixConfig(10, 2, 2.0))
        with pytest.raises(ValueError):
            solve_fixed_point(fisher_problem(10, 2, 2.0, 1.0, 1.0), tol=-1.0)
        with pytest.raises(ValueError):
            solve_fixed_point(fisher_problem(10, 2, 2.0, 1.0, 1.0), tol=math.nan)
        cfg = MatrixConfig(10, 2, 2.0)
        for bad in ({"length": math.inf}, {"k_coef": math.nan}, {"k_coef": math.inf},
                    {"k_coef": -math.inf}, {"bc_left": math.nan}, {"bc_right": math.inf}):
            fields = dict(n=10, length=1.0, k_coef=1.0, nonlinearity="fisher", cfg=cfg) | bad
            with pytest.raises(ValueError, match="finite"):
                BvpProblem(**fields)
        prob = fisher_problem(10, 2, 2.0, 1.0, 1.0)
        with pytest.raises(TypeError):  # tol and max_iter are keyword-only
            solve_fixed_point(prob, 1e-10)
        for max_iter in (0, -3):
            with pytest.raises(ValueError, match="max_iter"):
                solve_fixed_point(prob, max_iter=max_iter)

    def test_step_history_audits_observed_rate(self):
        for prob in (fisher_problem(50, 2, 2.0, 0.5, 4.0), fisher_problem(50, -2, -2.0, 0.05, 81.0)):
            res = solve_fixed_point(prob, tol=1e-12)
            assert len(res.steps) == res.iterations
            assert res.steps[-1] <= 1e-12 < res.steps[-2]
            ratios = [b / a for a, b in zip(res.steps, res.steps[1:]) if a > 0.0]
            assert res.observed_rate == max(ratios)

    def test_partial_result_carries_steps(self):
        prob = BvpProblem(n=10, length=1.0, k_coef=3.0, nonlinearity="bratu",
                          cfg=MatrixConfig(10, 2, 2.0))
        with pytest.raises(DivergenceError) as err:
            solve_fixed_point(prob, tol=1e-10, max_iter=500)
        partial = err.value.partial
        assert len(partial.steps) == partial.iterations
        assert all(b > a for a, b in zip(partial.steps[-6:], partial.steps[-5:]))
        assert partial.observed_rate == max(b / a for a, b in zip(partial.steps, partial.steps[1:]))

    @pytest.mark.parametrize("n, b, bt, length, k, kind, c_hat, bcs", [
        (50, 2, 2.0, 0.5, 1.0, "fisher", -1.0, (0.0, 0.0)),
        (50, -2, -2.0, 0.05, 729.0, "fisher", -1.0, (0.0, 0.0)),
        (37, -2, -2.7, 1.0, 1.5, "bratu", -1.0, (0.2, 0.1)),
        (60, 2, -1.5, 0.7, 3.0, "fisher", -2.5, (0.1, 0.4)),
        (25, -2, 0.4, 0.3, 20.0, "fisher", -4.0, (0.1, 0.05)),
        (51, 2, 0.95, 0.4, 2.0, "bratu", -1.7, (0.5, 0.5)),
        (44, -2, -5.0, 1.0, 0.8, "bratu", -0.5, (0.25, 0.3)),
        (64, 2, 0.3, 0.9, 4.0, "fisher", 2.0, (-0.2, 0.3)),
        (2000, 2, 3.1, 1.0, 2.0, "bratu", -1.0, (0.3, 0.7)),
    ])
    def test_matches_banded_lu_iteration(self, n, b, bt, length, k, kind, c_hat, bcs):
        # The banded-LU step the factored solve replaced, kept as the reference.
        pytest.importorskip("scipy.linalg")
        cfg = MatrixConfig(n, b, bt)
        prob = BvpProblem(n=n, length=length, k_coef=k, nonlinearity=kind, cfg=cfg,
                          bc_left=bcs[0], bc_right=bcs[1], c_hat=c_hat)
        res = solve_fixed_point(prob)
        rhs_bc = np.zeros(n)
        rhs_bc[0], rhs_bc[-1] = -c_hat * bcs[0], -c_hat * bcs[1]
        u = _initial_iterate(prob)
        # Two backward-stable solves differ by at most 2 * 64 eps * kappa of
        # the iterate scale; ||A^{-1}|| <= the published upper bound.
        kappa = (max(abs(b), abs(bt)) + 2.0) * upper_bound(cfg).value
        tol = 2 * 64 * np.finfo(float).eps * kappa * max(0.5, np.abs(res.solution).max())
        for step in res.steps:
            u_next = banded_lu_solve(cfg, prob.h**2 * nonlinearity(prob, u) + rhs_bc, c_hat)
            assert abs(np.abs(u_next - u).max() - step) <= 2 * tol
            u = u_next
        assert np.abs(res.solution - u).max() <= tol

    def test_grid_spacing(self):
        assert fisher_problem(50, 2, 2.0, 0.5, 1.0).h == pytest.approx(0.01)

    @pytest.mark.parametrize("n", [10.0, np.float64(10)], ids=["float", "float64"])
    def test_non_integer_grid_size_is_refused(self, n):
        """A float n equal to the order used to pass here and fail in numpy's array setup."""
        with pytest.raises(ValueError, match="grid size"):
            BvpProblem(n=n, length=1.0, k_coef=1.0, nonlinearity="fisher",
                       cfg=MatrixConfig(10, 2, 2.0))

    def test_numpy_integer_grid_size_is_accepted(self):
        prob = BvpProblem(n=np.int64(10), length=1.0, k_coef=1.0, nonlinearity="fisher",
                          cfg=MatrixConfig(10, 2, 2.0))
        got = solve_fixed_point(prob)
        want = solve_fixed_point(fisher_problem(10, 2, 2.0, 1.0, 1.0))
        assert got.converged and bitwise_equal(got.solution, want.solution)


class TestChat:
    """c_hat, the scaling of -c_hat A, is the problem's last field and its first check."""

    def test_positional_fields_keep_their_places(self):
        cfg = MatrixConfig(10, 2, 2.0)
        names = [f.name for f in dataclasses.fields(BvpProblem)]
        assert names == ["n", "length", "k_coef", "nonlinearity", "cfg", "bc_left", "bc_right",
                         "c_hat"]
        assert BvpProblem(10, 1.0, 1.0, "fisher", cfg).c_hat == -1.0
        assert BvpProblem(10, 1.0, 1.0, "fisher", cfg, 0.1, 0.2, 2.5).c_hat == 2.5

    def test_chat_is_checked_first(self):
        """A bad c_hat is reported before a bad grid size, length or nonlinearity."""
        with pytest.raises(ValueError, match=r"\|c_hat\| must lie in \[2\*\*-400, 2\*\*400\], got 0.0"):
            BvpProblem(n=9, length=-1.0, k_coef=math.nan, nonlinearity="cubic",
                       cfg=MatrixConfig(10, 2, 2.0), c_hat=0.0)

    @pytest.mark.filterwarnings("error")
    def test_chat_is_range_checked_as_a_float(self):
        """A numpy float32 is checked in float64, where 2**-400 does not round to 0; an int
        beyond the float range gets the range error, a str a TypeError."""
        def problem(c_hat):
            return BvpProblem(n=10, length=1.0, k_coef=1.0, nonlinearity="fisher",
                              cfg=MatrixConfig(10, 2, 3.0), c_hat=c_hat)

        with pytest.raises(ValueError, match=r"c_hat"):
            problem(np.float32(0.0))
        assert problem(np.float32(2.0**-126)).c_hat == 2.0**-126
        for big in (10**400, -10**400):
            with pytest.raises(ValueError, match=r"2\*\*400"):
                problem(big)
        with pytest.raises(TypeError):
            problem("2.5")

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_numpy_float_chat_is_stored_as_float(self, dtype):
        """A run equals bit for bit the run of a problem given the same c_hat as a float."""
        def problem(c_hat):
            return BvpProblem(n=20, length=1.0, k_coef=2.0, nonlinearity="bratu",
                              cfg=MatrixConfig(20, -2, 0.3), bc_left=0.1, c_hat=c_hat)

        prob, twin = problem(dtype(-2.5)), problem(float(dtype(-2.5)))
        assert type(prob.c_hat) is float and prob == twin
        got, want = solve_fixed_point(prob), solve_fixed_point(twin)
        assert bitwise_equal(got.solution, want.solution) and got.steps == want.steps
        assert (got.expected_rate, got.observed_rate) == (want.expected_rate, want.observed_rate)


#: (k_coef / -c_hat, max_iter) that end each run converged, at max_iter, or diverged.
REGIMES = {"converged": (0.8, 200), "max_iter": (2.0, 4), "diverged": (60.0, 200)}


def outcome(solver, prob, **kwargs):
    """(result, None) of a finished run, or (partial result, message) of a diverged one."""
    try:
        return solver(prob, **kwargs), None
    except DivergenceError as exc:
        return exc.partial, str(exc)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("regime", list(REGIMES))
@pytest.mark.parametrize("kind", ["fisher", "bratu"])
@pytest.mark.parametrize("b", [2, -2])
def test_bitwise_equal_to_allocating_loop(b, kind, regime):
    """The in-place iteration gives the bits of the loop that allocated its input every step."""
    for n, c_hat in zip((4, 5, 50, 51, 1000, 20001), (-1.0, -1.0, 2.5, 2.5, -0.3, -0.3)):
        k, max_iter = REGIMES[regime]
        prob = BvpProblem(n=n, length=1.0, k_coef=-k * c_hat, nonlinearity=kind,
                          cfg=MatrixConfig(n, b, 2.5 * b), bc_left=0.1, bc_right=0.3, c_hat=c_hat)
        got, message = outcome(solve_fixed_point, prob, max_iter=max_iter)
        want, want_message = outcome(allocating_fixed_point, prob, max_iter=max_iter)
        assert (message is not None, got.converged) == (regime == "diverged", regime == "converged")
        assert message == want_message
        assert bitwise_equal(got.solution, want.solution)
        assert got.steps == want.steps
        assert (got.iterations, got.observed_rate, got.expected_rate) == (
            want.iterations, want.observed_rate, want.expected_rate)


@pytest.mark.parametrize("kind", ["fisher", "bratu"])
@pytest.mark.parametrize("b", [2, -2])
def test_solve_holds_at_most_seven_n_vectors(b, kind):
    """Every n-vector is allocated once per solve, none per step.

    The live vectors are the iterate, the next iterate, one scratch vector and
    the solver's pre, post and mid weights: 6 of 8 n bytes.  The guard allows 7;
    a boundary vector g held 7, and allocating f(u) and a solver buffer 10 to 12.
    """
    n = 100_000
    prob = BvpProblem(n=n, length=1.0, k_coef=1.0, nonlinearity=kind,
                      cfg=MatrixConfig(n, b, 2.5 * b), bc_left=0.1, bc_right=0.3)
    # Predicted rates at which no step of the 30 reaches the rounding floor;
    # Bratu at b = -2 contracts far faster than its prediction.
    rate = 2.5 if (b, kind) == (-2, "bratu") else 0.9
    prob = dataclasses.replace(prob, k_coef=rate / expected_rate(prob))
    tracemalloc.start()
    try:
        res = solve_fixed_point(prob, tol=1e-300, max_iter=30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.iterations, res.converged) == (30, False)
    assert peak <= 7 * 8 * n + 64 * 1024
