"""Dense reference path: construction, elimination, breakdown behavior."""

import tracemalloc

import numpy as np
import pytest

from neartoeplitz import (
    BvpProblem,
    MatrixConfig,
    SingularMatrixError,
    assemble_inverse,
    build_matrix,
    reference_inverse,
    reference_norm,
    reference_rowsums,
    reference_trace,
    singularity_report,
)

from helpers import bitwise_equal, masked_gauss_jordan, regime_corners, singular_matrix


def tridiag(n, b):
    m = np.diag(np.full(n, float(b))) + np.diag(np.full(n - 1, -1.0), 1) + np.diag(np.full(n - 1, -1.0), -1)
    return m


def bvp_problem(cfg, **kwargs):
    return BvpProblem(n=cfg.n, length=1.0, k_coef=1.0, nonlinearity="fisher", cfg=cfg, **kwargs)


def assert_scaled_inverse(prob):
    """-c_hat A of a BVP problem times the closed-form inverse divided by -c_hat is the identity."""
    scaled = -prob.c_hat * build_matrix(prob.cfg)
    product = scaled @ (assemble_inverse(prob.cfg).entries / -prob.c_hat)
    assert np.max(np.abs(product - np.eye(prob.n))) <= 1e-12


class TestBuildMatrix:
    def test_toeplitz_corner(self):
        m = build_matrix(MatrixConfig(4, 2, 2.0))
        assert np.array_equal(m, tridiag(4, 2))

    def test_default_scaling_is_identity(self):
        prob = bvp_problem(MatrixConfig(4, 2, 7.0))
        assert prob.c_hat == -1.0
        assert_scaled_inverse(prob)
        scaled = assemble_inverse(prob.cfg).entries / -prob.c_hat
        assert np.array_equal(scaled, assemble_inverse(prob.cfg).entries)

    def test_corner_placement(self):
        m = build_matrix(MatrixConfig(4, -2, 0.5))
        assert list(np.diag(m)) == [0.5, -2.0, -2.0, 0.5]
        assert m[0, 1] == -1.0 and m[2, 3] == -1.0
        assert m[0, 2] == 0.0

    def test_scaled_multiplies_by_minus_chat(self):
        assert_scaled_inverse(bvp_problem(MatrixConfig(4, 2, 3.0), c_hat=2.5))


class TestReferenceInverse:
    def test_hand_computed_3x3(self):
        inv = reference_inverse(tridiag(3, 2))
        expected = np.array([[3, 2, 1], [2, 4, 2], [1, 2, 3]]) / 4.0
        assert np.max(np.abs(inv.entries - expected)) <= 1e-14
        # At n = 4: 4/5 at (1, 1) for b = 2, and 3/5 at (2, 1) for b = -2.
        assert reference_inverse(tridiag(4, 2)).entries[0, 0] == pytest.approx(0.8, abs=1e-14)
        assert reference_inverse(tridiag(4, -2)).entries[1, 0] == pytest.approx(0.6, abs=1e-14)

    def test_identity(self):
        inv = reference_inverse(np.eye(4))
        assert np.array_equal(inv.entries, np.eye(4))

    def test_breakdown_on_singular_configuration(self):
        m = singular_matrix(5, 2, 1.0)
        with pytest.raises(SingularMatrixError):
            reference_inverse(m)

    def test_breakdown_on_zero_matrix(self):
        with pytest.raises(SingularMatrixError):
            reference_inverse(np.zeros((3, 3)))

    def test_self_consistency(self):
        for n, b, bt in [(6, 2, 4.2), (11, -2, -0.3), (17, 2, -5.0), (24, -2, 6.6)]:
            m = build_matrix(MatrixConfig(n, b, bt))
            inv = reference_inverse(m)
            residual = m @ inv.entries - np.eye(n)
            assert np.max(np.abs(residual)) <= 1e-10 * n

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            reference_inverse(np.zeros((3, 4)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            reference_inverse(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        m = tridiag(4, 2)
        m[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            reference_inverse(m)


class TestReferenceSummaries:
    def test_norm_3x3(self):
        assert reference_norm(tridiag(3, 2)) == pytest.approx(2.0, abs=1e-14)

    def test_trace_3x3(self):
        assert reference_trace(tridiag(3, 2)) == pytest.approx(2.5, abs=1e-14)

    def test_identity_summaries(self):
        assert reference_norm(np.eye(4)) == 1.0
        assert reference_trace(np.eye(4)) == 4.0
        assert np.array_equal(reference_rowsums(np.eye(4)), np.ones(4))

    def test_rowsums_match_inverse(self):
        m = build_matrix(MatrixConfig(8, 2, -1.7))
        inv = reference_inverse(m)
        assert np.allclose(reference_rowsums(m), inv.entries.sum(axis=1), rtol=1e-14)


def outcome(invert, m):
    """The inverse, or the breakdown message."""
    try:
        return invert(m)
    except SingularMatrixError as exc:
        return str(exc)


def assert_same_outcome(m):
    got = outcome(lambda a: reference_inverse(a).entries, m)
    want = outcome(masked_gauss_jordan, m)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert bitwise_equal(got, want)


class TestInPlaceElimination:
    """The in-place row update against the masked Gauss-Jordan step, bit for bit."""

    def test_operator_sweep(self):
        for n in (4, 5, 6, 7, 8, 9, 12, 17, 24, 31, 60):
            for b in (2, -2):
                for bt in regime_corners(n, b):
                    assert_same_outcome(build_matrix(MatrixConfig(n, b, bt)))
                    assert_same_outcome(build_matrix(MatrixConfig(n, b, bt)) * -2.5)

    def test_same_breakdown_at_both_singular_corners(self):
        for n in (4, 5, 6, 9, 16, 31, 60):
            for b in (2, -2):
                for bt in singularity_report(n, b, 2.0)["singular_points"]:
                    m = singular_matrix(n, b, bt)
                    with pytest.raises(SingularMatrixError):
                        reference_inverse(m)
                    assert_same_outcome(m)

    def test_random_dense(self):
        rng = np.random.default_rng(20261018)
        for trial in range(300):
            n = int(rng.integers(1, 101))
            m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-8, 9)
            if trial % 4 == 0:
                m[rng.random((n, n)) < 0.5] = -0.0
            if trial % 4 == 1:
                # Diagonally dominant with its rows shuffled: a row swap at nearly every column.
                m = (m + np.diag(np.full(n, 3.0 * n * np.abs(m).max())))[rng.permutation(n)]
            if trial % 5 == 0 and n > 1:
                m[:, -1] = m[:, 0]
            assert_same_outcome(m)
        assert_same_outcome(np.zeros((3, 3)))
        assert_same_outcome(np.diag([-1.0, -2.0, 4.0]))

    def test_peak_memory_is_two_matrices(self):
        # The copy and one update buffer: about 2.4 matrices at n = 200.
        n = 200
        m = build_matrix(MatrixConfig(n, 2, 0.7))
        tracemalloc.start()
        try:
            reference_inverse(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n * n
