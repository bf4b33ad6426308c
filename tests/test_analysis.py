"""Trace, row sums, sign patterns, exact norms, and the norm bounds."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neartoeplitz import (
    MatrixConfig,
    SingularMatrixError,
    UnsupportedCaseError,
    build_matrix,
    exact_infinity_norm,
    is_singular,
    lower_bound,
    reference_inverse,
    reference_norm,
    reference_rowsums,
    reference_trace,
    rowsum,
    rowsums,
    sign_pattern,
    trace_inverse,
    upper_bound,
)
from neartoeplitz.analysis import rowsum_bounds
from neartoeplitz.core import _bands

from helpers import bitwise_equal, btilde_samples, grid_norm, index_grid, regime_corners


class TestTrace:
    def test_toeplitz_value(self):
        # beta = 0 leaves only the n(n+2)/(3b) term
        assert trace_inverse(MatrixConfig(4, 2, 2.0)) == pytest.approx(4.0, rel=1e-15)

    def test_against_oracle_positive_b(self):
        cfg = MatrixConfig(10, 2, 5.93)
        assert trace_inverse(cfg) == pytest.approx(reference_trace(build_matrix(cfg)), rel=1e-10)

    def test_against_oracle_negative_b(self):
        cfg = MatrixConfig(6, -2, -3.0)
        got = trace_inverse(cfg)
        assert got == pytest.approx(reference_trace(build_matrix(cfg)), rel=1e-10)
        assert got == pytest.approx(-73 / 12, rel=1e-12)

    def test_singular_rejection(self):
        with pytest.raises(SingularMatrixError):
            trace_inverse(MatrixConfig(7, 2, 1.0))


class TestRowSums:
    def test_toeplitz_row(self):
        assert rowsum(MatrixConfig(4, 2, 2.0), 2) == pytest.approx(3.0, rel=1e-15)

    def test_odd_n_negative_b(self):
        assert rowsum(MatrixConfig(5, -2, -2.0), 1) == pytest.approx(-0.5, rel=1e-15)

    def test_even_n_negative_b_against_oracle(self):
        cfg = MatrixConfig(6, -2, 1.5)
        ref = reference_rowsums(build_matrix(cfg))
        assert rowsum(cfg, 3) == pytest.approx(ref[2], rel=1e-10)
        assert np.allclose(rowsums(cfg), ref, rtol=1e-10, atol=1e-12)

    def test_index_error(self):
        with pytest.raises(IndexError):
            rowsum(MatrixConfig(6, 2, 3.0), 7)

    def test_single_row_is_bitwise_the_row_of_rowsums(self):
        """One row evaluates the rowsums expression at its index: equal bit for bit, so the sign
        of every zero too.  All rows up to n = 1000, sampled rows at n = 4001 and 10^5."""
        rng = np.random.default_rng(12)
        zeros = 0
        for n in [*range(4, 80), 101, 1000, 4001, 10**5]:
            rows = range(1, n + 1) if n <= 1000 else [1, 2, 3, n // 2, n // 2 + 1, n - 1, n,
                                                      *rng.integers(1, n + 1, 16).tolist()]
            for b in (2, -2):
                s1, s2 = b / 2, b / 2 * (n - 3) / (n - 1)
                near = [p + d for p in (s1, s2) for d in (1e-9, -1e-9)]
                corners = [3.0, 0.95, 0.0, -0.0, -2.5, 2.0, -2.0, *near, *rng.uniform(-4, 4, 3)]
                for bt in corners:
                    cfg = MatrixConfig(n, b, bt)
                    if is_singular(cfg):  # 0.95 is the corner (n-3)/(n-1) at n = 41
                        continue
                    one = np.array([rowsum(cfg, i) for i in rows])
                    every = rowsums(cfg)[np.array(rows) - 1]
                    assert np.array_equal(one.view(np.int64), every.view(np.int64)), cfg
                    zeros += int(np.count_nonzero(one == 0.0))
        assert zeros > 0

    def test_single_row_allocates_no_array(self):
        tracemalloc.start()
        try:
            for n in (10**6, 10**6 + 1):
                for b, bt in ((2, 3.0), (2, -0.5), (-2, 0.95), (-2, -2.5)):
                    rowsum(MatrixConfig(n, b, bt), n // 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_centrosymmetry_of_rowsums(self):
        for cfg in (MatrixConfig(9, 2, -0.8), MatrixConfig(10, 2, 4.4)):
            vals = rowsums(cfg)
            assert np.max(np.abs(vals - vals[::-1])) <= 1e-12 * max(1.0, np.max(np.abs(vals)))

    def test_negative_b_rowsums_not_centrosymmetric_but_sign_flipped(self):
        # with b = -2 the row sums alternate; reversing matches up to the
        # parity structure, so only check they agree with the oracle
        cfg = MatrixConfig(7, -2, 2.2)
        assert np.allclose(rowsums(cfg), reference_rowsums(build_matrix(cfg)), rtol=1e-10, atol=1e-12)


class TestRowSumBounds:
    def test_published_style_lower(self):
        lower, _ = rowsum_bounds(MatrixConfig(10, 2, 5.93))
        assert lower == pytest.approx(10 / (2 * 4.93), rel=1e-12)
        vals = rowsums(MatrixConfig(10, 2, 5.93))
        assert vals.min() >= lower - 1e-12

    def test_toeplitz_upper(self):
        _, upper = rowsum_bounds(MatrixConfig(4, 2, 2.0))
        assert upper == pytest.approx(25 / 8, rel=1e-15)
        top = rowsums(MatrixConfig(4, 2, 2.0)).max()
        assert top == pytest.approx(3.0)
        assert top <= upper

    def test_sandwich_against_oracle(self):
        cfg = MatrixConfig(8, 2, 0.2)
        ref = reference_rowsums(build_matrix(cfg))
        lower, upper = rowsum_bounds(cfg)
        assert lower - 1e-12 <= ref.min() and ref.max() <= upper + 1e-12

    def test_lower_bound_attained_at_first_row(self):
        cfg = MatrixConfig(9, 2, 3.3)
        lower, _ = rowsum_bounds(cfg)
        assert rowsum(cfg, 1) == pytest.approx(lower, rel=1e-12)

    def test_unsupported_for_negative_b(self):
        with pytest.raises(UnsupportedCaseError):
            rowsum_bounds(MatrixConfig(6, -2, 0.5))


class TestSignPattern:
    def test_negative_corner_pins(self):
        pat = sign_pattern(MatrixConfig(5, 2, -1.0))
        assert pat[0, 0] == -1
        assert pat[2, 2] == 1
        assert pat[0, 4] == 1

    def test_zero_corner_pins(self):
        pat = sign_pattern(MatrixConfig(6, 2, 0.0))
        assert pat[1, 3] == 0
        assert pat[0, 1] == -1

    def test_matches_oracle_sign(self):
        for n in (5, 8, 11):
            for bt in (-3.0, -1.0, -0.5, 0.0):
                cfg = MatrixConfig(n, 2, bt)
                ref = reference_inverse(build_matrix(cfg)).entries
                signs = np.sign(ref)
                signs[np.abs(ref) <= 1e-12] = 0
                assert np.array_equal(sign_pattern(cfg), signs.astype(int))

    def test_symmetric_and_centrosymmetric(self):
        pat = sign_pattern(MatrixConfig(9, 2, -0.25))
        assert np.array_equal(pat, pat.T)
        assert np.array_equal(pat, pat[::-1, ::-1])

    def test_unsupported_cases(self):
        with pytest.raises(UnsupportedCaseError):
            sign_pattern(MatrixConfig(6, -2, -1.0))
        with pytest.raises(UnsupportedCaseError):
            sign_pattern(MatrixConfig(6, 2, 0.5))


class TestExactNorm:
    def test_published_value(self):
        assert exact_infinity_norm(MatrixConfig(10, 2, 5.93)) == pytest.approx(11.014, abs=5e-4)

    def test_toeplitz_odd_order(self):
        # for the pure Toeplitz case with odd n the norm is (n+1)^2/8 exactly
        assert exact_infinity_norm(MatrixConfig(5, 2, 2.0)) == pytest.approx(4.5, rel=1e-15)

    def test_against_oracle(self):
        for n, b, bt in [(12, 2, -4.0), (13, -2, -6.28), (19, 2, 3.03), (9, -2, 0.35)]:
            cfg = MatrixConfig(n, b, bt)
            assert exact_infinity_norm(cfg) == pytest.approx(
                reference_norm(build_matrix(cfg)), rel=1e-10
            )

    def test_tightness_above_one(self):
        # all entries positive, so the norm is the max row sum
        for n, bt in [(10, 5.93), (15, 1.2), (22, 6.39)]:
            cfg = MatrixConfig(n, 2, bt)
            assert exact_infinity_norm(cfg) == pytest.approx(rowsums(cfg).max(), rel=1e-12)

    def test_norm_parity(self):
        for n, bt in [(9, 3.1), (14, -0.62), (21, -7.3)]:
            a = exact_infinity_norm(MatrixConfig(n, -2, bt))
            b = exact_infinity_norm(MatrixConfig(n, 2, -bt))
            assert a == b


class TestBandedNorm:
    """The norm summed band by band against the full-grid reduction, bit for bit."""

    @pytest.mark.parametrize("n", [*range(4, 81), 127, 128, 129, 191, 192, 193, 257, 1000])
    def test_bitwise_equal_to_grid_norm(self, n):
        for b in (2, -2):
            for bt in regime_corners(n, b):
                cfg = MatrixConfig(n, b, bt)
                assert exact_infinity_norm(cfg) == grid_norm(cfg), (b, bt)
                if n <= 257:
                    # |u| |v| / |D| rounds as u v / D does, up to sign: every entry of
                    # the top ceil(n/2) rows, not only sums.
                    bands = np.vstack([band.copy() for band in _bands(cfg, absolute=True)])
                    top = np.abs(index_grid(cfg))[: (n + 1) // 2]
                    assert bitwise_equal(bands, top), (b, bt)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 600), b=st.sampled_from([2, -2]), bt=st.floats(-8, 8))
    def test_mirrored_rows_sum_as_the_full_grid(self, n, b, bt):
        # Rows n+1-i are summed through a reversed view of row i, in the full grid's order.
        cfg = MatrixConfig(n, b, bt)
        if not is_singular(cfg):
            assert exact_infinity_norm(cfg) == grid_norm(cfg)

    def test_memory_is_one_band(self):
        # The n x n grid alone is 128 MiB at n = 4096; one band of 64 rows is 2 MiB.
        tracemalloc.start()
        try:
            for b, bt in ((2, -0.4), (-2, 3.0)):
                cfg = MatrixConfig(4096, b, bt)
                exact_infinity_norm(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestLowerBound:
    def test_published_style_value(self):
        value = lower_bound(MatrixConfig(10, 2, 5.93))
        assert value == pytest.approx(max(abs(10 + 10 / (2 * 4.93)), 10 / (2 * 4.93)), rel=1e-12)
        assert value <= exact_infinity_norm(MatrixConfig(10, 2, 5.93)) + 1e-12

    def test_toeplitz_case(self):
        cfg = MatrixConfig(4, 2, 2.0)
        assert lower_bound(cfg) == pytest.approx(3.0, rel=1e-14)
        assert lower_bound(cfg) <= exact_infinity_norm(cfg)

    def test_below_oracle_norm(self):
        for bt in (0.9, -1.4, 6.0):
            cfg = MatrixConfig(8, 2, bt)
            assert lower_bound(cfg) <= reference_norm(build_matrix(cfg)) * (1 + 1e-12)

    def test_negative_b_mirrors(self):
        assert lower_bound(MatrixConfig(11, -2, -4.4)) == lower_bound(MatrixConfig(11, 2, 4.4))


class TestUpperBound:
    def test_branch_above_one(self):
        ub = upper_bound(MatrixConfig(10, 2, 5.93))
        assert ub.value == pytest.approx(11.139, abs=5e-4)
        assert ub.branch == "btilde_gt_1"
        assert ub.terms == {}

    def test_branch_below_minus_one_for_negative_b(self):
        ub = upper_bound(MatrixConfig(13, -2, -6.28))
        gamma_plus = (2 - 6.28) / (1 - 6.28)
        assert ub.value == pytest.approx(196 / 8 - 13 * gamma_plus / 2, rel=1e-12)
        assert ub.branch == "btilde_lt_m1"
        assert ub.value >= exact_infinity_norm(MatrixConfig(13, -2, -6.28)) - 1e-12

    def test_nonpositive_corner_collapses_to_S(self):
        cfg = MatrixConfig(13, 2, -2.28)
        ub = upper_bound(cfg)
        assert ub.branch == "btilde_le_0"
        S = 196 / 8 + (4 - 13 * (2 + 2.28)) / (2 * (1 + 2.28))
        assert ub.value == pytest.approx(S, rel=1e-12)
        assert set(ub.terms) == {"S", "T"}
        # odd n: the norm attains the bound
        assert exact_infinity_norm(cfg) == pytest.approx(ub.value, rel=1e-12)

    def test_terms_population_by_branch(self):
        n = 12
        low, high = (n - 3) / (n - 1), (n - 2) / (n - 1)
        assert set(upper_bound(MatrixConfig(n, 2, (low + high) / 2)).terms) == {"P", "Q"}
        assert set(upper_bound(MatrixConfig(n, 2, 0.3)).terms) == {"P", "R"}
        assert upper_bound(MatrixConfig(n, 2, (high + 1) / 2)).terms == {}

    def test_endpoint_attribution(self):
        n = 11
        edge = (n - 2) / (n - 1)
        assert upper_bound(MatrixConfig(n, 2, edge)).branch == "nm2_le_btilde_lt_1"
        assert upper_bound(MatrixConfig(n, 2, 0.0)).branch == "btilde_le_0"
        assert upper_bound(MatrixConfig(n, -2, -edge)).branch == "m1_lt_btilde_le_mnm2"
        assert upper_bound(MatrixConfig(n, -2, 0.0)).branch == "btilde_ge_0"

    def test_mirror_equals_positive_case(self):
        for n, bt in [(9, 0.44), (16, -3.1), (23, 5.5)]:
            a = upper_bound(MatrixConfig(n, -2, bt))
            b = upper_bound(MatrixConfig(n, 2, -bt))
            assert a.value == pytest.approx(b.value, rel=1e-14)
            assert a.terms.keys() == b.terms.keys()

    def test_bounds_report_composition(self):
        """The three numbers the CLI's ``bounds`` report puts side by side."""
        cfg = MatrixConfig(10, 2, 5.93)
        ub = upper_bound(cfg)
        assert lower_bound(cfg) <= exact_infinity_norm(cfg) <= ub.value
        assert ub.branch == "btilde_gt_1"


@settings(max_examples=100, deadline=None)
@given(n=st.integers(5, 26), b=st.sampled_from([2, -2]), bt=st.floats(-8, 8))
def test_sandwich_property(n, b, bt):
    """Lower bound <= exact norm <= upper bound away from singular points."""
    sign = 1.0 if b > 0 else -1.0
    if min(abs(bt - sign), abs(bt - sign * (n - 3) / (n - 1))) <= 1e-4:
        return
    cfg = MatrixConfig(n, b, bt)
    norm = exact_infinity_norm(cfg)
    assert lower_bound(cfg) <= norm * (1 + 1e-12) + 1e-12
    assert upper_bound(cfg).value >= norm * (1 - 1e-12) - 1e-12


@settings(max_examples=200, deadline=None)
@given(n=st.integers(9, 10**6), b=st.sampled_from([2, -2]), magnitude=st.floats(0, 1e6))
def test_s_dominates_t_for_nonpositive_corners(n, b, magnitude):
    """For n >= 9 and b_tilde <= 0 (mirrored for b = -2) max{S, T} is S."""
    ub = upper_bound(MatrixConfig(n, b, -magnitude if b == 2 else magnitude))
    assert ub.branch in ("btilde_le_0", "btilde_ge_0")
    assert ub.terms["S"] >= ub.terms["T"]
    assert ub.value == ub.terms["S"]


def test_corollary_equality_for_odd_orders():
    """For odd n >= 9 and b_tilde <= 0 the norm equals the S term exactly."""
    for n in range(9, 30, 2):
        for bt in (-4.0, -1.0, 0.0):
            cfg = MatrixConfig(n, 2, bt)
            S = (n + 1) ** 2 / 8 + (4 - (2 + abs(bt)) * n) / (2 * (1 + abs(bt)))
            assert exact_infinity_norm(cfg) == pytest.approx(S, abs=1e-10 * max(1, abs(S)))


def test_trace_matches_diagonal_sum():
    for n in (6, 13, 20):
        for b in (2, -2):
            for bt in btilde_samples(n, b, count=12):
                cfg = MatrixConfig(n, b, float(bt))
                from neartoeplitz import assemble_inverse

                diag_sum = float(np.trace(assemble_inverse(cfg).entries))
                assert trace_inverse(cfg) == pytest.approx(diag_sum, rel=1e-10)
