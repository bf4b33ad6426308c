"""Trace, row sums, sign patterns, exact norms, and the norm bounds."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neartoeplitz import (
    MatrixConfig,
    UnsupportedCaseError,
    assemble_inverse,
    build_matrix,
    exact_infinity_norm,
    lower_bound,
    reference_norm,
    reference_rowsums,
    reference_trace,
    rowsum,
    rowsums,
    sign_pattern,
    singularity_report,
    trace_inverse,
    upper_bound,
)
from neartoeplitz.analysis import rowsum_bounds
from exact_oracle import exact_norm
from helpers import btilde_samples, exact_grid_norm, grid_norm, grid_norm_rtol, regime_corners


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
                    if singularity_report(n, b, bt)["singular"]:  # 0.95 is (n-3)/(n-1) at n = 41
                        continue
                    cfg = MatrixConfig(n, b, bt)
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
        """A commutes with the exchange matrix for either sign of b, so A^{-1} does too."""
        for cfg in (MatrixConfig(9, 2, -0.8), MatrixConfig(10, 2, 4.4), MatrixConfig(7, -2, 2.2),
                    MatrixConfig(8, -2, -0.8)):
            vals = rowsums(cfg)
            assert np.max(np.abs(vals - vals[::-1])) <= 1e-12 * max(1.0, np.max(np.abs(vals)))

    def test_odd_n_negative_b_against_oracle(self):
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
        assert pat[0][0] == -1
        assert pat[2][2] == 1
        assert pat[0][4] == 1

    def test_zero_corner_pins(self):
        pat = sign_pattern(MatrixConfig(6, 2, 0.0))
        assert pat[1][3] == 0
        assert pat[0][1] == -1

    def test_symmetric_and_centrosymmetric(self):
        pat = np.array(sign_pattern(MatrixConfig(9, 2, -0.25)))
        assert np.array_equal(pat, pat.T)
        assert np.array_equal(pat, pat[::-1, ::-1])

    def test_unsupported_cases(self):
        with pytest.raises(UnsupportedCaseError):
            sign_pattern(MatrixConfig(6, -2, -1.5))  # -1.0 is a singular corner
        with pytest.raises(UnsupportedCaseError):
            sign_pattern(MatrixConfig(6, 2, 0.5))

    @pytest.mark.parametrize("bt", [-1.0, 0.0])
    def test_rows_are_shared(self, bt):
        # At most five distinct rows: n rows of n ints take O(n) memory, not n^2.
        for n in (4, 5, 17):
            pat = sign_pattern(MatrixConfig(n, 2, bt))
            assert len(pat) == n and {len(row) for row in pat} == {n}
            assert all(type(row) is tuple and type(row[0]) is int for row in pat)
            assert len({id(row) for row in pat}) <= 5
        tracemalloc.start()
        try:
            pat = sign_pattern(MatrixConfig(2**14, 2, bt))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Five rows and the outer tuple are 768 KiB; an int8 array would be 256 MiB.
        assert len({id(row) for row in pat}) <= 5
        assert peak < 2**20


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


#: Orders of the exact-oracle sweep; its 28 regime corners at n = 24 take about 0.9 s.
EXACT_SWEEP_N = (*range(4, 10), 12, 17, 24)


@pytest.mark.parametrize("n", EXACT_SWEEP_N)
def test_norm_is_the_correctly_rounded_exact_norm(n):
    """The norm is the exact rational norm of the Gauss-Jordan inverse, rounded once."""
    for b in (2, -2):
        for bt in regime_corners(n, b):
            if not singularity_report(n, b, bt)["singular"]:
                cfg = MatrixConfig(n, b, bt)
                assert exact_infinity_norm(cfg) == float(exact_norm(n, b, bt)), (b, bt)


@pytest.mark.parametrize("n, b, bt", [(13, 2, 11.0), (200, 2, 0.999927), (13, -2, -11.0),
                                      (200, -2, -0.999927)])
def test_sandwich_holds_exactly_where_a_bound_is_attained(n, b, bt):
    # The float grid sum gave 18.650000000000002 > U = 18.65 at the first cell and
    # 1369863.0136988151 < L = 1369863.0136988226 at the second; the exact norm equals
    # the bound attained there, with no tolerance.
    cfg = MatrixConfig(n, b, bt)
    assert lower_bound(cfg) <= exact_infinity_norm(cfg) <= upper_bound(cfg).value


class TestBandedNorm:
    """The integer norm against the full grid of the closed form: equal to the grid's exact
    norm over every row (``helpers.exact_grid_norm``), and within ``helpers.grid_norm_rtol``
    of the float grid sum (``helpers.grid_norm``)."""

    @pytest.mark.parametrize("n", [*range(4, 81), 127, 128, 129, 191, 192, 193, 257, 1000])
    def test_bitwise_equal_to_grid_norm(self, n):
        for b in (2, -2):
            for bt in regime_corners(n, b):
                cfg = MatrixConfig(n, b, bt)
                norm = exact_infinity_norm(cfg)
                assert norm == exact_grid_norm(cfg), (b, bt)
                assert grid_norm(cfg) == pytest.approx(norm, rel=grid_norm_rtol(cfg)), (b, bt)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 600), b=st.sampled_from([2, -2]), bt=st.floats(-8, 8))
    def test_mirrored_rows_sum_as_the_full_grid(self, n, b, bt):
        # Only the top ceil(n/2) rows are summed; their mirrors are the same exact sums.
        if not singularity_report(n, b, bt)["singular"]:
            cfg = MatrixConfig(n, b, bt)
            assert exact_infinity_norm(cfg) == exact_grid_norm(cfg)

    def test_memory_is_constant(self):
        # The integer pass holds a few ints: about 4 KiB at b_tilde = 1e-300, whose integers
        # have some 2,000 bits.
        tracemalloc.start()
        try:
            for b, bt in ((2, -0.4), (-2, 3.0), (2, 1e-300)):
                exact_infinity_norm(MatrixConfig(2**14, b, bt))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**14


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


def test_trace_matches_diagonal_sum():
    for n in (6, 13, 20):
        for b in (2, -2):
            for bt in btilde_samples(n, b, count=12):
                cfg = MatrixConfig(n, b, float(bt))
                diag_sum = float(np.trace(assemble_inverse(cfg).entries))
                assert trace_inverse(cfg) == pytest.approx(diag_sum, rel=1e-10)
