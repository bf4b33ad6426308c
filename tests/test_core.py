"""Entry formulas, derived parameters, singularity detection, assembly."""

import copy
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from neartoeplitz import (
    BvpProblem,
    DenseSizeError,
    MatrixConfig,
    SingularMatrixError,
    assemble_inverse,
    build_matrix,
    exact_infinity_norm,
    is_singular,
    lower_bound,
    near_toeplitz_inverse_entry,
    reference_inverse,
    rowsum,
    sign_pattern,
    singularity_report,
    solve_fixed_point,
    trace_inverse,
    upper_bound,
)
from neartoeplitz.analysis import _BRANCHES_B2, _BRANCHES_BM2
from neartoeplitz.cli import main
from neartoeplitz.config import _MAX_DENSE_ORDER

from helpers import (
    allocating_inverse_solver,
    banded_lu_solve,
    bitwise_equal,
    btilde_samples,
    derived_params,
    entry_b2_simplified,
    index_grid,
    inverse_solver,
    oracle_entries,
    regime_corners,
    tril_mirror_assembly,
)


def tridiag(n, b):
    return np.diag(np.full(n, float(b))) + np.diag(np.full(n - 1, -1.0), 1) + np.diag(np.full(n - 1, -1.0), -1)


def toeplitz_entry(n, b, i, j):
    """Entry (i, j) of the inverse of tridiag(-1, b, -1): the corner equal to the diagonal."""
    return near_toeplitz_inverse_entry(MatrixConfig(n, b, b), i, j)


def nonsingular_btilde(n, b):
    sign = 1.0 if b > 0 else -1.0
    return st.floats(-8, 8).filter(
        lambda bt: min(abs(bt - sign), abs(bt - sign * (n - 3) / (n - 1))) > 1e-4
    )


class TestToeplitzEntry:
    def test_top_left_4x4(self):
        # dense elimination oracle for the 4x4 case gives 4/5 at (1, 1)
        inv = reference_inverse(tridiag(4, 2))
        assert inv.entries[0, 0] == pytest.approx(0.8, abs=1e-14)
        assert toeplitz_entry(4, 2, 1, 1) == pytest.approx(0.8, abs=1e-14)

    def test_negative_b_4x4(self):
        inv = reference_inverse(tridiag(4, -2))
        assert toeplitz_entry(4, -2, 2, 1) == pytest.approx(inv.entries[1, 0], abs=1e-14)
        assert toeplitz_entry(4, -2, 2, 1) == pytest.approx(0.6, abs=1e-14)

    def test_corner_entry(self):
        assert toeplitz_entry(5, 2, 5, 1) == pytest.approx(1 / 6, rel=1e-15)

    def test_symmetry_swap(self):
        assert toeplitz_entry(7, 2, 2, 5) == toeplitz_entry(7, 2, 5, 2)
        assert toeplitz_entry(7, -2, 2, 5) == toeplitz_entry(7, -2, 5, 2)

    def test_parity_against_positive_b(self):
        for i in range(1, 7):
            for j in range(1, 7):
                plus = toeplitz_entry(6, 2, i, j)
                minus = toeplitz_entry(6, -2, i, j)
                assert minus == pytest.approx((-1.0) ** (abs(i - j) + 1) * plus, rel=1e-15)

    def test_exact_integer_formula(self):
        for n in range(4, 41):
            for b in (2, -2):
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        lo, hi = min(i, j), max(i, j)
                        want = lo * (n + 1 - hi) / (n + 1)
                        if b == -2 and (hi + 1 - lo) % 2 == 1:
                            want = -want
                        assert toeplitz_entry(n, b, i, j) == want

    def test_all_positive_for_b2(self):
        vals = [toeplitz_entry(8, 2, i, j) for i in range(1, 9) for j in range(1, 9)]
        assert min(vals) > 0

    def test_index_errors(self):
        with pytest.raises(IndexError):
            toeplitz_entry(5, 2, 0, 1)
        with pytest.raises(IndexError):
            toeplitz_entry(5, 2, 1, 6)
        with pytest.raises(ValueError):
            toeplitz_entry(5, 3, 1, 1)


def _fisher_run(max_iter):
    cfg = MatrixConfig(8, -2, -3.0)
    prob = BvpProblem(n=8, length=0.5, k_coef=4.0, nonlinearity="fisher", cfg=cfg)
    res = solve_fixed_point(prob, max_iter=max_iter)
    return res.iterations, res.steps, res.solution.tolist()


#: Integer arguments, each as a function of the argument under test.
INTEGER_ARGUMENTS = {
    "entry_index": lambda k: near_toeplitz_inverse_entry(MatrixConfig(6, -2, 0.3), k, 1),
    "toeplitz_order": lambda k: toeplitz_entry(6, 2, 1, k),
    "max_iter": _fisher_run,
}


@pytest.mark.parametrize("bad", [2.5, "1", np.float64(2.0)], ids=["float", "str", "float64"])
@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_non_integers(name, bad):
    with pytest.raises(TypeError):
        INTEGER_ARGUMENTS[name](bad)


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_accept_numpy_integers(name):
    assert INTEGER_ARGUMENTS[name](np.int64(2)) == INTEGER_ARGUMENTS[name](2)


class TestMatrixConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MatrixConfig(3, 2, 1.5)
        with pytest.raises(ValueError):
            MatrixConfig(5, 1, 1.5)
        with pytest.raises(TypeError):  # c_hat belongs to BvpProblem and the CLI
            MatrixConfig(5, 2, 1.5, c_hat=-1.0)
        with pytest.raises(ValueError):
            MatrixConfig(5, 2, float("nan"))
        with pytest.raises(ValueError):
            MatrixConfig(10.0, 2, 1.5)
        with pytest.raises(ValueError):
            MatrixConfig(2**53 + 1, 2, 1.5)
        assert MatrixConfig(2**53, 2, 1.5).n == 2**53

    @pytest.mark.parametrize("bt", [2.3e307, 1e160, math.nextafter(2.0**400, math.inf)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_corner_above_2_400_is_refused(self, bt, sign):
        """Beyond |b_tilde| = 2**400 a generator product, D or a bound term can overflow."""
        for b in (2, -2):
            with pytest.raises(ValueError, match=r"2\*\*400"):
                MatrixConfig(8, b, sign * bt)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_corner_at_2_400_has_finite_scalars(self, sign):
        for n, b in ((8, 2), (8, -2), (2**53, 2), (2**53, -2)):
            cfg = MatrixConfig(n, b, sign * 2.0**400)
            ub = upper_bound(cfg)
            values = [trace_inverse(cfg), lower_bound(cfg), ub.value, *ub.terms.values(),
                      rowsum(cfg, 1), near_toeplitz_inverse_entry(cfg, n, 1),
                      singularity_report(cfg)["delta"]]
            assert all(math.isfinite(v) for v in values), (n, b, values)
            assert lower_bound(cfg) <= ub.value

    @pytest.mark.parametrize("edge", [2.0**-400, 2.0**400])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_chat_range_ends_at_2_400(self, edge, sign, capsys):
        """2**-400 <= |c_hat| <= 2**400 keeps an entry divided by -c_hat finite and nonzero.

        The check is ``config._c_hat``, beside the corner range check; ``BvpProblem`` and the
        CLI's ``entry`` and ``invert`` share it, and ``MatrixConfig`` takes no c_hat."""
        def cli(*argv):
            code, out, err = main(list(argv)), *capsys.readouterr()
            return code, (json.loads(out)["outputs"] if code == 0 else json.loads(err)["error"])

        def problem(c_hat):
            return BvpProblem(n=8, length=1.0, k_coef=1.0, nonlinearity="fisher",
                              cfg=MatrixConfig(8, 2, 3.0), c_hat=c_hat)

        c_hat = sign * edge
        assert problem(c_hat).c_hat == c_hat
        code, got = cli("entry", "--n", str(2**53), "--b", "2", "--btilde", repr(1 + 2e-10),
                        "--i", str(2**52), "--j", str(2**52), f"--chat={c_hat!r}")
        assert code == 0 and math.isfinite(got["value"]) and got["value"] != 0.0
        code, got = cli("entry", "--n", "8", "--b", "2", "--btilde", "0", "--i", "8", "--j", "1",
                        f"--chat={c_hat!r}")
        assert code == 0 and got["value"] != 0.0
        code, got = cli("invert", "--n", "8", "--b", "2", "--btilde", "3", f"--chat={c_hat!r}")
        assert code == 0 and np.all(np.array(got["entries"]) != 0.0)
        beyond = math.nextafter(edge, 0.0 if edge < 1 else math.inf)
        for c_hat in (beyond, -beyond, 0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"c_hat"):
                problem(c_hat)
            for argv in (["entry", "--i", "8", "--j", "1"], ["invert"]):
                code, got = cli(*argv, "--n", "8", "--b", "2", "--btilde", "0", f"--chat={c_hat!r}")
                assert code == 2 and "c_hat" in got["message"], (argv, c_hat)

    def test_numpy_integer_order(self):
        cfg = MatrixConfig(np.int64(10), 2, 3.0)
        assert cfg == MatrixConfig(10, 2, 3.0)
        assert type(cfg.n) is int
        with pytest.raises(ValueError):
            MatrixConfig(np.int32(3), 2, 3.0)

    @pytest.mark.filterwarnings("error")
    def test_float_fields_are_range_checked_as_floats(self):
        """A numpy float32 is checked in float64, where 2**400 does not round to inf; an int
        beyond the float range gets the range error, a str a TypeError.  The same holds for
        c_hat (``test_bvp.TestChat``)."""
        with pytest.raises(ValueError, match=r"2\*\*400"):
            MatrixConfig(10, 2, np.float32("inf"))
        for big in (10**400, -10**400):
            with pytest.raises(ValueError, match=r"2\*\*400"):
                MatrixConfig(10, 2, big)
        with pytest.raises(TypeError):
            MatrixConfig(10, 2, "3")

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("b", [2, -2])
    def test_numpy_float_fields_are_stored_as_float(self, dtype, b):
        """Results equal bit for bit those of a config built from the same values as floats."""
        cfg = MatrixConfig(10, b, dtype(0.3))
        twin = MatrixConfig(10, b, float(dtype(0.3)))
        assert type(cfg.b_tilde) is float
        assert cfg == twin and repr(cfg) == repr(twin)
        for c in (cfg, twin):
            assert type(c._r) is float and type(c._d) is float

        def results(c):
            ub = upper_bound(c)
            return [near_toeplitz_inverse_entry(c, 7, 2), trace_inverse(c),
                    rowsum(c, 4), lower_bound(c), ub.value, *ub.terms.values(), c._r, c._d]

        assert [v.hex() for v in results(cfg)] == [v.hex() for v in results(twin)]
        assert bitwise_equal(assemble_inverse(cfg).entries, assemble_inverse(twin).entries)

    @pytest.mark.parametrize("b, want", [(2.0, 2), (np.float32(-2), -2), (np.int64(2), 2)],
                             ids=["float", "float32", "int64"])
    def test_b_is_stored_as_int(self, b, want):
        cfg = MatrixConfig(10, b, 3.0)
        assert type(cfg.b) is int and cfg.b == want
        assert repr(cfg) == f"MatrixConfig(n=10, b={want}, b_tilde=3.0)"

    def test_repr_names_the_three_fields(self):
        assert repr(MatrixConfig(10, 2, 5.93)) == "MatrixConfig(n=10, b=2, b_tilde=5.93)"
        assert repr(MatrixConfig(n=np.int64(7), b=-2, b_tilde=-0.0)) == (
            "MatrixConfig(n=7, b=-2, b_tilde=-0.0)")

    def test_equal_configs_hash_equal(self):
        cfg = MatrixConfig(10, -2, 0.3)
        for same in (MatrixConfig(10, -2, 0.3), MatrixConfig(np.int64(10), -2.0, b_tilde=0.3)):
            assert cfg == same and hash(cfg) == hash(same)
        assert len({cfg, MatrixConfig(10, -2, 0.3), MatrixConfig(10, 2, 0.3)}) == 2
        assert cfg != MatrixConfig(10, -2, 0.31) and cfg != (10, -2, 0.3)

    def test_immutable(self):
        cfg = MatrixConfig(10, 2, 3.0)
        for name in ("n", "b", "b_tilde", "_r", "_d", "_singular", "extra"):
            with pytest.raises(AttributeError):
                setattr(cfg, name, 1)
            with pytest.raises(AttributeError):
                delattr(cfg, name)
        assert cfg == MatrixConfig(10, 2, 3.0) and cfg._r == 1.0

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda c: pickle.loads(pickle.dumps(c))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_round_trip(self, clone):
        for cfg in (MatrixConfig(10, 2, 5.93), MatrixConfig(9, -2, 0.6)):
            twin = clone(cfg)
            assert twin == cfg and hash(twin) == hash(cfg) and repr(twin) == repr(cfg)
            frame = ("_bt", "_flip", "_r", "_r1", "_d", "_singular")
            assert [getattr(twin, k) for k in frame] == [getattr(cfg, k) for k in frame]

    def test_frame_fields_play_no_part_in_equality(self):
        """-0.0 == 0.0 as b_tilde, but the mirrored corners differ in sign: the configs are equal."""
        plus, minus = MatrixConfig(8, -2, 0.0), MatrixConfig(8, -2, -0.0)
        assert math.copysign(1.0, plus._bt) != math.copysign(1.0, minus._bt)
        assert plus == minus and hash(plus) == hash(minus)
        assert MatrixConfig(8, 2, 3.0) != MatrixConfig(8, -2, 3.0)

    def test_singular_points(self):
        assert MatrixConfig(5, 2, 0.0).singular_points() == (1.0, 0.5)
        assert MatrixConfig(5, -2, 0.0).singular_points() == (-1.0, -0.5)


class TestDerivedParams:
    def test_toeplitz_case(self):
        p = derived_params(MatrixConfig(5, 2, 2.0))
        assert p.beta == 0.0
        assert p.m11 == 1.0
        assert p.m12 == 0.0
        assert p.delta == pytest.approx(1.0, rel=1e-15)
        # factored form: (4/6) * (2-1) * (2-0.5)
        assert (4 / 6) * 1.0 * 1.5 == pytest.approx(p.delta, rel=1e-15)

    def test_two_delta_forms_agree(self):
        p = derived_params(MatrixConfig(10, 2, 5.93))
        factored = (9 / 11) * (5.93 - 1.0) * (5.93 - 7 / 9)
        m_form = p.m11**2 - p.m12**2
        assert p.delta == pytest.approx(factored, rel=1e-12)
        assert m_form == pytest.approx(factored, rel=1e-12)

    def test_gamma_population(self):
        p = derived_params(MatrixConfig(6, 2, 3.0))
        assert p.gamma == pytest.approx((2 - 3.0) / (1 - 3.0))
        assert p.gamma_plus is None
        q = derived_params(MatrixConfig(6, -2, -3.0))
        assert q.gamma is None
        assert q.gamma_plus == pytest.approx((2 - 3.0) / (1 - 3.0))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(4, 10**6), b=st.sampled_from([2, -2]), bt=st.floats(-1e3, 1e3))
    def test_factored_delta_equals_capacitance_determinant(self, n, b, bt):
        # m11^2 - m12^2 cancels near the roots, so it is held to the scale of its terms.
        p = derived_params(MatrixConfig(n, b, bt))
        scale = max(1.0, p.m11 * p.m11, p.m12 * p.m12)
        assert abs(p.m11 * p.m11 - p.m12 * p.m12 - p.delta) <= 1e-12 * scale

    def test_delta_nonnegative_for_dominant_corners(self):
        for n in (4, 9, 16):
            for b in (2, -2):
                for bt in (-5.0, -1.0, 1.0, 1.5, 7.0):
                    if abs(bt) >= 1:
                        assert derived_params(MatrixConfig(n, b, bt)).delta >= 0


class TestSingularity:
    @pytest.mark.parametrize(
        "n,b,bt",
        [(5, 2, 1.0), (5, 2, 0.5), (5, -2, -0.5), (5, -2, -1.0), (11, 2, 0.8)],
    )
    def test_fires_at_singular_values(self, n, b, bt):
        cfg = MatrixConfig(n, b, bt)
        assert is_singular(cfg)

    def test_no_fire_away_from_singular_values(self):
        cfg = MatrixConfig(5, 2, 0.5 + 1e-6)
        assert not is_singular(cfg)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(4, 2**53), x=st.one_of(
        st.floats(-1e6, 1e6), st.sampled_from([1.0, 0.5, 0.0, -0.0, 1 + 2e-10, 1 - 5e-11])))
    def test_report_is_the_mirrored_report(self, n, x):
        """b = -2 at -x has the gaps of b = +2 at x, negated exactly: the same distance and
        delta, bit for bit, wherever delta is nonzero (a zero gap is +0.0 in both frames).
        Each config's gaps are b_tilde minus its ``singular_points()``."""
        configs = MatrixConfig(n, 2, x), MatrixConfig(n, -2, -x)
        for cfg in configs:
            assert [g.hex() for g in cfg._gaps] == [(cfg.b_tilde - s).hex()
                                                    for s in cfg.singular_points()]
        plus, minus = map(singularity_report, configs)
        assert plus["distance"].hex() == minus["distance"].hex()
        assert plus["singular"] is minus["singular"] is plus["delta_test"] is minus["delta_test"]
        if plus["delta"] != 0.0:
            assert plus["delta"].hex() == minus["delta"].hex()


class TestNearToeplitzEntry:
    def test_reduces_to_toeplitz(self):
        cfg = MatrixConfig(5, 2, 2.0)
        assert near_toeplitz_inverse_entry(cfg, 3, 2) == 1.0

    def test_first_row_sign_for_negative_corner(self):
        assert near_toeplitz_inverse_entry(MatrixConfig(5, 2, -1.0), 1, 1) < 0

    def test_matches_oracle_entry(self):
        cfg = MatrixConfig(6, 2, 0.3)
        inv = reference_inverse(build_matrix(cfg))
        got = near_toeplitz_inverse_entry(cfg, 4, 2)
        assert got == pytest.approx(inv.entries[3, 1], abs=1e-10)

    def test_singular_rejection(self):
        with pytest.raises(SingularMatrixError):
            near_toeplitz_inverse_entry(MatrixConfig(5, 2, 1.0), 1, 1)

    def test_index_error(self):
        with pytest.raises(IndexError):
            near_toeplitz_inverse_entry(MatrixConfig(5, 2, 3.0), 6, 1)

    def test_simplified_form_agrees_for_b2(self):
        for n in (5, 9, 14):
            for bt in btilde_samples(n, 2, count=20):
                cfg = MatrixConfig(n, 2, float(bt))
                for i, j in [(1, 1), (3, 2), (n, 1), (n // 2, n // 2), (2, n)]:
                    a = near_toeplitz_inverse_entry(cfg, i, j)
                    b = entry_b2_simplified(n, float(bt), i, j)
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-13)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(4, 24),
    bt=st.floats(-8, 8),
    data=st.data(),
)
def test_parity_reflection(n, bt, data):
    """Negating b and the corner flips entry signs by index parity."""
    sign_pts = [1.0, (n - 3) / (n - 1)]
    if min(abs(-bt - s) for s in sign_pts) <= 1e-4:
        return
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(1, i))
    minus = near_toeplitz_inverse_entry(MatrixConfig(n, -2, bt), i, j)
    plus = near_toeplitz_inverse_entry(MatrixConfig(n, 2, -bt), i, j)
    expected = (-1.0) ** ((i + 1 - j) % 2) * plus + 0.0
    assert bitwise_equal(np.float64(minus), np.float64(expected))


def mirror_btilde(n):
    """b = -2 corner values: uniform on [-8, 8] and on [-1.2, 1.2], |b_tilde| log-uniform
    on 1e-12..1e12, and 1e-9..1e-3 from either singular point."""
    side = st.sampled_from([-1.0, 1.0])
    return st.one_of(
        st.floats(-8, 8),
        st.floats(-1.2, 1.2),
        st.builds(lambda s, e: s * 10.0**e, side, st.floats(-12, 12)),
        st.builds(lambda c, s, e: c + s * 10.0**e,
                  st.sampled_from([-1.0, -(n - 3) / (n - 1)]), side, st.floats(-9, -3)),
    ).filter(lambda bt: not is_singular(MatrixConfig(n, -2, bt)))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(4, 60), data=st.data())
def test_b_minus_2_is_the_mirrored_b_plus_2(n, data):
    """A_{-2}(bt)^-1 = -S A_{+2}(-bt)^-1 S with S = diag((-1)^i), bit for bit in the trace,
    both bounds, the grid and the factored solve."""
    bt = data.draw(mirror_btilde(n))
    minus, plus = MatrixConfig(n, -2, bt), MatrixConfig(n, 2, -bt)
    assert bitwise_equal(np.float64(trace_inverse(minus)), np.float64(0.0 - trace_inverse(plus)))
    assert lower_bound(minus) == lower_bound(plus)
    ub_minus, ub_plus = upper_bound(minus), upper_bound(plus)
    assert (ub_minus.value, ub_minus.terms) == (ub_plus.value, ub_plus.terms)
    assert _BRANCHES_BM2.index(ub_minus.branch) == _BRANCHES_B2.index(ub_plus.branch)
    sigma = 1.0 - 2.0 * (np.arange(1, n + 1) & 1)
    mirrored = -np.outer(sigma, sigma) * assemble_inverse(plus).entries + 0.0
    assert bitwise_equal(assemble_inverse(minus).entries, mirrored)
    x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    want = sigma * inverse_solver(plus, scale=0.3)(-sigma * x)
    assert bitwise_equal(inverse_solver(minus, scale=0.3)(x), want)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(4, 24), b=st.sampled_from([2, -2]), data=st.data())
def test_reduction_to_toeplitz_is_exact(n, b, data):
    """Corner equal to the diagonal reduces exactly to the Toeplitz entry."""
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(1, n))
    cfg = MatrixConfig(n, b, float(b))
    assert near_toeplitz_inverse_entry(cfg, i, j) == toeplitz_entry(n, b, i, j)


class TestAssembleInverse:
    def test_toeplitz_case_matches_oracle(self):
        cfg = MatrixConfig(4, 2, 2.0)
        got = assemble_inverse(cfg).entries
        ref = reference_inverse(build_matrix(cfg)).entries
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_residual(self):
        cfg = MatrixConfig(10, 2, 5.93)
        inv = assemble_inverse(cfg)
        residual = build_matrix(cfg) @ inv.entries - np.eye(10)
        assert np.max(np.abs(residual)) <= 1e-9

    def test_negative_b_matches_oracle(self):
        cfg = MatrixConfig(7, -2, 0.4)
        got = assemble_inverse(cfg).entries
        ref = reference_inverse(build_matrix(cfg)).entries
        assert np.max(np.abs(got - ref)) <= 1e-10

    def test_source_tag_and_shape(self):
        inv = assemble_inverse(MatrixConfig(6, 2, 4.0))
        assert inv.source == "closed_form"
        assert inv.entries.shape == (6, 6)

    def test_symmetry_is_exact(self):
        for cfg in (MatrixConfig(9, 2, -2.5), MatrixConfig(12, -2, 3.7)):
            e = assemble_inverse(cfg).entries
            assert np.array_equal(e, e.T)

    def test_centrosymmetry(self):
        for cfg in (MatrixConfig(9, 2, -2.5), MatrixConfig(12, -2, 3.7)):
            e = assemble_inverse(cfg).entries
            assert np.array_equal(e, e[::-1, ::-1])

    def test_mapped_storage_is_bitwise_the_heap_storage(self, monkeypatch):
        from neartoeplitz import core

        cfg = MatrixConfig(37, -2, 0.61)
        heap = assemble_inverse(cfg).entries
        monkeypatch.setattr(core, "_MAPPED_BYTES", 0)
        mapped = assemble_inverse(cfg).entries
        assert bitwise_equal(mapped, heap)
        assert mapped.flags.c_contiguous and mapped.flags.writeable

    def test_deterministic(self):
        cfg = MatrixConfig(11, 2, 0.37)
        a = assemble_inverse(cfg).entries
        b = assemble_inverse(cfg).entries
        assert np.array_equal(a, b)

    def test_singular_rejection(self):
        with pytest.raises(SingularMatrixError):
            assemble_inverse(MatrixConfig(8, -2, -1.0))

    def test_oracle_equivalence_spot_checks(self):
        for n, b, bt in [(15, 2, -6.2), (20, -2, 7.9), (30, 2, 0.93), (25, -2, -0.41)]:
            closed = assemble_inverse(MatrixConfig(n, b, bt)).entries
            ref = oracle_entries(n, b, bt)
            assert np.max(np.abs(closed - ref)) <= 1e-9


def entry_pairs(n):
    """Every (i, j) for n <= 10; otherwise all pairs of 1, 2, 3, n/2, n/2 + 1, n-2, n-1 and n."""
    idx = range(1, n + 1) if n <= 10 else sorted({1, 2, 3, n // 2, n // 2 + 1, n - 2, n - 1, n})
    return [(i, j) for i in idx for j in idx]


class TestGeneratorGrid:
    """The grid built from the generators against the min/max index grid, bit for bit."""

    @pytest.mark.parametrize("n", [*range(4, 61), 257])
    def test_bitwise_equal_to_index_grid(self, n):
        for b in (2, -2):
            for bt in regime_corners(n, b):
                cfg = MatrixConfig(n, b, bt)
                entries = assemble_inverse(cfg).entries
                assert np.array_equal(entries, index_grid(cfg)), (b, bt)
                assert bitwise_equal(entries, tril_mirror_assembly(cfg)), (b, bt)
                assert np.array_equal(entries, entries.T)
                assert not np.signbit(entries[entries == 0.0]).any(), (b, bt)
                for i, j in entry_pairs(n):
                    entry = np.float64(near_toeplitz_inverse_entry(cfg, i, j))
                    assert bitwise_equal(entry, entries[i - 1, j - 1]), (b, bt, i, j)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(4, 300), b=st.sampled_from([2, -2]), data=st.data())
    def test_exactly_centrosymmetric(self, n, b, data):
        # v_i is u_{n+1-i}, so entry (i, j) and entry (n+1-i, n+1-j) are one product of two floats.
        bt = data.draw(
            st.one_of(st.floats(-8, 8), st.sampled_from(regime_corners(n, b))).filter(
                lambda bt: not is_singular(MatrixConfig(n, b, bt))
            )
        )
        cfg = MatrixConfig(n, b, bt)
        entries = assemble_inverse(cfg).entries
        assert np.array_equal(entries, index_grid(cfg))
        assert not np.signbit(entries[entries == 0.0]).any()
        assert bitwise_equal(entries, entries.T)
        assert bitwise_equal(entries, entries[::-1, ::-1])

    def test_signed_zero_corners_give_zero_entries(self):
        # b_tilde = 0 zeroes u_2 and v_{n-1}: the index grid has -0.0 there, the assembly none.
        for b, bt in ((2, 0.0), (2, -0.0), (-2, 0.0), (-2, -0.0)):
            cfg = MatrixConfig(12, b, bt)
            reference = index_grid(cfg)
            assert np.signbit(reference[reference == 0.0]).any()
            entries = assemble_inverse(cfg).entries
            assert (entries == 0.0).sum() == 4 * 12 - 8
            assert not np.signbit(entries[entries == 0.0]).any()

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(4, 300),
        b=st.sampled_from([2, -2]),
        bt=st.one_of(
            st.integers(3, 300).map(lambda k: (k - 2) / (k - 1)),
            st.integers(1, 9).map(lambda m: 1.0 - 2.0**-m),
            st.sampled_from([0.0, -0.0, 2.0**400, -(2.0**400), 2.0**-400, -(2.0**-400)]),
        ),
    )
    @example(n=4, b=2, bt=0.5)
    @example(n=40, b=-2, bt=0.96875)
    def test_zero_generator_corners(self, n, b, bt):
        # u_k vanishes at sgn(b) b_tilde = (k-2)/(k-1) when that is exact, as at k = 2**m + 1.
        # Only there is an entry zero, and where D < 0 it is 0 / D = -0.0 before the + 0.0 pass.
        cfg = MatrixConfig(n, b, -bt if b < 0 else bt)
        assume(not is_singular(cfg))
        entries = assemble_inverse(cfg).entries
        assert not np.signbit(entries[entries == 0.0]).any()
        assert bitwise_equal(entries, index_grid(cfg) + 0.0)


class TestDenseSizeCap:
    def test_refused_above_the_cap_before_allocating(self):
        cfg = MatrixConfig(_MAX_DENSE_ORDER + 1, 2, 3.0)
        calls = [(dense, cfg) for dense in (assemble_inverse, exact_infinity_norm, build_matrix)]
        # The sign pattern is stated for b_tilde <= 0 only.
        calls.append((sign_pattern, MatrixConfig(_MAX_DENSE_ORDER + 1, 2, -1.0)))
        tracemalloc.start()
        try:
            for dense, c in calls:
                with pytest.raises(DenseSizeError, match=str(_MAX_DENSE_ORDER)):
                    dense(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


EPS = np.finfo(float).eps
#: The residual gate of the factored solve; the benchmark's BVP check uses the same 64 eps.
RESIDUAL_EPS = 64


def apply_scaled_operator(cfg, c_hat, y):
    """(-c_hat) * A @ y by the three-point stencil, without forming A."""
    out = cfg.b * y
    out[0] = cfg.b_tilde * y[0]
    out[-1] = cfg.b_tilde * y[-1]
    out[:-1] -= y[1:]
    out[1:] -= y[:-1]
    return -c_hat * out


def residual_limit(cfg, c_hat, y, x):
    """64 eps * (||A||_inf ||y||_inf + ||x||_inf) for the scaled operator -c_hat A."""
    op_norm = abs(c_hat) * (max(abs(cfg.b), abs(cfg.b_tilde)) + 2.0)
    return RESIDUAL_EPS * EPS * (op_norm * np.abs(y).max() + np.abs(x).max())


def solver_corners(n):
    """b = +2 corner values: the five upper-bound regimes, |b_tilde| < 1, and
    1e-8 / 1e-9 on both sides of both singular points."""
    s1, s2 = 1.0, (n - 3) / (n - 1)
    edge = (n - 2) / (n - 1)
    near = [s + d for s in (s1, s2) for d in (1e-8, -1e-8, 1e-9, -1e-9)]
    return [2.0, 1.5, 40.0, (edge + 1.0) / 2, (s2 + edge) / 2, 0.5 * s2, 0.3,
            0.0, -0.5, -3.0, -50.0, *near]


def solver_rhs(n, rng):
    """Smooth bump, the bump modulated by (-1)^i, random, and positive."""
    i = np.arange(1, n + 1)
    bump = np.sin(np.pi * i / (n + 1))
    return [bump, bump * (-1.0) ** i, rng.standard_normal(n), rng.uniform(0.5, 1.5, n)]


def solver_cases(n):
    """(cfg, c_hat, rhs list) over both signs; c_hat cycles through -1, 2.5 and -0.25."""
    rng = np.random.default_rng(n)
    for b in (2, -2):
        for idx, bt in enumerate(solver_corners(n)):
            c_hat = (-1.0, 2.5, -0.25)[idx % 3]
            yield MatrixConfig(n, b, bt if b == 2 else -bt), c_hat, solver_rhs(n, rng)


class TestInverseSolver:
    """Backward stability of the O(n) factored solve of the scaled system.

    A rank-one generator product u_min(i,j) v_max(i,j) / D for the same
    apply reaches scaled residuals of 7e-12, and 1e-7 near the singular
    corners; it fails this gate almost only on the smooth and the modulated
    bump, so those shapes and corners are kept on purpose.
    """

    @pytest.mark.parametrize("n", [*range(4, 61), 1000, 100_000])
    def test_residual_gate(self, n):
        for cfg, c_hat, rhs in solver_cases(n):
            solve = inverse_solver(cfg, scale=1.0 / -c_hat)
            for x in rhs:
                y = solve(x)
                r = np.abs(apply_scaled_operator(cfg, c_hat, y) - x).max()
                assert r <= residual_limit(cfg, c_hat, y, x), (cfg, c_hat, r)

    @pytest.mark.parametrize("n", [4, 5, 7, 16, 33, 60, 150])
    def test_against_oracle(self, n):
        # Both are backward stable, so they agree to 2 * 64 eps * kappa.
        for cfg, c_hat, rhs in solver_cases(n):
            dense = build_matrix(cfg) * -c_hat
            inv = reference_inverse(dense).entries
            kappa = np.abs(dense).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
            solve = inverse_solver(cfg, scale=1.0 / -c_hat)
            for x in rhs:
                y, ref = solve(x), inv @ x
                assert np.abs(y - ref).max() <= 2 * RESIDUAL_EPS * EPS * kappa * np.abs(ref).max()

    @pytest.mark.parametrize("n", [4, 51, 1000, 100_000])
    def test_against_banded_lu(self, n):
        # ||A^{-1}|| is at most the published upper bound, which gives kappa.
        pytest.importorskip("scipy.linalg")
        for cfg, c_hat, rhs in solver_cases(n):
            op_norm = abs(c_hat) * (max(abs(cfg.b), abs(cfg.b_tilde)) + 2.0)
            kappa = op_norm * upper_bound(cfg).value / abs(c_hat)
            solve = inverse_solver(cfg, scale=1.0 / -c_hat)
            refs = banded_lu_solve(cfg, np.column_stack(rhs), c_hat)
            for x, ref in zip(rhs, refs.T):
                y = solve(x)
                assert np.abs(y - ref).max() <= 2 * RESIDUAL_EPS * EPS * kappa * np.abs(ref).max()

    def test_scale_and_output_buffer(self):
        cfg = MatrixConfig(9, -2, 0.4)
        x = np.linspace(-1.0, 2.0, 9)
        out = np.empty(9)
        y = inverse_solver(cfg, scale=0.125)(x, out=out)
        assert y is out
        expected = 0.125 * assemble_inverse(cfg).entries @ x
        assert np.abs(y - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("n", [4, 5, 50, 51, 1000, 1001])
    def test_output_may_be_the_input(self, n):
        # solve reads each entry of x before it writes that entry of out; the
        # strided +-c1 updates of b = -2 meet both parities of n.  Working in
        # out alone gives the bits of the solver that used its own buffer.
        for cfg, c_hat, rhs in solver_cases(n):
            solve = inverse_solver(cfg, scale=0.3 / -c_hat)
            pre, back = allocating_inverse_solver(cfg, scale=0.3 / -c_hat)
            for x in rhs:
                want = solve(x)
                y = x.copy()
                assert solve(y, out=y) is y
                assert bitwise_equal(y, want)
                assert bitwise_equal(want, back(x * pre))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(4, 400),
    b=st.sampled_from([2, -2]),
    bt=st.floats(-100, 100),
    c_hat=st.floats(0.1, 10) | st.floats(-10, -0.1),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([0, 1, 2, 3]),
)
def test_residual_gate_property(n, b, bt, c_hat, seed, shape):
    cfg = MatrixConfig(n, b, bt)
    if singularity_report(cfg)["distance"] <= 1e-9:
        return
    x = solver_rhs(n, np.random.default_rng(seed))[shape]
    y = inverse_solver(cfg, scale=1.0 / -c_hat)(x)
    assert np.abs(apply_scaled_operator(cfg, c_hat, y) - x).max() <= residual_limit(cfg, c_hat, y, x)
