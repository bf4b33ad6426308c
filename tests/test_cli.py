"""Command-line interface: wrapping, reports, determinism, exit codes."""

import argparse
import errno
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neartoeplitz
from neartoeplitz import (
    MatrixConfig, SingularMatrixError, assemble_inverse, build_matrix, exact_infinity_norm,
    near_toeplitz_inverse_entry, singularity_report, trace_inverse, upper_bound,
)
from neartoeplitz import bvp, cli
from neartoeplitz.cli import main

from helpers import bitwise_equal, regime_corners, run_fresh, tril_mirror_assembly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse ``text`` as JSON, refusing the NaN and Infinity tokens that JSON does not have."""
    def refuse(token):
        raise ValueError(f"not valid JSON: {token}")
    return json.loads(text, parse_constant=refuse)


class TestReports:
    def test_bounds_published_row(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "10", "--b", "2", "--btilde", "5.93")
        rec = json.loads(out)
        assert code == 0
        assert (rec["command"], rec["branch"]) == ("bounds", "btilde_gt_1")
        assert rec["outputs"]["upper"] == pytest.approx(11.139, abs=5e-4)

    @pytest.mark.parametrize("b, btilde, branch", [
        (2, "3", "btilde_gt_1"), (2, "0.95", "nm2_le_btilde_lt_1"),
        (2, "0.875", "nm3_lt_btilde_lt_nm2"), (2, "0.5", "0_lt_btilde_lt_nm3"),
        (2, "-1", "btilde_le_0"), (-2, "-3", "btilde_lt_m1"), (-2, "-0.95", "m1_lt_btilde_le_mnm2"),
        (-2, "-0.875", "mnm2_lt_btilde_lt_mnm3"), (-2, "-0.5", "mnm3_lt_btilde_lt_0"),
        (-2, "1", "btilde_ge_0"),
    ])
    def test_bounds_branch_and_terms_per_regime(self, capsys, b, btilde, branch):
        """``branch`` names the regime, and ``outputs.terms`` holds the bound's terms in order,
        rounded; it is empty where the bound has none."""
        code, out, _ = run_cli(capsys, "bounds", "--n", "13", "--b", str(b), "--btilde", btilde)
        rec = strict_json(out)
        assert code == 0 and rec["branch"] == branch
        terms = upper_bound(MatrixConfig(13, b, float(btilde))).terms
        assert list(rec["outputs"]["terms"].items()) == list(cli._round10(terms).items())

    def test_singular_known_root(self, capsys):
        code, out, _ = run_cli(capsys, "singular", "--n", "5", "--b", "2", "--btilde", "0.5")
        rec = json.loads(out)
        assert code == 0
        assert rec["outputs"]["singular"] is True
        assert rec["outputs"]["delta_test"] is True

    def test_trace_toeplitz(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--n", "4", "--b", "2", "--btilde", "2")
        assert code == 0
        assert json.loads(out)["outputs"]["trace"] == pytest.approx(4.0)

    def test_entry_value(self, capsys):
        for i, j, value in (("3", "2", 1.0), ("5", "1", 1 / 6)):
            _, out, _ = run_cli(capsys, "entry", "--n", "5", "--b", "2", "--btilde", "2",
                                "--i", i, "--j", j)
            assert json.loads(out)["outputs"]["value"] == pytest.approx(value)

    def test_invert_matches_library(self, capsys):
        _, out, _ = run_cli(capsys, "invert", "--n", "5", "--b", "2", "--btilde", "3")
        rec = json.loads(out)
        entries = np.array(rec["outputs"]["entries"])
        expected = assemble_inverse(MatrixConfig(5, 2, 3.0)).entries
        assert np.max(np.abs(entries - expected)) <= 1e-9

    def test_rowsum_single_and_full(self, capsys):
        _, out, _ = run_cli(capsys, "rowsum", "--n", "4", "--b", "2", "--btilde", "2", "--i", "2")
        assert json.loads(out)["outputs"]["rowsum"] == pytest.approx(3.0)
        _, out, _ = run_cli(capsys, "rowsum", "--n", "4", "--b", "2", "--btilde", "2")
        rec = json.loads(out)
        assert len(rec["outputs"]["values"]) == 4
        assert rec["outputs"]["upper"] == pytest.approx(25 / 8)

    def test_norm_wraps_library(self, capsys):
        _, out, _ = run_cli(capsys, "norm", "--n", "13", "--b", "-2", "--btilde", "-6.28")
        got = json.loads(out)["outputs"]["norm"]
        assert got == pytest.approx(exact_infinity_norm(MatrixConfig(13, -2, -6.28)), rel=1e-9)

    def test_signs_pattern(self, capsys):
        _, out, _ = run_cli(capsys, "signs", "--n", "6", "--b", "2", "--btilde", "0")
        pattern = json.loads(out)["outputs"]["pattern"]
        assert pattern[1][3] == 0
        assert pattern[0][1] == -1
        _, out, _ = run_cli(capsys, "signs", "--n", "5", "--b", "2", "--btilde", "-1")
        pattern = json.loads(out)["outputs"]["pattern"]
        assert len(pattern) == 5 and pattern[0] == [-1, -1, -1, -1, 1]

    def test_solve_bvp_expected_rate(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve-bvp", "--n", "50", "--b", "2", "--btilde", "2",
            "--length", "0.5", "--k", "1", "--nonlinearity", "fisher",
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["outputs"]["expected_rate"] == pytest.approx(0.0325, abs=5e-4)
        assert rec["outputs"]["converged"] is True
        assert len(rec["outputs"]["solution"]) == 50

    def test_solve_bvp_trivial(self, capsys):
        _, out, _ = run_cli(
            capsys, "solve-bvp", "--n", "10", "--b", "2", "--btilde", "2",
            "--length", "1", "--k", "0", "--nonlinearity", "fisher",
        )
        rec = json.loads(out)
        assert rec["outputs"]["converged"] is True
        assert rec["outputs"]["iterations"] <= 2


#: Each record subcommand's own options and --chat, given before the matrix options, and
#: what its record echoes for them: every parsed option in the parser's order, defaults included.
ECHO_CALLS = {
    "entry": (["--j", "3", "--i", "2", "--chat", "2.5"], {"chat": 2.5, "i": 2, "j": 3}),
    "invert": (["--chat", "2.5"], {"chat": 2.5}),
    "trace": ([], {}),
    "rowsum": (["--i", "4"], {"i": 4}),
    "norm": ([], {}),
    "bounds": ([], {}),
    "signs": ([], {}),
    "singular": ([], {}),
    "solve-bvp": (["--bc-right", "0.25", "--nonlinearity", "fisher", "--k", "1", "--length", "0.5",
                   "--chat", "2.5"],
                  {"chat": 2.5, "length": 0.5, "k": 1.0, "nonlinearity": "fisher", "tol": 1e-10,
                   "max_iter": 10_000, "bc_left": 0.0, "bc_right": 0.25}),
}


@pytest.mark.parametrize("command", ECHO_CALLS)
def test_inputs_echo_every_parsed_option(capsys, command):
    """``inputs`` holds the parsed options in the parser's order, not the command line's."""
    extra, echoed = ECHO_CALLS[command]
    code, out, _ = run_cli(capsys, command, *extra, "--btilde", "-3", "--b", "2", "--n", "8")
    assert code == 0
    want = {"n": 8, "b": 2, "btilde": -3.0} | echoed
    assert list(strict_json(out)["inputs"].items()) == list(want.items())


def test_inputs_echo_is_not_rounded(capsys):
    """The echo names the configuration that was computed: 1 + 2e-10 in 10 digits would be
    the singular corner 1.0, which ``trace`` refuses.  Only ``outputs`` is rounded."""
    trace = ["trace", "--n", "5", "--b", "2", "--btilde"]
    code, out, _ = run_cli(capsys, *trace, "1.0000000002")
    assert code == 0 and run_cli(capsys, *trace, "1.0")[0] == 3
    rec = strict_json(out)
    assert (rec["inputs"]["btilde"], rec["outputs"]["trace"]) == (1.0000000002, 1.249999897e10)


#: A call of each subcommand, and one alternate value for each option it parses.  argparse
#: lets the alternate, given last, override the call's value.
_MATRIX = ["--n", "8", "--b", "2", "--btilde", "3"]
OPTION_CALLS = {
    "entry": (["--n", "8", "--b", "2", "--btilde", "3", "--i", "2", "--j", "3"],
              {"n": "9", "b": "-2", "btilde": "0.5", "chat": "2.5", "i": "1", "j": "1"}),
    "invert": (_MATRIX, {"n": "9", "b": "-2", "btilde": "0.5", "chat": "2.5"}),
    "trace": (_MATRIX, {"n": "9", "b": "-2", "btilde": "0.5"}),
    "rowsum": (_MATRIX, {"n": "9", "b": "-2", "btilde": "0.5", "i": "2"}),
    "norm": (_MATRIX, {"n": "9", "b": "-2", "btilde": "0.5"}),
    "bounds": (_MATRIX, {"n": "9", "b": "-2", "btilde": "0.5"}),
    "signs": (["--n", "6", "--b", "2", "--btilde", "-1"], {"n": "7", "b": "-2", "btilde": "0"}),
    "singular": (["--n", "5", "--b", "2", "--btilde", "0.5"], {"n": "6", "b": "-2", "btilde": "3"}),
    "solve-bvp": (["--n", "10", "--b", "2", "--btilde", "2", "--length", "0.5", "--k", "1",
                   "--nonlinearity", "fisher"],
                  {"n": "12", "b": "-2", "btilde": "3", "chat": "2.5", "length": "1", "k": "2",
                   "nonlinearity": "bratu", "tol": "1e-3", "max_iter": "2", "bc_left": "0.5",
                   "bc_right": "0.5"}),
    "reproduce": (["fig2_table"], {"table_id": "fig3_table"}),
}


def test_option_table_covers_the_parser():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    parsed = {command: sorted(action.dest for action in sub._actions
                              if action.dest != "help")
              for command, sub in commands.items()}
    assert parsed == {command: sorted(alternates) for command, (_, alternates) in OPTION_CALLS.items()}


def _result(capsys, argv):
    """Exit code and ``outputs`` of a call; a failed call's stdout, and all of ``reproduce``'s."""
    code, out, _ = run_cli(capsys, *argv)
    return code, out if code or argv[0] == "reproduce" else strict_json(out)["outputs"]


@pytest.mark.parametrize("command, dest", [
    pytest.param(command, dest, id=f"{command}-{dest}")
    for command, (_, alternates) in OPTION_CALLS.items() for dest in alternates])
def test_every_option_changes_the_result(capsys, command, dest):
    """No option is parsed and then ignored: its alternate value changes ``outputs`` or the
    exit code."""
    base, alternates = OPTION_CALLS[command]
    value = alternates[dest]
    changed = [value] if dest == "table_id" else [*base, "--" + dest.replace("_", "-"), value]
    assert _result(capsys, [command, *base]) != _result(capsys, [command, *changed])


@pytest.mark.parametrize("b", [2, -2])
@pytest.mark.parametrize("n", [5, 13])
def test_singular_answers_as_trace_refuses(capsys, n, b):
    """``singular`` says true exactly where ``trace`` refuses the configuration with exit 3:
    within 1e-10 of either singular corner, so at offsets 0 and +-5e-11, not at +-2e-10.
    ``delta_test`` gives the same answer, with no threshold of its own."""
    sign = 1 if b > 0 else -1
    seen = []
    for point in (sign * 1.0, sign * (n - 3) / (n - 1)):
        for offset in (0.0, 5e-11, -5e-11, 2e-10, -2e-10):
            mat = ["--n", str(n), "--b", str(b), "--btilde", repr(point + offset)]
            _, out, _ = run_cli(capsys, "singular", *mat)
            outputs = strict_json(out)["outputs"]
            singular = outputs["singular"]
            assert outputs["delta_test"] is singular, mat
            assert singular == (run_cli(capsys, "trace", *mat)[0] == 3), mat
            seen.append(singular)
    assert seen == [True, True, True, False, False] * 2


@pytest.mark.parametrize("b, btilde, delta", [
    ("-2", "-1", "-0.0"), ("2", "0.5", "-0.0"), ("2", "1", "0.0"), ("-2", "-0.5", "0.0")])
def test_singular_delta_keeps_its_signed_zero(capsys, b, btilde, delta):
    """At an exact corner ``delta`` is a zero signed in the config's own frame: b_tilde - s
    is +0.0, and the other gap gives the sign.  The b = +2 frame would flip two of these."""
    code, out, _ = run_cli(capsys, "singular", "--n", "5", "--b", b, "--btilde", btilde)
    assert code == 0 and f'"delta": {delta},' in out


class TestFormatsAndDeterminism:
    def test_ten_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--n", "10", "--b", "2", "--btilde", "5.93")
        assert '"upper": 11.13919878,' in out


_MAT = ["--b", "2", "--btilde", "-3"]
#: A Fisher solve at n = 50; argparse lets a later flag override an earlier one.
_BVP = ["solve-bvp", "--n", "50", "--b", "2", "--btilde", "2", "--length", "1", "--k", "1",
        "--nonlinearity", "fisher"]
#: A singular corner, (n-3)/(n-1) = 5/7 being the other at n = 8.
_SINGULAR = ["--n", "8", "--b", "2", "--btilde", "1"]
#: One call of every subcommand that takes an order, without its --n.
ORDER_CALLS = [
    ["entry", *_MAT, "--i", "1", "--j", "1"],
    ["invert", *_MAT], ["trace", *_MAT], ["rowsum", *_MAT], ["rowsum", *_MAT, "--i", "1"],
    ["norm", *_MAT], ["bounds", *_MAT], ["signs", *_MAT], ["singular", *_MAT],
    ["solve-bvp", *_MAT, "--length", "1", "--k", "1", "--nonlinearity", "fisher"],
]


#: The reports that print O(n) or O(n^2) numbers: (the options after --n, the largest order
#: within ``cli._MAX_PRINTED``, the numbers printed at one order more, the output that holds
#: them, the computation the CLI starts after the check or None).
BUDGET_CALLS = {
    "invert": (["--b", "2", "--btilde", "3"], 1024, 1025**2, "entries",
               (cli, "near_toeplitz_inverse_entry")),
    "signs": (["--b", "2", "--btilde", "-1"], 1024, 1025**2, "pattern", None),
    "rowsum": (["--b", "-2", "--btilde", "3"], 2**20, 2**20 + 1, "values", (cli, "rowsum")),
    "solve-bvp": (["--b", "2", "--btilde", "2", "--length", "1", "--k", "1", "--nonlinearity",
                   "fisher"], 2**20, 2**20 + 1, "solution", (bvp, "solve_fixed_point")),
}


class TestExitCodes:
    def test_singular_is_3(self, capsys):
        code, out, err = run_cli(capsys, "norm", "--n", "5", "--b", "2", "--btilde", "1")
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["type"] == "SingularMatrixError"

    def test_usage_is_2(self, capsys):
        code, _, err = run_cli(capsys, "trace", "--n", "3", "--b", "2", "--btilde", "2")
        assert code == 2
        assert "error" in json.loads(err)

    def test_order_above_dense_cap_is_2(self, capsys):
        for command, bt in (("invert", "3"), ("norm", "3"), ("bounds", "3"), ("signs", "-1")):
            code, out, err = run_cli(capsys, command, "--n", "100000", "--b", "2", "--btilde", bt)
            assert (code, out) == (2, "")
            assert json.loads(err)["error"]["type"] == "DenseSizeError"

    @pytest.mark.parametrize("n", [2**53 + 1, 10**309], ids=["2**53+1", "10**309"])
    @pytest.mark.parametrize("argv", ORDER_CALLS, ids=" ".join)
    def test_order_above_2_53_is_2(self, capsys, n, argv):
        """Above 2**53, n - i is not an exact float: every subcommand refuses the order."""
        code, out, err = run_cli(capsys, argv[0], "--n", str(n), *argv[1:])
        assert (code, out) == (2, "")
        assert strict_json(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("argv", [a for a in ORDER_CALLS if a[0] in ("trace", "singular")
                                      or "--i" in a], ids=" ".join)
    def test_order_2_53_answers(self, capsys, argv):
        """entry, trace, rowsum --i and singular are O(1) and answer at the largest order."""
        code, out, _ = run_cli(capsys, argv[0], "--n", str(2**53), *argv[1:])
        assert code == 0
        assert strict_json(out)["inputs"]["n"] == 2**53

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_positive_or_non_finite_tol_is_2(self, capsys, tol):
        """A NaN tol is not positive; an infinite one stops the solve after one step but
        cannot be echoed."""
        code, out, err = run_cli(capsys, *_BVP, "--tol", tol)
        assert (code, out) == (2, "")
        assert strict_json(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("argv", [
        ["solve-bvp", "--n", "8", "--b", "-2", "--btilde", "2.3e307", "--length", "1", "--k", "1",
         "--nonlinearity", "fisher"],
        ["norm", "--n", "8", "--b", "2", "--btilde", "1e160"],
        ["bounds", "--n", "8", "--b", "2", "--btilde", "1e160"],
        ["invert", "--n", "8", "--b", "2", "--btilde", "1e160"],
        ["entry", "--n", "8", "--b", "2", "--btilde", "2", "--i", "2", "--j", "3", "--chat", "0"],
        ["invert", "--n", "8", "--b", "2", "--btilde", "3", "--chat", "1e-310"],
        [*_BVP, "--chat", "1e-320"],
        [*_BVP, "--length", "1e-300"],
        [*_BVP, "--length", "1e-170", "--bc-left", "0.5"],
        [*_BVP, "--length", "1e300", "--nonlinearity", "bratu"],
    ], ids=" ".join)
    def test_refused_options_are_2_with_one_error_line(self, capsys, argv):
        """Corners beyond 2**400, past which D overflows and a norm would be NaN, which no
        report may print; |c_hat| outside [2**-400, 2**400] and h^2/|c_hat| outside the float
        range.  Any warning is an error here, so stderr holds the error alone."""
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and strict_json(lines[0])["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("argv", [
        ["entry", *_SINGULAR, "--i", "2", "--j", "3", "--chat", "0"],
        ["invert", *_SINGULAR, "--chat", "0"],
        ["solve-bvp", *_SINGULAR, "--length", "1", "--k", "1", "--nonlinearity", "fisher",
         "--chat", "0"],
        ["solve-bvp", *_SINGULAR, "--length", "1e-300", "--k", "1", "--nonlinearity", "fisher"],
        ["signs", "--n", "8", "--b", "-2", "--btilde", "-1"],
        ["rowsum", *_SINGULAR, "--i", "99"],
    ], ids=" ".join)
    def test_a_singular_corner_is_3_before_a_second_fault(self, capsys, argv):
        """The triple is checked first, its range and then its singularity; c_hat, the indices,
        the BVP options and the sign-pattern regime only after it.  Each call also has one of
        those wrong, and exits 3 with the config's own message, on one line."""
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        with pytest.raises(SingularMatrixError) as info:
            MatrixConfig(int(argv[2]), int(argv[4]), float(argv[6]))
        lines = err.splitlines()
        assert len(lines) == 1 and strict_json(lines[0])["error"] == {
            "type": "SingularMatrixError", "message": str(info.value)}

    @pytest.mark.parametrize("argv", [
        [*_BVP, "--bc-left", "1e308"],
        [*_BVP, "--k", "1e308"],
        [*_BVP, "--k", "1e308", "--nonlinearity", "bratu"],
        [*_BVP, "--b", "-2", "--btilde", "-3", "--length", "1e150"],
        [*_BVP, "--n", "4", "--length", "4e154"],
    ], ids=" ".join)
    def test_overflowing_solves_are_4_with_one_error_line(self, capsys, argv):
        """An overflow in the boundary values, in f(u) or in the solver's weights is reported
        by the non-finite step alone: numpy warns of none of them, which would be an error
        here, before the error object."""
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (4, "")
        lines = err.splitlines()
        assert len(lines) == 1 and strict_json(lines[0])["error"]["message"] == "iterate overflowed"

    @pytest.mark.parametrize("code, argv", [
        (0, _BVP), (2, [*_BVP, "--chat", "1e-320"]),
        (3, ["signs", "--n", "8", "--b", "-2", "--btilde", "-1"]), (4, [*_BVP, "--bc-left", "1e308"])])
    def test_python_m_writes_what_main_writes(self, capsys, code, argv):
        """A fresh interpreter, whose default filters print warnings, exits and writes as
        ``cli.main`` does: a record alone on success, one error line alone on failure."""
        proc = run_fresh("-m", "neartoeplitz", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)
        assert proc.returncode == code and len(proc.stderr.splitlines()) == (code != 0)

    def test_failed_stdout_write_is_2(self, capsys, monkeypatch):
        """A stdout that refuses the report, as a full disk does, exits 2 with one error line."""
        full = OSError(errno.ENOSPC, "No space left on device")

        class FullStdout:
            def write(self, text):
                raise full

        for argv in (["trace", "--n", "8", "--b", "2", "--btilde", "3"], ["reproduce", "table5"]):
            with monkeypatch.context() as mp:
                mp.setattr(sys, "stdout", FullStdout())
                code = main(argv)
            out, err = capsys.readouterr()
            assert (code, out) == (2, "") and len(err.splitlines()) == 1
            assert strict_json(err) == {"command": argv[0], "error": {
                "type": "OSError", "message": f"[Errno {errno.ENOSPC}] No space left on device"}}

    def test_refused_allocation_is_2(self, capsys, monkeypatch):
        def refuse(cfg, i):
            raise MemoryError(f"Unable to allocate {8 * cfg.n} bytes")
        monkeypatch.setattr(cli, "rowsum", refuse)
        code, out, err = run_cli(capsys, "rowsum", "--n", "100000", "--b", "2", "--btilde", "3")
        assert (code, out) == (2, "")
        assert strict_json(err)["error"] == {"type": "MemoryError",
                                             "message": "Unable to allocate 800000 bytes"}

    @pytest.mark.parametrize("b", ["2", "-2"])
    def test_row_list_above_its_cap_is_2_before_any_row(self, capsys, monkeypatch, b):
        # A report prints at most 2**20 numbers; one row more is refused.
        monkeypatch.setattr(cli, "rowsum", lambda cfg, i: pytest.fail("a row was computed"))
        for n in (str(2**20 + 1), "10000000000"):
            code, out, err = run_cli(capsys, "rowsum", "--n", n, "--b", b, "--btilde", "3")
            assert (code, out) == (2, "")
            assert strict_json(err)["error"] == {
                "type": "DenseSizeError",
                "message": f"the report would print {n} numbers, above 2**20, the cap"}
        # A singular configuration answers as singular at any order, as before the cap.
        singular = "1" if b == "2" else "-1"
        code, out, err = run_cli(capsys, "rowsum", "--n", "10000000000", "--b", b, "--btilde", singular)
        assert (code, out, strict_json(err)["error"]["type"]) == (3, "", "SingularMatrixError")

    @pytest.mark.parametrize("command", list(BUDGET_CALLS))
    def test_report_above_the_budget_is_2_before_the_work(self, capsys, monkeypatch, command):
        """One order over ``cli._MAX_PRINTED`` numbers is refused before the work and the
        rendering; ``signs`` builds its O(n) pattern before the check, so only its rendering
        is patched."""
        argv, n, count, _, work = BUDGET_CALLS[command]
        def fail(*args, **kwargs):
            pytest.fail("the refused report was computed")
        for module, name in filter(None, [work, (cli, "_report")]):
            monkeypatch.setattr(module, name, fail)
        code, out, err = run_cli(capsys, command, "--n", str(n + 1), *argv)
        assert (code, out) == (2, "")
        assert strict_json(err)["error"] == {
            "type": "DenseSizeError",
            "message": f"the report would print {count} numbers, above 2**20, the cap"}

    @pytest.mark.parametrize("command", list(BUDGET_CALLS))
    def test_report_at_the_budget_is_computed(self, capsys, monkeypatch, command):
        """Exactly ``cli._MAX_PRINTED`` numbers pass the check; only the rendering is stubbed,
        and the row sums and entries, which take about 1 s for 2**20 numbers."""
        argv, n, _, key, _ = BUDGET_CALLS[command]
        outputs = []
        monkeypatch.setattr(cli, "rowsum", lambda cfg, i: 0.0)
        monkeypatch.setattr(cli, "near_toeplitz_inverse_entry", lambda cfg, i, j: 0.0)
        monkeypatch.setattr(cli, "_report", lambda args, out: outputs.append(out) or "rendered\n")
        assert run_cli(capsys, command, "--n", str(n), *argv) == (0, "rendered\n", "")
        assert np.size(outputs[0][key]) == cli._MAX_PRINTED

    def test_refusals_of_the_config_come_before_the_budget(self, capsys):
        """A singular corner exits 3 and an unstated sign pattern 2 with its own error, as below
        the budget (the full ``rowsum`` is checked with its row cap above).  b_tilde = -1 is
        singular at b = -2, so it exits 3 for ``signs`` too."""
        for command, n in {"invert": "1025", "solve-bvp": str(2**20 + 1)}.items():
            argv = BUDGET_CALLS[command][0][4:]  # the options after --btilde
            code, out, err = run_cli(capsys, command, "--n", n, "--b", "-2", "--btilde", "-1", *argv)
            assert (code, out, strict_json(err)["error"]["type"]) == (3, "", "SingularMatrixError")
        code, out, err = run_cli(capsys, "signs", "--n", "1025", "--b", "-2", "--btilde", "-3")
        assert (code, out, strict_json(err)["error"]["type"]) == (2, "", "UnsupportedCaseError")
        code, out, err = run_cli(capsys, "signs", "--n", "1025", "--b", "-2", "--btilde", "-1")
        assert (code, out, strict_json(err)["error"]["type"]) == (3, "", "SingularMatrixError")

    @pytest.mark.filterwarnings("error")
    def test_divergence_partial_is_valid_json(self, capsys):
        """The expected rate overflows to inf; the partial state keeps only its finite fields."""
        code, out, err = run_cli(
            capsys, "solve-bvp", "--n", "10", "--b", "2", "--btilde", "2",
            "--length", "1e10", "--k", "1e308", "--nonlinearity", "fisher",
        )
        assert (code, out) == (4, "")
        assert strict_json(err)["partial"] == {"iterations": 0, "observed_rate": 0.0}

    @pytest.mark.parametrize("flag, value", [
        ("--k", "nan"), ("--k", "inf"), ("--bc-left", "nan"), ("--length", "inf"),
        ("--max-iter", "0"), ("--max-iter", "-3"),
    ])
    def test_invalid_bvp_input_is_2(self, capsys, flag, value):
        """Non-finite inputs and max_iter < 1 are refused before any step runs."""
        args = {"--n": "10", "--b": "2", "--btilde": "3", "--length": "1",
                "--nonlinearity": "fisher", "--k": "1"} | {flag: value}
        code, out, err = run_cli(capsys, "solve-bvp", *[x for kv in args.items() for x in kv])
        assert (code, out) == (2, "")
        assert strict_json(err)["error"]["type"] == "ValueError"

    def test_bad_flag_raises_system_exit(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["trace", "--n", "4", "--b", "7", "--btilde", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", OPTION_CALLS)
    def test_removed_output_options_are_usage_errors(self, capsys, command):
        """Each subcommand prints one encoding to stdout: ``--format`` and ``--out`` are
        unknown options, refused with argparse's usage text before any work, and so is
        ``--toeplitz`` (``--btilde`` equal to ``--b`` gives the Toeplitz case)."""
        for option in (["--format", "json"], ["--out", "x"], ["--toeplitz"]):
            with pytest.raises(SystemExit) as err:
                main([command, *OPTION_CALLS[command][0], *option])
            captured = capsys.readouterr()
            assert err.value.code == 2 and captured.out == ""
            assert f"unrecognized arguments: {' '.join(option)}" in captured.err

    def test_unknown_table_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["reproduce", "table9"])
        assert err.value.code == 2


def test_cli_is_thin_wrapper(capsys):
    """CLI numbers must equal direct library calls bit for bit (before rounding)."""
    _, out, _ = run_cli(capsys, "trace", "--n", "9", "--b", "-2", "--btilde", "-4.5")
    got = json.loads(out)["outputs"]["trace"]
    lib = trace_inverse(MatrixConfig(9, -2, -4.5))
    assert got == float(f"{lib:.10g}")


def scaled_outputs(command, n, b, bt, c_hat, **extra):
    """The unrounded outputs of ``entry`` or ``invert`` with ``--chat c_hat``, as they reach
    the renderer; ``invert``'s rows of floats as one array, which keeps their bits."""
    args = argparse.Namespace(command=command, n=n, b=b, btilde=bt, chat=c_hat, **extra)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_report", lambda args, outputs, branch=None: outputs)
        outputs = getattr(cli, f"cmd_{command}")(args)
    if "entries" in outputs:
        outputs["entries"] = np.array(outputs["entries"])
    return outputs


class TestChat:
    """``entry`` and ``invert`` report for -c_hat A: the library's inverse divided by -c_hat."""

    def test_entry_divides_by_minus_chat(self, capsys):
        code, out, _ = run_cli(capsys, "entry", "--n", "6", "--b", "2", "--btilde", "3",
                               "--i", "2", "--j", "2", "--chat", "-4")
        plain = near_toeplitz_inverse_entry(MatrixConfig(6, 2, 3.0), 2, 2)
        assert code == 0 and json.loads(out)["outputs"]["value"] == cli._round10(plain / 4.0)

    def test_invert_divides_by_minus_chat(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--n", "5", "--b", "2", "--btilde", "3",
                               "--chat", "-2")
        cfg = MatrixConfig(5, 2, 3.0)
        printed = json.loads(out)["outputs"]["entries"]
        assert code == 0 and printed == cli._round10((assemble_inverse(cfg).entries / 2.0).tolist())
        residual = (build_matrix(cfg) * 2.0) @ np.array(printed) - np.eye(5)
        assert np.max(np.abs(residual)) <= 1e-9

    @pytest.mark.parametrize("n", [*range(4, 61), 257])
    def test_scaled_grid_is_the_mirrored_index_grid_divided(self, n):
        """Bit for bit, with the signs of zeros: dividing the assembled grid by -c_hat gives
        the former assembly's tril mirror of the index grid divided by -c_hat."""
        for b in (2, -2):
            for bt in regime_corners(n, b):
                cfg = MatrixConfig(n, b, bt)
                for c_hat in (2.5, -0.3):
                    got = scaled_outputs("invert", n, b, bt, c_hat)["entries"]
                    assert bitwise_equal(got, tril_mirror_assembly(cfg) / -c_hat), (b, bt, c_hat)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(4, 60), b=st.sampled_from([2, -2]), data=st.data())
    def test_scaled_entries_divide_every_entry(self, n, b, data):
        bt = data.draw(st.one_of(st.floats(-8, 8), st.sampled_from(regime_corners(n, b))).filter(
            lambda bt: not singularity_report(n, b, bt)["singular"]))
        c_hat = data.draw(st.one_of(st.floats(-4, -0.1), st.floats(0.1, 4)))
        entries = assemble_inverse(MatrixConfig(n, b, bt)).entries
        scaled = scaled_outputs("invert", n, b, bt, c_hat)["entries"]
        assert bitwise_equal(scaled, entries / -c_hat)
        assert bitwise_equal(scaled, scaled.T) and bitwise_equal(scaled, scaled[::-1, ::-1])
        i, j = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
        value = scaled_outputs("entry", n, b, bt, c_hat, i=i, j=j)["value"]
        assert value == scaled[i - 1, j - 1]

    @pytest.mark.parametrize("argv", [
        ["entry", "--i", "2", "--j", "3"], ["invert"],
        ["solve-bvp", "--length", "1", "--k", "1", "--nonlinearity", "fisher"],
    ], ids=lambda argv: argv[0])
    def test_error_precedence(self, capsys, argv):
        """A bad corner comes before a bad c_hat: the config is built, and so checked, first.
        ``test_a_singular_corner_is_3_before_a_second_fault`` puts a singular corner first."""
        def error(bt, c_hat):
            code, out, err = run_cli(capsys, argv[0], "--n", "8", "--b", "2", "--btilde", bt,
                                     *argv[1:], f"--chat={c_hat}")
            assert out == ""
            return code, strict_json(err)["error"]["message"]

        code, message = error("1e160", "0")
        assert code == 2 and message.startswith("corner value must lie in")
        code, message = error("3", "0")
        assert code == 2 and message.startswith("scaling |c_hat| must lie in")


#: Calls ``cli.main`` with each argv of the JSON list ``sys.argv[1]`` in turn, in one interpreter,
#: and prints per call a JSON line of its exit code, its stdout and the watched modules then loaded.
RUN_CALLS = """
import io, json, sys
from contextlib import redirect_stdout
from neartoeplitz.cli import main
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    loaded = set(sys.modules) & {'numpy', 'scipy', 'dataclasses', 'inspect', 'neartoeplitz.tables'}
    print(json.dumps({'code': code, 'stdout': out.getvalue(), 'loaded': sorted(loaded)}))
"""


#: Calls that build no array, with their exit codes: both signs, a singular configuration (3)
#: and a row index out of range (2).
NUMPY_FREE_CALLS = [
    pytest.param(["entry", "--n", "40", "--b", "2", "--btilde", "0.95", "--i", "3", "--j", "7"], 0,
                 id="entry"),
    pytest.param(["entry", "--n", "40", "--b", "-2", "--btilde", "-2.5", "--i", "40", "--j", "1",
                  "--chat", "2.5"], 0, id="entry-chat"),
    pytest.param(["trace", "--n", "40", "--b", "-2", "--btilde", "3"], 0, id="trace"),
    pytest.param(["singular", "--n", "40", "--b", "2", "--btilde", "1"], 0, id="singular"),
    pytest.param(["rowsum", "--n", "40", "--b", "-2", "--btilde", "0.95", "--i", "17"], 0,
                 id="rowsum-i"),
    pytest.param(["trace", "--n", "5", "--b", "2", "--btilde", "0.5"], 3, id="singular-config"),
    pytest.param(["rowsum", "--n", "40", "--b", "2", "--btilde", "3", "--i", "41"], 2,
                 id="row-out-of-range"),
    pytest.param(["norm", "--n", "40", "--b", "2", "--btilde", "0.95"], 0, id="norm"),
    pytest.param(["bounds", "--n", "40", "--b", "-2", "--btilde", "-0.3"], 0, id="bounds"),
    pytest.param(["signs", "--n", "40", "--b", "2", "--btilde", "-0.3"], 0, id="signs"),
    pytest.param(["signs", "--n", "40", "--b", "2", "--btilde", "0"], 0, id="signs-zero"),
    pytest.param(["rowsum", "--n", "40", "--b", "2", "--btilde", "0.95"], 0, id="rowsum"),
    pytest.param(["rowsum", "--n", "40", "--b", "-2", "--btilde", "3"], 0, id="rowsum-negative-b"),
    pytest.param(["invert", "--n", "40", "--b", "2", "--btilde", "0.95"], 0, id="invert"),
    pytest.param(["invert", "--n", "40", "--b", "-2", "--btilde", "-0.3", "--chat", "2.5"], 0,
                 id="invert-chat"),
]


#: An inverse small enough to check against numpy's.
SMALL_INVERT = ["invert", "--n", "6", "--b", "-2", "--btilde", "0.95"]
#: The calls of ``parser_calls`` that load numpy.
NUMPY_LOADERS = ("solve-bvp", "reproduce table5", "reproduce table6")


def parser_calls():
    """A call of each subcommand the parser has, and of each table ``reproduce`` prints."""
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    calls = {command: [command, *OPTION_CALLS[command][0]] for command in commands
             if command != "reproduce"}
    calls.update({f"reproduce {table_id}": ["reproduce", table_id]
                  for table_id in neartoeplitz.config.TABLE_IDS})
    return calls


@pytest.fixture(scope="module")
def fresh_runs():
    """``RUN_CALLS``'s record of each call, keyed by its argv joined with spaces: the calls that
    build no array in one fresh interpreter, the norm tables last as they load the tables
    module, and each of ``NUMPY_LOADERS`` in its own."""
    calls = parser_calls()
    shared = [*(param.values[0] for param in NUMPY_FREE_CALLS), SMALL_INVERT,
              *(argv for name, argv in calls.items() if name not in NUMPY_LOADERS)]
    shared.sort(key=lambda argv: argv[0] == "reproduce")
    runs = {}
    for group in [shared, *([calls[name]] for name in NUMPY_LOADERS)]:
        proc = run_fresh("-c", RUN_CALLS, json.dumps(group))
        assert proc.returncode == 0, proc.stderr
        runs.update(zip(map(" ".join, group), map(json.loads, proc.stdout.splitlines()),
                        strict=True))
    return runs


class TestImportBoundary:
    """scipy is a test-only dependency: the package and its CLI never import it.  numpy is
    imported only by code that builds an array, so the scalar subcommands, the norm and its
    bounds, the sign pattern, the full row-sum list and the full inverse run without it, and
    without dataclasses and inspect (8 ms of start-up together) or the tables module; the two
    norm tables load the tables module and no numpy."""

    def test_a_public_name_loads_only_its_modules(self):
        # ``import neartoeplitz`` loads no submodule; a scalar name loads its module and that
        # module's imports, and neither numpy, scipy nor the array modules.
        loaded = ("print(sorted(m for m in sys.modules"
                  " if m.startswith(('neartoeplitz.', 'numpy', 'scipy'))))")
        proc = run_fresh("-c", f"import sys, neartoeplitz\n{loaded}\n"
                               f"neartoeplitz.trace_inverse\n{loaded}")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "[]",
            "['neartoeplitz.analysis', 'neartoeplitz.config', 'neartoeplitz.core', "
            "'neartoeplitz.errors']",
        ]

    @pytest.mark.parametrize("argv, code", NUMPY_FREE_CALLS)
    def test_scalar_subcommand_does_not_load_numpy(self, fresh_runs, argv, code):
        run = fresh_runs[" ".join(argv)]
        assert (run["code"], run["loaded"]) == (code, [])
        if code == 0:
            out = run["stdout"]
            assert f'"command": "{argv[0]}"' in out

    @pytest.mark.parametrize("table_id", ["fig2_table", "fig3_table"])
    def test_norm_table_does_not_load_numpy(self, fresh_runs, table_id):
        run = fresh_runs[f"reproduce {table_id}"]
        assert (run["code"], run["loaded"]) == (0, ["neartoeplitz.tables"])
        assert run["stdout"].startswith("n,btilde,norm,upper_bound,branch,")

    def test_only_the_array_subcommands_load_numpy(self, fresh_runs):
        runs = {name: fresh_runs[" ".join(argv)] for name, argv in parser_calls().items()}
        assert all(run["code"] == 0 for run in runs.values())
        loaders = {name for name, run in runs.items() if "numpy" in run["loaded"]}
        assert loaders == set(NUMPY_LOADERS)

    def test_invert_works_without_numpy(self, fresh_runs):
        run = fresh_runs[" ".join(SMALL_INVERT)]
        assert (run["code"], run["loaded"]) == (0, [])
        entries = json.loads(run["stdout"])["outputs"]["entries"]
        assert np.allclose(entries, np.linalg.inv(build_matrix(MatrixConfig(6, -2, 0.95))),
                           rtol=1e-9, atol=1e-12)

    def test_solve_bvp_does_not_load_scipy(self, fresh_runs):
        run = fresh_runs[" ".join(parser_calls()["solve-bvp"])]
        assert json.loads(run["stdout"])["outputs"]["converged"] is True
        assert run["code"] == 0 and "scipy" not in run["loaded"]
