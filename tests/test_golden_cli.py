"""Golden CLI output: stdout, stderr and exit code of a fixed set of calls.

Every subcommand runs in-process through ``cli.main`` and must reproduce the
recorded bytes exactly, with and without ``python -O``.  Warnings are turned
into errors, so no call may warn and stderr holds only what the CLI itself
writes.  Regenerate the data only when an output change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import io
import json
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from helpers import run_fresh

GOLDEN = Path(__file__).with_name("data") / "golden_cli.json"

_MATRIX_COMMANDS = ("entry", "invert", "trace", "rowsum", "norm", "bounds", "singular")
#: (b, n, format) per call of each matrix subcommand; the corner value cycles.
_VARIANTS = ((2, 8, "json"), (-2, 13, "json"), (2, 13, "csv"), (-2, 8, "csv"))
_BTILDES = ("3", "0.95", "0.0", "-0.0", "-2.5")


def _calls() -> list[list[str]]:
    calls = []
    extra = {"entry": ["--i", "3", "--j", "2"]}
    for c, command in enumerate(_MATRIX_COMMANDS):
        for v, (b, n, fmt) in enumerate(_VARIANTS):
            bt = _BTILDES[(c + v) % len(_BTILDES)]
            calls.append([command, "--n", str(n), "--b", str(b), "--btilde", bt,
                          "--format", fmt, *extra.get(command, [])])
    for b, n, bt, fmt in ((2, 8, "0.0", "json"), (2, 13, "-0.0", "csv"), (2, 13, "-2.5", "json"),
                          (-2, 8, "-2.5", "json"), (2, 8, "3", "csv")):
        calls.append(["signs", "--n", str(n), "--b", str(b), "--btilde", bt, "--format", fmt])
    for b, n, bt, length, k, fmt in ((2, 8, "2", "0.5", "1", "json"), (-2, 13, "-2", "0.05", "81", "csv"),
                                     (2, 13, "0.95", "0.5", "4", "csv"), (-2, 8, "-3", "0.05", "9", "json")):
        calls.append(["solve-bvp", "--n", str(n), "--b", str(b), "--btilde", bt, "--length", length,
                      "--k", k, "--nonlinearity", "fisher", "--format", fmt])
    calls += [
        ["entry", "--n", "8", "--b", "2", "--btilde", "0.95", "--i", "2", "--j", "7", "--chat", "2.5"],
        ["entry", "--n", "13", "--b", "-2", "--btilde", "-2.5", "--i", "13", "--j", "4", "--chat", "2.5",
         "--format", "csv"],
        ["entry", "--n", "8", "--b", "-2", "--btilde", "-2", "--i", "5", "--j", "2"],
        ["entry", "--n", "13", "--b", "2", "--btilde", "2", "--i", "1", "--j", "13", "--format", "csv"],
        ["invert", "--n", "8", "--b", "-2", "--btilde", "0.95", "--chat", "2.5"],
        ["rowsum", "--n", "13", "--b", "2", "--btilde", "0.95", "--i", "5"],
        ["rowsum", "--n", "8", "--b", "-2", "--btilde", "-0.0", "--i", "8", "--format", "csv"],
        ["rowsum", "--n", "8", "--b", "-2", "--btilde", "3"],
        ["bounds", "--n", "13", "--b", "2", "--btilde", "0.7", "--format", "csv"],
        ["norm", "--n", "8", "--b", "2", "--btilde", "1"],
        ["trace", "--n", "13", "--b", "-2", "--btilde", "-1", "--format", "csv"],
        ["entry", "--n", "8", "--b", "2", "--btilde", "3", "--i", "9", "--j", "1"],
        ["invert", "--n", "100000", "--b", "2", "--btilde", "3"],
        ["solve-bvp", "--n", "10", "--b", "2", "--btilde", "2", "--length", "1", "--k", "3",
         "--nonlinearity", "bratu"],
    ]
    calls += [["reproduce", table] for table in ("fig2_table", "fig3_table", "table5", "table6")]
    return calls


def run_calls(calls: list[list[str]]) -> list[dict]:
    """Run each argv through ``cli.main`` and record its exit code, stdout and stderr."""
    from neartoeplitz.cli import main

    results = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(list(argv))
        results.append({"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def _mismatches(golden: list[dict], got: list[dict]) -> list[str]:
    return [" ".join(want["argv"]) for want, have in zip(golden, got, strict=True) if want != have]


def test_golden_set_covers_every_case():
    golden = _golden()
    assert [g["argv"] for g in golden] == _calls()
    assert {g["argv"][0] for g in golden} == {
        "entry", "invert", "trace", "rowsum", "norm", "bounds", "signs", "singular", "solve-bvp",
        "reproduce"}
    assert {g["code"] for g in golden} == {0, 2, 3, 4}
    diverged = [g for g in golden if g["code"] == 4]
    assert len(diverged) == 1 and "partial" in json.loads(diverged[0]["stderr"])


def test_cli_output_matches_golden():
    golden = _golden()
    assert _mismatches(golden, run_calls([g["argv"] for g in golden])) == []


def test_rowsum_bounds_are_null_for_negative_b():
    rec = next(json.loads(g["stdout"]) for g in _golden()
               if g["argv"] == ["rowsum", "--n", "8", "--b", "-2", "--btilde", "3"])
    assert rec["outputs"]["lower"] is None and rec["outputs"]["upper"] is None
    assert len(rec["outputs"]["values"]) == 8


def test_cli_output_matches_golden_under_optimize():
    """``python -O`` strips asserts; no output may depend on one."""
    proc = run_fresh("-O", __file__)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["optimize"] == 1
    assert _mismatches(_golden(), report["results"]) == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(run_calls(_calls()), indent=1) + "\n")
    else:
        results = run_calls([g["argv"] for g in _golden()])
        json.dump({"optimize": sys.flags.optimize, "results": results}, sys.stdout)
