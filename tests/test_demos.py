"""Golden demo output: the stdout bytes and exit code of each script in ``demos/``.

Each demo runs in its own interpreter, as a user runs it, and must reproduce the
recorded bytes exactly.  Demo 01 prints a residual from a BLAS matrix product, so
the data is pinned to the machine that wrote it.  Regenerate it only when an
output change is intended:

    PYTHONPATH=src python tests/test_demos.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from helpers import run_fresh

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("data") / "demos.json"
DEMOS = sorted(ROOT.glob("demos/*.py"))


def run_demo(path: Path) -> dict:
    """Run one demo with ``src`` on the path; record its name, exit code and stdout."""
    proc = run_fresh(str(path))
    return {"demo": path.name, "code": proc.returncode, "stdout": proc.stdout}


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_golden_set_is_every_demo():
    assert [g["demo"] for g in _golden()] == [p.name for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_output_matches_golden(path):
    want = next(g for g in _golden() if g["demo"] == path.name)
    assert run_demo(path) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_demos.py --write")
    GOLDEN.write_text(json.dumps([run_demo(p) for p in DEMOS], indent=1) + "\n")
