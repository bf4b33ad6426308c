"""The suite's own pytest configuration: a failing property test reports its counterexample,
and every other warning still fails the test that raises it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_other_warning_is_an_error():
    warnings.warn("any other warning", DeprecationWarning)
'''


def test_failing_property_test_reports_its_counterexample(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_property_fails(" in out
    assert "FAILED test_probe.py::test_other_warning_is_an_error - DeprecationWarning" in out
    assert proc.returncode == 1 and "2 failed" in out, out
