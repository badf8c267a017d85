"""The pytest configuration in pyproject.toml reports a failing test instead of ending the session."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10
'''


def test_a_failing_hypothesis_example_is_reported(tmp_path):
    # With libcst installed, hypothesis's pytest plugin imports its patching
    # module on a failing example; that import warns through mypy_extensions,
    # and error::DeprecationWarning made it an INTERNALERROR (exit code 3)
    # that ended the session before the falsifying example was printed.
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
