"""The repository's pytest settings, exercised on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_failing_property(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
'''


def test_failing_property_does_not_abort_the_session(tmp_path):
    # On failure Hypothesis's plugin imports libcst for a patch suggestion;
    # a DeprecationWarning from that import must not end the session.
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-v",
         "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "test_runs_after_the_failure PASSED" in proc.stdout
