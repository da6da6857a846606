"""The repository's pytest settings, exercised on a throwaway test file."""

import subprocess
import sys
import time
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

HANGING = '''
import time


def test_planted_hang():
    time.sleep(600)
'''


def run_planted(tmp_path, source, *options, timeout=120):
    (tmp_path / "test_planted.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-v", *options,
         "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=timeout,
    )


def test_failing_property_does_not_abort_the_session(tmp_path):
    # On failure Hypothesis's plugin imports libcst for a patch suggestion;
    # a DeprecationWarning from that import must not end the session.
    proc = run_planted(tmp_path, PLANTED)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "test_runs_after_the_failure PASSED" in proc.stdout


def test_hanging_test_ends_the_session_with_a_failure(tmp_path):
    # The repository's settings make faulthandler's timeout exit the
    # session; the planted test would otherwise sleep for ten minutes.
    started = time.monotonic()
    proc = run_planted(tmp_path, HANGING, "-o", "faulthandler_timeout=2",
                       timeout=60)
    assert time.monotonic() - started < 60
    assert proc.returncode != 0
    assert "test_planted_hang" in proc.stdout + proc.stderr
