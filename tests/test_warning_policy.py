"""The warning policy of tests/conftest.py, run on a throwaway test file."""

import shutil
import subprocess
import sys
from pathlib import Path

THROWAWAY_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_failing_example(n):
    assert n < 10


def test_passes():
    pass


def test_warns():
    warnings.warn("a test's own warning", DeprecationWarning)
'''


def test_failing_hypothesis_example_does_not_end_the_session(tmp_path):
    # reporting the failing example imports libcst, which warns; the session
    # must go on to the later tests, and a test's own warning still fails it
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "2 failed, 1 passed" in out, out
    assert "FAILED test_throwaway.py::test_warns - DeprecationWarning" in out, out
