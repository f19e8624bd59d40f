"""The repository's pytest settings report failures instead of aborting."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_reports_and_the_session_goes_on(tmp_path):
    """Warnings are errors, yet a failing @given test must fail like any
    other test: hypothesis' failure report may itself warn, and an error
    raised there would abort the session (exit 3) before the next test."""
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
        """))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout
