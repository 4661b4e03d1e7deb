"""The suite's pytest configuration reports a failing property test as a
failure, with its falsifying example, not as an internal error."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_is_reported_as_failed(tmp_path):
    (tmp_path / "test_falsified.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers(0, 10))
        def test_falsified(x):
            assert x < 5
    """))
    # cwd tmp_path: hypothesis writes its patch files under the working directory
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                          "test_falsified.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "FAILED test_falsified.py::test_falsified - assert 5 < 5" in output
    assert "INTERNALERROR" not in output
