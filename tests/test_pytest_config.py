"""pyproject.toml's pytest settings: a failing property test is reported as a
failure, with its falsifying example, and the session goes on to the next test."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

THROWAWAY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
