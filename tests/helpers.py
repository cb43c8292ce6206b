"""The runner of the command line for the tests that start `python -m quasiherm`."""

import subprocess
import sys

TIMEOUT = 300  # seconds: a hung child fails its test instead of stalling the suite


def run_cli(*args, **kwargs):
    """`python -m quasiherm` with these arguments, its output captured as text."""
    return subprocess.run([sys.executable, "-m", "quasiherm", *args], capture_output=True,
                          text=True, timeout=TIMEOUT, **kwargs)
