import os

import numpy as np
import pytest
from hypothesis import settings

# The CLI tests spawn `python -m quasiherm`; point those children at this
# checkout's src/ as well, so they import the same tree as the tests.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
# ...and fail them on a numpy warning, as pyproject.toml fails the tests themselves.
os.environ["PYTHONWARNINGS"] = ",".join(
    filter(None, [os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning"])
)

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 run is deterministic; the wall-clock deadline is off
# because LAPACK timings vary with machine load.
settings.register_profile("quasiherm", derandomize=True, deadline=None, database=None)
settings.load_profile("quasiherm")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
