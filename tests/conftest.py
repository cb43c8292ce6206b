import os

import numpy as np
import pytest

# The CLI tests spawn `python -m quasiherm`; point those children at this
# checkout's src/ as well, so they import the same tree as the tests.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
