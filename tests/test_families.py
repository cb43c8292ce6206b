"""tools/families.py: each input has the property it is drawn for."""

import numpy as np
import pytest

from families import conditioned_frame, exact_metric, metric_partner, similar
from quasiherm import quasi_hermiticity_residual


@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("cond", [1e1, 1e4, 1e7])
def test_frame_has_its_condition_and_intertwines_its_metric(rng, n, cond):
    s = conditioned_frame(rng, n, cond)
    assert np.linalg.cond(s) == pytest.approx(cond, rel=1e-8)
    theta = exact_metric(s)
    for h in (similar(s, np.arange(n) - 0.5 * n), metric_partner(rng, s)):
        assert quasi_hermiticity_residual(h, theta) <= 1e-12
