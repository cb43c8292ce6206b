"""tools/families.py: each input has the property it is drawn for."""

import numpy as np
import pytest

from families import (
    conditioned_frame,
    exact_metric,
    exact_spectrum,
    metric_partner,
    similar,
    unimodular_frame,
)
from quasiherm import quasi_hermiticity_residual


@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("cond", [1e1, 1e4, 1e7])
def test_frame_has_its_condition_and_intertwines_its_metric(rng, n, cond):
    s = conditioned_frame(rng, n, cond)
    assert np.linalg.cond(s) == pytest.approx(cond, rel=1e-8)
    theta = exact_metric(s)
    for h in (similar(s, np.arange(n) - 0.5 * n), metric_partner(rng, s)):
        assert quasi_hermiticity_residual(h, theta) <= 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_integer_frame_and_spectrum_are_exact(rng, n):
    s, s_inv = unimodular_frame(rng, n)
    assert s.dtype == s_inv.dtype == np.int64
    assert np.array_equal(s @ s_inv, np.eye(n, dtype=np.int64))
    h, energies, frame = exact_spectrum(rng, n)
    assert h.dtype == np.int64 and np.all(np.diff(energies) > 0)
    # H S = S diag(E) in int64, which for an invertible S is H = S diag(E) S^-1
    assert np.array_equal(h @ frame, frame * energies)
