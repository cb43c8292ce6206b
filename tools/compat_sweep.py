"""Print shared_metric's answer on a fixed, seeded list of pairs, one line each.

    PYTHONPATH=src python tools/compat_sweep.py [--seed 18] [--count 1500]

Pair i has n = 2-8 and h = S diag(E) S^-1 from tools/families.py's
conditioned_spectrum, with cond(S) log-uniform over 1e1-3e7.  The first count
pairs, from the seed, have the partner h^2 or 2h + h^3, which share every
metric of h, or an independent h' with the same cond(S), in the ratio 2:2:1.
Then come count // 5 pairs of each of two more kinds, alternating and drawn
from seed + 1: the partner S S^dagger M of tools/families.py's metric_partner
("M-partner"), which shares S^-dagger S^-1 with h and, M being generic, no
other metric, and the same partner on an unrelated frame of the same cond
("stranger").  Each line gives the index, the kind, n, cond(S), the status,
solution_space_dim, the first 16 hex digits of the SHA-256 of the metric's
bytes (or "-"), and, for a sharing pair, which gates the exact metric
S^-dagger S^-1, formed in floating point and scaled to trace n, fails
("none", "residual", "positivity" or both).
Output derived from LAPACK depends on its build and the BLAS thread count;
tools/bytecheck.py runs this script at its defaults as one of its entries and
lists the lines that differ between two trees on one machine.
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from families import conditioned_frame, conditioned_spectrum, exact_metric, metric_partner
from quasiherm import (
    DEFAULT_TOL,
    NotPositiveDefinite,
    metric_from_theta,
    quasi_hermiticity_residual,
    shared_metric,
)

KINDS = ("h^2", "h^2", "2h+h^3", "2h+h^3", "independent")
UNIQUE_KINDS = ("M-partner", "stranger")
NON_SHARING = ("independent", "stranger")


def _spectrum(rng):
    """(n, cond(S), h, S) for one pair."""
    n = int(rng.integers(2, 9))
    cond = 10.0 ** rng.uniform(1.0, np.log10(3e7))
    h, _energies, s = conditioned_spectrum(rng, n, cond)
    return n, cond, h, s


def pairs(seed: int, count: int):
    """(kind, n, cond(S), S, h1, h2) for each pair of the list."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, cond, h, s = _spectrum(rng)
        kind = KINDS[i % len(KINDS)]
        if kind == "h^2":
            partner = h @ h
        elif kind == "2h+h^3":
            partner = 2.0 * h + h @ h @ h
        else:
            partner = conditioned_spectrum(rng, n, cond)[0]
        yield kind, n, cond, s, h, partner
    rng = np.random.default_rng(seed + 1)
    for i in range(2 * (count // 5)):
        n, cond, h, s = _spectrum(rng)
        kind = UNIQUE_KINDS[i % 2]
        frame = s if kind == "M-partner" else conditioned_frame(rng, n, cond)
        yield kind, n, cond, s, h, metric_partner(rng, frame)


def exact_metric_fails(s: np.ndarray, mats) -> str:
    """The gates that S^-dagger S^-1, scaled to trace n, fails."""
    theta = exact_metric(s)
    theta = theta * (len(s) / np.trace(theta).real)
    failed = []
    if not all(quasi_hermiticity_residual(a, theta) <= DEFAULT_TOL.residual_rel for a in mats):
        failed.append("residual")
    try:
        metric_from_theta(theta)
    except NotPositiveDefinite:
        failed.append("positivity")
    return "+".join(failed) or "none"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=18)
    parser.add_argument("--count", type=int, default=1500)
    args = parser.parse_args(argv)
    for i, (kind, n, cond, s, h1, h2) in enumerate(pairs(args.seed, args.count)):
        result = shared_metric(h1, h2)
        digest = "-" if result.theta is None else hashlib.sha256(
            result.theta.theta.tobytes()).hexdigest()[:16]
        exact = "-" if kind in NON_SHARING else exact_metric_fails(s, (h1, h2))
        print(f"{i} {kind} {n} {cond:.3e} {result.status} {result.solution_space_dim} "
              f"{digest} {exact}")


if __name__ == "__main__":
    main()
