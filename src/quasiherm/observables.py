"""Quasi-Hermitian observables and the shared-metric compatibility test.

Every Hermitian generator M yields an observable A = Theta^{-1} M that is
quasi-Hermitian with respect to Theta and therefore has real spectrum.  The
converse question, whether two Hamiltonians admit one common metric, is
decided in the eigenbasis of a Hamiltonian with simple real spectrum: there
every Hermitian solution is a real combination of the projectors onto its left
kets, so positivity reduces to a sign test on a small real null space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyson import (
    DysonMap,
    Metric,
    metric_from_theta,
    quasi_hermiticity_residual,
    solve_schrodinger_pair,
)
from .errors import ComplexSpectrum, DefectiveMatrix, NotHermitianGenerator, NotPositiveDefinite
from .linalg import DEFAULT_TOL, Tolerances, as_square_matrix, fro, herm_part, hermiticity_residual

__all__ = [
    "ObservableCandidate",
    "SharedMetricResult",
    "observable_from_M",
    "is_quasi_hermitian",
    "avatar_of_observable",
    "check_diagonal_center",
    "shared_metric",
]

# Weight t of the combination H1 + t H2 tried as a base when neither Hamiltonian
# has a simple spectrum; irrational, so no rational relation between the two
# spectra makes the combination degenerate.
_MIX = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ObservableCandidate:
    """Operator A = Theta^{-1} M together with its generator and residual."""

    a_matrix: np.ndarray
    m_matrix: np.ndarray
    residual: float


@dataclass(frozen=True)
class SharedMetricResult:
    """Outcome of the common-metric decision for a pair of Hamiltonians.

    status is "Found", "NoSharedMetric", or "Inconclusive".  theta is present
    exactly when status is "Found".  solution_space_dim counts the real
    dimension of the Hermitian solution space of the intertwining constraints,
    before positivity is imposed.
    """

    status: str
    theta: Metric | None
    solution_space_dim: int


# Residual of A† Theta = Theta A, normalized by ||A|| ||Theta||: the same check
# as the metric intertwining defect of a Hamiltonian.
is_quasi_hermitian = quasi_hermiticity_residual


def observable_from_M(metric: Metric, m, tol: Tolerances = DEFAULT_TOL) -> ObservableCandidate:
    """Build the observable Theta^{-1} M from a Hermitian generator M."""
    mm = as_square_matrix(m)
    if hermiticity_residual(mm) > tol.residual_rel:
        raise NotHermitianGenerator("generator M must be Hermitian")
    mm = herm_part(mm)
    a = np.linalg.solve(metric.theta, mm)
    return ObservableCandidate(a_matrix=a, m_matrix=mm, residual=is_quasi_hermitian(a, metric))


def avatar_of_observable(a, dyson_map: DysonMap) -> np.ndarray:
    """Hermitian counterpart Omega A Omega^{-1} of an observable."""
    am = as_square_matrix(a)
    return dyson_map.omega @ am @ dyson_map.omega_inv


def check_diagonal_center(a, map_i: DysonMap, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when Omega_I A Omega_I^{-1} is diagonal, i.e. A commutes with H.

    Off-diagonal Frobenius mass is compared against ``tol.residual_rel`` times
    the norm of A.
    """
    if map_i.family != "I":
        raise ValueError("check_diagonal_center expects the reference family 'I' map")
    am = as_square_matrix(a)
    c = map_i.omega @ am @ map_i.omega_inv
    off = c - np.diag(np.diag(c))
    return fro(off) <= tol.residual_rel * (fro(am) or 1.0)


def _simple_base(mats, tol: Tolerances) -> tuple[np.ndarray | None, bool]:
    """(left kets of the base or None, whether none is simple and a spectrum was complex).

    Of H1 and H2 the one with the larger smallest gap relative to its norm has
    the better determined eigenprojectors; H1 + t H2 is tried if neither is simple.
    """
    a1, a2 = mats
    best, best_gap, complex_seen = None, tol.reality_rel, False
    for b in (a1, a2, None):
        if b is None:
            if best is not None:
                break
            b = a1 + _MIX * a2
        try:
            system = solve_schrodinger_pair(b, tol)
        except DefectiveMatrix:
            continue
        except ComplexSpectrum:
            complex_seen = True
            continue
        gaps = np.diff(system.energies) / (fro(b) or 1.0)
        gap = gaps.min() if gaps.size else np.inf
        if gap > best_gap:
            best, best_gap = system.left_kets, gap
    return best, complex_seen and best is None


def _hermitian_units(n: int) -> np.ndarray:
    """Stacked orthonormal basis of the n x n Hermitian matrices under Re tr(A† B).

    Diagonal units first, then symmetric and antisymmetric off-diagonal pairs
    scaled by 1/sqrt(2).
    """
    iu, ju = np.triu_indices(n, 1)
    sym = n + np.arange(iu.size)
    anti = sym + iu.size
    r = np.sqrt(0.5)
    units = np.zeros((n * n, n, n), dtype=np.complex128)
    units[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    units[sym, iu, ju] = units[sym, ju, iu] = r
    units[anti, iu, ju], units[anti, ju, iu] = 1j * r, -1j * r
    return units


def _certify(candidate: np.ndarray, mats, tol: Tolerances) -> Metric | None:
    """The candidate scaled to trace n, if it passes every metric check."""
    trace = np.trace(candidate).real
    if not trace > 0:
        return None
    theta = candidate * (candidate.shape[0] / trace)
    if any(quasi_hermiticity_residual(a, theta) > tol.residual_rel for a in mats):
        return None
    try:
        return metric_from_theta(theta, tol)
    except NotPositiveDefinite:
        return None


def shared_metric(h1, h2, tol: Tolerances = DEFAULT_TOL, seed: int = 0) -> SharedMetricResult:
    """Decide whether one metric Theta serves both h1 and h2.

    The base B is whichever of h1, h2 has a simple real spectrum (the better
    separated one if both do), else h1 + t h2 for a fixed irrational t.  Every
    Hermitian Theta with B† Theta = Theta B is sum_k e_k P_k over the
    projectors P_k = l_k l_k† / |l_k|^2 onto the left kets of B, e real, and
    the constraints of h1 and h2 are real-linear in e.  Their null space, from
    a thin SVD with an absolute cutoff that keeps every e whose Theta passes
    the ``tol.residual_rel`` residual checks, splits into blocks with disjoint
    supports: a positive e exists exactly when the projection p of the
    all-ones vector is entrywise positive.  Then the answer is Found with
    Theta = sum_k p_k P_k, else NoSharedMetric.

    Without a simple base (degenerate or defective spectra) the null space is
    taken over all Hermitian matrices.  A complex spectrum among the
    candidates proves NoSharedMetric, since a shared metric serves every real
    combination of h1 and h2.  Otherwise only the projection of the identity
    is tried: an empty space or a line with an indefinite generator is
    NoSharedMetric, any other failure Inconclusive.  A candidate failing its
    certificate is Inconclusive too.  A returned metric has trace n and passes
    both residual checks and the positivity check.

    ``seed`` is accepted for compatibility and has no effect.
    """
    a1 = as_square_matrix(h1)
    a2 = as_square_matrix(h2)
    if a1.shape != a2.shape:
        raise ValueError("h1 and h2 must have the same dimension")
    n = a1.shape[0]
    mats = (a1, a2)
    left, proven = _simple_base(mats, tol)
    if left is None:
        basis, reach = _hermitian_units(n), 1.0
    else:
        lhat = left / np.linalg.norm(left, axis=0)
        basis, reach = np.einsum("ik,jk->kij", lhat, lhat.conj()), np.linalg.norm(lhat, 2)

    # Real constraint matrix: one column per basis element B, the real and
    # imaginary parts of A† B - B A stacked over both Hamiltonians.
    parts = [(a.conj().T @ basis - basis @ a).reshape(len(basis), n * n).T for a in mats]
    stacked = np.concatenate([r for c in parts for r in (c.real, c.imag)])
    _u, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    # ||Theta(x)||_F <= reach * |x|, so a Theta that passes both residual
    # checks has a coefficient vector x with |C x| below this cutoff.
    cutoff = tol.residual_rel * np.hypot(fro(a1), fro(a2)) * reach
    null = vt[int(np.sum(svals > cutoff)):].T
    dim = null.shape[1]
    # Projection of the basis traces: the all-ones vector for the projectors,
    # the identity for the orthonormal units.
    x = null @ (null.T @ np.trace(basis, axis1=1, axis2=2).real)
    blocked = left is not None and not x.min() > tol.positivity_rel * np.abs(x).max()
    if proven or dim == 0 or blocked:
        return SharedMetricResult(status="NoSharedMetric", theta=None, solution_space_dim=dim)
    theta = _certify(np.tensordot(x, basis, axes=1), mats, tol)
    if theta is not None:
        return SharedMetricResult(status="Found", theta=theta, solution_space_dim=dim)
    # The identity projects onto a definite generator of a line.
    status = "NoSharedMetric" if left is None and dim == 1 else "Inconclusive"
    return SharedMetricResult(status=status, theta=None, solution_space_dim=dim)
