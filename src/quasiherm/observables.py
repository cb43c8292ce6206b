"""Quasi-Hermitian observables and the shared-metric compatibility test.

Every Hermitian generator M yields an observable A = Theta^{-1} M that is
quasi-Hermitian with respect to Theta and therefore has real spectrum.  The
converse question, whether two Hamiltonians admit one common metric, is
decided in the eigenbasis of a base Hamiltonian: every metric it admits is
L W L† over its left kets L, with W Hermitian and block diagonal over its
eigenvalue clusters, so the Hermitian solutions of both constraints form a
small real null space, and for a simple spectrum positivity is a sign test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyson import (
    DysonMap,
    Metric,
    _same_shape,
    metric_from_theta,
    quasi_hermiticity_residual,
    solve_schrodinger_pair,
)
from .errors import ComplexSpectrum, DefectiveMatrix, NotPositiveDefinite
from .linalg import DEFAULT_TOL, Tolerances, _require_hermitian, as_square_matrix, fro

__all__ = [
    "ObservableCandidate",
    "SharedMetricResult",
    "observable_from_M",
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
    """Operator A = Theta^{-1} M together with its intertwining residual."""

    a_matrix: np.ndarray
    residual: float


@dataclass(frozen=True)
class SharedMetricResult:
    """Outcome of the common-metric decision for a pair of Hamiltonians.

    status is "Found", "NoSharedMetric", or "Inconclusive".  theta, and the
    intertwining residuals of h1 and h2 on it that certified it, are present
    exactly when status is "Found".  solution_space_dim counts the real
    dimension of the Hermitian solution space of the intertwining constraints,
    before positivity is imposed.
    """

    status: str
    theta: Metric | None
    solution_space_dim: int
    residuals: tuple[float, float] | None = None


def observable_from_M(metric: Metric, m, tol: Tolerances = DEFAULT_TOL) -> ObservableCandidate:
    """Build the observable Theta^{-1} M from a Hermitian generator M."""
    mm = _require_hermitian(as_square_matrix(m), tol.residual_rel, "generator M")
    _same_shape(mm, "M", metric.theta, "metric")
    a = np.linalg.solve(metric.theta, mm)
    return ObservableCandidate(a_matrix=a, residual=quasi_hermiticity_residual(a, metric))


def avatar_of_observable(a, dyson_map: DysonMap) -> np.ndarray:
    """Hermitian counterpart Omega A Omega^{-1} of an observable."""
    am = as_square_matrix(a)
    _same_shape(am, "A", dyson_map.omega, "map")
    return dyson_map.omega @ am @ dyson_map.omega_inv


def check_diagonal_center(a, map_i: DysonMap, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when Omega_I A Omega_I^{-1} is diagonal, i.e. A commutes with H.

    Off-diagonal Frobenius mass is compared against ``tol.residual_rel`` times
    the norm of A.
    """
    if map_i.family != "I":
        raise ValueError("check_diagonal_center expects the reference family 'I' map")
    am = as_square_matrix(a)
    c = avatar_of_observable(am, map_i)
    off = c - np.diag(np.diag(c))
    return fro(off) <= tol.residual_rel * (fro(am) or 1.0)


def _base(mats, tol: Tolerances) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], bool]:
    """(unit kets K, pairs i < j that W may couple, whether a complex spectrum proves none).

    A real spectrum splits into clusters at the gaps, relative to its norm,
    above ``tol.reality_rel``.  The smallest sum of squared cluster sizes
    wins, then the larger smallest gap: of two simple spectra the better
    separated has the better determined eigenprojectors.  H1 + t H2 is tried
    only if neither is simple.  Kets are the normalized left kets, those of a
    cluster orthonormalized; with no diagonalizable real candidate, K = I.
    """
    n = len(mats[0])
    best, complex_seen = None, False
    for b in (*mats, None):
        if b is None and best is not None and best[0][0] == n:  # a simple spectrum
            break
        b = mats[0] + _MIX * mats[1] if b is None else b
        try:
            system = solve_schrodinger_pair(b, tol)
        except (DefectiveMatrix, ComplexSpectrum) as exc:
            complex_seen |= isinstance(exc, ComplexSpectrum)
            continue
        gaps = np.diff(system.energies) / (fro(b) or 1.0)
        split = gaps > tol.reality_rel
        labels = np.concatenate(([0], np.cumsum(split)))
        sizes = np.bincount(labels)
        key = (sizes @ sizes, -gaps[split].min(initial=np.inf))
        if best is None or key < best[0]:
            best = key, system.left_kets, labels
    if best is None:
        return np.eye(n, dtype=np.complex128), np.triu_indices(n, 1), complex_seen
    (squares, _gap), left, labels = best
    kets = left / np.linalg.norm(left, axis=0)
    if squares == n:
        return kets, (np.empty(0, int), np.empty(0, int)), False
    for j in np.flatnonzero(np.bincount(labels) > 1):
        kets[:, labels == j] = np.linalg.qr(kets[:, labels == j])[0]
    return kets, np.nonzero(np.triu(labels[:, None] == labels, 1)), complex_seen


def _units(kets: np.ndarray, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
    """Stacked Hermitian basis of K W K† over W's diagonal and its pairs (iu, ju).

    k_i k_i† for each i, then the Hermitian and i times the anti-Hermitian
    parts of k_i k_j† for each pair, times sqrt(2) (for K = I: matrix units).
    """
    diagonal = np.einsum("ik,jk->kij", kets, kets.conj())
    if not iu.size:
        return diagonal
    off = np.einsum("ik,jk->kij", kets[:, iu], kets[:, ju].conj())
    adj, r = off.conj().transpose(0, 2, 1), np.sqrt(0.5)
    return np.concatenate([diagonal, (off + adj) * r, (off - adj) * (1j * r)])


def _certify(candidate: np.ndarray, mats, tol: Tolerances) -> tuple[Metric, tuple] | None:
    """(metric, residuals) of the candidate scaled to trace n, if it passes every check."""
    trace = np.trace(candidate).real
    if not trace > 0:
        return None
    try:
        metric = metric_from_theta(candidate * (candidate.shape[0] / trace), tol)
    except NotPositiveDefinite:
        return None
    residuals = tuple(quasi_hermiticity_residual(a, metric) for a in mats)
    if not all(r <= tol.residual_rel for r in residuals):
        return None
    return metric, residuals


def shared_metric(h1, h2, tol: Tolerances = DEFAULT_TOL) -> SharedMetricResult:
    """Decide whether one metric Theta serves both h1 and h2.

    Every Hermitian Theta with B† Theta = Theta B, for the base B that
    ``_base`` picks from h1, h2 and h1 + t h2 (t fixed and irrational), is
    K W K† with W block diagonal over B's eigenvalue clusters.  The
    constraints of h1 and h2 are real-linear in W; their null space, from a
    thin SVD whose cutoff keeps every Theta that passes the
    ``tol.residual_rel`` checks, is tried at the projection of W = I.  For a
    simple base W is diagonal and the null space splits into blocks with
    disjoint supports, so a metric exists exactly when that projection is
    entrywise positive; a positive projection whose metric then fails its
    certificate, as rounding in an ill-conditioned eigenbasis can make it, is
    Inconclusive.  Otherwise a complex spectrum among the candidates proves
    NoSharedMetric (a shared metric serves every real combination of h1 and
    h2), as does an empty space or a line whose generator fails; else
    Inconclusive.  A returned metric has trace n and passes every check, and
    the result carries the residuals of h1 and h2 that passed.
    """
    mats = a1, a2 = as_square_matrix(h1), as_square_matrix(h2)
    if a1.shape != a2.shape:
        raise ValueError("h1 and h2 must have the same dimension")
    kets, (iu, ju), proven = _base(mats, tol)
    basis = _units(kets, iu, ju)

    # Real constraint matrix: one column per basis element B, the real and
    # imaginary parts of A† B - B A stacked over both Hamiltonians.
    parts = [(a.conj().T @ basis - basis @ a).reshape(len(basis), -1).T for a in mats]
    stacked = np.concatenate([r for c in parts for r in (c.real, c.imag)])
    _u, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    # Unit kets, orthonormal within a cluster, give ||Theta(x)||_F <= ||K||_2 |x|,
    # so a Theta that passes both residual checks has |C x| below this cutoff.
    cutoff = tol.residual_rel * np.hypot(fro(a1), fro(a2)) * np.linalg.norm(kets, 2)
    null = vt[int(np.sum(svals > cutoff)):].T
    dim = null.shape[1]
    # Projection of the basis traces, which are 1 on the diagonal of W and 0 off it.
    x = null @ (null.T @ np.trace(basis, axis1=1, axis2=2).real)
    blocked = not iu.size and not x.min() > tol.positivity_rel * np.abs(x).max()
    if proven or dim == 0 or blocked:
        return SharedMetricResult(status="NoSharedMetric", theta=None, solution_space_dim=dim)
    certified = _certify(np.tensordot(x, basis, axes=1), mats, tol)
    if certified is not None:
        theta, residuals = certified
        return SharedMetricResult(status="Found", theta=theta, solution_space_dim=dim,
                                  residuals=residuals)
    # In any basis a positive definite Theta has positive trace, so on a line
    # only the projected generator can be a metric.
    status = "NoSharedMetric" if iu.size and dim == 1 else "Inconclusive"
    return SharedMetricResult(status=status, theta=None, solution_space_dim=dim)
