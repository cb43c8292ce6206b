"""Dyson maps, physical metrics, and Hermitian avatars for quasi-Hermitian Hamiltonians.

A Hamiltonian H with real spectrum but H != H† admits maps Omega with
h = Omega H Omega^{-1} Hermitian; Theta = Omega† Omega then satisfies
H† Theta = Theta H and defines the physical inner product.  Three families are
built here: Omega_I from the biorthogonal eigensystem (diagonal avatar),
Omega_K = K† Omega_I for invertible diagonal K (same avatar, new metric), and
Omega_KU = U K† Omega_I for unitary U (rotated avatar, same metric).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AvatarNotHermitian,
    ComplexSpectrum,
    NotPositiveDefinite,
    NotQuasiHermitian,
    NotUnitary,
    SingularScaling,
)
from .linalg import (
    _MAX_BASIS_BOUND,
    DEFAULT_TOL,
    Tolerances,
    as_square_matrix,
    eig_general,
    fro,
    herm_part,
    hermiticity_residual,
    polar_decompose,
)

__all__ = [
    "BiorthogonalSystem",
    "DysonMap",
    "Metric",
    "HermitizationReport",
    "solve_schrodinger_pair",
    "build_omega_I",
    "build_omega_K",
    "build_omega_KU",
    "metric_of",
    "metric_from_theta",
    "hermitian_avatar",
    "quasi_hermiticity_residual",
    "hermitian_dyson",
    "phys_inner",
    "evolve_norm_check",
    "build_report",
    "hermitize",
]


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Right and left eigenvector systems of H, normalized to mutual identity overlap."""

    energies: np.ndarray
    right_kets: np.ndarray
    left_kets: np.ndarray

    @property
    def dimension(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class DysonMap:
    """An invertible map Omega together with its inverse and family tag.

    family is "I", "K", or "KU" for the maps built here, and the model name
    ("dimer" or "fermion") for the closed-form maps of ``quasiherm model``.
    u_matrix carries the unitary for the KU family.
    """

    omega: np.ndarray
    omega_inv: np.ndarray
    family: str
    u_matrix: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.omega.shape[0]


@dataclass(frozen=True)
class Metric:
    """Physical metric Theta = Omega† Omega, certified positive definite.

    eigenvalues is the spectrum of theta, ascending.
    """

    theta: np.ndarray
    eigenvalues: np.ndarray

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])


@dataclass(frozen=True)
class HermitizationReport:
    """Residual summary for one Hamiltonian/Dyson-map pair."""

    energies: np.ndarray
    family: str
    residual_quasi_herm: float
    residual_avatar_herm: float
    residual_isospectral: float
    metric_condition: float
    passed: bool


def solve_schrodinger_pair(h, tol: Tolerances = DEFAULT_TOL) -> BiorthogonalSystem:
    """Solve H psi = E psi and H† phi = E phi jointly.

    Energies come out ascending; each imaginary part must stay below
    ``tol.reality_rel`` times the norm of H, else ComplexSpectrum is raised.
    The left system is scaled so that left† right is the identity, which makes
    the outer-product resolution of the identity exact.
    """
    a = as_square_matrix(h)
    w, right, left = eig_general(a, tol)
    scale = fro(a) or 1.0
    worst = float(np.max(np.abs(w.imag)))
    if not worst <= tol.reality_rel * scale:
        raise ComplexSpectrum(
            f"largest imaginary part {worst:.3e} exceeds {tol.reality_rel:g} * {scale:.3e}"
        )
    return BiorthogonalSystem(energies=w.real, right_kets=right, left_kets=left)


def build_omega_I(system: BiorthogonalSystem) -> DysonMap:
    """Reference map whose rows are the left bras; it diagonalizes H exactly."""
    omega = system.left_kets.conj().T
    return DysonMap(omega=omega, omega_inv=system.right_kets, family="I")


def build_omega_K(base: DysonMap, k_diag, tol: Tolerances = DEFAULT_TOL) -> DysonMap:
    """Rescale the reference map row-wise by the conjugated diagonal of K.

    The avatar is unchanged (K commutes with the diagonal avatar of Omega_I)
    while the metric picks up |k_n|^2 weights.  Raises SingularScaling when the
    smallest |k_n| is at or below ``tol.positivity_rel`` times the largest.
    """
    if base.family != "I":
        raise ValueError("build_omega_K expects the reference family 'I' map")
    k = _state(k_diag, base.dimension, "k_diag")
    mags = np.abs(k)
    if not mags.min() > tol.positivity_rel * mags.max():
        raise SingularScaling(
            f"smallest |k_n| {mags.min():.3e} at or below {tol.positivity_rel:g} * {mags.max():.3e}"
        )
    omega = k.conj()[:, None] * base.omega
    omega_inv = base.omega_inv / k.conj()[None, :]
    return DysonMap(omega=omega, omega_inv=omega_inv, family="K")


def build_omega_KU(base: DysonMap, u, tol: Tolerances = DEFAULT_TOL) -> DysonMap:
    """Left-multiply by a unitary U; the metric is untouched, the avatar rotates."""
    if base.family not in ("I", "K"):
        raise ValueError("build_omega_KU expects a family 'I' or 'K' map")
    um = as_square_matrix(u)
    if um.shape[0] != base.dimension:
        raise ValueError("u has the wrong dimension for this map")
    eye = np.eye(base.dimension)
    residual = fro(um.conj().T @ um - eye)
    if not residual <= tol.residual_rel:
        raise NotUnitary(f"unitarity residual {residual:.3e} exceeds {tol.residual_rel:g}")
    return DysonMap(
        omega=um @ base.omega,
        omega_inv=base.omega_inv @ um.conj().T,
        family="KU",
        u_matrix=um,
    )


def metric_from_theta(theta, tol: Tolerances = DEFAULT_TOL) -> Metric:
    """Certify a candidate metric: Hermitian part, positive definite, spectrum kept."""
    t = as_square_matrix(theta)
    sym = herm_part(t)
    scale = fro(sym)
    if scale == 0:
        raise NotPositiveDefinite("candidate metric is the zero matrix")
    lam = np.linalg.eigvalsh(sym)
    if not lam[0] > tol.positivity_rel * scale:
        raise NotPositiveDefinite(
            f"candidate metric's smallest eigenvalue {lam[0]:.3e} at or below "
            f"{tol.positivity_rel:g} * {scale:.3e}"
        )
    return Metric(theta=sym, eigenvalues=lam)


def metric_of(dyson_map: DysonMap, tol: Tolerances = DEFAULT_TOL) -> Metric:
    """Metric Theta = Omega† Omega of a Dyson map.

    Raises NotPositiveDefinite when ||Omega||_F exceeds the square root of the
    largest float, past which Theta may not be finite.
    """
    norm = fro(dyson_map.omega)
    if not norm <= _MAX_BASIS_BOUND:
        raise NotPositiveDefinite(
            f"||Omega||_F {norm:.3e} exceeds {_MAX_BASIS_BOUND:.3e}, beyond which the metric overflows"
        )
    return metric_from_theta(dyson_map.omega.conj().T @ dyson_map.omega, tol)


def hermitian_avatar(h, dyson_map: DysonMap, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Similarity transform Omega H Omega^{-1}, certified Hermitian.

    Raises AvatarNotHermitian when the result deviates from Hermiticity by more
    than ``tol.residual_rel`` relative to its norm, which means the supplied
    map does not hermitize this Hamiltonian.
    """
    return _certified_avatar(as_square_matrix(h), dyson_map, tol)[0]


def _certified_avatar(
    a: np.ndarray, dyson_map: DysonMap, tol: Tolerances
) -> tuple[np.ndarray, float]:
    """hermitian_avatar of a validated H, with the Hermiticity residual it was certified by."""
    _same_shape(a, "H", dyson_map.omega, "map")
    avatar = dyson_map.omega @ a @ dyson_map.omega_inv
    residual = hermiticity_residual(avatar)
    if not residual <= tol.residual_rel:
        raise AvatarNotHermitian(
            f"avatar Hermiticity residual {residual:.3e} exceeds {tol.residual_rel:g}: "
            "the map does not hermitize this input"
        )
    return avatar, residual


def _same_shape(a: np.ndarray, name: str, b: np.ndarray, other: str) -> None:
    """Refuse, by name, a matrix and a map or metric of different shapes."""
    if a.shape != b.shape:
        raise ValueError(f"{name} has shape {a.shape} but the {other} has shape {b.shape}")


def _theta_of(metric) -> np.ndarray:
    return metric.theta if isinstance(metric, Metric) else as_square_matrix(metric)


def _state(v, n: int, name: str) -> np.ndarray:
    """A finite complex vector of length n, refused by name otherwise."""
    x = np.asarray(v, dtype=np.complex128).ravel()
    if x.size != n:
        raise ValueError(f"{name} has {x.size} entries for dimension {n}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} entries must be finite")
    return x


def quasi_hermiticity_residual(h, metric) -> float:
    """Relative size of H† Theta - Theta H, the metric intertwining defect."""
    a = as_square_matrix(h)
    theta = _theta_of(metric)
    _same_shape(a, "H", theta, "metric")
    denom = fro(a) * fro(theta)
    if denom == 0:
        return 0.0
    if denom == math.inf:  # the norms' product overflows: no scale to certify against
        return math.inf
    return fro(a.conj().T @ theta - theta @ a) / denom


def hermitian_dyson(dyson_map: DysonMap, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Unitary u and Hermitian map omega_herm = u Omega solving u Omega u = Omega†.

    Writing Omega = W P by right polar decomposition, u = W† does the job:
    u Omega u = P W† = (W P)† and u Omega = P, the square root of the metric of
    Omega.  Returns (u, P), with P exactly Hermitian.
    """
    w, p = polar_decompose(dyson_map.omega, tol)
    return w.conj().T, p


def phys_inner(metric, psi, phi) -> complex:
    """Physical inner product <psi, Theta phi>."""
    theta = _theta_of(metric)
    n = theta.shape[0]
    return complex(_state(psi, n, "psi").conj() @ theta @ _state(phi, n, "phi"))


def evolve_norm_check(h, metric, psi0, times, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Theta-norms <psi(t), Theta psi(t)> along exp(-iHt) psi0 for each requested time.

    Requires (H, Theta) to be a quasi-Hermitian pair within ``tol.residual_rel``,
    else NotQuasiHermitian is raised; under that condition the returned norms
    are constant up to roundoff.  Propagation goes through the eigenbasis of H,
    so DefectiveMatrix is raised when that basis is too ill-conditioned.
    """
    a = as_square_matrix(h)
    theta = _theta_of(metric)
    psi0 = _state(psi0, a.shape[0], "psi0")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if not quasi_hermiticity_residual(a, theta) <= tol.residual_rel:
        raise NotQuasiHermitian("H† Theta - Theta H residual exceeds tolerance")
    w, right, left = eig_general(a, tol)
    coeff = left.conj().T @ psi0
    # One column of psi(t) per requested time.
    psi_t = right @ (np.exp(-1j * np.outer(w, times)) * coeff[:, None])
    return np.einsum("it,it->t", psi_t.conj(), theta @ psi_t).real


def build_report(
    h, system, dyson_map, metric, tol: Tolerances = DEFAULT_TOL
) -> tuple[np.ndarray, HermitizationReport]:
    """Avatar and residual report of a map; AvatarNotHermitian if it does not hermitize H."""
    a = as_square_matrix(h)
    avatar, r_avatar = _certified_avatar(a, dyson_map, tol)
    r_quasi = quasi_hermiticity_residual(a, metric)
    avatar_spec = np.linalg.eigvalsh(herm_part(avatar))
    scale_h = fro(a) or 1.0
    r_iso = float(np.max(np.abs(avatar_spec - system.energies))) / scale_h
    lam = metric.eigenvalues
    report = HermitizationReport(
        energies=system.energies.copy(),
        family=dyson_map.family,
        residual_quasi_herm=r_quasi,
        residual_avatar_herm=r_avatar,
        residual_isospectral=r_iso,
        metric_condition=float(lam[-1] / lam[0]),
        passed=r_quasi <= tol.residual_rel and r_iso <= tol.reality_rel,
    )
    return avatar, report


# The eigensystem the last hermitize miss computed, as {"entry": (key, system)},
# kept for the next call only, so hermitize(h) then hermitize(h, k_diag=k)
# factors H once.  Its arrays are read-only, so the entry costs only its key;
# one atomic pop per call keeps threads from pairing a key with another system.
_last_system: dict = {}


def _system_of(a: np.ndarray, tol: Tolerances) -> BiorthogonalSystem:
    # a function of its own, so the key and the popped entry are freed before
    # the rest of hermitize allocates its n×n products
    key = (a.shape, a.tobytes(), tol)
    entry = _last_system.pop("entry", None)
    if entry is not None and entry[0] == key:
        return entry[1]
    system = solve_schrodinger_pair(a, tol)
    _last_system["entry"] = (key, system)
    return system


def hermitize(h, k_diag=None, hermitian_map: bool = False, tol: Tolerances = DEFAULT_TOL):
    """Full pipeline from a Hamiltonian to (system, map, metric, avatar, report).

    Builds Omega_I from the biorthogonal eigensystem, optionally rescales by
    k_diag, and optionally rotates by the polar unitary so the final map is
    Hermitian positive definite.  The system a call computes is kept for the
    next call only, which reuses it if its H (to the byte) and ``Tolerances``
    are the same.
    """
    a = as_square_matrix(h)
    system = _system_of(a, tol)
    dmap = build_omega_I(system)
    if k_diag is not None:
        dmap = build_omega_K(dmap, k_diag, tol)
    if hermitian_map:
        dmap = build_omega_KU(dmap, hermitian_dyson(dmap, tol)[0], tol)
    metric = metric_of(dmap, tol)
    avatar, report = build_report(a, system, dmap, metric, tol)
    return system, dmap, metric, avatar, report
