"""Worked models with closed-form Dyson maps.

Two-level gain/loss dimer: h = omega sigma_x maps to H = kappa sigma_x
+ i gamma sigma_z under Omega = exp((alpha/2) sigma_y), with
kappa = omega cosh(alpha), gamma = omega sinh(alpha); the spectrum stays real
for |gamma| < kappa and the exceptional point sits at |gamma| = kappa.

Two-mode fermionic pairing model: modes with energies omega and 1 - omega
coupled by c1† c2† and c2 c1 terms with unequal weights beta and alpha.  In
the occupation basis (|00>, |10>, |01>, |11>) everything is closed form in
sqrt(alpha beta) and the determinant D = 2 alpha beta
- (alpha + beta) sqrt(alpha beta) + 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EPRegion, InvalidCoupling, SingularDysonMap
from .linalg import DEFAULT_TOL, Tolerances, herm_exp

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "DimerParams",
    "FermionicParams",
    "EPScanReport",
    "dimer_params",
    "dimer_from_coupling",
    "dimer_build",
    "bch_conjugation_check",
    "ep_scan",
    "fermionic_build",
    "fermionic_from_fock",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class DimerParams:
    """Dimer couplings, stored redundantly and cross-validated.

    omega is the Hermitian level splitting, alpha the map rapidity, and
    (kappa, gamma) the resulting hopping and gain/loss strengths.  The
    constraints kappa^2 - gamma^2 = omega^2 and tanh(alpha) = gamma / kappa
    must hold, which also forces |gamma| < kappa.
    """

    omega: float
    alpha: float
    kappa: float
    gamma: float

    def __post_init__(self) -> None:
        _require_finite(omega=self.omega, alpha=self.alpha, kappa=self.kappa, gamma=self.gamma)
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if abs(self.gamma) >= self.kappa:
            raise EPRegion("|gamma| >= kappa puts the dimer at or past the exceptional point")
        rel = DEFAULT_TOL.residual_rel
        scale = max(self.omega**2, self.kappa**2)
        if not abs(self.kappa**2 - self.gamma**2 - self.omega**2) <= rel * scale:
            raise ValueError("kappa^2 - gamma^2 = omega^2 violated")
        if not abs(math.tanh(self.alpha) - self.gamma / self.kappa) <= rel:
            raise ValueError("tanh(alpha) = gamma / kappa violated")


def dimer_params(omega: float, alpha: float) -> DimerParams:
    """Dimer parameters from the Hermitian splitting and the map rapidity.

    Raises FloatingPointError when omega is below the smallest normal float,
    where kappa and gamma lose digits; a normal omega keeps
    kappa = omega cosh(alpha) >= omega normal too.
    """
    _require_finite(omega=omega, alpha=alpha)
    if not omega > 0:
        raise ValueError("omega must be positive")
    if omega < sys.float_info.min:
        raise FloatingPointError(f"omega = {omega:g} underflows the float range")
    kappa, gamma = omega * math.cosh(alpha), omega * math.sinh(alpha)
    if abs(gamma) >= kappa:
        raise EPRegion(
            f"alpha = {alpha:g}: omega cosh(alpha) and omega |sinh(alpha)| round to the same "
            "float64, which puts the dimer on its exceptional point"
        )
    return DimerParams(omega=omega, alpha=alpha, kappa=kappa, gamma=gamma)


def dimer_from_coupling(kappa: float, gamma: float) -> DimerParams:
    """Invert (kappa, gamma) to (omega, alpha).

    Raises EPRegion when |gamma| >= kappa, and FloatingPointError when
    kappa^2 - gamma^2 = omega^2 is below the smallest normal float, where omega
    would be zero or lose precision.
    """
    _require_finite(kappa=kappa, gamma=gamma)
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    if abs(gamma) >= kappa:
        raise EPRegion(
            f"|gamma| = {abs(gamma):g} >= kappa = {kappa:g}: spectrum is not real here"
        )
    omega_sq = kappa**2 - gamma**2
    if omega_sq < sys.float_info.min:
        raise FloatingPointError(f"kappa^2 - gamma^2 = {omega_sq:g} underflows the float range")
    return DimerParams(
        omega=math.sqrt(omega_sq),
        alpha=math.atanh(gamma / kappa),
        kappa=kappa,
        gamma=gamma,
    )


def dimer_build(p: DimerParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (h, Omega, H, Theta) for the dimer.

    Omega = exp((alpha/2) sigma_y) is Hermitian positive definite, so
    Theta = Omega^2 = cosh(alpha) I + sinh(alpha) sigma_y.
    """
    eye = np.eye(2, dtype=np.complex128)
    h = p.omega * SIGMA_X
    omega_map = math.cosh(p.alpha / 2.0) * eye + math.sinh(p.alpha / 2.0) * SIGMA_Y
    big_h = p.kappa * SIGMA_X + 1j * p.gamma * SIGMA_Z
    theta = math.cosh(p.alpha) * eye + math.sinh(p.alpha) * SIGMA_Y
    return h, omega_map, big_h, theta


def bch_conjugation_check(alpha: float) -> tuple[float, float]:
    """Residuals of the two conjugation identities behind the dimer map.

    exp(-(alpha/2) sigma_y) sigma_x exp((alpha/2) sigma_y) should equal
    cosh(alpha) sigma_x + i sinh(alpha) sigma_z, and the same sandwich of
    sigma_z should equal cosh(alpha) sigma_z - i sinh(alpha) sigma_x.  Returns
    the two absolute Frobenius residuals.
    """
    fwd = herm_exp(SIGMA_Y, 0.5 * alpha)
    bwd = herm_exp(SIGMA_Y, -0.5 * alpha)
    ch, sh = math.cosh(alpha), math.sinh(alpha)
    res_x = np.linalg.norm(bwd @ SIGMA_X @ fwd - (ch * SIGMA_X + 1j * sh * SIGMA_Z))
    res_z = np.linalg.norm(bwd @ SIGMA_Z @ fwd - (ch * SIGMA_Z - 1j * sh * SIGMA_X))
    return float(res_x), float(res_z)


@dataclass(frozen=True)
class EPScanReport:
    """Per-grid-point spectral gap and eigenbasis conditioning for the dimer.

    min_gap is |lambda_0 - lambda_1| of the eigenvalues LAPACK's zgeev returns,
    with the bits of earlier versions.  eigvec_cond is the 2-norm condition
    number of the matrix of unit eigenvectors, from its closed form
    sqrt((kappa + |gamma|) / |kappa - |gamma||), exact to a few ulps and inf at
    |gamma| = kappa.  is_ep flags points where the gap has collapsed below 1e-6
    times the matrix norm while eigvec_cond exceeds the defectiveness
    threshold; ep_locations holds one gamma per contiguous flagged run, the one
    with the smallest gap.  is_ep and ep_locations can differ from earlier
    versions, which took eigvec_cond from zgeev's eigenvalues, only within two
    floats of gamma = +-kappa.
    """

    parameter_grid: np.ndarray
    min_gap: np.ndarray
    eigvec_cond: np.ndarray
    is_ep: np.ndarray
    ep_locations: np.ndarray


def ep_scan(kappa: float, gamma_grid, tol: Tolerances = DEFAULT_TOL) -> EPScanReport:
    """Scan gamma values for exceptional points of H = kappa sigma_x + i gamma sigma_z.

    The gaps come from one batched np.linalg.eigvals, which for 2x2 input returns
    the bits np.linalg.eig would; the eigenvector condition numbers come from
    kappa and gamma alone.
    """
    if not 0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")
    grid = np.asarray(gamma_grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("gamma_grid must be non-empty")
    if not np.isfinite(grid).all():
        raise ValueError("gamma_grid entries must be finite")
    if np.any(np.diff(grid) < 0):
        raise ValueError("gamma_grid must be sorted ascending")
    # the gap is at most 2 max(kappa, |gamma|), which must stay a float
    mag = np.abs(grid)
    top = np.maximum(kappa, mag)
    if not top.max() <= sys.float_info.max / 2:
        raise ValueError("kappa and |gamma| must not exceed half the largest float")

    hmats = kappa * SIGMA_X + 1j * grid[:, None, None] * SIGMA_Z
    w = np.linalg.eigvals(hmats)
    d = w[:, 0] - w[:, 1]
    # hypot matches the scalar abs() of each gap bit for bit; np.abs can differ by 1 ulp.
    gaps = np.hypot(d.real, d.imag)

    # Two unit eigenvectors of H overlap by min(kappa, |gamma|) / max(kappa, |gamma|), so the
    # singular values of their matrix are sqrt(1 +- overlap).  No square is taken, so nothing
    # over- or underflows.
    with np.errstate(divide="ignore"):
        conds = np.sqrt((kappa + mag) / np.abs(kappa - mag))

    # The gap is measured against 1e-6 times the matrix norm sqrt(2 kappa^2 + 2 gamma^2),
    # with kappa, gamma and the gap scaled by the power of two of max(kappa, |gamma|),
    # which is exact, so the flags are those of the unscaled comparison wherever its
    # squares are normal numbers.
    e = np.frexp(top)[1]
    k, g = np.ldexp(kappa, -e), np.ldexp(grid, -e)
    norm = np.sqrt(2.0 * k**2 + 2.0 * g**2)
    flags = (np.ldexp(gaps, -e) < 1e-6 * norm) & (conds > tol.defective_cond)

    # Flagged runs start where the padded flags rise and stop where they fall.
    edges = np.flatnonzero(np.diff(np.r_[False, flags, False]))
    locations = [grid[i:j][np.argmin(gaps[i:j])] for i, j in zip(edges[::2], edges[1::2])]

    return EPScanReport(
        parameter_grid=grid,
        min_gap=gaps,
        eigvec_cond=conds,
        is_ep=flags,
        ep_locations=np.asarray(locations, dtype=float),
    )


@dataclass(frozen=True)
class FermionicParams:
    """Couplings of the two-mode pairing model.

    alpha and beta are the unequal pairing weights; their product must be
    positive for a real spectrum.  omega in (0, 1) splits the single-particle
    energies into omega and 1 - omega.  The closed forms degenerate when the
    determinant D vanishes, which is rejected as SingularDysonMap; couplings
    whose sqrt(alpha beta) or D leave the float range raise OverflowError.
    """

    alpha: float
    beta: float
    omega: float

    def __post_init__(self) -> None:
        _require_finite(alpha=self.alpha, beta=self.beta, omega=self.omega)
        if not 0.0 < self.omega < 1.0:
            raise ValueError("omega must lie strictly between 0 and 1")
        if not self.alpha * self.beta > 0:
            raise InvalidCoupling("alpha * beta must be positive")
        if not (math.isfinite(self.sqrt_ab) and math.isfinite(self.det_D)):
            raise OverflowError("sqrt(alpha beta) or D lies beyond the float range")
        if abs(self.det_D) <= DEFAULT_TOL.positivity_rel:
            raise SingularDysonMap("determinant D vanishes at these couplings")

    @property
    def sqrt_ab(self) -> float:
        return math.sqrt(self.alpha * self.beta)

    @property
    def det_D(self) -> float:
        return 2.0 * self.alpha * self.beta - (self.alpha + self.beta) * math.sqrt(
            self.alpha * self.beta
        ) + 1.0


def fermionic_build(
    p: FermionicParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (H, h, Omega_inv, Omega, Theta) in the occupation basis.

    Only the (|00>, |11>) block is nontrivial: H couples it through alpha and
    beta, h through sqrt(alpha beta), and Omega_inv deviates from the identity
    by the two off-diagonal entries alpha - sqrt(alpha beta) and
    sqrt(alpha beta) - beta.  Omega is the exact inverse of that block, and
    Theta carries the closed-form entries built from D.
    """
    al, be, om = p.alpha, p.beta, p.omega
    u = p.sqrt_ab
    d = p.det_D

    big_h = np.zeros((4, 4), dtype=np.complex128)
    big_h[1, 1] = om
    big_h[2, 2] = 1.0 - om
    big_h[3, 3] = 1.0
    big_h[0, 3] = al
    big_h[3, 0] = be

    h = big_h.copy()
    h[0, 3] = u
    h[3, 0] = u

    a_off = al - u
    b_off = u - be
    omega_inv = np.eye(4, dtype=np.complex128)
    omega_inv[0, 3] = a_off
    omega_inv[3, 0] = b_off

    # 2x2 block [[1, a], [b, 1]] inverts to [[1, -a], [-b, 1]] / (1 - a b),
    # and 1 - a_off * b_off expands to exactly D.
    omega_map = np.eye(4, dtype=np.complex128)
    omega_map[0, 0] = 1.0 / d
    omega_map[3, 3] = 1.0 / d
    omega_map[0, 3] = -a_off / d
    omega_map[3, 0] = -b_off / d

    theta = np.eye(4, dtype=np.complex128)
    theta[0, 0] = ((be - u) ** 2 + 1.0) / d**2
    theta[3, 3] = ((al - u) ** 2 + 1.0) / d**2
    theta[0, 3] = (be - al) / d**2
    theta[3, 0] = (be - al) / d**2

    return big_h, h, omega_inv, omega_map, theta


def fermionic_from_fock(p: FermionicParams) -> np.ndarray:
    """Assemble H from fermionic mode operators instead of closed-form entries.

    The annihilators carry a Jordan-Wigner sign string so the anti-commutation
    relations hold exactly; columns are ordered (|00>, |10>, |01>, |11>) to
    match fermionic_build.
    """
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    i2 = np.eye(2, dtype=np.complex128)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
    c1 = np.kron(a, i2)
    c2 = np.kron(sz, a)
    # Tensor ordering puts mode-2 occupation fastest; permute to the
    # (|00>, |10>, |01>, |11>) order used throughout.
    perm = [0, 2, 1, 3]
    c1 = c1[np.ix_(perm, perm)]
    c2 = c2[np.ix_(perm, perm)]
    c1d = c1.conj().T
    c2d = c2.conj().T
    return (
        p.omega * (c1d @ c1)
        + (1.0 - p.omega) * (c2d @ c2)
        + p.beta * (c1d @ c2d)
        + p.alpha * (c2 @ c1)
    )
