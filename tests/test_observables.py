import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from helpers import (
    dimer_hamiltonian,
    random_hermitian,
    random_k_diag,
    random_real_spectrum,
    random_unitary,
)
from quasiherm import (
    DysonMap,
    NotHermitianGenerator,
    avatar_of_observable,
    build_omega_I,
    build_omega_K,
    check_diagonal_center,
    is_quasi_hermitian,
    metric_from_theta,
    observable_from_M,
    quasi_hermiticity_residual,
    shared_metric,
    solve_schrodinger_pair,
)

DIMER_H = dimer_hamiltonian(1.25, 0.75)
DIMER_THETA = np.array([[1.25, -0.75j], [0.75j, 1.25]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def dimer_metric():
    return metric_from_theta(DIMER_THETA)


class TestObservableFromM:
    def test_generator_theta_gives_identity(self):
        cand = observable_from_M(dimer_metric(), DIMER_THETA)
        assert np.linalg.norm(cand.a_matrix - np.eye(2)) < 1e-14
        assert cand.residual < 1e-14

    def test_sigma_z_generator(self):
        cand = observable_from_M(dimer_metric(), SIGMA_Z)
        assert cand.residual < 1e-12
        # real spectrum, checked against the similar Hermitian form
        s = scipy.linalg.sqrtm(np.linalg.inv(DIMER_THETA))
        oracle = np.linalg.eigvalsh(s @ SIGMA_Z @ s)
        eigs = np.linalg.eigvals(cand.a_matrix)
        assert np.max(np.abs(eigs.imag)) < 1e-12
        assert np.allclose(np.sort(eigs.real), oracle, atol=1e-10)

    def test_non_hermitian_generator_rejected(self):
        with pytest.raises(NotHermitianGenerator):
            observable_from_M(dimer_metric(), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_random_generators(self, rng):
        metric = dimer_metric()
        for _ in range(20):
            m = random_hermitian(rng, 2)
            cand = observable_from_M(metric, m)
            assert cand.residual < 1e-12
            eigs = np.linalg.eigvals(cand.a_matrix)
            assert np.max(np.abs(eigs.imag)) <= 1e-9 * max(np.linalg.norm(cand.a_matrix), 1e-30)


class TestIsQuasiHermitian:
    def test_identity_observable(self):
        assert is_quasi_hermitian(np.eye(2), dimer_metric()) < 1e-15

    def test_hamiltonian_is_observable(self):
        assert is_quasi_hermitian(DIMER_H, DIMER_THETA) < 1e-15

    def test_sigma_z_against_dimer_metric_fails(self):
        r = is_quasi_hermitian(SIGMA_Z, DIMER_THETA)
        assert r > 0.1
        assert r == pytest.approx(0.7276, abs=1e-3)


class TestAvatarOfObservable:
    def test_hamiltonian_avatar(self):
        system = solve_schrodinger_pair(DIMER_H)
        dmap = build_omega_I(system)
        avatar = avatar_of_observable(DIMER_H, dmap)
        assert np.linalg.norm(avatar - np.diag([-1.0, 1.0])) < 1e-12

    def test_observable_avatar_is_hermitian_with_matched_spectrum(self):
        cand = observable_from_M(dimer_metric(), SIGMA_Z)
        # any Dyson map with metric Theta hermitizes every Theta-observable
        root = dimer_metric().sqrt_theta
        dmap = DysonMap(omega=root, omega_inv=np.linalg.inv(root), family="KU")
        avatar = avatar_of_observable(cand.a_matrix, dmap)
        assert np.linalg.norm(avatar - avatar.conj().T) < 1e-12
        assert np.allclose(
            np.linalg.eigvalsh(avatar),
            np.sort(np.linalg.eigvals(cand.a_matrix).real),
            atol=1e-10,
        )


class TestCheckDiagonalCenter:
    def test_hamiltonian_commutes(self):
        dmap = build_omega_I(solve_schrodinger_pair(DIMER_H))
        assert check_diagonal_center(DIMER_H, dmap)

    def test_polynomial_in_h_commutes(self):
        dmap = build_omega_I(solve_schrodinger_pair(DIMER_H))
        poly = DIMER_H @ DIMER_H + 3.0 * DIMER_H
        assert check_diagonal_center(poly, dmap)

    def test_sigma_z_does_not_commute(self):
        dmap = build_omega_I(solve_schrodinger_pair(DIMER_H))
        assert not check_diagonal_center(SIGMA_Z, dmap)

    def test_requires_reference_family(self):
        root = dimer_metric().sqrt_theta
        dmap = DysonMap(omega=root, omega_inv=np.linalg.inv(root), family="KU")
        with pytest.raises(ValueError):
            check_diagonal_center(DIMER_H, dmap)

    def test_diagonal_center_survives_scaling(self, rng):
        # a diagonal center stays diagonal under every rescaled map
        base = build_omega_I(solve_schrodinger_pair(DIMER_H))
        poly = DIMER_H @ DIMER_H + 3.0 * DIMER_H
        assert check_diagonal_center(poly, base)
        for _ in range(5):
            k = random_k_diag(rng, 2)
            scaled = build_omega_K(base, k)
            avatar = avatar_of_observable(poly, scaled)
            off = avatar - np.diag(np.diag(avatar))
            assert np.linalg.norm(off) < 1e-12 * np.linalg.norm(poly)


class TestSharedMetric:
    def test_commuting_hermitian_pair(self):
        result = shared_metric(np.array([[0.0, 1.0], [1.0, 0.0]]), SIGMA_Z)
        assert result.status == "Found"
        assert result.solution_space_dim == 1
        # only multiples of the identity intertwine both
        assert np.linalg.norm(result.theta.theta - np.eye(2)) < 1e-10

    def test_pair_with_itself(self):
        result = shared_metric(DIMER_H, DIMER_H)
        assert result.status == "Found"
        assert result.solution_space_dim == 2
        assert is_quasi_hermitian(DIMER_H, result.theta) < 1e-10
        assert result.theta.min_eigenvalue > 0
        assert np.trace(result.theta.theta).real == pytest.approx(2.0)

    def test_dimer_against_sigma_z(self):
        result = shared_metric(DIMER_H, SIGMA_Z)
        assert result.status == "NoSharedMetric"
        assert result.solution_space_dim == 0
        assert result.theta is None

    def test_dimer_sigma_z_oracle(self):
        # Independent route: commuting with sigma_z forces Theta diagonal, and
        # on diag(a, d) the dimer constraint reads -2i*gamma*a = 0 (entry 0,0)
        # and kappa*(d - a) = 0 (entry 0,1), a rank-2 system with trivial kernel.
        kappa, gamma = 1.25, 0.75
        system = np.array([[-2.0 * gamma, 0.0], [-kappa, kappa]])
        assert abs(np.linalg.det(system)) > 0.1

    def test_negated_partner_still_found(self):
        result = shared_metric(SIGMA_Z, -SIGMA_Z)
        assert result.status == "Found"

    def test_deterministic_under_seed(self):
        r1 = shared_metric(DIMER_H, DIMER_H, seed=0)
        r2 = shared_metric(DIMER_H, DIMER_H, seed=0)
        assert r1.status == r2.status
        assert np.array_equal(r1.theta.theta, r2.theta.theta)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            shared_metric(DIMER_H, np.eye(3))


def _random_h(n, rng=None):
    rng = np.random.default_rng(0) if rng is None else rng
    return random_real_spectrum(rng, n, cond_cap=1e3)[0]


def _sharing_pairs():
    for n in (8, 16):
        h = _random_h(n)
        yield f"n{n}/h^2", h, h @ h
        yield f"n{n}/2h+h^3", h, 2.0 * h + h @ h @ h


def _independent_pairs():
    for n in (8, 16):
        rng = np.random.default_rng(0)
        yield f"n{n}/independent", _random_h(n, rng), _random_h(n, rng)


class TestSharedMetricDecision:
    """Regression cases for the eigenbasis decision; every status is a decision."""

    @pytest.mark.parametrize("label,h1,h2", list(_sharing_pairs()))
    def test_polynomial_partner_found(self, label, h1, h2):
        result = shared_metric(h1, h2)
        assert result.status == "Found", label
        assert result.solution_space_dim == h1.shape[0]
        assert quasi_hermiticity_residual(h1, result.theta) <= 1e-10
        assert quasi_hermiticity_residual(h2, result.theta) <= 1e-10
        assert result.theta.min_eigenvalue > 0

    @pytest.mark.parametrize("label,h1,h2", list(_independent_pairs()))
    def test_independent_pair_has_none(self, label, h1, h2):
        result = shared_metric(h1, h2)
        assert result.status == "NoSharedMetric", label
        assert result.theta is None

    @pytest.mark.parametrize("label,h1,h2", list(_sharing_pairs()) + list(_independent_pairs()))
    def test_status_symmetric(self, label, h1, h2):
        assert shared_metric(h1, h2).status == shared_metric(h2, h1).status, label

    def test_complex_spectrum_proves_none(self):
        spiral = np.array([[0.0, 1.0], [-1.0, 0.0]])
        result = shared_metric(spiral, spiral)
        assert result.status == "NoSharedMetric"
        # Theta anticommuting with i sigma_y: the span of sigma_x and sigma_z
        assert result.solution_space_dim == 2
        assert result.theta is None

    def test_identity_pair_without_simple_base(self):
        result = shared_metric(np.eye(2), np.eye(2))
        assert result.status == "Found"
        assert result.solution_space_dim == 4
        assert np.linalg.norm(result.theta.theta - np.eye(2)) < 1e-12

    def test_second_hamiltonian_as_base(self):
        result = shared_metric(np.eye(2), DIMER_H)
        assert result.status == "Found"
        assert result.solution_space_dim == 2
        assert quasi_hermiticity_residual(DIMER_H, result.theta) <= 1e-10

    def test_combination_as_base(self):
        # Both spectra are degenerate; diag(1, 1, 2) + t diag(1, 2, 2) is simple.
        _h, _e, s = random_real_spectrum(np.random.default_rng(0), 3, cond_cap=1e3)
        s_inv = np.linalg.inv(s)
        h1 = s @ np.diag([1.0, 1.0, 2.0]) @ s_inv
        h2 = s @ np.diag([1.0, 2.0, 2.0]) @ s_inv
        result = shared_metric(h1, h2)
        assert result.status == "Found"
        assert result.solution_space_dim == 3
        assert quasi_hermiticity_residual(h1, result.theta) <= 1e-10
        assert quasi_hermiticity_residual(h2, result.theta) <= 1e-10

    def test_better_separated_base(self):
        # A near +-E pair leaves h^2 simple but with a relative gap of ~1e-7,
        # too small to pin its eigenprojectors to the residual tolerance; the
        # decision must run in the eigenbasis of h.
        _h, energies, s = random_real_spectrum(np.random.default_rng(0), 8, cond_cap=1e3)
        energies = energies.copy()
        energies[-1] = -energies[0] + 1e-6
        h = s @ np.diag(energies) @ np.linalg.inv(s)
        for pair in ((h @ h, h), (h, h @ h)):
            assert shared_metric(*pair).status == "Found"

    def test_cutoff_admits_certifiable_metric(self):
        # cond(S) = 1e4: S^-dagger S^-1 serves h and 2h + h^3 to ~3e-11, inside
        # the 1e-10 gate, so the rank cutoff must keep the whole eigenbasis.
        n = 12
        rng = np.random.default_rng(6)
        s = (random_unitary(rng, n) * np.geomspace(1.0, 1e4, n)) @ random_unitary(rng, n)
        energies = np.arange(n) * 0.7 + rng.uniform(0.0, 0.3, n)
        h = s @ np.diag(energies - energies.mean()) @ np.linalg.inv(s)
        result = shared_metric(h, 2.0 * h + h @ h @ h)
        assert result.status == "Found"
        assert result.solution_space_dim == n

    def test_no_optimizer_imported(self):
        code = (
            "import sys, numpy as np, quasiherm.cli\n"
            "from quasiherm import shared_metric\n"
            "h = np.array([[0.75j, 1.25], [1.25, -0.75j]])\n"
            "assert shared_metric(h, h @ h).status == 'Found'\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("block,status", [
        # a Hermitian block ties two weights together: a positive solution exists
        (np.array([[0.0, 1.0], [1.0, 0.0]]), "Found"),
        # an antisymmetric block forces weights of opposite signs: none exists
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), "NoSharedMetric"),
    ])
    def test_partial_sharing_blocks(self, block, status):
        # Theta = S^-dagger diag(w) S^-1 serves H1 = S E S^-1 for every w > 0;
        # H2 = S M S^-1 couples w_0 and w_1 through a 2 x 2 block of M.
        n = 6
        h1, energies, s = random_real_spectrum(np.random.default_rng(0), n, cond_cap=1e3)
        m = np.diag(energies).astype(np.complex128)
        m[:2, :2] = block
        h2 = s @ m @ np.linalg.inv(s)
        result = shared_metric(h1, h2)
        assert result.status == status
        assert result.solution_space_dim == n - 1
