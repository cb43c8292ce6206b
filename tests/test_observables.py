import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from families import (
    DIMER_H,
    DIMER_THETA,
    conditioned_frame,
    conditioned_spectrum,
    dimer_hamiltonian,
    exact_metric,
    exact_spectrum,
    metric_partner,
    random_hermitian,
    random_k_diag,
    random_real_spectrum,
    similar,
)
from quasiherm import (
    DysonMap,
    NotHermitian,
    avatar_of_observable,
    build_omega_I,
    build_omega_K,
    check_diagonal_center,
    hermitize,
    metric_from_theta,
    observable_from_M,
    quasi_hermiticity_residual,
    shared_metric,
    solve_schrodinger_pair,
)
from quasiherm import observables
from quasiherm.linalg import DEFAULT_TOL, as_square_matrix, fro

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
        with pytest.raises(
            NotHermitian, match=r"^generator M deviates from Hermiticity beyond 1e-10 relative$"
        ):
            observable_from_M(dimer_metric(), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermitian_generator_takes_its_hermitian_part(self, rng):
        metric = dimer_metric()
        m = random_hermitian(rng, 2)
        m[0, 1] *= 1.0 + 1e-13  # Hermitian within the tolerance, not exactly
        cand = observable_from_M(metric, m)
        sym = 0.5 * (m + m.conj().T)
        assert np.array_equal(cand.a_matrix, np.linalg.solve(metric.theta, sym))
        assert cand.residual == quasi_hermiticity_residual(cand.a_matrix, metric)

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
        assert quasi_hermiticity_residual(np.eye(2), dimer_metric()) < 1e-15

    def test_hamiltonian_is_observable(self):
        assert quasi_hermiticity_residual(DIMER_H, DIMER_THETA) < 1e-15

    def test_sigma_z_against_dimer_metric_fails(self):
        r = quasi_hermiticity_residual(SIGMA_Z, DIMER_THETA)
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
        root = scipy.linalg.sqrtm(dimer_metric().theta)
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
        root = scipy.linalg.sqrtm(dimer_metric().theta)
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
        assert quasi_hermiticity_residual(DIMER_H, result.theta) < 1e-10
        assert result.theta.eigenvalues[0] > 0
        assert np.trace(result.theta.theta).real == pytest.approx(2.0)

    def test_dimer_against_sigma_z(self):
        # Commuting with sigma_z forces Theta diagonal, and on diag(a, d) the dimer
        # constraint reads -2i*gamma*a = 0 (entry 0,0) and kappa*(d - a) = 0 (entry
        # 0,1), a rank-2 system with trivial kernel: no metric serves both.
        result = shared_metric(DIMER_H, SIGMA_Z)
        assert result.status == "NoSharedMetric"
        assert result.solution_space_dim == 0
        assert result.theta is None

    def test_negated_partner_still_found(self):
        result = shared_metric(SIGMA_Z, -SIGMA_Z)
        assert result.status == "Found"

    def test_deterministic_under_seed(self):
        r1 = shared_metric(DIMER_H, DIMER_H)
        r2 = shared_metric(DIMER_H, DIMER_H)
        assert r1.status == r2.status
        assert np.array_equal(r1.theta.theta, r2.theta.theta)

    def test_seed_argument_removed(self):
        with pytest.raises(TypeError):
            shared_metric(DIMER_H, DIMER_H, seed=0)

    @pytest.mark.parametrize("h1,h2", [(DIMER_H, DIMER_H), (DIMER_H, SIGMA_Z),
                                       (SIGMA_Z, np.eye(2))])
    def test_certify_rejects_negative_trace(self, h1, h2):
        assert observables._certify(-np.eye(2), (h1, h2), DEFAULT_TOL) is None

    def test_certify_rejects_large_residual(self):
        # I has positive trace and is positive definite, but does not intertwine the dimer
        assert quasi_hermiticity_residual(DIMER_H, np.eye(2)) == pytest.approx(0.73, abs=0.01)
        assert observables._certify(np.eye(2), (DIMER_H, DIMER_H), DEFAULT_TOL) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            shared_metric(DIMER_H, np.eye(3))


def _partnered(n, seed):
    """(H1, H2, Theta): H1 = S E S^-1 and H2 = S S† M share Theta = S^-† S^-1 alone."""
    rng = np.random.default_rng(seed)
    h1, _energies, s = random_real_spectrum(rng, n, cond_cap=1e3)
    return h1, metric_partner(rng, s), exact_metric(s)


def _sharing_pairs():
    for n in (8, 16):
        h = random_real_spectrum(np.random.default_rng(0), n, cond_cap=1e3)[0]
        yield f"n{n}/h^2", h, h @ h
        yield f"n{n}/2h+h^3", h, 2.0 * h + h @ h @ h


def _unique_pairs():
    """Sharing pairs whose shared metric is unique: H2 does not commute with H1."""
    for n in (4, 8):
        yield f"n{n}/SS^dagger.M", *_partnered(n, n)[:2]


def _independent_pairs():
    for n in (8, 16):
        rng = np.random.default_rng(0)
        h1, h2 = (random_real_spectrum(rng, n, cond_cap=1e3)[0] for _ in range(2))
        yield f"n{n}/independent", h1, h2
    # the partner's S S† M built on an unrelated S: its metric does not serve H1
    for n in (4, 8):
        yield f"n{n}/unrelated-SS^dagger.M", _partnered(n, n)[0], _partnered(n, n + 1)[1]


def _dimer_pairs():
    yield "dimer/h^2", DIMER_H, DIMER_H @ DIMER_H
    yield "dimer/sigma_z", DIMER_H, SIGMA_Z
    yield "dimer/itself", DIMER_H, DIMER_H
    other = dimer_hamiltonian(0.8, -0.5)
    yield "dimer/2h+h^3", other, 2.0 * other + other @ other @ other


def _in_one_frame(n, *diagonals):
    """S D S^-1 for each diagonal D and one frame S: all share S^-dagger S^-1."""
    s = conditioned_frame(np.random.default_rng(1), n, 10.0)
    return [similar(s, d) for d in diagonals]


def _reference_simple(h1, h2, tol=DEFAULT_TOL):
    """(status, theta or None, dimension) from the projector decision on a simple base.

    The computation as it stood before the block eigenbasis: of h1 and h2 the
    simple one with the larger smallest relative gap, the projectors onto its
    normalized left kets, the thin SVD, cutoff and trace projection, then the
    sign test and ``_certify``.
    """
    mats = a1, a2 = as_square_matrix(h1), as_square_matrix(h2)
    n = a1.shape[0]
    left, best_gap = None, tol.reality_rel
    for b in mats:
        system = solve_schrodinger_pair(b, tol)
        gap = (np.diff(system.energies) / (fro(b) or 1.0)).min()
        if gap > best_gap:
            left, best_gap = system.left_kets, gap
    lhat = left / np.linalg.norm(left, axis=0)
    basis = np.einsum("ik,jk->kij", lhat, lhat.conj())
    parts = [(a.conj().T @ basis - basis @ a).reshape(n, n * n).T for a in mats]
    stacked = np.concatenate([r for c in parts for r in (c.real, c.imag)])
    _u, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    cutoff = tol.residual_rel * np.hypot(fro(a1), fro(a2)) * np.linalg.norm(lhat, 2)
    null = vt[int(np.sum(svals > cutoff)):].T
    x = null @ (null.T @ np.trace(basis, axis1=1, axis2=2).real)
    dim = null.shape[1]
    if dim == 0 or not x.min() > tol.positivity_rel * np.abs(x).max():
        return "NoSharedMetric", None, dim
    certified = observables._certify(np.tensordot(x, basis, axes=1), mats, tol)
    return ("Inconclusive", None, dim) if certified is None else ("Found", certified[0], dim)


@st.composite
def _any_pair(draw):
    """(h1, h2), n = 2-8 and cond(S) <= 1e3, of one of six kinds, sharing a metric or not."""
    kind = draw(st.sampled_from(["independent", "2h+h^3", "frame", "generic", "-3h", "scalar"]))
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, _energies, s = random_real_spectrum(rng, n, cond_cap=1e3)
    if kind == "independent":
        return h, random_real_spectrum(rng, n, cond_cap=1e3)[0]
    if kind == "2h+h^3":
        return h, 2.0 * h + h @ h @ h
    if kind == "frame":
        return tuple(similar(s, rng.choice([0.0, 1.0, 2.0], n)) for _ in range(2))
    if kind == "generic":  # real, so its spectrum is often complex
        return h, rng.standard_normal((n, n))
    if kind == "-3h":
        return h, -3.0 * h
    return h, rng.uniform(-2.0, 2.0) * np.eye(n)


@st.composite
def _shared_frame(draw):
    """(S, D1, D2): a frame with cond(S) <= 1e3 and diagonals over {0, 1, 2}."""
    n = draw(st.integers(2, 12))
    s = random_real_spectrum(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n,
                             cond_cap=1e3)[2]
    diagonal = st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=n, max_size=n)
    return s, np.diag(draw(diagonal)), np.diag(draw(diagonal))


class TestSharedMetricDecision:
    """Regression cases for the eigenbasis decision; every status is a decision."""

    @pytest.mark.parametrize("label,h1,h2", list(_sharing_pairs()))
    def test_polynomial_partner_found(self, label, h1, h2):
        result = shared_metric(h1, h2)
        assert result.status == "Found", label
        assert result.solution_space_dim == h1.shape[0]
        assert quasi_hermiticity_residual(h1, result.theta) <= 1e-10
        assert quasi_hermiticity_residual(h2, result.theta) <= 1e-10
        assert result.theta.eigenvalues[0] > 0

    @pytest.mark.parametrize("label,h1,h2", list(_independent_pairs()))
    def test_independent_pair_has_none(self, label, h1, h2):
        result = shared_metric(h1, h2)
        assert result.status == "NoSharedMetric", label
        assert result.theta is None

    @pytest.mark.parametrize("n", [4, 8])
    def test_metric_partner_shares_one_metric(self, n):
        h1, h2, theta = _partnered(n, n)
        result = shared_metric(h1, h2)
        assert (result.status, result.solution_space_dim) == ("Found", 1)
        assert all(r <= DEFAULT_TOL.residual_rel for r in result.residuals)
        exact = theta * (n / np.trace(theta).real)
        assert np.linalg.norm(result.theta.theta - exact) <= 1e-12 * np.linalg.norm(exact)

    @pytest.mark.parametrize(
        "label,h1,h2", list(_sharing_pairs()) + list(_independent_pairs()) + list(_unique_pairs())
    )
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
        s = random_real_spectrum(np.random.default_rng(0), 3, cond_cap=1e3)[2]
        h1, h2 = similar(s, [1.0, 1.0, 2.0]), similar(s, [1.0, 2.0, 2.0])
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
        h = similar(s, energies)
        for pair in ((h @ h, h), (h, h @ h)):
            assert shared_metric(*pair).status == "Found"

    def test_cutoff_admits_certifiable_metric(self):
        # cond(S) = 1e4: S^-dagger S^-1 serves h and 2h + h^3 to ~3e-11, inside
        # the 1e-10 gate, so the rank cutoff must keep the whole eigenbasis.
        n = 12
        h = conditioned_spectrum(np.random.default_rng(6), n, 1e4)[0]
        result = shared_metric(h, 2.0 * h + h @ h @ h)
        assert result.status == "Found"
        assert result.solution_space_dim == n

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
        h2 = similar(s, m)
        result = shared_metric(h1, h2)
        assert result.status == status
        assert result.solution_space_dim == n - 1

    @pytest.mark.parametrize("n,dim", [(16, 104), (24, 248)])
    def test_degenerate_pair_found(self, n, dim):
        # Neither diag(0^{n/2}, 1^{n/2}), diag(1, 1, 0^{n-2}) nor H1 + t H2 is simple: the
        # decision runs in the block eigenbasis of the combination, clusters of 2, n/2 - 2, n/2.
        h1, h2 = _in_one_frame(n, np.r_[np.zeros(n // 2), np.ones(n - n // 2)],
                               np.r_[1.0, 1.0, np.zeros(n - 2)])
        result = shared_metric(h1, h2)
        assert result.status == "Found"
        assert result.solution_space_dim == dim
        assert quasi_hermiticity_residual(h1, result.theta) <= 1e-10
        assert quasi_hermiticity_residual(h2, result.theta) <= 1e-10
        assert result.theta.eigenvalues[0] > 0

    def test_squared_partner_of_degenerate_pair_found(self):
        h1, h2 = _in_one_frame(16, np.r_[0.0, 0.0, np.ones(14)], np.r_[np.ones(14), 0.0, 0.0])
        result = shared_metric(h1, h2 @ h2)
        assert result.status == "Found"
        assert quasi_hermiticity_residual(h1, result.theta) <= 1e-10
        assert quasi_hermiticity_residual(h2 @ h2, result.theta) <= 1e-10

    def test_block_complex_pair_has_none(self):
        # No candidate has a real spectrum: the n^2 Hermitian units decide.
        b = np.kron(np.eye(12), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        result = shared_metric(b, b)
        assert result.status == "NoSharedMetric"
        assert result.solution_space_dim == 288

    def test_jordan_pair_inconclusive(self):
        j = np.array([[0.0, 1.0], [0.0, 0.0]])
        result = shared_metric(j, j)
        assert result.status == "Inconclusive"
        assert result.solution_space_dim == 2

    @pytest.mark.parametrize(
        "label,h1,h2",
        list(_sharing_pairs()) + list(_independent_pairs()) + list(_dimer_pairs())
        + list(_unique_pairs()),
    )
    def test_simple_base_bits_match_reference(self, label, h1, h2):
        status, theta, dim = _reference_simple(h1, h2)
        result = shared_metric(h1, h2)
        assert (result.status, result.solution_space_dim) == (status, dim), label
        if theta is None:
            assert result.theta is None, label
        else:
            assert result.theta.theta.tobytes() == theta.theta.tobytes(), label

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        coefficients=st.lists(st.floats(0.5, 2.0) | st.floats(-2.0, -0.5), min_size=1, max_size=4),
    )
    def test_polynomial_partners_found(self, seed, n, coefficients):
        h = random_real_spectrum(np.random.default_rng(seed), n, cond_cap=1e3)[0]
        p = sum(c * np.linalg.matrix_power(h, k) for k, c in enumerate(coefficients))
        assert shared_metric(h, p).status == "Found"
        assert shared_metric(p, h).status == "Found"

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
    def test_exact_polynomial_partners_never_refused(self, seed, n):
        # h, h^2 and 2h + h^3 are formed in integers, so they share S^-dagger S^-1 exactly
        h, _energies, s = exact_spectrum(np.random.default_rng(seed), n)
        for partner in (h @ h, 2 * h + h @ h @ h):
            result = shared_metric(h, partner)
            assert result.status != "NoSharedMetric"
            if np.linalg.cond(s) < 1e3:
                assert result.status == "Found"
                assert max(result.residuals) <= 1e-10

    @given(_any_pair())
    def test_found_carries_the_residuals_it_passed(self, pair):
        result = shared_metric(*pair)
        if result.status != "Found":
            assert result.residuals is None
            return
        expected = [quasi_hermiticity_residual(h, result.theta) for h in pair]
        assert [r.hex() for r in result.residuals] == [r.hex() for r in expected]
        assert all(r <= DEFAULT_TOL.residual_rel for r in result.residuals)

    @given(_any_pair())
    def test_status_symmetric_for_any_pair(self, pair):
        h1, h2 = pair
        assert shared_metric(h1, h2).status == shared_metric(h2, h1).status

    @given(_shared_frame())
    def test_shared_frame_pairs_found(self, frame):
        s, d1, d2 = frame
        h1, h2 = similar(s, d1), similar(s, d2)
        assert shared_metric(h1, h2).status == "Found"
        assert shared_metric(h2, h1).status == "Found"


JORDAN = np.array([[1.0, 1.0], [0.0, 1.0]])
_SCALE_PAIRS = {
    "dimer/sigma_z": (DIMER_H, SIGMA_Z),
    "dimer/h^2": (DIMER_H, DIMER_H @ DIMER_H),
    "jordan/itself": (JORDAN, JORDAN),
}


class TestScaleInvariance:
    """Answers do not depend on the overall scale of the Hamiltonians."""

    @pytest.mark.parametrize("exponent", [-300, -200, -160, 150, 155, 200, 300, 307])
    def test_answers_match_unit_scale(self, exponent):
        s = 10.0**exponent
        for label, (h1, h2) in _SCALE_PAIRS.items():
            unit, scaled = shared_metric(h1, h2), shared_metric(s * h1, s * h2)
            assert scaled.status == unit.status, label
            assert scaled.solution_space_dim == unit.solution_space_dim, label
        report = hermitize(s * DIMER_H)[-1]
        assert report.passed
        assert np.allclose(report.energies / s, [-1.0, 1.0], rtol=1e-14, atol=0.0)
        residuals = (report.residual_quasi_herm, report.residual_avatar_herm,
                     report.residual_isospectral)
        assert max(residuals) <= 1e-15

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # products overflow near 1e308
    @given(_any_pair() | st.sampled_from(list(_SCALE_PAIRS.values())), st.integers(-300, 308))
    def test_found_is_certified(self, pair, exponent):
        h1, h2 = (10.0**exponent * h for h in pair)
        assume(np.isfinite(h1).all() and np.isfinite(h2).all())
        result = shared_metric(h1, h2)
        if result.status == "Found":
            for h in (h1, h2):
                residual = quasi_hermiticity_residual(h, result.theta)
                assert math.isfinite(residual) and residual <= DEFAULT_TOL.residual_rel

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("label", ["dimer/sigma_z", "jordan/itself"])
    def test_overflowing_products_are_not_found(self, label):
        h1, h2 = (1e308 * h for h in _SCALE_PAIRS[label])
        assert shared_metric(h1, h2).status == "Inconclusive"
