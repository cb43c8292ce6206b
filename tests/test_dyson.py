import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from families import DIMER_H, DIMER_THETA, capped_frame, random_k_diag, random_real_spectrum, random_unitary
from quasiherm import (
    AvatarNotHermitian,
    ComplexSpectrum,
    DefectiveMatrix,
    DysonMap,
    NotPositiveDefinite,
    NotQuasiHermitian,
    NotUnitary,
    SingularScaling,
    Tolerances,
    build_omega_I,
    build_omega_K,
    build_omega_KU,
    build_report,
    evolve_norm_check,
    hermitian_avatar,
    hermitian_dyson,
    hermitize,
    metric_from_theta,
    metric_of,
    phys_inner,
    quasi_hermiticity_residual,
    solve_schrodinger_pair,
)
from quasiherm import dyson, linalg, models, observables
from quasiherm.errors import NotHermitian, SingularInput
from quasiherm.linalg import DEFAULT_TOL, eig_general, fro, herm_exp, hermiticity_residual, polar_decompose
from quasiherm.models import (
    DimerParams,
    FermionicParams,
    dimer_build,
    dimer_from_coupling,
    fermionic_build,
)
from quasiherm.observables import avatar_of_observable, check_diagonal_center, observable_from_M

LOG2 = np.log(2.0)
# the closed-form map of the dimer whose H is DIMER_H
DIMER_MAP = dimer_build(dimer_from_coupling(1.25, 0.75))[2]


class TestSolveSchrodingerPair:
    def test_fermionic_energies(self):
        big_h, _h, _map, _theta = fermionic_build(FermionicParams(alpha=4.0, beta=1.0, omega=0.3))
        system = solve_schrodinger_pair(big_h)
        lo = (1.0 - np.sqrt(17.0)) / 2.0
        hi = (1.0 + np.sqrt(17.0)) / 2.0
        assert np.allclose(system.energies, [lo, 0.3, 0.7, hi], atol=1e-12)

    def test_biorthonormal_and_complete(self):
        system = solve_schrodinger_pair(DIMER_H)
        n = len(system.energies)
        overlap = system.left_kets.conj().T @ system.right_kets
        assert np.linalg.norm(overlap - np.eye(n)) < 1e-13
        resolution = system.right_kets @ system.left_kets.conj().T
        assert np.linalg.norm(resolution - np.eye(n)) < 1e-12

    def test_left_kets_solve_adjoint_equation(self):
        system = solve_schrodinger_pair(DIMER_H)
        res = DIMER_H.conj().T @ system.left_kets - system.left_kets @ np.diag(system.energies)
        assert np.linalg.norm(res) < 1e-12 * np.linalg.norm(system.left_kets)

    def test_hermitian_input_left_equals_right(self):
        system = solve_schrodinger_pair(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(system.energies, [-1.0, 1.0], atol=1e-14)
        assert np.linalg.norm(system.left_kets - system.right_kets) < 1e-12

    def test_complex_spectrum_raises(self):
        with pytest.raises(ComplexSpectrum):
            solve_schrodinger_pair(np.array([[0.0, 1.0], [-1.0, 0.0]]))


class TestOmegaFamilies:
    def test_omega_I_diagonalizes(self):
        system = solve_schrodinger_pair(DIMER_H)
        dmap = build_omega_I(system)
        assert dmap.family == "I"
        avatar = dmap.omega @ DIMER_H @ dmap.omega_inv
        assert np.linalg.norm(avatar - np.diag([-1.0, 1.0])) < 1e-12

    def test_omega_I_hermitian_input_is_unitary(self):
        system = solve_schrodinger_pair(np.array([[0.0, 1.0], [1.0, 0.0]]))
        dmap = build_omega_I(system)
        theta = dmap.omega.conj().T @ dmap.omega
        assert np.linalg.norm(theta - np.eye(2)) < 1e-12

    def test_map_inverse_consistent(self):
        system = solve_schrodinger_pair(DIMER_H)
        dmap = build_omega_I(system)
        assert np.linalg.norm(dmap.omega @ dmap.omega_inv - np.eye(2)) < 1e-13

    def test_omega_K_identity_weights(self):
        dmap = build_omega_I(solve_schrodinger_pair(DIMER_H))
        scaled = build_omega_K(dmap, np.ones(2))
        assert scaled.family == "K"
        assert np.allclose(scaled.omega, dmap.omega)

    def test_omega_K_avatar_invariant_metric_not(self, rng):
        dmap = build_omega_I(solve_schrodinger_pair(DIMER_H))
        k = random_k_diag(rng, 2)
        scaled = build_omega_K(dmap, k)
        av_i = dmap.omega @ DIMER_H @ dmap.omega_inv
        av_k = scaled.omega @ DIMER_H @ scaled.omega_inv
        assert np.linalg.norm(av_k - av_i) < 1e-12 * np.linalg.norm(av_i)
        theta_k = metric_of(scaled).theta
        expected = dmap.omega.conj().T @ np.diag(np.abs(k) ** 2) @ dmap.omega
        assert np.linalg.norm(theta_k - expected) < 1e-12 * np.linalg.norm(expected)

    def test_omega_K_rejects_bad_weights(self):
        dmap = build_omega_I(solve_schrodinger_pair(DIMER_H))
        with pytest.raises(SingularScaling):
            build_omega_K(dmap, [1.0, 0.0])
        with pytest.raises(ValueError):
            build_omega_K(dmap, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            build_omega_K(build_omega_K(dmap, [1.0, 2.0]), [1.0, 2.0])
        for k in ([], [1.0, np.nan], [1.0, np.inf], [complex(1.0, -np.inf), 1.0]):
            with pytest.raises(ValueError, match="k_diag"):
                build_omega_K(dmap, k)

    def test_omega_K_honours_positivity_tolerance(self):
        dmap = build_omega_I(solve_schrodinger_pair(DIMER_H))
        assert build_omega_K(dmap, [1e-4, 1.0]).family == "K"
        with pytest.raises(SingularScaling):
            build_omega_K(dmap, [1e-4, 1.0], Tolerances(positivity_rel=1e-3))
        with pytest.raises(SingularScaling):
            hermitize(DIMER_H, k_diag=[1e-4, 1.0], tol=Tolerances(positivity_rel=1e-3))

    def test_omega_K_gate_is_scale_relative(self):
        # k = 1e-13 * [1, 1] is the k = [1, 1] map times a scalar; only the spread is gated
        tiny = hermitize(DIMER_H, k_diag=[1e-13, 1e-13])
        huge = hermitize(DIMER_H, k_diag=[1e13, 1e13])
        assert tiny[4].passed and huge[4].passed
        assert tiny[4].metric_condition == pytest.approx(4.0, rel=1e-12)
        assert huge[4].metric_condition == pytest.approx(4.0, rel=1e-12)
        with pytest.raises(SingularScaling, match="smallest"):
            hermitize(DIMER_H, k_diag=[1e-13, 1.0])

    def test_omega_KU_rotates_avatar_keeps_metric(self, rng):
        dmap = build_omega_K(build_omega_I(solve_schrodinger_pair(DIMER_H)), [2.0, 0.5])
        u = random_unitary(rng, 2)
        rotated = build_omega_KU(dmap, u)
        assert rotated.family == "KU"
        theta_before = metric_of(dmap).theta
        theta_after = metric_of(rotated).theta
        assert np.linalg.norm(theta_after - theta_before) < 1e-12 * np.linalg.norm(theta_before)
        av_k = dmap.omega @ DIMER_H @ dmap.omega_inv
        av_u = rotated.omega @ DIMER_H @ rotated.omega_inv
        assert np.linalg.norm(av_u - u @ av_k @ u.conj().T) < 1e-12

    def test_omega_KU_swap_flips_diagonal(self):
        dmap = build_omega_I(solve_schrodinger_pair(DIMER_H))
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        rotated = build_omega_KU(dmap, swap)
        avatar = rotated.omega @ DIMER_H @ rotated.omega_inv
        assert np.linalg.norm(avatar - np.diag([1.0, -1.0])) < 1e-12

    def test_omega_KU_rejects_non_unitary(self):
        dmap = build_omega_I(solve_schrodinger_pair(DIMER_H))
        with pytest.raises(NotUnitary):
            build_omega_KU(dmap, np.array([[1.0, 0.1], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            build_omega_KU(build_omega_KU(dmap, np.eye(2)), np.eye(2))


class TestMetric:
    def test_identity_map(self):
        dmap = DysonMap(omega=np.eye(3), omega_inv=np.eye(3), family="I")
        metric = metric_of(dmap)
        assert np.allclose(metric.theta, np.eye(3))
        assert np.allclose(scipy.linalg.sqrtm(metric.theta), np.eye(3))
        assert metric.eigenvalues[0] == pytest.approx(1.0)

    def test_dimer_build_map(self):
        metric = metric_of(DIMER_MAP)
        assert np.linalg.norm(metric.theta - DIMER_THETA) < 1e-14
        assert np.allclose(np.linalg.eigvalsh(metric.theta), [0.5, 2.0], atol=1e-14)

    def test_fermionic_closed_map(self):
        _bh, _h, dmap, theta = fermionic_build(FermionicParams(alpha=4.0, beta=1.0, omega=0.3))
        metric = metric_of(dmap)
        assert np.linalg.norm(metric.theta - theta) < 1e-12
        assert metric.eigenvalues[0] > 0

    def test_sqrt_consistency(self):
        metric = metric_of(DIMER_MAP)
        root = scipy.linalg.sqrtm(metric.theta)
        assert np.linalg.norm(root @ root - metric.theta) < 1e-14

    def test_singular_map_rejected(self):
        dmap = DysonMap(omega=np.diag([1.0, 0.0]), omega_inv=np.eye(2), family="I")
        with pytest.raises(NotPositiveDefinite):
            metric_of(dmap)

    def test_report_condition_from_metric_spectrum(self, rng):
        h, _energies, _s = random_real_spectrum(rng, 16, cond_cap=1e3)
        _sys, _dmap, metric, _avatar, report = hermitize(h)
        lam = np.linalg.eigvalsh(metric.theta)
        assert np.array_equal(metric.eigenvalues, lam)
        assert report.metric_condition == lam[-1] / lam[0]

    def test_metric_from_theta_validates(self):
        with pytest.raises(NotPositiveDefinite):
            metric_from_theta(np.diag([1.0, -1.0]))

    def test_overflowing_map_refused_before_the_product(self):
        # pytest turns numpy's overflow warning into an error, so none is raised
        bound = linalg._MAX_BASIS_BOUND
        at_bound = DysonMap(omega=np.diag([bound, 0.0]), omega_inv=np.eye(2), family="I")
        with pytest.raises(NotPositiveDefinite, match="^candidate metric's smallest"):
            metric_of(at_bound)
        past = DysonMap(omega=np.diag([bound, bound]), omega_inv=np.eye(2), family="I")
        with pytest.raises(NotPositiveDefinite) as info:
            metric_of(past)
        assert str(info.value) == (f"||Omega||_F {fro(past.omega):.3e} exceeds {bound:.3e}, "
                                   "beyond which the metric overflows")

    @pytest.mark.parametrize("c", [1e154, 1e155])
    @pytest.mark.parametrize("hermitian_map", [False, True])
    def test_hermitize_refuses_an_overflowing_metric(self, c, hermitian_map):
        with pytest.raises(NotPositiveDefinite, match=r"^\|\|Omega\|\|_F .* exceeds 1\.341e\+154"):
            hermitize(DIMER_H, k_diag=[c, c], hermitian_map=hermitian_map)


class TestHermitianAvatar:
    def test_dimer_build_map_gives_sigma_x(self):
        avatar = hermitian_avatar(DIMER_H, DIMER_MAP)
        assert np.linalg.norm(avatar - np.array([[0.0, 1.0], [1.0, 0.0]])) < 1e-13

    def test_fermionic_closed_map(self):
        p = FermionicParams(alpha=4.0, beta=1.0, omega=0.3)
        big_h, h, dmap, _theta = fermionic_build(p)
        avatar = hermitian_avatar(big_h, dmap)
        assert np.linalg.norm(avatar - h) < 1e-12 * np.linalg.norm(h)

    def test_wrong_map_raises(self):
        dmap = DysonMap(omega=np.eye(2), omega_inv=np.eye(2), family="I")
        with pytest.raises(AvatarNotHermitian):
            hermitian_avatar(DIMER_H, dmap)


class TestBuildReport:
    def test_identity_map_of_the_dimer_is_refused(self):
        # The identity map with the diagonal of the energies offered as its avatar
        # once reported passed; the avatar is now the map's own, and not Hermitian.
        h = [[0.75j, 1.25], [1.25, -0.75j]]
        eye = np.eye(2, dtype=complex)
        s = solve_schrodinger_pair(h)
        metric = metric_of(build_omega_I(s))
        with pytest.raises(AvatarNotHermitian):
            build_report(h, s, DysonMap(eye, eye, "I"), metric, DEFAULT_TOL)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
    def test_only_maps_that_hermitize_h_are_certified(self, seed, n):
        h, system, _k, omega_k = _k_family(seed, n)
        rng = np.random.default_rng(seed + 1)
        omega_i = build_omega_I(system)
        for dmap in (omega_i, omega_k, build_omega_KU(omega_k, random_unitary(rng, n))):
            avatar, report = build_report(h, system, dmap, metric_of(dmap))
            assert report.passed
            assert np.array_equal(avatar, hermitian_avatar(h, dmap))
        g = capped_frame(rng, n, 100.0)
        wrong = DysonMap(omega=g, omega_inv=np.linalg.inv(g), family="I")
        with pytest.raises(AvatarNotHermitian):
            build_report(h, system, wrong, metric_of(wrong))


class TestFailureMessages:
    # each message names the measured value and the gate it failed
    def test_not_unitary(self):
        dmap = build_omega_I(solve_schrodinger_pair(DIMER_H))
        # ||(2I)†(2I) - I||_F = 3 sqrt(2)
        with pytest.raises(NotUnitary, match=r"unitarity residual 4\.243e\+00 exceeds 1e-10"):
            build_omega_KU(dmap, 2.0 * np.eye(2))
        with pytest.raises(NotUnitary, match=r"exceeds 1e-12$"):
            build_omega_KU(dmap, np.array([[1.0, 1e-11], [0.0, 1.0]]), Tolerances(residual_rel=1e-12))

    def test_avatar_not_hermitian(self):
        dmap = DysonMap(omega=np.eye(2), omega_inv=np.eye(2), family="I")
        residual = hermiticity_residual(DIMER_H)
        expected = re.escape(f"avatar Hermiticity residual {residual:.3e} exceeds 1e-10")
        with pytest.raises(AvatarNotHermitian, match=expected):
            hermitian_avatar(DIMER_H, dmap)

    def test_metric_not_positive_definite(self):
        with pytest.raises(
            NotPositiveDefinite,
            match=r"smallest eigenvalue -1\.000e\+00 at or below 1e-12 \* 1\.414e\+00",
        ):
            metric_from_theta(np.diag([1.0, -1.0]))
        with pytest.raises(
            NotPositiveDefinite,
            match=r"smallest eigenvalue 1\.000e-10 at or below 1e-09 \* 1\.000e\+00",
        ):
            metric_from_theta(np.diag([1.0, 1e-10]), Tolerances(positivity_rel=1e-9))
        with pytest.raises(NotPositiveDefinite, match="zero matrix"):
            metric_from_theta(np.zeros((2, 2)))


class TestQuasiHermiticityResidual:
    def test_matched_pair_vanishes(self):
        assert quasi_hermiticity_residual(DIMER_H, DIMER_THETA) < 1e-15

    def test_euclidean_metric_large(self):
        # H† - H = -2i gamma sigma_z against ||H|| ||I|| puts this near 0.73
        r = quasi_hermiticity_residual(DIMER_H, np.eye(2))
        assert abs(r - 0.7276) < 1e-3

    def test_overflowing_norms_do_not_certify(self):
        # ||H|| ||Theta|| overflows although both norms are finite
        h = 1e200 * DIMER_H
        theta = metric_of(build_omega_I(solve_schrodinger_pair(h))).theta * 1e200
        assert quasi_hermiticity_residual(h, theta) == math.inf

    def test_metric_object_accepted(self):
        metric = metric_of(DIMER_MAP)
        assert quasi_hermiticity_residual(DIMER_H, metric) < 1e-14


class TestHermitianDyson:
    def test_already_hermitian_map_fixed(self):
        u, omega_herm = hermitian_dyson(DIMER_MAP)
        assert np.linalg.norm(u - np.eye(2)) < 1e-13
        assert np.linalg.norm(omega_herm - DIMER_MAP.omega) < 1e-13

    def test_dimer_build_map_eigenvalues(self):
        _u, omega_herm = hermitian_dyson(DIMER_MAP)
        expected = np.sort([np.exp(-LOG2 / 2.0), np.exp(LOG2 / 2.0)])
        assert np.allclose(np.linalg.eigvalsh(omega_herm), expected, atol=1e-13)

    def test_defining_identity_and_metric_root(self):
        dmap = build_omega_K(build_omega_I(solve_schrodinger_pair(DIMER_H)), [2.0, 0.5j])
        u, omega_herm = hermitian_dyson(dmap)
        scale = np.linalg.norm(dmap.omega)
        assert np.linalg.norm(u @ dmap.omega @ u - dmap.omega.conj().T) < 1e-12 * scale
        assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-13
        assert np.linalg.norm(omega_herm - omega_herm.conj().T) < 1e-12 * scale
        theta = metric_of(dmap).theta
        assert np.linalg.norm(omega_herm @ omega_herm - theta) < 1e-12 * np.linalg.norm(theta)

    def test_fermionic_map_squares_to_metric(self):
        _bh, _h, dmap, theta = fermionic_build(FermionicParams(alpha=4.0, beta=1.0, omega=0.3))
        _u, omega_herm = hermitian_dyson(dmap)
        assert np.linalg.norm(omega_herm @ omega_herm - theta) < 1e-12 * np.linalg.norm(theta)

    def test_k_family_polar_at_n256(self):
        # forming sqrt(Omega† Omega) lost ~cond(Omega)^2 eps here, so the
        # rotation failed the unitarity gate; one SVD keeps it near eps
        rng = np.random.default_rng(0)
        h, _energies, _s = random_real_spectrum(rng, 256, cond_cap=1e3)
        k = random_k_diag(rng, 256)
        system, _dmap, metric, _avatar, report = hermitize(h, k_diag=k, hermitian_map=True)
        assert report.passed
        u = hermitian_dyson(build_omega_K(build_omega_I(system), k))[0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(256)) < 1e-12
        _sys2, _dmap2, metric2, _av2, _rep2 = hermitize(h, k_diag=k)
        assert np.linalg.norm(metric.theta - metric2.theta) < 1e-10 * np.linalg.norm(metric2.theta)

    def test_caller_tolerance_reaches_polar_gate(self):
        # with k = (1, 1e-6) the map's Gram spectrum spans about 1e-12, which
        # fails the default positivity_rel and passes the caller's 1e-20
        tol = Tolerances(positivity_rel=1e-20, residual_rel=1e-8)
        _sys, dmap, _metric, _avatar, report = hermitize(
            DIMER_H, k_diag=[1.0, 1e-6], hermitian_map=True, tol=tol
        )
        assert report.passed
        assert dmap.family == "KU"

    @pytest.mark.parametrize("c", [1e77, 1e100])
    def test_large_k_accepted_as_the_plain_k_call(self, c):
        # K and cK are accepted alike, also where the unscaled polar gate would overflow
        _s, _d, _m, _a, plain = hermitize(DIMER_H, k_diag=[c, c])
        _s, dmap, _m, _a, report = hermitize(DIMER_H, k_diag=[c, c], hermitian_map=True)
        assert plain.passed and report.passed
        assert dmap.family == "KU"

    def test_against_svd_polar_oracle(self):
        dmap = build_omega_I(solve_schrodinger_pair(DIMER_H))
        _u, omega_herm = hermitian_dyson(dmap)
        _w_ref, p_ref = scipy.linalg.polar(dmap.omega, side="right")
        assert np.linalg.norm(omega_herm - p_ref) < 1e-11


def _k_family(seed, n):
    """A random H, its biorthogonal system, K and the map Omega_K."""
    rng = np.random.default_rng(seed)
    h, _energies, _s = random_real_spectrum(rng, n)
    system = solve_schrodinger_pair(h)
    k = random_k_diag(rng, n)
    return h, system, k, build_omega_K(build_omega_I(system), k)


class TestDysonProperties:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
    def test_polar_factor_is_the_metric_root(self, seed, n):
        _h, _system, _k, dmap = _k_family(seed, n)
        _u, p = hermitian_dyson(dmap)
        assert np.array_equal(p, p.conj().T)
        root = scipy.linalg.sqrtm(metric_of(dmap).theta)
        assert fro(p - root) <= 1e-12 * fro(root)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
    def test_k_family_metric_is_l_k2_l_dagger(self, seed, n):
        _h, system, k, dmap = _k_family(seed, n)
        left = system.left_kets
        expected = (left * np.abs(k) ** 2) @ left.conj().T
        assert fro(metric_of(dmap).theta - expected) <= 1e-12 * fro(expected)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
    def test_polar_rotation_keeps_metric_and_avatar_spectrum(self, seed, n):
        h, _system, _k, dmap = _k_family(seed, n)
        u, _p = hermitian_dyson(dmap)
        rotated = build_omega_KU(dmap, u)
        theta = metric_of(dmap).theta
        assert fro(metric_of(rotated).theta - theta) <= 1e-12 * fro(theta)
        spectrum = np.linalg.eigvalsh(hermitian_avatar(h, dmap))
        rotated_spectrum = np.linalg.eigvalsh(hermitian_avatar(h, rotated))
        assert np.max(np.abs(rotated_spectrum - spectrum)) <= 1e-12 * fro(h)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), c=st.floats(1e-3, 1e3))
    def test_scaling_scales_energies_and_keeps_metric(self, seed, n, c):
        h, _energies, _s = random_real_spectrum(np.random.default_rng(seed), n, cond_cap=1e3)
        _sys, _dmap, metric, _avatar, report = hermitize(h)
        _sys, _dmap, scaled_metric, _avatar, scaled = hermitize(c * h)
        expected = c * report.energies
        assert np.max(np.abs(scaled.energies - expected)) <= 1e-8 * np.max(np.abs(expected))
        assert fro(scaled_metric.theta - metric.theta) <= 1e-8 * fro(metric.theta)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
    def test_unitary_similarity_rotates_metric_keeps_avatar(self, seed, n):
        rng = np.random.default_rng(seed)
        h, _energies, _s = random_real_spectrum(rng, n, cond_cap=1e3)
        u = random_unitary(rng, n)
        _sys, _dmap, metric, avatar, _report = hermitize(h)
        _sys, _dmap, rotated_metric, rotated_avatar, _report = hermitize(u @ h @ u.conj().T)
        expected = u @ metric.theta @ u.conj().T
        assert fro(rotated_metric.theta - expected) <= 1e-8 * fro(expected)
        assert fro(rotated_avatar - avatar) <= 1e-8 * fro(avatar)


class TestPhysInner:
    def test_euclidean_reduction(self):
        psi = np.array([1.0, 2.0j])
        phi = np.array([0.5, -1.0])
        assert phys_inner(np.eye(2), psi, phi) == pytest.approx(psi.conj() @ phi)

    def test_dimer_metric_off_diagonal(self):
        val = phys_inner(DIMER_THETA, [1.0, 0.0], [0.0, 1.0])
        assert val == pytest.approx(-0.75j)

    def test_conjugate_symmetry(self, rng):
        metric = metric_of(DIMER_MAP)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert phys_inner(metric, psi, phi) == pytest.approx(
            np.conj(phys_inner(metric, phi, psi))
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            phys_inner(np.eye(2), [1.0, 0.0, 0.0], [0.0, 1.0])


class TestInputDomains:
    # each bad input is refused by name where it enters, not deep inside numpy
    @pytest.mark.parametrize("call,message", [
        (lambda: evolve_norm_check(DIMER_H, DIMER_THETA, [1.0, 0.0, 0.0], [0.0]),
         "psi0 has 3 entries for dimension 2"),
        (lambda: evolve_norm_check(DIMER_H, DIMER_THETA, [1.0, np.nan], [0.0]),
         "psi0 entries must be finite"),
        (lambda: evolve_norm_check(DIMER_H, DIMER_THETA, [1.0, 0.0], [0.0, np.inf]),
         "times must be finite"),
        (lambda: phys_inner(DIMER_THETA, [1.0, np.nan], [1.0, 0.0]), "psi entries must be finite"),
        (lambda: phys_inner(DIMER_THETA, [1.0, 0.0], [1.0]), "phi has 1 entries for dimension 2"),
        (lambda: quasi_hermiticity_residual(np.eye(2), np.eye(3)),
         "H has shape (2, 2) but the metric has shape (3, 3)"),
        (lambda: evolve_norm_check(DIMER_H, np.eye(3), [1.0, 0.0], [0.0]),
         "H has shape (2, 2) but the metric has shape (3, 3)"),
        (lambda: hermitian_avatar(np.eye(3), DIMER_MAP),
         "H has shape (3, 3) but the map has shape (2, 2)"),
        (lambda: build_report(np.eye(3), solve_schrodinger_pair(DIMER_H), DIMER_MAP,
                              metric_from_theta(DIMER_THETA)),
         "H has shape (3, 3) but the map has shape (2, 2)"),
        (lambda: observable_from_M(metric_from_theta(DIMER_THETA), np.eye(3)),
         "M has shape (3, 3) but the metric has shape (2, 2)"),
        (lambda: avatar_of_observable(np.eye(3), DIMER_MAP),
         "A has shape (3, 3) but the map has shape (2, 2)"),
        (lambda: check_diagonal_center(np.eye(3), build_omega_I(solve_schrodinger_pair(DIMER_H))),
         "A has shape (3, 3) but the map has shape (2, 2)"),
    ])
    def test_refused_by_name(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


class TestEvolveNormCheck:
    def test_hermitian_trivial_metric(self):
        times = np.linspace(0.0, 10.0, 11)
        norms = evolve_norm_check(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2), [1.0, 0.0], times)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_dimer_theta_norm_constant(self):
        times = np.linspace(0.0, 10.0, 101)
        norms = evolve_norm_check(DIMER_H, DIMER_THETA, [1.0, 0.0], times)
        assert norms[0] == pytest.approx(1.25, abs=1e-12)
        assert np.max(norms) - np.min(norms) < 1e-10 * norms[0]

    def test_matches_expm_propagation(self):
        psi0 = np.array([1.0, 0.5j])
        for t in (0.0, 0.7, 3.3):
            psi_t = scipy.linalg.expm(-1j * t * DIMER_H) @ psi0
            expected = float((psi_t.conj() @ DIMER_THETA @ psi_t).real)
            got = evolve_norm_check(DIMER_H, DIMER_THETA, psi0, [t])[0]
            assert got == pytest.approx(expected, rel=1e-10)

    def test_wrong_metric_raises(self):
        with pytest.raises(NotQuasiHermitian):
            evolve_norm_check(DIMER_H, np.eye(2), [1.0, 0.0], [0.0, 1.0])

    def test_defective_basis_raises(self):
        # gamma = 0.9 kappa: the eigenbasis condition is about 4.4, far above 1.0001
        p = dimer_from_coupling(1.0, 0.9)
        big_h, _h, _map, theta = dimer_build(p)
        assert evolve_norm_check(big_h, theta, [1.0, 0.0], [0.0, 1.0]).shape == (2,)
        tight = Tolerances(defective_cond=1.0001)
        with pytest.raises(DefectiveMatrix):
            evolve_norm_check(big_h, theta, [1.0, 0.0], [0.0, 1.0], tight)


class TestHermitizePipeline:
    def test_dimer_report(self):
        _sys, dmap, _metric, _avatar, report = hermitize(DIMER_H)
        assert report.passed
        assert dmap.family == "I"
        assert np.allclose(report.energies, [-1.0, 1.0], atol=1e-12)
        assert report.residual_quasi_herm < 1e-12
        assert report.residual_avatar_herm < 1e-12
        assert report.residual_isospectral < 1e-12

    def test_full_chain_families(self):
        _sys, dmap, metric, avatar, report = hermitize(
            DIMER_H, k_diag=[2.0, 0.5], hermitian_map=True
        )
        assert dmap.family == "KU"
        assert report.passed
        # the polar rotation leaves the K-family metric alone and the map Hermitian
        _sys2, dmap2, metric2, _av2, _rep2 = hermitize(DIMER_H, k_diag=[2.0, 0.5])
        assert np.linalg.norm(metric.theta - metric2.theta) < 1e-12 * np.linalg.norm(metric2.theta)
        assert np.linalg.norm(dmap.omega - dmap.omega.conj().T) < 1e-12
        assert np.linalg.norm(avatar - avatar.conj().T) < 1e-12 * np.linalg.norm(avatar)

    def test_hermitian_map_matches_hermitian_dyson(self, rng):
        h, _energies, _s = random_real_spectrum(rng, 12)
        k = random_k_diag(rng, 12)
        system, dmap, _metric, _avatar, _report = hermitize(h, k_diag=k, hermitian_map=True)
        base = build_omega_K(build_omega_I(system), k)
        u, omega_herm = hermitian_dyson(base)
        assert dmap.omega.tobytes() == build_omega_KU(base, u).omega.tobytes()
        # the rotated map is the Hermitian map hermitian_dyson returns
        assert np.linalg.norm(dmap.omega - omega_herm) < 1e-12 * np.linalg.norm(omega_herm)

    def test_random_suite(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 9))
            h, energies, _s = random_real_spectrum(rng, n)
            _sys, _dmap, metric, _avatar, report = hermitize(h)
            assert report.passed
            assert np.all(np.diff(report.energies) > 0)
            assert np.allclose(report.energies, energies, atol=1e-9 * np.linalg.norm(h))
            assert quasi_hermiticity_residual(h, metric) < 1e-10


def _nan(*_args):
    return math.nan


def _nan_array(a):
    return np.full(len(a), math.nan)


def _eig_with_nan_imag(a, tol):
    w, right, left = eig_general(a, tol)
    return w + complex(0.0, math.nan), right, left


_DIMER_PARAMS = dict(omega=1.0, alpha=0.0, kappa=1.0, gamma=0.0)

# Each gate, with the measured quantity it compares made NaN, and the failure it
# must then report: {name: ((owner, attribute to patch), replacement, call on the
# dimer's reference map, expected error or None for a None return)}.  A NaN
# fails every comparison, so a gate written as `if x > bound: raise` passes it.
_NAN_GATES = {
    "solve_schrodinger_pair reality": (
        (dyson, "eig_general"), _eig_with_nan_imag,
        lambda m: solve_schrodinger_pair(DIMER_H), ComplexSpectrum,
    ),
    "build_omega_K spread": (
        (np, "abs"), _nan_array, lambda m: build_omega_K(m, [1.0, 2.0]), SingularScaling,
    ),
    "build_omega_KU unitarity": (
        (dyson, "fro"), _nan, lambda m: build_omega_KU(m, np.eye(2)), NotUnitary,
    ),
    # a NaN norm would also fail metric_from_theta's gate, so the bound is made NaN
    "metric_of map norm": (
        (dyson, "_MAX_BASIS_BOUND"), math.nan, lambda m: metric_of(m), NotPositiveDefinite,
    ),
    "metric_from_theta positivity": (
        (np.linalg, "eigvalsh"), _nan_array,
        lambda m: metric_from_theta(DIMER_THETA), NotPositiveDefinite,
    ),
    "hermitian_avatar hermiticity": (
        (dyson, "hermiticity_residual"), _nan,
        lambda m: hermitian_avatar(DIMER_H, m), AvatarNotHermitian,
    ),
    "evolve_norm_check intertwining": (
        (dyson, "quasi_hermiticity_residual"), _nan,
        lambda m: evolve_norm_check(DIMER_H, DIMER_THETA, [1.0, 0.0], [0.0]), NotQuasiHermitian,
    ),
    "linalg hermiticity": (
        (linalg, "hermiticity_residual"), _nan, lambda m: herm_exp(DIMER_THETA), NotHermitian,
    ),
    "polar_decompose singularity": (
        (np.linalg, "svd"), lambda a: (np.eye(len(a)), _nan_array(a), np.eye(len(a))),
        lambda m: polar_decompose(DIMER_MAP.omega), SingularInput,
    ),
    "DimerParams kappa^2 - gamma^2 = omega^2": (
        (models, "abs"), _nan, lambda m: DimerParams(**_DIMER_PARAMS), ValueError,
    ),
    "DimerParams tanh(alpha) = gamma / kappa": (
        (math, "tanh"), _nan, lambda m: DimerParams(**_DIMER_PARAMS), ValueError,
    ),
    "observable_from_M hermiticity": (
        (linalg, "hermiticity_residual"), _nan,
        lambda m: observable_from_M(metric_from_theta(DIMER_THETA), np.eye(2)), NotHermitian,
    ),
    "_certify intertwining": (
        (observables, "quasi_hermiticity_residual"), _nan,
        lambda m: observables._certify(np.eye(2), (np.eye(2), np.eye(2)), DEFAULT_TOL), None,
    ),
}


class TestGatesFailClosed:
    @pytest.mark.parametrize("name", list(_NAN_GATES))
    def test_nan_quantity_fails_the_gate(self, name, monkeypatch):
        (owner, attr), replacement, call, expected = _NAN_GATES[name]
        dmap = build_omega_I(solve_schrodinger_pair(DIMER_H))  # before the patch
        monkeypatch.setattr(owner, attr, replacement, raising=False)
        if expected is None:
            assert call(dmap) is None
        else:
            with pytest.raises(expected) as info:
                call(dmap)
            if expected is ValueError:  # DimerParams: the message names the relation
                assert str(info.value) == name.split(" ", 1)[1] + " violated"
