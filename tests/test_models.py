import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from families import dimer_hamiltonian
from quasiherm import (
    SIGMA_X,
    SIGMA_Z,
    DefectiveMatrix,
    DimerParams,
    EPRegion,
    FermionicParams,
    InvalidCoupling,
    SingularDysonMap,
    Tolerances,
    bch_conjugation_check,
    dimer_build,
    dimer_from_coupling,
    dimer_params,
    eig_general,
    ep_scan,
    fermionic_build,
    fermionic_from_fock,
)

LOG2 = math.log(2.0)


def exact_cond_squared(kappa, gamma):
    """(kappa + |gamma|) / |kappa - |gamma||, the squared 2-norm condition number of
    the dimer's unit eigenvectors, in exact arithmetic; None at |gamma| = kappa."""
    k, g = Fraction(kappa), abs(Fraction(gamma))
    return None if k == g else (k + g) / abs(k - g)


def assert_cond_exact(kappa, grid, cond):
    """Every cond within 4 eps of the exact condition number, inf exactly at |gamma| = kappa."""
    rel = 4 * Fraction(np.finfo(float).eps)
    for gamma, c in zip(grid, cond):
        sq = exact_cond_squared(kappa, gamma)
        if sq is None:
            assert c == math.inf
        else:
            assert math.isfinite(c)
            c = Fraction(float(c))
            assert (c / (1 + rel)) ** 2 <= sq <= (c / (1 - rel)) ** 2


def floats_apart(a, b):
    """Number of float64 steps between two positive floats."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def ep_scan_reference(kappa, grid, tol=Tolerances()):
    """Per-point loop: one eig per gamma for the gap, the exact condition number,
    runs found by walking the flags."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
    gaps = np.empty(grid.size)
    conds = np.empty(grid.size)
    for i, g in enumerate(grid):
        w = np.linalg.eig(kappa * sx + 1j * g * sz)[0]
        gaps[i] = abs(w[0] - w[1])
        sq = exact_cond_squared(kappa, g)
        conds[i] = math.inf if sq is None else math.sqrt(sq)
    flags = (gaps < 1e-6 * np.sqrt(2.0 * kappa**2 + 2.0 * grid**2)) & (conds > tol.defective_cond)
    locations = []
    i = 0
    while i < grid.size:
        if flags[i]:
            j = i
            while j + 1 < grid.size and flags[j + 1]:
                j += 1
            locations.append(grid[i + np.argmin(gaps[i:j + 1])])
            i = j + 1
        else:
            i += 1
    return gaps, conds, flags, np.asarray(locations, dtype=float)


class TestDimerParams:
    def test_from_rapidity(self):
        p = dimer_params(1.0, LOG2)
        assert p.kappa == pytest.approx(1.25, abs=1e-14)
        assert p.gamma == pytest.approx(0.75, abs=1e-14)

    def test_from_coupling(self):
        p = dimer_from_coupling(1.25, 0.75)
        assert p.omega == pytest.approx(1.0, abs=1e-14)
        assert p.alpha == pytest.approx(LOG2, abs=1e-14)

    def test_round_trip(self):
        p = dimer_params(0.7, -1.3)
        q = dimer_from_coupling(p.kappa, p.gamma)
        assert q.omega == pytest.approx(p.omega, rel=1e-13)
        assert q.alpha == pytest.approx(p.alpha, rel=1e-13)

    def test_trivial_coupling(self):
        p = dimer_from_coupling(1.0, 0.0)
        assert p.omega == 1.0
        assert p.alpha == 0.0

    def test_ep_region_rejected(self):
        with pytest.raises(EPRegion):
            dimer_from_coupling(1.0, 1.0)
        with pytest.raises(EPRegion):
            dimer_from_coupling(1.0, -1.5)
        with pytest.raises(EPRegion):
            DimerParams(omega=1.0, alpha=0.0, kappa=1.0, gamma=1.0)

    def test_rapidity_beyond_float64_names_the_rounding(self):
        # cosh(20) - sinh(20) = e^-20 is below half an ulp of cosh(20)
        assert math.cosh(20.0) == math.sinh(20.0)
        for alpha in (20.0, -20.0):
            with pytest.raises(EPRegion, match=r"alpha = -?20: .* round to the same float64"):
                dimer_params(1.0, alpha)
        assert dimer_params(1.0, 18.0).kappa > dimer_params(1.0, 18.0).gamma

    def test_bad_scalars_rejected(self):
        with pytest.raises(ValueError):
            dimer_params(-1.0, 0.0)
        with pytest.raises(ValueError):
            dimer_from_coupling(0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "make,names",
        [
            (dimer_params, ("omega", "alpha")),
            (dimer_from_coupling, ("kappa", "gamma")),
            (DimerParams, ("omega", "alpha", "kappa", "gamma")),
            (FermionicParams, ("alpha", "beta", "omega")),
        ],
        ids=["dimer_params", "dimer_from_coupling", "DimerParams", "FermionicParams"],
    )
    def test_non_finite_argument_named_first(self, make, names, bad):
        # valid values elsewhere; the refusal names the non-finite argument
        # before any domain check can name another
        valid = {"omega": 0.5, "alpha": 0.5, "beta": 1.0, "kappa": 1.25, "gamma": 0.75}
        for name in names:
            values = {n: valid[n] for n in names} | {name: bad}
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
                make(**values)

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ValueError):
            DimerParams(omega=1.0, alpha=0.0, kappa=2.0, gamma=0.0)
        with pytest.raises(ValueError):
            DimerParams(omega=1.0, alpha=0.5, kappa=1.25, gamma=0.75)
        # and at a scale whose squares underflow to 0
        with pytest.raises(ValueError, match=r"^kappa\^2 - gamma\^2 = omega\^2 violated$"):
            DimerParams(omega=1e-170, alpha=0.0, kappa=5e-170, gamma=0.0)

    def test_from_rapidity_beyond_squaring(self):
        # the squares of 1e300 overflow; the check squares nothing
        p = dimer_params(1e300, 0.0)
        assert (p.omega, p.alpha, p.kappa, p.gamma) == (1e300, 0.0, 1e300, 0.0)


class TestDimerBuild:
    def test_zero_rapidity(self):
        big_h, h, dmap, theta = dimer_build(dimer_params(1.0, 0.0))
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert dmap.family == "dimer"
        assert np.allclose(h, sx)
        assert np.allclose(dmap.omega, np.eye(2))
        assert np.allclose(dmap.omega_inv, np.eye(2))
        assert np.allclose(big_h, sx)
        assert np.allclose(theta, np.eye(2))

    def test_log_two_rapidity(self):
        big_h, h, dmap, theta = dimer_build(dimer_params(1.0, LOG2))
        assert np.linalg.norm(big_h - np.array([[0.75j, 1.25], [1.25, -0.75j]])) < 1e-14
        assert np.linalg.norm(theta - np.array([[1.25, -0.75j], [0.75j, 1.25]])) < 1e-14
        ch = 3.0 / (2.0 * np.sqrt(2.0))
        sh = 1.0 / (2.0 * np.sqrt(2.0))
        assert np.linalg.norm(dmap.omega - np.array([[ch, -1j * sh], [1j * sh, ch]])) < 1e-14
        assert np.allclose(h, np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [-2.0, -0.5, 0.0, 1.0, 3.0])
    def test_mutual_consistency(self, omega, alpha):
        p = dimer_params(omega, alpha)
        big_h, h, dmap, theta = dimer_build(p)
        omega_map = dmap.omega
        scale = np.linalg.norm(big_h)
        assert np.linalg.norm(omega_map @ dmap.omega_inv - np.eye(2)) < 1e-13
        assert np.linalg.norm(omega_map @ big_h @ dmap.omega_inv - h) < 1e-12 * scale
        assert np.linalg.norm(omega_map.conj().T @ omega_map - theta) < 1e-12 * np.linalg.norm(theta)
        assert np.allclose(
            np.linalg.eigvalsh(theta),
            np.sort([np.exp(-alpha), np.exp(alpha)]),
            rtol=1e-12,
        )
        eigs = np.sort(np.linalg.eigvals(big_h).real)
        assert np.allclose(eigs, [-omega, omega], atol=1e-12 * max(scale, 1.0))


class TestBchConjugation:
    def test_zero_rapidity(self):
        rx, rz = bch_conjugation_check(0.0)
        assert rx < 1e-15
        assert rz < 1e-15

    def test_log_two(self):
        rx, rz = bch_conjugation_check(LOG2)
        assert rx < 1e-14
        assert rz < 1e-14

    def test_large_negative(self):
        rx, rz = bch_conjugation_check(-3.0)
        assert rx < 1e-12
        assert rz < 1e-12

    def test_rapidities_from_minus_five_to_five(self):
        assert max(max(bch_conjugation_check(a)) for a in np.linspace(-5.0, 5.0, 100)) <= 1e-12


class TestEpScan:
    def test_locates_the_exceptional_point(self):
        grid = 0.0 + np.arange(201) * 0.01
        report = ep_scan(1.0, grid)
        assert_cond_exact(1.0, grid, report.eigvec_cond)
        assert report.ep_locations.size == 1
        assert 0.99 <= report.ep_locations[0] <= 1.01
        assert report.is_ep[100]
        assert np.sum(report.is_ep) == 1

    def test_safe_region_is_clean(self):
        grid = np.linspace(0.05, 0.45, 41)
        report = ep_scan(1.0, grid)
        assert_cond_exact(1.0, grid, report.eigvec_cond)
        assert report.ep_locations.size == 0
        assert not report.is_ep.any()

    def test_gap_value_inside_real_phase(self):
        report = ep_scan(1.25, np.array([0.75]))
        # eigenvalues are +-omega with omega = sqrt(kappa^2 - gamma^2) = 1
        assert report.min_gap[0] == pytest.approx(2.0, abs=1e-12)
        assert report.eigvec_cond[0] < 1e3

    def test_normal_point_has_unit_condition(self):
        report = ep_scan(1.0, np.array([0.0]))
        assert report.eigvec_cond[0] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 1.6, 2.5])
    def test_locates_ep_for_varied_couplings(self, kappa):
        step = 0.01
        grid = np.arange(0.0, 2.0 * kappa + step / 2.0, step)
        report = ep_scan(kappa, grid)
        assert_cond_exact(kappa, grid, report.eigvec_cond)
        assert report.ep_locations.size == 1
        assert abs(report.ep_locations[0] - kappa) <= step + 1e-12

    @pytest.mark.parametrize("below,above", [(0, 0), (50, 0), (0, 50), (200, 300)])
    def test_matches_per_point_loop(self, below, above):
        rng = np.random.default_rng(below + above)
        kappa = 1.0 + int(rng.integers(0, 64)) / 64.0
        # Two flagged runs, {-kappa - ulp, -kappa} and {kappa, kappa + ulp},
        # split by the single unflagged point 0, with random points of the
        # broken phase around them.
        core = [np.nextafter(-kappa, -np.inf), -kappa, 0.0, kappa, np.nextafter(kappa, np.inf)]
        grid = np.concatenate([
            np.sort(rng.uniform(-2.0 * kappa, -1.01 * kappa, below)),
            core,
            np.sort(rng.uniform(1.01 * kappa, 2.0 * kappa, above)),
        ])
        tol = Tolerances(defective_cond=1e4)
        gaps, conds, flags, locations = ep_scan_reference(kappa, grid, tol)
        assert flags.tolist()[below:below + 5] == [True, True, False, True, True]
        report = ep_scan(kappa, grid, tol)
        assert np.array_equal(report.min_gap, gaps)
        assert_cond_exact(kappa, grid, report.eigvec_cond)
        assert np.array_equal(report.is_ep, flags)
        assert np.array_equal(report.ep_locations, locations)

    @given(
        log_kappa=st.floats(-3.0, 3.0),
        log_delta=st.floats(-16.0, -1.0),
        sign=st.sampled_from([1.0, -1.0]),
        side=st.sampled_from([1.0, -1.0]),
        threshold=st.sampled_from([1e4, 1e8]),
    )
    def test_near_ep_classification_agrees_with_eig_general(
        self, log_kappa, log_delta, sign, side, threshold
    ):
        # gamma = +-kappa (1 -+ delta): inside (side 1) or beyond (side -1) the EP, never on it
        kappa = 10.0**log_kappa
        gamma = sign * kappa * (1.0 - side * 10.0**log_delta)
        assume(abs(gamma) != kappa)
        tol = Tolerances(defective_cond=threshold)
        cond = ep_scan(kappa, [gamma], tol).eigvec_cond[0]
        assume(abs(cond - threshold) > 1e-6 * threshold)
        assert_cond_exact(kappa, [gamma], [cond])
        # Within two floats of +-kappa, eig_general's verdict follows zgeev's rounding of
        # the eigenvectors, not the condition of the stored matrix.
        if floats_apart(abs(gamma), kappa) <= 2:
            return
        try:
            eig_general(dimer_hamiltonian(kappa, gamma), tol)
            defective = False
        except DefectiveMatrix:
            defective = True
        assert defective == (cond > threshold)

    @given(
        log_kappa=st.floats(-150.0, 150.0),
        near=st.lists(st.tuples(st.floats(-16.0, 0.0), st.sampled_from([1.0, -1.0]),
                                st.sampled_from([1.0, -1.0])), max_size=12),
        spread=st.lists(st.floats(-3.0, 3.0, exclude_min=True, exclude_max=True), max_size=12),
        threshold=st.sampled_from([1e4, 1e8]),
    )
    def test_matches_eig_reference(self, log_kappa, near, spread, threshold):
        # gamma at +-kappa (1 +- delta), at +-kappa, at 0 and spread over (-3 kappa, 3 kappa);
        # kappa <= 1e150 keeps the reference's squares of kappa and gamma normal
        kappa = 10.0**log_kappa
        grid = np.sort(np.r_[[sign * kappa * (1.0 + side * 10.0**x) for x, sign, side in near],
                             -kappa, 0.0, kappa, kappa * np.asarray(spread)])
        tol = Tolerances(defective_cond=threshold)
        report = ep_scan(kappa, grid, tol)
        gaps, conds, flags, _ = ep_scan_reference(kappa, grid, tol)
        assert np.array_equal(report.min_gap, gaps)
        assert_cond_exact(kappa, grid, report.eigvec_cond)
        decided = np.abs(conds - threshold) > 1e-6 * threshold
        assert np.array_equal(report.is_ep[decided], flags[decided])

    @pytest.mark.parametrize("kappa", [1e-150, 1.0, 1e150])
    def test_condition_far_from_the_ep(self, kappa):
        # |gamma| >> kappa, where kappa drops out of kappa + |gamma| and the condition
        # number tends to 1
        powers = 10.0 ** np.arange(0.5, 150.5, 0.5)
        grid = kappa * np.r_[-powers[::-1], powers]
        assert_cond_exact(kappa, grid, ep_scan(kappa, grid).eigvec_cond)

    @pytest.mark.parametrize("kappa", [5e-324, 1e-300, 1e-150, 0.3, 1.0, 1.6, 1e150, 1e300,
                                       sys.float_info.max / 2])
    def test_eigvals_keep_the_bits_of_eig(self, kappa):
        # ep_scan takes its gaps from np.linalg.eigvals and relies on them being the bits
        # np.linalg.eig gave.  Both call LAPACK's zgeev, with and without eigenvectors.
        # For n = 2 the Hessenberg reduction does nothing, and zgeev hands zlahqr the same
        # balanced, scaled matrix either way; computing the Schur form as well only
        # updates entries outside the 2x2 active block, of which there are none.
        rng = np.random.default_rng(17)
        delta = 10.0 ** np.arange(-16.0, 1.0)
        with np.errstate(over="ignore"):
            grid = np.r_[kappa * (1.0 - delta), kappa * (1.0 + delta), kappa, 0.0,
                         kappa * rng.uniform(-3.0, 3.0, 200)]
        grid = np.r_[grid, -grid]
        grid = grid[np.abs(grid) <= sys.float_info.max / 2]
        hmats = kappa * SIGMA_X + 1j * grid[:, None, None] * SIGMA_Z
        assert np.linalg.eigvals(hmats).tobytes() == np.linalg.eig(hmats)[0].tobytes()

    @pytest.mark.parametrize("kappa", [5e-324, 1e-300, 1e-150, 0.3, 1.0, 1.6, 1e150, 1e300,
                                       sys.float_info.max / 2])
    def test_condition_is_exact_near_the_ep(self, kappa):
        # gamma from 8 floats below to 8 floats above +-kappa, and at +-kappa (1 +- delta)
        steps = [kappa]
        for _ in range(8):
            steps = [np.nextafter(steps[0], 0.0), *steps, np.nextafter(steps[-1], math.inf)]
        delta = 10.0 ** np.arange(-16.0, 0.0)
        grid = np.r_[steps, kappa * (1.0 - delta), kappa * (1.0 + delta)]
        grid = grid[grid <= sys.float_info.max / 2]
        grid = np.sort(np.r_[-grid, grid])
        assert_cond_exact(kappa, grid, ep_scan(kappa, grid).eigvec_cond)

    def test_needs_no_eigenvectors_from_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ep_scan called np.linalg.eig")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        report = ep_scan(1.0, 0.0 + np.arange(201) * 0.01)
        assert report.is_ep.tolist() == [i == 100 for i in range(201)]

    @pytest.mark.parametrize("kappa", [5e-324, 1e-300, 1e-200, 1e-154, 1.0, 1e154, 1e200, 1e300,
                                       sys.float_info.max / 2])
    def test_flags_the_ep_over_the_whole_range(self, kappa):
        # no square of kappa or gamma is taken unscaled, so nothing over- or underflows
        report = ep_scan(kappa, [-kappa, 0.0, 0.5 * kappa, kappa])
        assert_cond_exact(kappa, report.parameter_grid, report.eigvec_cond)
        assert report.is_ep.tolist() == [True, False, False, True]
        assert report.ep_locations.tolist() == [-kappa, kappa]

    @given(log_kappa=st.floats(-100.0, 100.0), seed=st.integers(0, 2**32 - 1))
    def test_flags_match_the_unscaled_threshold(self, log_kappa, seed):
        # where no square over- or underflows, the flags are those of the plain formula
        kappa = 10.0**log_kappa
        rng = np.random.default_rng(seed)
        grid = np.sort(np.r_[kappa * rng.uniform(-1.5, 1.5, 20), -kappa, kappa])
        report = ep_scan(kappa, grid)
        assert_cond_exact(kappa, grid, report.eigvec_cond)
        scale = np.sqrt(2.0 * kappa**2 + 2.0 * grid**2)
        expected = (report.min_gap < 1e-6 * scale) & (report.eigvec_cond > 1e8)
        assert report.is_ep.tolist() == expected.tolist()

    def test_gap_beyond_the_float_range_refused(self):
        half = sys.float_info.max / 2
        for kappa, grid in ((np.nextafter(half, math.inf), [0.0]), (1.0, [0.0, 1e308])):
            with pytest.raises(ValueError, match=r"^kappa and \|gamma\| must not exceed half"):
                ep_scan(kappa, grid)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ep_scan(0.0, np.array([0.1]))
        with pytest.raises(ValueError):
            ep_scan(1.0, np.array([]))
        with pytest.raises(ValueError):
            ep_scan(1.0, np.array([0.2, 0.1]))
        for kappa in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="^kappa must be positive and finite$"):
                ep_scan(kappa, [0.0, 1.0])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^gamma_grid entries must be finite$"):
                ep_scan(1.0, [0.0, bad])


class TestFermionicParams:
    def test_derived_quantities(self):
        p = FermionicParams(alpha=4.0, beta=1.0, omega=0.3)
        assert p.sqrt_ab == pytest.approx(2.0)
        assert p.det_D == pytest.approx(-1.0)

    def test_coupling_sign_rejected(self):
        with pytest.raises(InvalidCoupling):
            FermionicParams(alpha=1.0, beta=-1.0, omega=0.5)
        with pytest.raises(InvalidCoupling):
            FermionicParams(alpha=0.0, beta=1.0, omega=0.5)

    def test_omega_window(self):
        with pytest.raises(ValueError):
            FermionicParams(alpha=1.0, beta=1.0, omega=0.0)
        with pytest.raises(ValueError):
            FermionicParams(alpha=1.0, beta=1.0, omega=1.0)
        with pytest.raises(ValueError):
            FermionicParams(alpha=1.0, beta=1.0, omega=1.5)

    def test_singular_determinant_rejected(self):
        root5 = math.sqrt(5.0)
        with pytest.raises(SingularDysonMap):
            FermionicParams(alpha=(3.0 + root5) / 2.0, beta=(3.0 - root5) / 2.0, omega=0.5)

    @pytest.mark.parametrize("alpha,beta", [(1e300, 1e300), (-1e300, -1e300), (1e200, 1e100)])
    def test_overflowing_closed_forms_rejected(self, alpha, beta):
        # alpha beta or D leaves the float range; the D gate alone would let a NaN through
        with pytest.raises(OverflowError):
            FermionicParams(alpha=alpha, beta=beta, omega=0.3)


class TestFermionicBuild:
    def test_reference_point_entries(self):
        p = FermionicParams(alpha=4.0, beta=1.0, omega=0.3)
        big_h, h, dmap, theta = fermionic_build(p)
        assert dmap.family == "fermion"
        assert big_h[0, 3] == 4.0 and big_h[3, 0] == 1.0
        assert np.allclose(np.diag(big_h), [0.0, 0.3, 0.7, 1.0])
        assert h[0, 3] == 2.0 and h[3, 0] == 2.0
        assert dmap.omega_inv[0, 3] == 2.0 and dmap.omega_inv[3, 0] == 1.0
        assert np.allclose(np.diag(theta).real, [2.0, 1.0, 1.0, 5.0])
        assert theta[0, 3] == pytest.approx(-3.0)
        assert theta[3, 0] == pytest.approx(-3.0)

    def test_reference_point_energies(self):
        p = FermionicParams(alpha=4.0, beta=1.0, omega=0.3)
        big_h, h, _map, _theta = fermionic_build(p)
        lo = (1.0 - math.sqrt(17.0)) / 2.0
        hi = (1.0 + math.sqrt(17.0)) / 2.0
        assert np.allclose(np.sort(np.linalg.eigvals(big_h).real), [lo, 0.3, 0.7, hi], atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(h), [lo, 0.3, 0.7, hi], atol=1e-12)

    def test_equal_couplings_collapse_to_hermitian(self):
        p = FermionicParams(alpha=1.5, beta=1.5, omega=0.25)
        big_h, h, dmap, theta = fermionic_build(p)
        assert np.allclose(big_h, h)
        assert np.allclose(dmap.omega, np.eye(4))
        assert np.allclose(dmap.omega_inv, np.eye(4))
        assert np.allclose(theta, np.eye(4))

    @pytest.mark.parametrize(
        "alpha,beta,omega",
        [(4.0, 1.0, 0.3), (2.0, 0.5, 0.7), (-1.0, -2.0, 0.5), (1.5, 1.5, 0.25), (0.3, 0.9, 0.6)],
    )
    def test_mutual_consistency(self, alpha, beta, omega):
        p = FermionicParams(alpha=alpha, beta=beta, omega=omega)
        big_h, h, dmap, theta = fermionic_build(p)
        omega_map, omega_inv = dmap.omega, dmap.omega_inv
        assert np.linalg.norm(omega_map @ omega_inv - np.eye(4)) < 1e-13
        scale = np.linalg.norm(big_h)
        assert np.linalg.norm(omega_map @ big_h @ omega_inv - h) < 1e-12 * scale
        assert np.linalg.norm(omega_map.conj().T @ omega_map - theta) < 1e-12 * np.linalg.norm(theta)
        # metric intertwines H and the twin spectra agree
        res = big_h.conj().T @ theta - theta @ big_h
        assert np.linalg.norm(res) < 1e-12 * scale * np.linalg.norm(theta)
        assert np.allclose(
            np.sort(np.linalg.eigvals(big_h).real), np.linalg.eigvalsh(h), atol=1e-11 * scale
        )
        assert np.min(np.linalg.eigvalsh(theta)) > 0


class TestFermionicFromFock:
    def test_matches_closed_form(self):
        p = FermionicParams(alpha=4.0, beta=1.0, omega=0.3)
        big_h, _h, _map, _theta = fermionic_build(p)
        assert np.max(np.abs(fermionic_from_fock(p) - big_h)) <= 1e-15

    @pytest.mark.parametrize(
        "alpha,beta,omega",
        [(2.0, 0.5, 0.7), (-1.0, -2.0, 0.5), (1.5, 1.5, 0.25), (0.3, 0.9, 0.6)],
    )
    def test_matches_closed_form_grid(self, alpha, beta, omega):
        p = FermionicParams(alpha=alpha, beta=beta, omega=omega)
        big_h, _h, _map, _theta = fermionic_build(p)
        assert np.max(np.abs(fermionic_from_fock(p) - big_h)) <= 1e-15

    def test_operator_actions_on_basis_states(self):
        p = FermionicParams(alpha=4.0, beta=1.0, omega=0.3)
        h = fermionic_from_fock(p)
        # pair creation out of the vacuum, pair annihilation out of |11>
        assert np.allclose(h[:, 0], [0.0, 0.0, 0.0, 1.0])
        assert np.allclose(h[:, 3], [4.0, 0.0, 0.0, 1.0])
        # singly occupied states only pick up their mode energy
        assert np.allclose(h[:, 1], [0.0, 0.3, 0.0, 0.0])
        assert np.allclose(h[:, 2], [0.0, 0.0, 0.7, 0.0])
