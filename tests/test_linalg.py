import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dimer_hamiltonian,
    random_hermitian,
    random_k_diag,
    random_real_spectrum,
    random_unitary,
)
from quasiherm import (
    ComplexSpectrum,
    DefectiveMatrix,
    NotHermitian,
    NotPositiveDefinite,
    QuasihermError,
    SingularInput,
    Tolerances,
    eig_general,
    evolve_norm_check,
    herm_exp,
    herm_sqrt,
    hermitize,
    polar_decompose,
    solve_schrodinger_pair,
)
from quasiherm.linalg import _normalize_columns, hermiticity_residual

DIMER_H = np.array([[0.75j, 1.25], [1.25, -0.75j]])
DIMER_THETA = np.array([[1.25, -0.75j], [0.75j, 1.25]])


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.residual_rel == 1e-10
        assert tol.reality_rel == 1e-9
        assert tol.positivity_rel == 1e-12
        assert tol.defective_cond == 1e8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerances(residual_rel=0.0)
        with pytest.raises(ValueError):
            Tolerances(defective_cond=-1.0)


class TestEigGeneral:
    def test_dimer_spectrum(self):
        w, v, u = eig_general(DIMER_H)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
        assert np.linalg.norm(DIMER_H @ v - v @ np.diag(w)) < 1e-12
        assert np.linalg.norm(u.conj().T @ v - np.eye(2)) < 1e-13

    def test_left_vectors_solve_adjoint_problem(self):
        w, _v, u = eig_general(DIMER_H)
        # H† u_n = conj(E_n) u_n, and the spectrum here is real
        res = DIMER_H.conj().T @ u - u @ np.diag(w.conj())
        assert np.linalg.norm(res) < 1e-12 * np.linalg.norm(u)

    def test_identity(self):
        w, v, u = eig_general(np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.allclose(u.conj().T @ v, np.eye(3), atol=1e-14)

    def test_ordering_real_then_imag(self):
        # exact real-part tie, so the imaginary part decides
        w, _v, _u = eig_general(np.diag([1.0j, -1.0j]))
        assert w[0].imag < w[1].imag
        m = np.diag([3.0, -1.0, 2.0])
        w, _v, _u = eig_general(m)
        assert np.allclose(w, [-1.0, 2.0, 3.0])

    def test_phase_convention(self):
        _w, v, _u = eig_general(DIMER_H)
        for j in range(v.shape[1]):
            col = v[:, j]
            lead = col[np.argmax(np.abs(col))]
            assert lead.real > 0
            assert abs(lead.imag) < 1e-15
            assert abs(np.linalg.norm(col) - 1.0) < 1e-14

    def test_deterministic(self):
        w1, v1, u1 = eig_general(DIMER_H)
        w2, v2, u2 = eig_general(DIMER_H)
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)
        assert np.array_equal(u1, u2)

    def test_normalization_matches_per_column_loop(self, rng):
        # the per-column reference the vectorized phase step must reproduce bit for bit
        def reference(v):
            v = v.copy()
            for j in range(v.shape[1]):
                col = v[:, j] / np.linalg.norm(v[:, j])
                lead = col[np.argmax(np.abs(col))]
                v[:, j] = col * (lead.conjugate() / abs(lead))
            return v

        # equal-magnitude entries: the first maximal index must lead
        ties = np.array([[1.0, 1.0j, -1.0], [1.0j, 1.0, 1.0j], [-1.0, 1.0, 0.0]])
        bases = [np.linalg.eig(random_real_spectrum(rng, n, cond_cap=1e3)[0])[1] for n in (2, 5, 16, 64)]
        for v in [ties] + bases:
            assert _normalize_columns(v).tobytes() == reference(v).tobytes()

    def test_jordan_block_raises(self):
        with pytest.raises(DefectiveMatrix):
            eig_general(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_exceptional_point_raises(self):
        with pytest.raises(DefectiveMatrix):
            eig_general(np.array([[1.0j, 1.0], [1.0, -1.0j]]))

    def test_exactly_singular_basis_raises(self):
        # zgeev returns a right basis with a zero row for this nilpotent block,
        # so inv(V) fails outright; that is a defective basis, not a LAPACK error
        jordan = np.diag([1.0, 1.0], k=1)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.linalg.eig(jordan)[1])
        with pytest.raises(DefectiveMatrix):
            eig_general(jordan)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            eig_general(np.ones((2, 3)))
        with pytest.raises(ValueError):
            eig_general(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_random_suite_reconstruction(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            h, energies, _s = random_real_spectrum(rng, n)
            w, v, u = eig_general(h)
            scale = np.linalg.norm(h)
            assert np.allclose(w.real, energies, atol=1e-10 * scale)
            assert np.linalg.norm(h @ v - v @ np.diag(w)) < 1e-11 * scale
            assert np.linalg.norm(u.conj().T @ v - np.eye(n)) < 1e-12
            rebuilt = v @ np.diag(w) @ u.conj().T
            assert np.linalg.norm(rebuilt - h) < 1e-10 * scale


class TestDefectivenessGate:
    # ||V||_F ||V^-1||_F decides most calls without an SVD; the verdict must
    # still be exactly "cond(V) > defective_cond".
    def test_matches_two_norm_condition(self, monkeypatch):
        cond = np.linalg.cond
        exact_calls = []

        def counted_cond(v):
            exact_calls.append(1)
            return cond(v)

        monkeypatch.setattr(np.linalg, "cond", counted_cond)
        gammas = np.append(1.0 - np.logspace(-16, 0, 33), 1.0)
        for limit in (1e2, 1e4, 1e8):
            tol = Tolerances(defective_cond=limit)
            outcomes = set()
            for gamma in gammas:
                h = dimer_hamiltonian(1.0, gamma)
                try:
                    basis = eig_general(h, Tolerances(defective_cond=1e300))[1]
                    expected = not cond(basis) <= limit
                except DefectiveMatrix:
                    expected = True
                before = len(exact_calls)
                try:
                    eig_general(h, tol)
                    raised = False
                except DefectiveMatrix:
                    raised = True
                assert raised == expected, (limit, gamma)
                outcomes.add((len(exact_calls) > before, raised))
            # fast accept, accept after the SVD, and reject all occur
            assert outcomes == {(False, False), (True, False), (True, True)}, limit


# Factoring this matrix replaces whatever eig_general has kept.
EVICT = np.diag([1.0, 2.0, 3.0])


def _count_eig(monkeypatch):
    calls = []
    eig = np.linalg.eig

    def counted(a):
        calls.append(1)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    return calls


def _bits(arrays):
    return [(x.tobytes(), x.flags.c_contiguous, x.flags.f_contiguous) for x in arrays]


def _hermitize_bits(h, k, tol):
    system, dmap, metric, avatar, report = hermitize(h, k_diag=k, tol=tol)
    arrays = (
        system.energies, system.right_kets, system.left_kets, dmap.omega, dmap.omega_inv,
        metric.theta, metric.eigenvalues, avatar, report.energies,
    )
    scalars = (
        report.residual_quasi_herm, report.residual_avatar_herm,
        report.residual_isospectral, report.metric_condition, report.passed,
    )
    return _bits(arrays), scalars


class TestEigMemo:
    def test_next_call_on_same_matrix_factors_once(self, rng, monkeypatch):
        h, _energies, _s = random_real_spectrum(rng, 6)
        eig_general(EVICT)
        calls = _count_eig(monkeypatch)
        _sys, _dmap, metric, _avatar, _report = hermitize(h)
        hermitize(h, k_diag=random_k_diag(rng, 6))
        assert len(calls) == 1
        # the hit released the kept factorization
        evolve_norm_check(h, metric, np.ones(6), np.linspace(0.0, 1.0, 5))
        assert len(calls) == 2
        evolve_norm_check(h, metric, np.ones(6), np.linspace(0.0, 1.0, 5))
        assert len(calls) == 2
        hermitize(random_real_spectrum(rng, 6)[0])
        assert len(calls) == 3

    def test_state_after_a_hit_is_independent_of_history(self, rng, monkeypatch):
        # whichever draw a plain/k_diag round ends on, the next round's first
        # call factors, so call counts repeat however many rounds ran before
        hs = [random_real_spectrum(rng, 4)[0] for _ in range(3)]
        for last in range(3):
            for h in hs[: last + 1]:
                hermitize(h)
                hermitize(h, k_diag=random_k_diag(rng, 4))
            with monkeypatch.context() as patch:
                calls = _count_eig(patch)
                hermitize(hs[0])
                assert len(calls) == 1

    def test_hit_matches_fresh_bits(self, rng, monkeypatch):
        h, _energies, _s = random_real_spectrum(rng, 16, cond_cap=1e3)
        eig_general(EVICT)
        calls = _count_eig(monkeypatch)
        fresh = _bits(eig_general(h))
        hit = _bits(eig_general(h))
        assert len(calls) == 1
        eig_general(EVICT)
        again = _bits(eig_general(h))
        assert len(calls) == 3
        assert hit == fresh == again
        # left is the conjugate transpose of inv(V): F-ordered on every path
        assert hit[2][2]

    def test_mutating_results_leaves_memo_intact(self, rng):
        h, _energies, _s = random_real_spectrum(rng, 5)
        first = eig_general(h)
        expected = _bits(first)
        for x in first:
            x[...] = 0
        second = eig_general(h)
        assert _bits(second) == expected
        for x in second:
            x[...] = 0
        third = eig_general(h)
        assert _bits(third) == expected
        for x in third:
            x[...] = 0
        assert _bits(eig_general(h)) == expected
        system, dmap, _metric, _avatar, _report = hermitize(h)
        before = _hermitize_bits(h, None, Tolerances())
        system.right_kets[...] = 0
        dmap.omega_inv[...] = 1
        dmap.omega[...] = 2
        assert _hermitize_bits(h, None, Tolerances()) == before

    def test_stricter_gates_still_raise_on_a_kept_matrix(self, monkeypatch):
        # cond(V) of this dimer is about 14.1
        h = dimer_hamiltonian(1.0, 0.99)
        eig_general(EVICT)
        calls = _count_eig(monkeypatch)
        eig_general(h)
        with pytest.raises(DefectiveMatrix):
            eig_general(h, Tolerances(defective_cond=10.0))
        assert len(calls) == 2
        # imaginary parts of 1e-12 pass the default reality gate only
        z = np.diag([1.0 + 1e-12j, -1.0])
        solve_schrodinger_pair(z)
        before = len(calls)
        with pytest.raises(ComplexSpectrum):
            solve_schrodinger_pair(z, Tolerances(reality_rel=1e-14))
        assert len(calls) == before

    def test_signed_zero_is_a_separate_key(self, monkeypatch):
        plus = np.array([[1.0, 0.0], [0.5, 2.0]])
        minus = np.array([[1.0, -0.0], [0.5, 2.0]])
        eig_general(EVICT)
        calls = _count_eig(monkeypatch)
        eig_general(plus)
        eig_general(minus)
        eig_general(plus)
        assert len(calls) == 3

    def test_fortran_input_matches_c_copy(self, rng):
        h, _energies, _s = random_real_spectrum(rng, 12)
        eig_general(EVICT)
        c_bits = _bits(eig_general(np.ascontiguousarray(h)))
        eig_general(EVICT)
        assert _bits(eig_general(np.asfortranarray(h))) == c_bits
        assert _bits(eig_general(np.ascontiguousarray(h))) == c_bits

    def test_threads_never_see_another_matrix_result(self, rng):
        # more threads than cores, switching often, on two alternating keys
        hs = [random_real_spectrum(rng, 4)[0] for _ in range(2)]
        expected = []
        for h in hs:
            eig_general(EVICT)
            expected.append(_bits(eig_general(h)))
        mismatches, finished = [], []

        def worker(index):
            for _ in range(200):
                which = index % 2
                result = eig_general(hs[which])
                if _bits(result) != expected[which]:
                    mismatches.append(which)
                # a thread handed the same arrays would see these zeros
                for x in result:
                    x[...] = 0
                index += 1
            finished.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(finished) == len(threads)
        assert mismatches == []

    @settings(max_examples=50)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        calls=st.lists(
            st.tuples(
                st.integers(0, 1),
                st.booleans(),
                st.sampled_from([30.0, 1e3, 1e8]),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_any_call_sequence_matches_evicted_recompute(self, seed, n, calls):
        rng = np.random.default_rng(seed)
        hs = [random_real_spectrum(rng, n)[0] for _ in range(2)]
        k = random_k_diag(rng, n)
        for which, with_k, cond in calls:
            args = (hs[which], k if with_k else None, Tolerances(defective_cond=cond))
            outcomes = []
            for evict in (False, True):
                if evict:
                    eig_general(EVICT)
                try:
                    outcomes.append(_hermitize_bits(*args))
                except QuasihermError as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1]


class TestHermiticityResidual:
    def test_values(self):
        assert hermiticity_residual(np.zeros((2, 2))) == 0.0
        assert hermiticity_residual(DIMER_THETA) == 0.0
        assert hermiticity_residual(np.array([[0.0, 1.0], [0.0, 0.0]])) == np.sqrt(2.0)


class TestHermSqrt:
    def test_identity(self):
        assert np.allclose(herm_sqrt(np.eye(3)), np.eye(3), atol=1e-15)

    def test_dimer_metric(self):
        root = herm_sqrt(DIMER_THETA)
        assert np.linalg.norm(root @ root - DIMER_THETA) < 1e-14
        assert np.allclose(
            np.linalg.eigvalsh(root), [1.0 / np.sqrt(2.0), np.sqrt(2.0)], atol=1e-14
        )
        assert np.linalg.norm(root - root.conj().T) < 1e-15

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            herm_sqrt(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            herm_sqrt(np.zeros((2, 2)))

    def test_non_hermitian_raises(self):
        with pytest.raises(NotHermitian):
            herm_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_random_against_schur_oracle(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            p = g.conj().T @ g + np.eye(n)
            root = herm_sqrt(p)
            assert np.linalg.norm(root @ root - p) < 1e-12 * np.linalg.norm(p)
            oracle = scipy.linalg.sqrtm(p)
            assert np.linalg.norm(root - oracle) < 1e-10 * np.linalg.norm(p)


class TestPolarDecompose:
    def test_unitary_input(self, rng):
        q = random_unitary(rng, 4)
        w, p = polar_decompose(q)
        assert np.linalg.norm(w - q) < 1e-12
        assert np.linalg.norm(p - np.eye(4)) < 1e-12

    def test_positive_definite_input(self):
        w, p = polar_decompose(DIMER_THETA)
        assert np.linalg.norm(w - np.eye(2)) < 1e-12
        assert np.linalg.norm(p - DIMER_THETA) < 1e-12

    def test_singular_raises(self):
        with pytest.raises(SingularInput):
            polar_decompose(np.diag([1.0, 0.0]))

    def test_singular_message_names_value_and_gate(self):
        with pytest.raises(SingularInput, match=r"s_min\^2 1\.000e-16 at or below 1e-12 \* 1\.000e\+00"):
            polar_decompose(np.diag([1.0, 1e-8]))

    def test_random_against_svd_oracle(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = m + 0.5 * np.eye(n)
            w, p = polar_decompose(m)
            scale = np.linalg.norm(m)
            assert np.linalg.norm(w.conj().T @ w - np.eye(n)) < 1e-12
            assert np.linalg.norm(w @ p - m) < 1e-12 * scale
            w_ref, p_ref = scipy.linalg.polar(m, side="right")
            assert np.linalg.norm(w - w_ref) < 1e-10
            assert np.linalg.norm(p - p_ref) < 1e-10 * scale


class TestHermExp:
    def test_zero_scale(self):
        assert np.allclose(herm_exp(random_hermitian(np.random.default_rng(1), 3), 0.0), np.eye(3))

    def test_sigma_y_half_log_two(self):
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        out = herm_exp(sy, 0.5 * np.log(2.0))
        ch = 3.0 / (2.0 * np.sqrt(2.0))
        sh = 1.0 / (2.0 * np.sqrt(2.0))
        expected = np.array([[ch, -1j * sh], [1j * sh, ch]])
        assert np.linalg.norm(out - expected) < 1e-14

    def test_eigenvalues_exponentiate(self):
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        for alpha in (-2.0, 0.3, 1.7):
            lam = np.linalg.eigvalsh(herm_exp(sy, alpha))
            assert np.allclose(lam, np.sort([np.exp(-alpha), np.exp(alpha)]), atol=1e-12)

    def test_inverse_pairing(self, rng):
        s = random_hermitian(rng, 4)
        prod = herm_exp(s, 0.7) @ herm_exp(s, -0.7)
        assert np.linalg.norm(prod - np.eye(4)) < 1e-12

    def test_non_hermitian_raises(self):
        with pytest.raises(NotHermitian):
            herm_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_random_against_expm_oracle(self, rng):
        for _ in range(5):
            s = random_hermitian(rng, 5)
            out = herm_exp(s, 0.9)
            oracle = scipy.linalg.expm(0.9 * s)
            assert np.linalg.norm(out - oracle) < 1e-11 * np.linalg.norm(oracle)
