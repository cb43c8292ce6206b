import math
import sys
import threading
import tracemalloc
import warnings

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
    QuasihermError,
    SingularInput,
    Tolerances,
    eig_general,
    evolve_norm_check,
    herm_exp,
    hermitize,
    polar_decompose,
    solve_schrodinger_pair,
)
from quasiherm.linalg import _normalize_columns, fro, hermiticity_residual
from quasiherm.observables import shared_metric

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
        # an infinite gate waives the condition test, not the inverse
        for tol in (Tolerances(), Tolerances(defective_cond=np.inf)):
            with pytest.raises(DefectiveMatrix, match="^eigenvector basis is singular$"):
                eig_general(jordan, tol)
            with pytest.raises(DefectiveMatrix, match="^eigenvector basis is singular$"):
                hermitize(jordan, tol=tol)

    def test_basis_whose_metric_overflows_raises(self):
        # the Jordan block's basis inverts with entries near 1e292: Omega† Omega
        # would overflow, so an infinite gate still refuses it, before any warning
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        tol = Tolerances(defective_cond=np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (eig_general, hermitize):
                with pytest.raises(DefectiveMatrix, match=r"condition bound 9\.\d{3}e\+291 exceeds"):
                    call(jordan, tol=tol)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            eig_general(np.ones((2, 3)))
        with pytest.raises(ValueError):
            eig_general(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "call",
        [eig_general, hermitize, herm_exp, polar_decompose, lambda h: shared_metric(h, h)],
        ids=["eig_general", "hermitize", "herm_exp", "polar_decompose", "shared_metric"],
    )
    def test_rejects_empty_matrix(self, call):
        with pytest.raises(ValueError, match=r"shape \(0, 0\)"):
            call(np.zeros((0, 0)))

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


# hermitize on this matrix replaces whatever eigensystem hermitize has kept.
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


def _eigensystem(system):
    return system.energies, system.right_kets, system.left_kets


def _held_bytes(arrays):
    # each distinct buffer once: views share their base's
    bases = {id(b): b for b in (x if x.base is None else x.base for x in arrays)}
    return sum(b.nbytes for b in bases.values())


def _assert_read_only(arrays):
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0


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
    # hermitize keeps the eigensystem it computed for the next call only;
    # eig_general and every other caller keep nothing
    def test_next_call_on_same_matrix_factors_once(self, rng, monkeypatch):
        h, _energies, _s = random_real_spectrum(rng, 6)
        k = random_k_diag(rng, 6)
        hermitize(EVICT)
        calls = _count_eig(monkeypatch)
        _sys, _dmap, metric, _avatar, _report = hermitize(h)
        hermitize(h, k_diag=k)
        assert len(calls) == 1
        # evolve_norm_check factors for itself, every time
        for expected in (2, 3):
            evolve_norm_check(h, metric, np.ones(6), np.linspace(0.0, 1.0, 5))
            assert len(calls) == expected
        # the hit released the kept system
        hermitize(h)
        hermitize(h, k_diag=k)
        assert len(calls) == 4
        hermitize(random_real_spectrum(rng, 6)[0])
        assert len(calls) == 5

    def test_eig_general_factors_every_call_and_keeps_nothing(self, rng, monkeypatch):
        # beyond its result a call leaves nothing allocated: a kept entry's
        # n²·16 B key alone would show as one unit
        n = 128
        unit = n * n * 16
        h = np.ascontiguousarray(random_real_spectrum(rng, n, cond_cap=1e3)[0], dtype=complex)
        calls = _count_eig(monkeypatch)
        first = eig_general(h)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = eig_general(h)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(calls) == 2
        assert not any(x is y for x, y in zip(result, first))
        assert _bits(result) == _bits(first)
        assert current - base - _held_bytes(result) <= 0.1 * unit
        assert peak - base <= 4.5 * unit

    def test_other_callers_between_calls_keep_the_entry(self, rng, monkeypatch):
        h, _energies, _s = random_real_spectrum(rng, 6)
        p = random_real_spectrum(rng, 4)[0]
        hermitize(EVICT)
        calls = _count_eig(monkeypatch)
        _sys, _dmap, metric, _avatar, _report = hermitize(h)
        shared_metric(p, p @ p)
        evolve_norm_check(h, metric, np.ones(6), np.linspace(0.0, 1.0, 5))
        eig_general(h)
        before = len(calls)
        hermitize(h, k_diag=random_k_diag(rng, 6))
        assert len(calls) == before

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
        k = random_k_diag(rng, 16)
        hermitize(EVICT)
        calls = _count_eig(monkeypatch)
        plain = _hermitize_bits(h, None, Tolerances())
        hit = _hermitize_bits(h, k, Tolerances())
        assert len(calls) == 1
        hermitize(EVICT)
        fresh = _hermitize_bits(h, k, Tolerances())
        assert len(calls) == 3
        assert hit == fresh
        assert hit[0][:3] == plain[0][:3]
        # left is the conjugate transpose of inv(V): F-ordered on every path
        assert hit[0][2][2]

    def test_mutating_results_leaves_memo_intact(self, rng):
        # every write into the kept system is refused, so no call sees another's bits
        h, _energies, _s = random_real_spectrum(rng, 5)
        hermitize(EVICT)
        fresh = _hermitize_bits(h, None, Tolerances())
        hermitize(EVICT)
        system, dmap, metric, avatar, _report = hermitize(h)
        _assert_read_only([*_eigensystem(system), dmap.omega_inv])
        for x in (dmap.omega, metric.theta, avatar):
            x[...] = 2  # a fresh array, which no other call holds
        assert _hermitize_bits(h, None, Tolerances()) == fresh

    def test_hit_returns_the_objects_of_the_miss(self, rng):
        h, _energies, _s = random_real_spectrum(rng, 6)
        hermitize(EVICT)
        miss = hermitize(h)[0]
        assert hermitize(h, k_diag=random_k_diag(rng, 6))[0] is miss
        again = hermitize(h)[0]
        assert again is not miss
        assert not any(x is y for x, y in zip(_eigensystem(again), _eigensystem(miss)))
        assert _bits(_eigensystem(again)) == _bits(_eigensystem(miss))

    def test_eigensystem_is_read_only_everywhere_it_is_handed_out(self, rng):
        h, _energies, _s = random_real_spectrum(rng, 4)
        w, v, left = eig_general(h)
        _assert_read_only([w, v, left, left.base])
        system, dmap, metric, avatar, _report = hermitize(h)
        _assert_read_only([*_eigensystem(system), dmap.omega_inv])
        assert dmap.family == "I" and dmap.omega_inv is system.right_kets
        # the map, metric and avatar are fresh arrays and stay writeable
        for x in (dmap.omega, metric.theta, avatar):
            assert x.flags.writeable
        kmap = hermitize(h, k_diag=random_k_diag(rng, 4))[1]
        assert kmap.omega.flags.writeable and kmap.omega_inv.flags.writeable

    def test_memo_keeps_only_its_key(self, rng):
        # beyond the caller's arrays a miss leaves only its entry's n²·16 B key
        n = 128
        unit = n * n * 16
        h = np.ascontiguousarray(random_real_spectrum(rng, n, cond_cap=1e3)[0], dtype=complex)
        hermitize(EVICT)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            system, dmap, metric, avatar, report = hermitize(h)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        held = _held_bytes(
            [*_eigensystem(system), dmap.omega, metric.theta, metric.eigenvalues, avatar, report.energies]
        )
        assert current - base - held <= 1.1 * unit

    def test_stricter_gates_still_raise_on_a_kept_matrix(self, monkeypatch):
        # any other Tolerances is another key, so each call runs its own gates
        h = dimer_hamiltonian(1.0, 0.99)  # cond(V) is about 14.1
        hermitize(EVICT)
        calls = _count_eig(monkeypatch)
        hermitize(h)
        with pytest.raises(DefectiveMatrix):
            hermitize(h, tol=Tolerances(defective_cond=10.0))
        assert len(calls) == 2
        # imaginary parts of 1e-12 pass the default reality gate only
        z = np.diag([1.0 + 1e-12j, -1.0])
        hermitize(z)
        with pytest.raises(ComplexSpectrum):
            hermitize(z, tol=Tolerances(reality_rel=1e-14))
        assert len(calls) == 4

    def test_signed_zero_is_a_separate_key(self, monkeypatch):
        plus = np.array([[1.0, 0.0], [0.5, 2.0]])
        minus = np.array([[1.0, -0.0], [0.5, 2.0]])
        hermitize(EVICT)
        calls = _count_eig(monkeypatch)
        hermitize(plus)
        hermitize(minus)
        hermitize(plus)
        assert len(calls) == 3

    def test_fortran_input_matches_c_copy(self, rng, monkeypatch):
        h, _energies, _s = random_real_spectrum(rng, 12)
        c, f = np.ascontiguousarray(h), np.asfortranarray(h)
        hermitize(EVICT)
        c_bits = _bits(_eigensystem(hermitize(c)[0]))
        hermitize(EVICT)
        assert _bits(_eigensystem(hermitize(f)[0])) == c_bits
        # both layouts have one key, so the F-ordered miss serves the C-ordered call
        calls = _count_eig(monkeypatch)
        assert _bits(_eigensystem(hermitize(c)[0])) == c_bits
        assert calls == []

    def test_threads_never_see_another_matrix_result(self, rng):
        # more threads than cores, switching often, on two alternating keys
        hs = [random_real_spectrum(rng, 4)[0] for _ in range(2)]
        expected = []
        for h in hs:
            hermitize(EVICT)
            expected.append(_bits(_eigensystem(hermitize(h)[0])))
        mismatches, written, finished = [], [], []

        def worker(index):
            for _ in range(200):
                which = index % 2
                system = _eigensystem(hermitize(hs[which])[0])
                if _bits(system) != expected[which]:
                    mismatches.append(which)
                # a write that went through would reach a thread handed the same arrays
                for x in system:
                    try:
                        x[...] = 0
                    except ValueError:
                        continue
                    written.append(which)
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
        assert mismatches == [] and written == []

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
                    hermitize(EVICT)
                try:
                    outcomes.append(_hermitize_bits(*args))
                except QuasihermError as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1]


class TestFro:
    def test_bits_match_numpy_norm_in_range(self, rng):
        for n in (1, 2, 5, 16, 64):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for a in (m, 1e-100 * m, 1e100 * m, m.conj().T, m[:, : (n + 1) // 2], m.real):
                assert fro(a) == float(np.linalg.norm(a))

    @pytest.mark.parametrize("k", [-1000, -600, -520, 520, 600, 1000, 1020])
    def test_power_of_two_scaling_is_exact(self, rng, k):
        # the largest entry part in [1/2, 1), so the copy that fro scales back
        # into range is m itself
        m = rng.uniform(-1.0, 1.0, (3, 3)) + 1j * rng.uniform(-1.0, 1.0, (3, 3))
        m /= 2.0 ** math.frexp(max(np.abs(m.real).max(), np.abs(m.imag).max()))[1]
        assert fro(2.0**k * m) == 2.0**k * fro(m)

    def test_limits(self):
        assert fro(np.zeros((2, 2))) == 0.0
        assert fro(np.array([[5e-324]])) == 5e-324
        assert fro(np.array([[1e308, 1e308j]])) == 1e308 * math.sqrt(2.0)
        assert fro(np.full((2, 2), 1e308)) == math.inf


class TestHermiticityResidual:
    def test_values(self):
        assert hermiticity_residual(np.zeros((2, 2))) == 0.0
        assert hermiticity_residual(DIMER_THETA) == 0.0
        assert hermiticity_residual(np.array([[0.0, 1.0], [0.0, 0.0]])) == np.sqrt(2.0)


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
