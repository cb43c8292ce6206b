"""End-to-end acceptance checks, one test per criterion.

Criterion 2 (the BCH identities) is `test_models.py::TestBchConjugation`.
"""

import json
import time

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from families import (
    DIMER_H,
    DIMER_THETA,
    dimer_hamiltonian,
    random_hermitian,
    random_k_diag,
    random_real_spectrum,
    random_unitary,
)
from helpers import run_cli
from quasiherm import (
    DefectiveMatrix,
    FermionicParams,
    build_omega_I,
    build_omega_K,
    build_omega_KU,
    dimer_build,
    dimer_from_coupling,
    eig_general,
    ep_scan,
    evolve_norm_check,
    fermionic_build,
    fermionic_from_fock,
    hermitian_dyson,
    metric_from_theta,
    metric_of,
    observable_from_M,
    quasi_hermiticity_residual,
    shared_metric,
    solve_schrodinger_pair,
)
from quasiherm.linalg import fro
from quasiherm.matfile import write_matrix_file

LOG2 = np.log(2.0)


def test_criterion_1_dimer_closed_forms():
    t0 = time.perf_counter()
    p = dimer_from_coupling(1.25, 0.75)
    h, omega_map, big_h, theta = dimer_build(p)
    avatar = omega_map @ big_h @ np.linalg.inv(omega_map)
    gram = omega_map.conj().T @ omega_map
    elapsed = time.perf_counter() - t0

    ch = 3.0 / (2.0 * np.sqrt(2.0))
    sh = 1.0 / (2.0 * np.sqrt(2.0))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected_theta = np.array([[1.25, -0.75j], [0.75j, 1.25]])
    for got, expected in (
        (h, sx),
        (omega_map, np.array([[ch, -1j * sh], [1j * sh, ch]])),
        (big_h, np.array([[0.75j, 1.25], [1.25, -0.75j]])),
        (theta, expected_theta),
        (avatar, sx),
        (gram, expected_theta),
    ):
        assert np.max(np.abs(got - expected)) <= 1e-12
    assert abs(p.omega - 1.0) <= 1e-12 and abs(p.alpha - LOG2) <= 1e-12
    assert elapsed < 0.1


def test_criterion_3_fermionic_reference_point():
    p = FermionicParams(alpha=4.0, beta=1.0, omega=0.3)
    big_h, h, omega_inv, omega_map, theta = fermionic_build(p)
    lo = (1.0 - np.sqrt(17.0)) / 2.0
    hi = (1.0 + np.sqrt(17.0)) / 2.0
    assert abs(p.det_D - (-1.0)) <= 1e-12
    assert abs(p.sqrt_ab - 2.0) <= 1e-12
    assert abs(theta[0, 0] - 2.0) <= 1e-12
    assert abs(theta[3, 3] - 5.0) <= 1e-12
    assert abs(theta[0, 3] - (-3.0)) <= 1e-12
    assert abs(h[0, 3] - 2.0) <= 1e-12
    assert np.max(np.abs(np.linalg.eigvalsh(h) - np.array([lo, 0.3, 0.7, hi]))) <= 1e-12
    assert np.max(np.abs(omega_map @ omega_inv - np.eye(4))) <= 1e-12
    for a, b, w in [(4.0, 1.0, 0.3), (2.0, 0.5, 0.7), (-1.0, -2.0, 0.5), (0.3, 0.9, 0.6)]:
        q = FermionicParams(alpha=a, beta=b, omega=w)
        built, *_rest = fermionic_build(q)
        assert np.max(np.abs(fermionic_from_fock(q) - built)) <= 1e-15


def _classification_draws(seed, n):
    """H with real spectrum, its Omega_I map, and 10 (K, U) draws, all from one seed."""
    rng = np.random.default_rng(seed)
    h, _energies, _s = random_real_spectrum(rng, n)
    pairs = [(random_k_diag(rng, n), random_unitary(rng, n)) for _ in range(10)]
    return h, build_omega_I(solve_schrodinger_pair(h)), pairs


@settings(max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_criterion_4_classification_invariants(seed, n):
    # Omega_I diagonalizes H; K keeps its avatar and gives a metric of H; U keeps
    # that metric and rotates the avatar
    h, map_i, pairs = _classification_draws(seed, n)
    scale = fro(h)
    avatar_i = map_i.omega @ h @ map_i.omega_inv
    assert fro(avatar_i - np.diag(np.diag(avatar_i))) <= 1e-10 * scale
    assert fro(map_i.omega @ map_i.omega_inv - np.eye(n)) <= 1e-10
    for k, u in pairs:
        map_k = build_omega_K(map_i, k)
        avatar_k = map_k.omega @ h @ map_k.omega_inv
        assert fro(avatar_k - avatar_i) <= 1e-10 * scale
        theta = metric_of(map_k).theta
        assert quasi_hermiticity_residual(h, theta) <= 1e-10
        map_ku = build_omega_KU(map_k, u)
        assert fro(metric_of(map_ku).theta - theta) <= 1e-10 * fro(theta)
        avatar_ku = map_ku.omega @ h @ map_ku.omega_inv
        assert fro(avatar_ku - u @ avatar_k @ u.conj().T) <= 1e-10 * scale


@settings(max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_criterion_5_hermitian_dyson_residuals(seed, n):
    # the polar u of Omega_K solves u Omega u = Omega†, and its P is the metric's root
    _h, map_i, pairs = _classification_draws(seed, n)
    for k, _u in pairs:
        map_k = build_omega_K(map_i, k)
        u, p = hermitian_dyson(map_k)
        omega = map_k.omega
        theta = metric_of(map_k).theta
        assert fro(u @ omega @ u - omega.conj().T) <= 1e-10 * fro(omega)
        assert fro(u.conj().T @ u - np.eye(n)) <= 1e-10
        assert fro(p - p.conj().T) <= 1e-10 * fro(omega)
        assert fro(p @ p - theta) <= 1e-10 * fro(theta)
        assert np.linalg.eigvalsh(0.5 * (p + p.conj().T))[0] > 0


def test_criterion_6_ep_localization():
    report = ep_scan(1.0, 0.9 + np.arange(201) * 1e-3)
    assert report.ep_locations.size == 1
    assert abs(report.ep_locations[0] - 1.0) <= 1e-3
    try:
        eig_general(dimer_hamiltonian(1.0, 1.0))
        raised = False
    except DefectiveMatrix:
        raised = True
    assert raised


def test_criterion_7_theta_norm_conservation():
    psi0 = np.array([1.0, 0.0])
    times = np.linspace(0.0, 10.0, 201)
    norms = evolve_norm_check(DIMER_H, DIMER_THETA, psi0, times)
    assert (np.max(norms) - np.min(norms)) / norms[0] <= 1e-10
    # independent propagation route for the Euclidean norm, which is not conserved
    euclid = np.array(
        [float(np.linalg.norm(scipy.linalg.expm(-1j * t * DIMER_H) @ psi0) ** 2) for t in times[::20]]
    )
    assert np.max(np.abs(euclid - euclid[0])) > 1e-3


def test_criterion_8_observables_and_compatibility():
    metric = metric_from_theta(DIMER_THETA)
    rng = np.random.default_rng(0)
    for _ in range(50):
        cand = observable_from_M(metric, random_hermitian(rng, 2))
        assert cand.residual <= 1e-12
        eigs = np.linalg.eigvals(cand.a_matrix)
        assert np.max(np.abs(eigs.imag)) <= 1e-9 * max(np.linalg.norm(cand.a_matrix), 1e-30)
    assert shared_metric(DIMER_H, DIMER_H).status == "Found"
    assert shared_metric(DIMER_H, np.array([[1.0, 0.0], [0.0, -1.0]])).status == "NoSharedMetric"


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    dimer_path = tmp_path / "dimer.json"
    write_matrix_file(dimer_path, DIMER_H)
    spiral_path = tmp_path / "spiral.json"
    write_matrix_file(spiral_path, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    ep_path = tmp_path / "ep.json"
    write_matrix_file(ep_path, dimer_hamiltonian(1.0, 1.0))
    sz_path = tmp_path / "sz.json"
    write_matrix_file(sz_path, np.array([[1.0, 0.0], [0.0, -1.0]]))
    bad_path = tmp_path / "bad.json"
    bad_path.write_text("{broken")

    herm_a, herm_b = (
        run_cli("hermitize", str(dimer_path), "--k-diag", "2,0.5", "--hermitian-omega")
        for _ in range(2)
    )
    scan_a, scan_b = (
        run_cli("scan", "--kappa", "1", "--gamma-min", "0.9", "--gamma-max", "1.1", "--step", "0.001")
        for _ in range(2)
    )
    codes = {
        "ok": herm_a.returncode,
        "malformed": run_cli("hermitize", str(bad_path)).returncode,
        "complex": run_cli("hermitize", str(spiral_path)).returncode,
        "defective": run_cli("hermitize", str(ep_path)).returncode,
        "ep_region": run_cli("model", "dimer", "--kappa", "1", "--gamma", "1",
                             "--out-dir", str(tmp_path / "m")).returncode,
        "no_shared": run_cli("compat", str(dimer_path), str(sz_path)).returncode,
    }
    assert codes == {"ok": 0, "malformed": 2, "complex": 3, "defective": 4, "ep_region": 6,
                     "no_shared": 7}
    assert herm_a.stdout == herm_b.stdout and scan_a.stdout == scan_b.stdout
    assert json.loads(herm_a.stdout)["passed"] is True
