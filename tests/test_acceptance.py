"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``) and then
asserts, so a red run still reports every criterion it reached.
"""

import json
import time

import numpy as np
import scipy.linalg

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
    bch_conjugation_check,
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
from quasiherm.matfile import write_matrix_file

LOG2 = np.log(2.0)


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_dimer_closed_forms():
    t0 = time.perf_counter()
    p = dimer_from_coupling(1.25, 0.75)
    h, omega_map, big_h, theta = dimer_build(p)
    avatar = omega_map @ big_h @ np.linalg.inv(omega_map)
    gram = omega_map.conj().T @ omega_map
    elapsed = time.perf_counter() - t0

    ch = 3.0 / (2.0 * np.sqrt(2.0))
    sh = 1.0 / (2.0 * np.sqrt(2.0))
    expected = {
        "h": np.array([[0.0, 1.0], [1.0, 0.0]]),
        "omega": np.array([[ch, -1j * sh], [1j * sh, ch]]),
        "H": np.array([[0.75j, 1.25], [1.25, -0.75j]]),
        "theta": np.array([[1.25, -0.75j], [0.75j, 1.25]]),
    }
    worst = max(
        np.max(np.abs(h - expected["h"])),
        np.max(np.abs(omega_map - expected["omega"])),
        np.max(np.abs(big_h - expected["H"])),
        np.max(np.abs(theta - expected["theta"])),
        np.max(np.abs(avatar - expected["h"])),
        np.max(np.abs(gram - expected["theta"])),
    )
    ok = worst <= 1e-12 and abs(p.omega - 1.0) <= 1e-12 and abs(p.alpha - LOG2) <= 1e-12
    ok = ok and elapsed < 0.1
    _verdict(1, ok, f"max deviation {worst:.2e}, runtime {elapsed * 1e3:.2f} ms")


def test_criterion_2_bch_identities():
    worst = 0.0
    for alpha in np.linspace(-5.0, 5.0, 100):
        rx, rz = bch_conjugation_check(float(alpha))
        worst = max(worst, rx, rz)
    _verdict(2, worst <= 1e-12, f"max residual {worst:.2e} over 100 rapidities in [-5, 5]")


def test_criterion_3_fermionic_reference_point():
    p = FermionicParams(alpha=4.0, beta=1.0, omega=0.3)
    big_h, h, omega_inv, omega_map, theta = fermionic_build(p)
    lo = (1.0 - np.sqrt(17.0)) / 2.0
    hi = (1.0 + np.sqrt(17.0)) / 2.0

    checks = [
        abs(p.det_D - (-1.0)) <= 1e-12,
        abs(p.sqrt_ab - 2.0) <= 1e-12,
        abs(theta[0, 0] - 2.0) <= 1e-12,
        abs(theta[3, 3] - 5.0) <= 1e-12,
        abs(theta[0, 3] - (-3.0)) <= 1e-12,
        abs(h[0, 3] - 2.0) <= 1e-12,
        np.max(np.abs(np.linalg.eigvalsh(h) - np.array([lo, 0.3, 0.7, hi]))) <= 1e-12,
        np.max(np.abs(omega_map @ omega_inv - np.eye(4))) <= 1e-12,
    ]
    fock_dev = 0.0
    for a, b, w in [(4.0, 1.0, 0.3), (2.0, 0.5, 0.7), (-1.0, -2.0, 0.5), (0.3, 0.9, 0.6)]:
        q = FermionicParams(alpha=a, beta=b, omega=w)
        built, *_rest = fermionic_build(q)
        fock_dev = max(fock_dev, float(np.max(np.abs(fermionic_from_fock(q) - built))))
    checks.append(fock_dev <= 1e-15)
    _verdict(3, all(checks), f"closed forms exact, fock deviation {fock_dev:.2e}")


def _classification_suite():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        h, _energies, _s = random_real_spectrum(rng, n)
        pairs = [(random_k_diag(rng, n), random_unitary(rng, n)) for _ in range(10)]
        yield h, pairs


def test_criterion_4_classification_invariants():
    worst = 0.0
    count = 0
    for h, pairs in _classification_suite():
        n = h.shape[0]
        scale = np.linalg.norm(h)
        system = solve_schrodinger_pair(h)
        map_i = build_omega_I(system)
        avatar_i = map_i.omega @ h @ map_i.omega_inv
        off = avatar_i - np.diag(np.diag(avatar_i))
        worst = max(worst, np.linalg.norm(off) / scale)
        worst = max(worst, np.linalg.norm(map_i.omega @ map_i.omega_inv - np.eye(n)))
        for k, u in pairs:
            count += 1
            map_k = build_omega_K(map_i, k)
            avatar_k = map_k.omega @ h @ map_k.omega_inv
            worst = max(worst, np.linalg.norm(avatar_k - avatar_i) / scale)
            theta_k = metric_of(map_k).theta
            worst = max(worst, quasi_hermiticity_residual(h, theta_k))
            map_ku = build_omega_KU(map_k, u)
            theta_ku = metric_of(map_ku).theta
            worst = max(
                worst, np.linalg.norm(theta_ku - theta_k) / np.linalg.norm(theta_k)
            )
            avatar_ku = map_ku.omega @ h @ map_ku.omega_inv
            rotated = u @ avatar_k @ u.conj().T
            worst = max(worst, np.linalg.norm(avatar_ku - rotated) / scale)
    _verdict(4, worst <= 1e-10, f"worst invariant residual {worst:.2e} over {count} (K,U) draws")


def test_criterion_5_hermitian_dyson_residuals():
    worst = 0.0
    count = 0
    for h, pairs in _classification_suite():
        system = solve_schrodinger_pair(h)
        map_i = build_omega_I(system)
        for k, _u in pairs[:3]:
            count += 1
            map_k = build_omega_K(map_i, k)
            u, omega_herm = hermitian_dyson(map_k)
            n = h.shape[0]
            scale = np.linalg.norm(map_k.omega)
            worst = max(
                worst,
                np.linalg.norm(u @ map_k.omega @ u - map_k.omega.conj().T) / scale,
            )
            worst = max(worst, np.linalg.norm(u.conj().T @ u - np.eye(n)))
            worst = max(
                worst, np.linalg.norm(omega_herm - omega_herm.conj().T) / scale
            )
            theta = metric_of(map_k).theta
            worst = max(
                worst,
                np.linalg.norm(omega_herm @ omega_herm - theta) / np.linalg.norm(theta),
            )
            if np.min(np.linalg.eigvalsh(0.5 * (omega_herm + omega_herm.conj().T))) <= 0:
                worst = max(worst, 1.0)
    _verdict(5, worst <= 1e-10, f"worst residual {worst:.2e} over {count} rescaled maps")


def test_criterion_6_ep_localization():
    grid = 0.9 + np.arange(201) * 1e-3
    report = ep_scan(1.0, grid)
    ok_scan = report.ep_locations.size == 1 and abs(report.ep_locations[0] - 1.0) <= 1e-3
    try:
        eig_general(dimer_hamiltonian(1.0, 1.0))
        ok_raise = False
    except DefectiveMatrix:
        ok_raise = True
    detail = (
        f"located {report.ep_locations.tolist()} with step 1e-3, "
        f"DefectiveMatrix at gamma = kappa: {ok_raise}"
    )
    _verdict(6, ok_scan and ok_raise, detail)


def test_criterion_7_theta_norm_conservation():
    big_h, theta = DIMER_H, DIMER_THETA
    psi0 = np.array([1.0, 0.0])
    times = np.linspace(0.0, 10.0, 201)
    norms = evolve_norm_check(big_h, theta, psi0, times)
    spread = (np.max(norms) - np.min(norms)) / norms[0]

    # independent propagation route for the Euclidean norm
    euclid = np.array(
        [
            float(np.linalg.norm(scipy.linalg.expm(-1j * t * big_h) @ psi0) ** 2)
            for t in times[:: 20]
        ]
    )
    variation = float(np.max(np.abs(euclid - euclid[0])))
    ok = spread <= 1e-10 and variation > 1e-3
    _verdict(7, ok, f"theta-norm spread {spread:.2e}, euclidean variation {variation:.2e}")


def test_criterion_8_observables_and_compatibility():
    big_h, theta = DIMER_H, DIMER_THETA
    metric = metric_from_theta(theta)
    rng = np.random.default_rng(0)
    worst_res = 0.0
    worst_imag = 0.0
    for _ in range(50):
        m = random_hermitian(rng, 2)
        cand = observable_from_M(metric, m)
        worst_res = max(worst_res, cand.residual)
        eigs = np.linalg.eigvals(cand.a_matrix)
        denom = max(np.linalg.norm(cand.a_matrix), 1e-30)
        worst_imag = max(worst_imag, float(np.max(np.abs(eigs.imag))) / denom)
    found = shared_metric(big_h, big_h)
    blocked = shared_metric(big_h, np.array([[1.0, 0.0], [0.0, -1.0]]))
    ok = (
        worst_res <= 1e-12
        and worst_imag <= 1e-9
        and found.status == "Found"
        and blocked.status == "NoSharedMetric"
    )
    detail = (
        f"worst residual {worst_res:.2e}, worst relative imag {worst_imag:.2e}, "
        f"self pair {found.status}, clashing pair {blocked.status}"
    )
    _verdict(8, ok, detail)


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

    herm_a = run_cli("hermitize", str(dimer_path), "--k-diag", "2,0.5", "--hermitian-omega")
    herm_b = run_cli("hermitize", str(dimer_path), "--k-diag", "2,0.5", "--hermitian-omega")
    scan_a, scan_b = (run_cli("scan", "--kappa", "1", "--gamma-min", "0.9", "--gamma-max", "1.1",
                              "--step", "0.001") for _ in range(2))

    codes = {
        "ok": herm_a.returncode,
        "malformed": run_cli("hermitize", str(bad_path)).returncode,
        "complex": run_cli("hermitize", str(spiral_path)).returncode,
        "defective": run_cli("hermitize", str(ep_path)).returncode,
        "ep_region": run_cli("model", "dimer", "--kappa", "1", "--gamma", "1",
                             "--out-dir", str(tmp_path / "m")).returncode,
        "no_shared": run_cli("compat", str(dimer_path), str(sz_path)).returncode,
    }
    expected = {"ok": 0, "malformed": 2, "complex": 3, "defective": 4, "ep_region": 6,
                "no_shared": 7}
    deterministic = herm_a.stdout == herm_b.stdout and scan_a.stdout == scan_b.stdout
    report_valid = json.loads(herm_a.stdout)["passed"] is True
    ok = deterministic and report_valid and codes == expected
    _verdict(9, ok, f"byte-identical reruns {deterministic}, exit codes {codes}")
