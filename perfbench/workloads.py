"""Seeded inputs, operation mixes and independent output checks for each workload.

Every workload is a pool of rounds built from the seed.  A round holds one
call of each kind in the workload's mix; successive rounds use fresh draws of
the inputs, so one run averages over many inputs and runs with different
seeds agree.  The package only ever receives the matrices and files generated
here.  Each operation's output is verified with plain numpy, never through
the package's own ``passed`` flags, and each verification bumps a named
counter so the self-check can prove that it ran.

An operation ends in one of three outcomes:

* ``ok``: the answer was returned and verified.  ``shared_metric`` may also
  answer ``Inconclusive``, which claims nothing and so cannot be wrong; it is
  ``ok`` with the reason ``undecided``, and the run reports the undecided
  share;
* ``failed``: the package raised, or a command exited with a failing code;
* ``wrong``: the package returned an answer and the answer is wrong.  Any
  ``wrong`` makes the run's ``correct`` flag false.

The mixes are chosen so that no operation fails at the parent commit.  A
workload may also carry probes: calls known to raise at the parent commit,
which only the traced run makes, to report how often they raise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import quasiherm
import quasiherm.cli

OK, FAILED, WRONG = "ok", "failed", "wrong"
UNDECIDED = "undecided"

# The package's documented default tolerances; the checks apply them to
# quantities recomputed here from the returned matrices.
RESIDUAL_MAX = 1e-10
SPECTRUM_MAX = 1e-9
NORM_DRIFT_MAX = 1e-9
GAP_ERR_MAX = 1e-7

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)

WORKLOADS = ("dense", "small", "compat", "cli")
DENSE_PROBES = 4
# Operation kind whose latency is the workload's headline latency.
PRIMARY_KIND = {"dense": "hermitize", "small": "hermitize", "compat": "compat", "cli": "cli"}


@dataclass
class Op:
    """One call of the mix: ``run`` is timed, ``check`` is not."""

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Counter], tuple[str, str]]
    work: int = 1


# ---------------------------------------------------------------- generators


def random_real_spectrum(rng, n, cond_cap=1e3):
    """Diagonalizable H = S diag(E) S^-1 with distinct real E and cond(S) <= cond_cap.

    The same construction as tests/helpers.random_real_spectrum, copied so that
    the benchmark's inputs stay fixed when the test helpers change.
    """
    energies = np.arange(n) * 0.7 + rng.uniform(0.0, 0.3, n)
    energies = energies - energies.mean()
    while True:
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(s) <= cond_cap:
            break
    return s @ np.diag(energies) @ np.linalg.inv(s), np.sort(energies)


def random_k_diag(rng, n):
    return rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


def dimer(kappa, gamma):
    """H = kappa sigma_x + i gamma sigma_z with energies +-sqrt(kappa^2 - gamma^2)."""
    h = np.array([[1j * gamma, kappa], [kappa, -1j * gamma]], dtype=np.complex128)
    w = math.sqrt(kappa * kappa - gamma * gamma)
    return h, np.array([-w, w])


def dimer_theta(kappa, gamma):
    """Closed-form metric cosh(a) I + sinh(a) sigma_y with tanh(a) = gamma / kappa."""
    a = math.atanh(gamma / kappa)
    return math.cosh(a) * np.eye(2, dtype=np.complex128) + math.sinh(a) * SIGMA_Y


def random_dimer(rng):
    kappa = rng.uniform(0.5, 2.0)
    return kappa, kappa * rng.uniform(-0.95, 0.95)


def fermion(rng):
    """Two-mode pairing H in the (|00>, |10>, |01>, |11>) basis and its energies."""
    while True:
        alpha, beta = (float(x) for x in rng.uniform(0.2, 2.0, 2))
        omega = float(rng.uniform(0.1, 0.9))
        root = math.sqrt(alpha * beta)
        if abs(2 * alpha * beta - (alpha + beta) * root + 1.0) > 0.05:
            break
    h = np.zeros((4, 4), dtype=np.complex128)
    h[1, 1], h[2, 2], h[3, 3] = omega, 1.0 - omega, 1.0
    h[0, 3], h[3, 0] = alpha, beta
    disc = math.sqrt(1.0 + 4.0 * alpha * beta)
    energies = np.sort([omega, 1.0 - omega, 0.5 * (1 - disc), 0.5 * (1 + disc)])
    return h, energies, (alpha, beta, omega)


def ep_grid(rng, kappa, points):
    """Ascending gamma grid over (-0.9 kappa, 1.6 kappa) holding gamma = kappa exactly."""
    t = np.linspace(rng.uniform(-0.9, -0.1), rng.uniform(1.1, 1.6), points)
    t[np.argmin(np.abs(t - 1.0))] = 1.0
    return kappa * t


# ------------------------------------------------------------------- checks


def _fro(m):
    return float(np.linalg.norm(m))


def _intertwining(h, theta):
    return _fro(h.conj().T @ theta - theta @ h) / (_fro(h) * _fro(theta))


def _positive_definite(theta):
    if _fro(theta - theta.conj().T) > RESIDUAL_MAX * _fro(theta):
        return False
    try:
        np.linalg.cholesky(0.5 * (theta + theta.conj().T))
    except np.linalg.LinAlgError:
        return False
    return True


def verify_certificate(h, energies, theta, avatar, checks):
    """Reason string when (theta, avatar) fail to certify h, else ''."""
    checks["hermitize.certificate"] += 1
    r = _intertwining(h, theta)
    if not r <= RESIDUAL_MAX:
        return f"H^dag Theta - Theta H residual {r:.2e}"
    if not _positive_definite(theta):
        return "Theta not positive definite"
    r = _fro(avatar - avatar.conj().T) / (_fro(avatar) or 1.0)
    if not r <= RESIDUAL_MAX:
        return f"avatar Hermiticity residual {r:.2e}"
    spec = np.linalg.eigvalsh(0.5 * (avatar + avatar.conj().T))
    r = float(np.max(np.abs(spec - energies))) / _fro(h)
    if not r <= SPECTRUM_MAX:
        return f"avatar spectrum off by {r:.2e}"
    return ""


def _digest(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).digest()


def check_hermitize(h, energies):
    verified = set()

    def check(result, checks):
        _system, _dmap, metric, avatar, _report = result
        # A repeat of the same call that returns the same matrices as an
        # answer already verified needs no second, costly verification.
        digest = _digest(metric.theta, avatar)
        if digest in verified:
            checks["hermitize.repeat"] += 1
            return OK, ""
        bad = verify_certificate(h, energies, metric.theta, avatar, checks)
        if bad:
            return WRONG, bad
        verified.add(digest)
        return OK, ""

    return check


def check_compat(h1, h2, expected):
    def check(result, checks):
        checks["compat.status"] += 1
        if result.status == "Inconclusive":
            return OK, UNDECIDED
        if result.status != expected:
            return WRONG, f"{result.status}, expected {expected}"
        if result.status == "Found":
            checks["compat.certificate"] += 1
            theta = result.theta.theta
            r = max(_intertwining(h1, theta), _intertwining(h2, theta))
            if not r <= RESIDUAL_MAX:
                return WRONG, f"shared metric residual {r:.2e}"
            if not _positive_definite(theta):
                return WRONG, "shared metric not positive definite"
        return OK, ""

    return check


def verify_scan(kappa, grid, gaps, flags, checks):
    checks["scan.gaps"] += 1
    inside = np.abs(grid) < kappa
    err = np.abs(gaps[inside] - 2.0 * np.sqrt(kappa * kappa - grid[inside] ** 2))
    if not float(np.max(err)) <= GAP_ERR_MAX * kappa:
        return f"gap off the closed form by {float(np.max(err)):.2e}"
    checks["scan.ep_point"] += 1
    flagged = np.flatnonzero(flags)
    if flagged.tolist() != np.flatnonzero(grid == kappa).tolist():
        return f"EP flagged at gamma {grid[flagged].tolist()}, expected only {kappa!r}"
    return ""


def check_scan(kappa, grid):
    def check(report, checks):
        bad = verify_scan(kappa, grid, report.min_gap, report.is_ep, checks)
        if not bad and report.ep_locations.tolist() != [kappa]:
            bad = f"ep_locations {report.ep_locations.tolist()}"
        return (WRONG, bad) if bad else (OK, "")

    return check


def check_evolve(theta, psi0):
    expected = float((psi0.conj() @ theta @ psi0).real)

    def check(norms, checks):
        checks["evolve.norms"] += 1
        drift = float(np.max(np.abs(norms - expected))) / expected
        return (WRONG, f"Theta-norm drift {drift:.2e}") if not drift <= NORM_DRIFT_MAX else (OK, "")

    return check


# ---------------------------------------------------------- library workloads


def _hermitize_op(label, h, energies, **kwargs):
    return Op(
        "hermitize", label, lambda: quasiherm.hermitize(h, **kwargs), check_hermitize(h, energies)
    )


def _scan_op(kappa, grid):
    return Op("scan", "ep_scan", lambda: quasiherm.ep_scan(kappa, grid),
              check_scan(kappa, grid), work=grid.size)


def _evolve_op(h, theta, psi0, times):
    return Op("evolve", "evolve_norm_check",
              lambda: quasiherm.evolve_norm_check(h, theta, psi0, times),
              check_evolve(theta, psi0), work=times.size)


def build_dense(rng, tiny):
    """Rounds of plain and k_diag calls, and k_diag + hermitian_map probes.

    hermitian_map raises NotUnitary at n = 256 on part of the draws, with or
    without k_diag, so it is not in the mix; the probes on the first draws
    measure how often it raises.
    """
    n = 12 if tiny else 256
    rounds, probes = [], []
    for i in range(3 if tiny else 10):
        h, e = random_real_spectrum(rng, n)
        k = random_k_diag(rng, n)
        rounds.append([_hermitize_op("plain", h, e), _hermitize_op("k_diag", h, e, k_diag=k)])
        if i < DENSE_PROBES:
            probes.append(_hermitize_op("k_diag+hermitian_map", h, e, k_diag=k, hermitian_map=True))
    return rounds, probes


def build_small(rng, tiny):
    reps = 2 if tiny else 12
    ops = []
    for _ in range(reps):
        h, e = dimer(*random_dimer(rng))
        ops.append(_hermitize_op("dimer", h, e))
        ops.append(_hermitize_op("dimer/k_diag", h, e, k_diag=random_k_diag(rng, 2)))
    for _ in range(reps):
        h, e, _ = fermion(rng)
        ops.append(_hermitize_op("fermion", h, e))
    for n in (4,) if tiny else (8, 16):
        for _ in range(1 if tiny else 4):
            h, e = random_real_spectrum(rng, n)
            ops.append(_hermitize_op(f"random{n}", h, e))

    # 10^4 gamma points a round, as ten grids of 10^3: a call of ~30 ms is
    # short enough that some calls of a run see only the host's fast speed.
    for _ in range(1 if tiny else 10):
        kappa = rng.uniform(0.5, 2.0)
        ops.append(_scan_op(kappa, ep_grid(rng, kappa, 200 if tiny else 1000)))

    kappa, gamma = random_dimer(rng)
    psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    times = np.linspace(0.0, rng.uniform(5.0, 50.0), 50 if tiny else 1000)
    ops.append(_evolve_op(dimer(kappa, gamma)[0], dimer_theta(kappa, gamma),
                          psi0 / np.linalg.norm(psi0), times))
    return [ops]


def build_compat(rng, tiny):
    def op(label, h1, h2, expected):
        return Op("compat", label, lambda: quasiherm.shared_metric(h1, h2),
                  check_compat(h1, h2, expected))

    polys = {"h^2": lambda h: h @ h, "2h+h^3": lambda h: 2.0 * h + h @ h @ h}
    # Seven pairs share a metric and six do not.  The sharing pairs at n >= 8
    # are undecided at the parent commit and run the full random search:
    # about 0.6 s at n = 16 and 0.3 s at n = 12 on an uncontended core.
    independent = (4, 6) if tiny else (4, 8, 12, 16)
    rounds = []
    for _ in range(2 if tiny else 16):
        sharing = [(4, "h^2"), (6, "2h+h^3")] if tiny else [
            (4, "h^2"), (8, "2h+h^3"), (12, "h^2"), (16, "2h+h^3")]
        h, _ = dimer(*random_dimer(rng))
        ops = [op(f"dimer/{name}", h, p(h), "Found") for name, p in polys.items()]
        ops.append(op("dimer/sigma_z", h, SIGMA_Z, "NoSharedMetric"))
        h, _ = dimer(*random_dimer(rng))
        ops.append(op("dimer/h^2", h, polys["h^2"](h), "Found"))
        ops.append(op("dimer/sigma_z", h, SIGMA_Z, "NoSharedMetric"))
        for n, name in sharing:
            h, _ = random_real_spectrum(rng, n)
            ops.append(op(f"n{n}/{name}", h, polys[name](h), "Found"))
        for n in independent:
            h1, _ = random_real_spectrum(rng, n)
            h2, _ = random_real_spectrum(rng, n)
            ops.append(op(f"n{n}/independent", h1, h2, "NoSharedMetric"))
        rounds.append(ops)
    return rounds


# --------------------------------------------------------------- cli workload


def write_matrix(path, m):
    """MatrixFile JSON written with the standard library, not the package."""
    m = np.asarray(m, dtype=np.complex128)
    doc = {"rows": m.shape[0], "cols": m.shape[1],
           "data": [[float(z.real), float(z.imag)] for z in m.ravel()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _matrix(doc):
    data = np.asarray(doc["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(doc["rows"], doc["cols"])


def child_env(root):
    """This process's environment with ``root``/src first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliRunner:
    """Runs ``quasiherm`` argument lists as child processes, or in process via cli.main."""

    def __init__(self, root, in_process):
        self.root = root
        self.in_process = in_process
        self.env = child_env(root)

    def __call__(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = quasiherm.cli.main(list(argv))
            return code, out.getvalue().encode("utf-8")
        proc = subprocess.run([sys.executable, "-m", "quasiherm", *argv], cwd=self.root,
                              env=self.env, capture_output=True, timeout=150)
        return proc.returncode, proc.stdout


def check_cli(argv, expected_code, content, seen):
    """Exit code, byte-identical stdout across repeats, and on first sight the content."""
    key = tuple(argv)

    def check(result, checks):
        code, stdout = result
        checks["cli.exit_code"] += 1
        if code != expected_code:
            decided = (0, 7)
            outcome = WRONG if code in decided and expected_code in decided else FAILED
            return outcome, f"exit {code}, expected {expected_code}"
        if key in seen:
            checks["cli.stdout_repeat"] += 1
            if seen[key] != stdout:
                return WRONG, "stdout differs from an earlier run of the same command"
            return OK, ""
        seen[key] = stdout
        bad = content(stdout, checks) if content else ""
        return (WRONG, bad) if bad else (OK, "")

    return check


def report_content(h, energies):
    def content(stdout, checks):
        doc = json.loads(stdout)
        return verify_certificate(h, energies, _matrix(doc["metric"]), _matrix(doc["avatar"]), checks)

    return content


def compat_content(h1, h2, status):
    def content(stdout, checks):
        doc = json.loads(stdout)
        checks["compat.status"] += 1
        if doc["status"] != status:
            return f"status {doc['status']}, expected {status}"
        if status == "Found":
            checks["compat.certificate"] += 1
            theta = _matrix(doc["metric"])
            r = max(_intertwining(h1, theta), _intertwining(h2, theta))
            if not r <= RESIDUAL_MAX or not _positive_definite(theta):
                return f"shared metric fails: residual {r:.2e}"
        return ""

    return content


def scan_content(kappa):
    def content(stdout, checks):
        rows = [line.split(",") for line in stdout.decode().splitlines()[1:]]
        grid = np.array([float(r[0]) for r in rows])
        gaps = np.array([float(r[1]) for r in rows])
        flags = np.array([r[3] == "true" for r in rows])
        return verify_scan(kappa, grid, gaps, flags, checks)

    return content


def build_cli(rng, tiny, root, work_dir, in_process):
    run = CliRunner(root, in_process)
    seen = {}
    ops = []

    def op(label, argv, expected_code=0, content=None):
        ops.append(Op("cli", label, lambda: run(argv), check_cli(argv, expected_code, content, seen)))

    def path(name):
        return os.path.join(work_dir, name)

    kappa, gamma = random_dimer(rng)
    hd, ed = dimer(kappa, gamma)
    hf, ef, _ = fermion(rng)
    write_matrix(path("dimer.json"), hd)
    write_matrix(path("fermion.json"), hf)
    for name, h, e in (("dimer", hd, ed), ("fermion", hf, ef)):
        k = ",".join(repr(complex(z)) for z in random_k_diag(rng, h.shape[0]))
        op(f"hermitize/{name}", ["hermitize", path(f"{name}.json")], content=report_content(h, e))
        op(f"hermitize/{name}/k_diag", ["hermitize", path(f"{name}.json"), "--k-diag", k],
           content=report_content(h, e))
        op(f"hermitize/{name}/hermitian_omega", ["hermitize", path(f"{name}.json"), "--hermitian-omega"],
           content=report_content(h, e))

    kappa, gamma = random_dimer(rng)
    h, e = dimer(kappa, gamma)
    op("model/dimer", ["model", "dimer", "--kappa", repr(kappa), "--gamma", repr(gamma),
                       "--out-dir", path("model-dimer")], content=report_content(h, e))
    hf2, ef2, (alpha, beta, omega) = fermion(rng)
    op("model/fermion", ["model", "fermion", "--alpha", repr(alpha), "--beta", repr(beta),
                         "--omega", repr(omega), "--out-dir", path("model-fermion")],
       content=report_content(hf2, ef2))

    poly = hd @ hd + hd
    write_matrix(path("poly.json"), poly)
    write_matrix(path("sigma_z.json"), SIGMA_Z)
    op("compat/poly", ["compat", path("dimer.json"), path("poly.json")],
       content=compat_content(hd, poly, "Found"))
    op("compat/sigma_z", ["compat", path("dimer.json"), path("sigma_z.json")], expected_code=7,
       content=compat_content(hd, SIGMA_Z, "NoSharedMetric"))

    # A dyadic kappa and step make the grid land on gamma = kappa exactly, at
    # index `below`; gamma_min stays above -kappa so only one EP is in range.
    step = 2.0**-9
    kappa = 1.0 + int(rng.integers(0, 64)) / 64.0
    count = 100 if tiny else 1000
    below = count * 3 // 5
    op("scan", ["scan", "--kappa", repr(kappa), "--gamma-min", repr(kappa - below * step),
                "--gamma-max", repr(kappa + (count - 1 - below) * step), "--step", repr(step)],
       content=scan_content(kappa))

    h, e = random_real_spectrum(rng, 12 if tiny else 256)
    write_matrix(path("dense.json"), h)
    op("hermitize/dense", ["hermitize", path("dense.json")], content=report_content(h, e))
    return [ops]


def build(name, seed, tiny, root, work_dir, in_process):
    """(rounds, probes) of the workload; the same seed always gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "dense":
        return build_dense(rng, tiny)
    if name == "cli":
        return build_cli(rng, tiny, root, work_dir, in_process), []
    return {"small": build_small, "compat": build_compat}[name](rng, tiny), []
