"""Shared generators for randomized test suites, the dimer at kappa 1.25, gamma 0.75,
and the runners of the command line and of the scripts in tools/."""

import importlib.util
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
TIMEOUT = 300  # seconds: a hung child fails its test instead of stalling the suite


def random_real_spectrum(rng, n, cond_cap=100.0):
    """Diagonalizable matrix with distinct real eigenvalues and a tame eigenbasis.

    Returns (matrix, sorted_energies, similarity).  Eigenvalue gaps stay above
    0.4 so no draw sits anywhere near an exceptional point.
    """
    energies = np.arange(n) * 0.7 + rng.uniform(0.0, 0.3, n)
    energies = energies - energies.mean()
    while True:
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(s) <= cond_cap:
            break
    h = s @ np.diag(energies) @ np.linalg.inv(s)
    return h, energies, s


def random_k_diag(rng, n):
    """Diagonal of K with magnitudes in [0.5, 2] and random phases."""
    return rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


def random_unitary(rng, n):
    """Haar-ish unitary from a QR factorization with the phase ambiguity fixed."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d.conj() / np.abs(d))


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def dimer_hamiltonian(kappa, gamma):
    return np.array([[1j * gamma, kappa], [kappa, -1j * gamma]], dtype=np.complex128)


DIMER_H = dimer_hamiltonian(1.25, 0.75)
DIMER_THETA = np.array([[1.25, -0.75j], [0.75j, 1.25]])


def run_cli(*args, **kwargs):
    """`python -m quasiherm` with these arguments, its output captured as text."""
    return subprocess.run([sys.executable, "-m", "quasiherm", *args], capture_output=True,
                          text=True, timeout=TIMEOUT, **kwargs)


def load_tool(name):
    """The module tools/<name>.py, entered in sys.modules, where dataclasses look it up."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
