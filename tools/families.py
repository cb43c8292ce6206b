"""Inputs whose answer is known by construction, drawn from a numpy Generator.

H = S diag(E) S^-1 has the real spectrum E and the metric S^-dagger S^-1, which
the partner S S^dagger M, M Hermitian, shares and, M being generic, no other.
The tests, tools/compat_sweep.py and tools/bytecheck.py draw every such input
here, so each recipe, and so each input's bits, is written once.
"""

import numpy as np


def _energies(rng, n):
    """n increasing real energies with gaps above 0.4, centred on zero."""
    energies = np.arange(n) * 0.7 + rng.uniform(0.0, 0.3, n)
    return energies - energies.mean()


def random_unitary(rng, n):
    """Haar-ish unitary from a QR factorization with the phase ambiguity fixed."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d.conj() / np.abs(d))


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_k_diag(rng, n):
    """Diagonal of K with magnitudes in [0.5, 2] and random phases."""
    return rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


def capped_frame(rng, n, cond_cap):
    """A complex Gaussian S, redrawn until cond(S) <= cond_cap."""
    while True:
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(s) <= cond_cap:
            return s


def conditioned_frame(rng, n, cond):
    """S = U diag(geomspace(1, cond, n)) V for Haar-ish U and V, so cond(S) = cond."""
    return (random_unitary(rng, n) * np.geomspace(1.0, cond, n)) @ random_unitary(rng, n)


def similar(s, d):
    """S D S^-1, for D a matrix or the entries of a diagonal."""
    return s @ (np.diag(d) if np.ndim(d) == 1 else d) @ np.linalg.inv(s)


def exact_metric(s):
    """S^-dagger S^-1, the metric of every S D S^-1 with D real diagonal."""
    s_inv = np.linalg.inv(s)
    return s_inv.conj().T @ s_inv


def metric_partner(rng, s):
    """S S^dagger M for a random Hermitian M."""
    return s @ s.conj().T @ random_hermitian(rng, len(s))


def random_real_spectrum(rng, n, cond_cap=100.0):
    """(H, sorted energies, S): the energies, then capped_frame(rng, n, cond_cap)."""
    energies = _energies(rng, n)
    s = capped_frame(rng, n, cond_cap)
    return similar(s, energies), energies, s


def conditioned_spectrum(rng, n, cond):
    """(H, sorted energies, S): conditioned_frame(rng, n, cond), then the energies."""
    s = conditioned_frame(rng, n, cond)
    energies = _energies(rng, n)
    return similar(s, energies), energies, s


def _unit_triangular_inverse(t):
    """t^-1 = I + N + ... + N^(n-1) for the nilpotent N = I - t, in integers."""
    nilpotent = np.eye(len(t), dtype=np.int64) - t
    inverse = term = np.eye(len(t), dtype=np.int64)
    for _ in range(len(t) - 1):
        term = term @ nilpotent
        inverse = inverse + term
    return inverse


def unimodular_frame(rng, n):
    """(S, S^-1) in int64: S = L U for unit-triangular L and U with entries in [-4, 4]
    off the diagonal, so det S = 1 and S^-1 = U^-1 L^-1 has integer entries too."""
    lower = np.tril(rng.integers(-4, 5, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(-4, 5, (n, n)), 1) + np.eye(n, dtype=np.int64)
    return lower @ upper, _unit_triangular_inverse(upper) @ _unit_triangular_inverse(lower)


def exact_spectrum(rng, n):
    """(H, energies, S) in int64: H = S diag(E) S^-1 on unimodular_frame(rng, n), formed
    in integers, for n distinct increasing integer energies E in [-n, n]."""
    s, s_inv = unimodular_frame(rng, n)
    energies = np.sort(rng.choice(np.arange(-n, n + 1), n, replace=False))
    return (s * energies) @ s_inv, energies, s


def dimer_hamiltonian(kappa, gamma):
    return np.array([[1j * gamma, kappa], [kappa, -1j * gamma]], dtype=np.complex128)


# the dimer at kappa 1.25, gamma 0.75 and its metric
DIMER_H = dimer_hamiltonian(1.25, 0.75)
DIMER_THETA = np.array([[1.25, -0.75j], [0.75j, 1.25]])
