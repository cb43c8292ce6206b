"""Dense complex linear algebra: general eigensystems with biorthogonal left vectors,
Hermitian exponentials, and the right polar decomposition."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DefectiveMatrix, NotHermitian, SingularInput

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "eig_general",
    "polar_decompose",
    "herm_exp",
]


@dataclass(frozen=True)
class Tolerances:
    """Thresholds shared by every residual, reality, and positivity check.

    residual_rel and reality_rel are relative to the norm of the matrix under
    test, positivity_rel is relative to the metric scale, and defective_cond
    bounds the condition number of an acceptable eigenvector basis.
    """

    residual_rel: float = 1e-10
    reality_rel: float = 1e-9
    positivity_rel: float = 1e-12
    defective_cond: float = 1e8

    def __post_init__(self) -> None:
        for name in ("residual_rel", "reality_rel", "positivity_rel", "defective_cond"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value}")


DEFAULT_TOL = Tolerances()


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a non-empty square complex128 array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _sum_squares(re: np.ndarray, im: np.ndarray) -> float:
    # np.linalg.norm's sum of squares, bit for bit, through np.vdot, which, unlike
    # ndarray.dot, does not warn when it overflows; nor does a Python float sum.
    return float(np.vdot(re, re)) + float(np.vdot(im, im))


def fro(m: np.ndarray) -> float:
    """Frobenius norm, accurate at every scale of the entries.

    Where the sum of squares cannot have over- or underflowed this is
    np.linalg.norm bit for bit; elsewhere the sum is taken again with the
    entries scaled by a power of two, which is exact, to below 1 in magnitude.
    """
    x = np.asarray(m).ravel(order="K")
    norm = math.sqrt(_sum_squares(x.real, x.imag))
    if 2.0**-500 < norm < 2.0**500 or not x.any():
        return norm
    # an inf or NaN entry gives e = 0, and the plain norm again
    e = math.frexp(max(np.abs(x.real).max(), np.abs(x.imag).max()))[1]
    norm = math.sqrt(_sum_squares(np.ldexp(x.real, -e), np.ldexp(x.imag, -e)))
    return norm * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)


def herm_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * m + 0.5 * m.conj().T


def hermiticity_residual(a: np.ndarray) -> float:
    """Relative deviation from Hermiticity, ||A - A†||_F / ||A||_F (0 for A = 0)."""
    return fro(a - a.conj().T) / (fro(a) or 1.0)


def _require_hermitian(a: np.ndarray, rel: float, what: str) -> np.ndarray:
    if not hermiticity_residual(a) <= rel:
        raise NotHermitian(f"{what} deviates from Hermiticity beyond {rel:g} relative")
    return herm_part(a)


def _normalize_columns(v: np.ndarray) -> np.ndarray:
    # Unit columns with the largest-magnitude component rotated to the positive
    # real axis; ties resolve to the first maximal index, so the output is a
    # deterministic function of the input matrix.  Each column norm is
    # np.linalg.norm's sum of squares over that column, read as a contiguous
    # row of the transpose's copy; norm(v, axis=0) sums in another order and
    # changes the bits.
    v = v / np.array([math.sqrt(_sum_squares(r.real, r.imag)) for r in v.T.copy()])
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    # hypot matches the scalar abs bit for bit; np.abs can differ by one ulp.
    v *= lead.conj() / np.hypot(lead.real, lead.imag)
    return v


# Theta = Omega† Omega has entries up to about the square of the basis bound
# ||V||_F ||V^-1||_F, so past the root of the largest float no metric is finite.
_MAX_BASIS_BOUND = math.sqrt(np.finfo(np.float64).max)


def eig_general(m, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of a general complex matrix with a matched left system.

    The three returned arrays are read-only: a write into any of them raises
    ValueError.  Copy one to modify it.

    Parameters
    ----------
    m : array_like
        Square matrix, assumed diagonalizable.
    tol : Tolerances
        Only ``defective_cond`` is consulted here.

    Returns
    -------
    eigenvalues : ndarray
        Sorted ascending by real part, ties broken by imaginary part.
    right : ndarray
        Right eigenvectors as columns, each of unit Euclidean norm with its
        largest-magnitude component real and positive.
    left : ndarray
        Left eigenvectors as columns, rescaled so that ``left.conj().T @ right``
        is the identity.

    Raises
    ------
    DefectiveMatrix
        If the right eigenvector basis is singular or has a 2-norm condition
        number above ``tol.defective_cond``, which signals an exceptional point,
        or if the bound ||V||_F ||V^-1||_F on that condition number exceeds the
        square root of the largest float, whatever ``tol.defective_cond`` is.
    """
    a = as_square_matrix(m)
    w, v = np.linalg.eig(a)
    order = np.lexsort((w.imag, w.real))
    # rebinding v first frees the unsorted basis before the normalized one is made
    w, v = w[order], v[:, order]
    v = _normalize_columns(v)
    try:
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        raise DefectiveMatrix("eigenvector basis is singular") from None
    # ||V||_F ||V^-1||_F bounds the 2-norm condition from above; the factor 2
    # dwarfs its rounding error, so the SVD runs only where it can decide.
    bound = fro(v) * fro(vinv)
    if not bound <= 0.5 * tol.defective_cond:
        cond = np.linalg.cond(v)
        if not cond <= tol.defective_cond:
            raise DefectiveMatrix(
                f"eigenvector basis condition {cond:.3e} exceeds {tol.defective_cond:.1e}"
            )
    if not bound <= _MAX_BASIS_BOUND:
        raise DefectiveMatrix(
            f"eigenvector basis condition bound {bound:.3e} exceeds {_MAX_BASIS_BOUND:.3e}, "
            "beyond which the metric overflows"
        )
    # Inverting the right basis biorthonormalizes exactly, degenerate blocks
    # included; conjugating in place keeps one n×n copy of the inverse, and
    # locking that copy, not only its transpose, leaves no writeable way in.
    np.conjugate(vinv, out=vinv)
    for x in (w, v, vinv):
        x.flags.writeable = False
    return w, v, vinv.T


def polar_decompose(m, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Right polar decomposition M = W P with W unitary and P Hermitian positive definite.

    From one SVD M = U S V†: W = U V† and P = V S V†, the square root of M†M.
    Raises SingularInput when M†M is numerically singular, i.e. its smallest
    eigenvalue s_min² is at or below ``tol.positivity_rel`` times its norm.
    The singular values are first scaled by the power of two of s_max, which is
    exact, so no multiple of M by a power of two changes the decision.
    """
    a = as_square_matrix(m)
    u, s, vh = np.linalg.svd(a)
    gram_spec = np.square(np.ldexp(s, -np.frexp(s[0])[1]))
    gram_norm = np.linalg.norm(gram_spec)
    if not gram_spec[-1] > tol.positivity_rel * gram_norm:
        # in Python floats, where inf / inf is NaN with no numpy warning
        ratio = float(gram_spec[-1]) / (float(gram_norm) or 1.0)
        raise SingularInput(
            f"polar factor undefined: s_min^2 is {ratio:.3e} times the norm of M†M, "
            f"at or below {tol.positivity_rel:g}"
        )
    return u @ vh, herm_part((vh.conj().T * s) @ vh)


def herm_exp(s, scale: float = 1.0) -> np.ndarray:
    """exp(scale * S) for Hermitian S, evaluated through the spectral decomposition."""
    a = as_square_matrix(s)
    sym = _require_hermitian(a, DEFAULT_TOL.residual_rel, "herm_exp generator")
    lam, u = np.linalg.eigh(sym)
    return (u * np.exp(scale * lam)) @ u.conj().T
