"""Dense complex linear algebra: general eigensystems with biorthogonal left vectors,
Hermitian square roots and exponentials, and the right polar decomposition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DefectiveMatrix, NotHermitian, NotPositiveDefinite, SingularInput

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "eig_general",
    "herm_sqrt",
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
    """Coerce to a square complex128 array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def fro(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def herm_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def hermiticity_residual(a: np.ndarray) -> float:
    """Relative deviation from Hermiticity, ||A - A†||_F / ||A||_F (0 for A = 0)."""
    return fro(a - a.conj().T) / (fro(a) or 1.0)


def _require_hermitian(a: np.ndarray, rel: float, what: str) -> np.ndarray:
    if hermiticity_residual(a) > rel:
        raise NotHermitian(f"{what} deviates from Hermiticity beyond {rel:g} relative")
    return herm_part(a)


def _normalize_columns(v: np.ndarray) -> np.ndarray:
    # Unit columns with the largest-magnitude component rotated to the positive
    # real axis; ties resolve to the first maximal index, so the output is a
    # deterministic function of the input matrix.  Norms are taken column by
    # column: norm(v, axis=0) sums in another order and changes the bits.
    v = v / np.array([np.linalg.norm(v[:, j]) for j in range(v.shape[1])])
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    # hypot matches the scalar abs bit for bit; np.abs can differ by one ulp.
    return v * (lead.conj() / np.hypot(lead.real, lead.imag))


# The last factorization no call has reused yet, as {"entry": (key, (w, v, left))}.
# Each call takes the entry out with one atomic pop, so a stored array reaches
# at most one caller and no thread can pair one key with another entry's
# arrays.  The entry serves the next call if it is on the same matrix, as
# hermitize(h, k_diag=k) right after hermitize(h), and is then gone, so what a
# call gets never depends on factorizations older than the one before it.
_memo: dict = {}


def eig_general(m, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of a general complex matrix with a matched left system.

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
        If the right eigenvector basis has a 2-norm condition number above
        ``tol.defective_cond``, which signals an exceptional point.

    Notes
    -----
    A successful result is kept, under the exact bytes of the complex128
    input and ``tol.defective_cond``, until the next call.  If that call has
    the same key it gets the kept copy, bit for bit what a recomputation
    gives at a fixed BLAS thread count; either way the copy is released.
    """
    a = as_square_matrix(m)
    key = (a.shape, a.tobytes(), tol.defective_cond)
    entry = _memo.pop("entry", None)
    if entry is not None and entry[0] == key:
        return entry[1]
    w, v = np.linalg.eig(a)
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = _normalize_columns(v[:, order])
    try:
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        vinv = None
    # ||V||_F ||V^-1||_F bounds the 2-norm condition from above; the factor 2
    # dwarfs its rounding error, so the SVD runs only where it can decide.  On
    # a Jordan block the norm of V^-1 overflows; an infinite bound goes to the SVD.
    with np.errstate(over="ignore"):
        bound = fro(v) * fro(vinv) if vinv is not None else np.inf
    if not bound <= 0.5 * tol.defective_cond:
        cond = np.linalg.cond(v)
        if not np.isfinite(cond) or cond > tol.defective_cond:
            raise DefectiveMatrix(
                f"eigenvector basis condition {cond:.3e} exceeds {tol.defective_cond:.1e}"
            )
        if vinv is None:
            vinv = np.linalg.inv(v)
    # Inverting the right basis biorthonormalizes exactly, degenerate blocks included.
    result = (w, v, vinv.conj().T)
    # order="K" keeps left, an F-ordered view, F-ordered; a C-order copy
    # would change the bits of later BLAS products.
    _memo["entry"] = (key, tuple(x.copy(order="K") for x in result))
    return result


def herm_sqrt(p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a Hermitian positive definite matrix.

    Raises NotHermitian if the input is not Hermitian within ``tol.residual_rel``
    and NotPositiveDefinite if any eigenvalue falls at or below
    ``tol.positivity_rel`` times the matrix norm.
    """
    a = as_square_matrix(p)
    scale = fro(a)
    if scale == 0:
        raise NotPositiveDefinite("zero matrix has no positive definite square root")
    sym = _require_hermitian(a, tol.residual_rel, "herm_sqrt input")
    lam, u = np.linalg.eigh(sym)
    if lam[0] <= tol.positivity_rel * scale:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {lam[0]:.3e} at or below {tol.positivity_rel:g} * {scale:.3e}"
        )
    root = (u * np.sqrt(lam)) @ u.conj().T
    return herm_part(root)


def polar_decompose(m, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Right polar decomposition M = W P with W unitary and P Hermitian positive definite.

    From one SVD M = U S V†: W = U V† and P = V S V†, the square root of M†M.
    Raises SingularInput when M†M is numerically singular, i.e. its smallest
    eigenvalue s_min² is at or below ``tol.positivity_rel`` times its norm.
    """
    a = as_square_matrix(m)
    u, s, vh = np.linalg.svd(a)
    gram_spec = s * s
    gram_norm = np.linalg.norm(gram_spec)
    if gram_spec[-1] <= tol.positivity_rel * gram_norm:
        raise SingularInput(
            f"polar factor undefined: s_min^2 {gram_spec[-1]:.3e} at or below "
            f"{tol.positivity_rel:g} * {gram_norm:.3e}"
        )
    return u @ vh, herm_part((vh.conj().T * s) @ vh)


def herm_exp(s, scale: float = 1.0) -> np.ndarray:
    """exp(scale * S) for Hermitian S, evaluated through the spectral decomposition."""
    a = as_square_matrix(s)
    sym = _require_hermitian(a, DEFAULT_TOL.residual_rel, "herm_exp generator")
    lam, u = np.linalg.eigh(sym)
    return (u * np.exp(scale * lam)) @ u.conj().T
