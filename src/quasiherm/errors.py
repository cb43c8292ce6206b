"""Typed failures raised by the numerical routines in this package."""

__all__ = [
    "QuasihermError",
    "DefectiveMatrix",
    "ComplexSpectrum",
    "NotHermitian",
    "NotPositiveDefinite",
    "SingularInput",
    "SingularScaling",
    "NotUnitary",
    "AvatarNotHermitian",
    "NotQuasiHermitian",
    "ModelDomainError",
    "EPRegion",
    "InvalidCoupling",
    "SingularDysonMap",
]


class QuasihermError(Exception):
    """Base class for every controlled numerical failure.

    exit_code is the command-line exit status of the failure class.
    """

    exit_code = 5


class DefectiveMatrix(QuasihermError):
    """Eigenbasis too ill-conditioned to trust; the matrix sits at or near an exceptional point."""

    exit_code = 4


class ComplexSpectrum(QuasihermError):
    """An eigenvalue has an imaginary part beyond the reality tolerance."""

    exit_code = 3


class NotHermitian(QuasihermError):
    """Input expected Hermitian is not, within the residual tolerance."""


class NotPositiveDefinite(QuasihermError):
    """Smallest eigenvalue fails the positivity threshold."""


class SingularInput(QuasihermError):
    """Matrix is numerically singular where invertibility is required."""


class SingularScaling(QuasihermError):
    """A diagonal rescaling entry is too close to zero."""


class NotUnitary(QuasihermError):
    """Matrix fails the unitarity residual check."""


class AvatarNotHermitian(QuasihermError):
    """Similarity transform did not produce a Hermitian matrix; the map is not valid for this Hamiltonian."""


class NotQuasiHermitian(QuasihermError):
    """Hamiltonian and metric fail the intertwining relation required for unitary evolution."""


class ModelDomainError(QuasihermError):
    """Base class for model-parameter violations."""

    exit_code = 6


class EPRegion(ModelDomainError):
    """Requested couplings lie at or beyond the exceptional point; the spectrum is no longer real."""


class InvalidCoupling(ModelDomainError):
    """Pairing couplings must have a positive product."""


class SingularDysonMap(ModelDomainError):
    """Closed-form map determinant vanishes; no invertible map exists at these parameters."""
