"""Dyson maps, physical metrics, and Hermitian avatars for quasi-Hermitian Hamiltonians."""

from .dyson import (
    BiorthogonalSystem,
    DysonMap,
    HermitizationReport,
    Metric,
    build_omega_I,
    build_omega_K,
    build_omega_KU,
    build_report,
    evolve_norm_check,
    hermitian_avatar,
    hermitian_dyson,
    hermitize,
    metric_from_theta,
    metric_of,
    phys_inner,
    quasi_hermiticity_residual,
    solve_schrodinger_pair,
)
from .errors import (
    AvatarNotHermitian,
    ComplexSpectrum,
    DefectiveMatrix,
    EPRegion,
    InvalidCoupling,
    ModelDomainError,
    NotHermitian,
    NotPositiveDefinite,
    NotQuasiHermitian,
    NotUnitary,
    QuasihermError,
    SingularDysonMap,
    SingularInput,
    SingularScaling,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    eig_general,
    herm_exp,
    polar_decompose,
)
from .matfile import (
    MatrixFileError,
    dump_matrix,
    emit_json,
    load_matrix_file,
    parse_matrix,
    write_matrix_file,
)
from .models import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DimerParams,
    EPScanReport,
    FermionicParams,
    bch_conjugation_check,
    dimer_build,
    dimer_from_coupling,
    dimer_params,
    ep_scan,
    fermionic_build,
    fermionic_from_fock,
)
from .observables import (
    ObservableCandidate,
    SharedMetricResult,
    avatar_of_observable,
    check_diagonal_center,
    observable_from_M,
    shared_metric,
)

__version__ = "0.1.0"
