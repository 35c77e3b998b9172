"""kypcert: KYP-certificate verification and transformation toolkit for
passive LTI systems given by state-space realization arrays.

The toolkit covers the four passivity families (positive-real, bounded-real
and their discrete-time analogues) through one quadratic-matrix-inequality
formulation, their lossless and hyper-bounded refinements, Cayley/bilinear
transforms between the families, and matrix-convex combination of certified
realizations.
"""

__version__ = "0.1.0"

import logging as _logging
from types import ModuleType as _ModuleType

from .cones import (
    ConeParameter,
    IsometryTuple,
    cayley,
    in_lyapunov,
    in_stein,
    matrix_convex_combine,
    random_in_lyapunov,
    random_isometry_tuple,
)
from .convexity import (
    IsometryFamily,
    PreservationResult,
    combine_realizations,
    random_isometry_family,
    verify_preservation,
)
from .exceptions import (
    BadFamily,
    BadParams,
    CertificateNotVerified,
    DimensionMismatch,
    DomainMismatch,
    EtaOutOfRange,
    InputNotCertified,
    MinusOneInSpectrum,
    NotAnIsometryFamily,
    NotPositiveDefinite,
    NumericalFailure,
    ParseError,
    PassivityError,
    PoleAt,
    ShapeError,
    SingularArray,
    SingularD,
    SingularIPlusA,
    SingularIPlusD,
    SingularMatrixError,
    SingularT,
)
from .families import (
    Domain,
    DomainGrid,
    MembershipReport,
    anti_db_oracle,
    bilinear_substitute,
    cayley_function,
    family_domain,
    hyper_bounded_oracle,
    lossless_boundary_oracle,
    make_grid,
    membership_oracle,
)
from .fixtures import FIXTURE_NAMES, FixtureId, fixture
from .qmi import (
    Certificate,
    CertificateStatus,
    Family,
    FamilyTag,
    NotFound,
    WMatrix,
    array_swap,
    as_tag,
    assemble_q,
    balance,
    build_balanced_weight,
    build_weight,
    check_lossless,
    random_certified_realization,
    solve_p,
    verify_kyp,
    weight_rotation_delta_to_beta,
    weight_transfer_beta_to_gamma,
    weight_transfer_delta_to_alpha,
)
from .realization import (
    Realization,
    cascade,
    change_coordinates,
    evaluate,
    invert_array,
    invert_function,
    is_minimal,
)
from .serialization import (
    load,
    load_isometry_family,
    load_matrix,
    load_realization,
    save,
    save_isometry_family,
    save_matrix,
    save_realization,
)

# the public names, without the submodules that the imports above bind
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)

# the library logs to the "kypcert" logger and stays silent unless the
# application configures logging
_logging.getLogger(__name__).addHandler(_logging.NullHandler())
