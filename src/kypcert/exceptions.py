"""Exception types raised across the toolkit."""


class PassivityError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(PassivityError):
    """Operands have inconsistent shapes."""


class SingularMatrixError(PassivityError):
    """A matrix that must be inverted is singular to working precision."""


class PoleAt(SingularMatrixError):
    """Transfer-function evaluation attempted at (or too near) a pole."""

    def __init__(self, z: complex, message: str | None = None):
        self.z = z
        super().__init__(message or f"evaluation point {z} is a pole to working precision")


class SingularT(SingularMatrixError):
    """Coordinate-change matrix is singular or too ill conditioned."""


class SingularArray(SingularMatrixError):
    """The (n+m) x (n+m) realization array is singular."""


class SingularD(SingularMatrixError):
    """Feedthrough block D is singular; the function inverse has no proper realization."""


class SingularIPlusD(SingularMatrixError):
    """I + D is singular; the Cayley transform of the function is undefined."""


class SingularIPlusA(SingularMatrixError):
    """I + A is singular; the bilinear variable substitution is undefined."""


class MinusOneInSpectrum(SingularMatrixError):
    """-1 is (numerically) an eigenvalue, so the matrix Cayley transform is undefined."""


class NumericalFailure(PassivityError):
    """A factorization did not converge, or a result overflowed to non-finite entries."""


class NotPositiveDefinite(PassivityError):
    """A matrix required to be Hermitian positive definite is not."""


class EtaOutOfRange(PassivityError):
    """Hyper-bounded parameter eta is not a number in (1, inf], or is finite outside b and db."""


class CertificateNotVerified(PassivityError):
    """Operation requires a certificate with verified status."""


class BadFamily(PassivityError):
    """Operation is not defined for the requested passivity family."""


class NotAnIsometryFamily(PassivityError):
    """Blocks do not sum to the identity Gram matrix within tolerance."""


class DomainMismatch(PassivityError):
    """Sampling grid domain does not match the requested family/oracle."""


class InputNotCertified(PassivityError):
    """An input realization fails the balanced QMI and cannot be auto-certified."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"input realization #{index} is not certified")


class BadParams(PassivityError, ValueError):
    """Invalid parameters or entries (e.g. fixture a = 0, a non-Hermitian
    weight, non-finite realization blocks)."""


class ParseError(PassivityError):
    """A document could not be parsed; message carries file/field context."""


class ShapeError(ParseError):
    """A parsed document has internally inconsistent shapes."""
