"""Exception types shared across the package."""


class HdqkdError(ValueError):
    """Base class for all validation and computation errors raised here."""


class InvalidDimensionError(HdqkdError):
    """Dimension does not satisfy the construction's requirements."""


class InvalidBasisIndexError(HdqkdError):
    """Basis index outside the valid family range."""


class InvalidInputError(HdqkdError):
    """Operands are malformed or mutually inconsistent (e.g. dim mismatch)."""


class GeometryError(HdqkdError):
    """Optical layout does not fit the sampling grid."""


class SamplingError(HdqkdError):
    """Grid sampling violates the propagation anti-aliasing bound."""


class InvalidModeSetError(HdqkdError):
    """Mode set is not orthogonal enough to act as a basis."""


class InvalidConfigError(HdqkdError):
    """Run configuration is inconsistent or incomplete."""


class InsufficientDataError(HdqkdError):
    """A sent state has no recorded counts, so it cannot be normalized."""


class DomainError(HdqkdError):
    """Argument outside the mathematical domain of the function."""


class InvalidNoiseError(DomainError):
    """Noise parameters outside their physical range."""


class NoThresholdError(HdqkdError):
    """The rate bound never reaches zero along the requested profile."""


class DegenerateTransferError(HdqkdError):
    """Transfer matrix captures no power at all."""
