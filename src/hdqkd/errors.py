"""Exception types shared across the package, and its one JSON writer."""

import json


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


def write_json(path, doc, message: str, indent: int | None = 2) -> None:
    """Write doc to path as strict JSON.  A NaN or infinity raises
    InvalidInputError(message) before the file is opened."""
    try:
        text = json.dumps(doc, indent=indent, allow_nan=False)
    except ValueError:
        raise InvalidInputError(message) from None
    with open(path, "w") as fh:
        fh.write(text)
