"""Exception types shared across the package, and its one JSON writer, count
rule and positive-number rule."""

import json
import math


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


def is_count(n) -> bool:
    """n is a count >= 1 as JSON gives one: an int, not a bool."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 1


def check_positive(what: str, *values) -> None:
    """Raise InvalidInputError, naming what and the first bad value, unless
    every value is a number as JSON gives one (an int or a float, not a
    bool), finite and > 0."""
    for value in values:
        real = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (real and 0.0 < value < math.inf):  # NaN too
            raise InvalidInputError(f"{what} must be finite and > 0, got {value!r:.120}")


def write_json(path, doc, message: str, indent: int | None = 2) -> None:
    """Write doc to path as strict JSON.  A NaN or infinity raises
    InvalidInputError(message) before the file is opened."""
    try:
        text = json.dumps(doc, indent=indent, allow_nan=False)
    except ValueError:
        raise InvalidInputError(message) from None
    with open(path, "w") as fh:
        fh.write(text)
