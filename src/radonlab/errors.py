"""Exception hierarchy shared by all modules, the CLI exit-code mapping and the input-file field checks."""

from __future__ import annotations

import numpy as np


class RadonlabError(Exception):
    """Base class for all library errors."""


class InvalidInputError(RadonlabError):
    """Caller supplied malformed or out-of-contract values (CLI exit 2)."""


class InvariantViolationError(RadonlabError):
    """A computed object violates one of its declared invariants (CLI exit 3)."""


class InconsistentMeasureError(InvariantViolationError):
    """Spectral measure breaks the conjugate/antipodal symmetry closure."""


class DomainError(RadonlabError):
    """Operation evaluated outside its mathematical domain (CLI exit 4)."""


class PreconditionError(DomainError):
    """A stated operation precondition does not hold for these arguments."""


class UnsupportedDimensionError(DomainError):
    """Requested ambient dimension has no deterministic rule."""


class DegenerateMeasureError(DomainError):
    """Sampling from a measure with zero total mass."""


def integer_field(payload: dict, key: str, what: str) -> int:
    """``payload[key]`` of an input file as an int: 2 and 2.0 pass, fractions, strings and booleans raise."""
    value = payload[key]
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise InvalidInputError(f"malformed {what} file: {key!r} must be an integer, not {value!r}")
    return int(value)


def float_field(payload: dict, key: str, what: str, array: bool = False):
    """``payload[key]`` of an input file as a float, or with ``array`` as a float array of the lists' shape.

    A value that does not convert raises, naming the field.
    """
    value = payload[key]
    try:
        return np.array(value, dtype=float) if array else float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(
            f"malformed {what} file: {key!r} must be {'numbers' if array else 'a number'}: {exc}"
        ) from None


# CLI contract: 0 pass, 1 assertion fail, 2 parse error, 3 invariant violation,
# 4 domain error.
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_DOMAIN = 4


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit code contract."""
    if isinstance(exc, DomainError):
        return EXIT_DOMAIN
    if isinstance(exc, InvariantViolationError):
        return EXIT_INVARIANT
    if isinstance(exc, (InvalidInputError, ValueError, KeyError, TypeError, OSError)):
        return EXIT_PARSE
    return EXIT_FAIL
