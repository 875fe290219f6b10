"""Exception hierarchy shared by all modules, the CLI exit-code mapping, the input-file field checks
and the checks of an integer or count argument."""

from __future__ import annotations

from itertools import chain

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


def list_field(payload: dict, key: str, what: str) -> list:
    """``payload[key]`` of an input file as a list of JSON objects: anything else raises, naming the field."""
    value = payload[key]
    if not isinstance(value, list):
        raise InvalidInputError(f"malformed {what} file: {key!r} must be a list, not {value!r}")
    bad = [x for x in value if not isinstance(x, dict)]
    if bad:
        raise InvalidInputError(f"malformed {what} file: {key!r} entries must be objects, not {bad[0]!r}")
    return value


def check_integer(n, what: str) -> None:
    """Refuse a value that is not an integer: Python and numpy ints pass, bools and whole floats do not."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InvalidInputError(f"{what} must be an integer, not {n!r}")


def check_count(n, what: str, zero: bool = False) -> None:
    """Refuse a count that is not a positive integer, or with ``zero`` a non-negative one, as
    ``check_integer`` does a non-integer."""
    check_integer(n, what)
    if n < (0 if zero else 1):
        raise InvalidInputError(f"{what} must be {'non-negative' if zero else 'positive'}, not {n}")


def float_field(payload: dict, key: str, what: str, array: bool = False):
    """``payload[key]`` of an input file as a float, or with ``array`` as a float array of the lists' shape.

    A value that does not convert raises, naming the field, and so does one that
    converts but is not a JSON number: a boolean, or a string such as "1".
    """
    value = payload[key]
    kind = "numbers" if array else "a number"
    try:
        out = np.array(value, dtype=float) if array else float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed {what} file: {key!r} must be {kind}: {exc}") from None
    leaves = [value]
    for _ in range(out.ndim if array else 0):  # it converted, so its lists nest out.ndim deep
        leaves = list(chain.from_iterable(leaves))
    if not set(map(type, leaves)) <= {int, float}:
        bad = next(x for x in leaves if type(x) not in (int, float))
        raise InvalidInputError(f"malformed {what} file: {key!r} must be {kind}, not {bad!r}")
    return out


# CLI contract: 0 pass, 1 assertion fail, 2 parse error, 3 invariant violation,
# 4 domain error.
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_DOMAIN = 4

# what the CLI reports as one line and an exit code rather than a traceback: the
# library's own errors, and what a malformed file or argument raises underneath
CLI_ERRORS = (RadonlabError, ValueError, KeyError, TypeError, OSError)


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit code contract."""
    if isinstance(exc, DomainError):
        return EXIT_DOMAIN
    if isinstance(exc, InvariantViolationError):
        return EXIT_INVARIANT
    if isinstance(exc, CLI_ERRORS):
        return EXIT_PARSE
    return EXIT_FAIL
