"""Exception hierarchy shared by all modules, the CLI exit-code mapping, the input-file field checks, and
the one intake of arguments: integer, count, finite and radius checks, ``freeze``, ``as_points`` and
``as_directions``, and the one bound on a (grid points, atoms or rule nodes) table."""

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


def check_finite(x, what: str) -> None:
    """Refuse a number, or an array with an entry, that is NaN or infinite, naming the first such value."""
    finite = np.isfinite(x)
    if not (finite.all() if finite.ndim else finite):  # a number's test is a numpy bool: all() is slow on it
        raise InvalidInputError(f"{what} must be finite, not {np.asarray(x)[~finite][0]}")


def check_radius(R, what: str = "ball radius R") -> None:
    """Refuse a radius that is not a positive finite number."""
    check_finite(R, what)
    if not R > 0:
        raise InvalidInputError(f"{what} must be positive, not {R}")


def freeze(record, **arrays) -> None:
    """Set each named field of the frozen dataclass ``record`` to a read-only copy of the array given."""
    for name, value in arrays.items():
        value = np.array(value)
        value.setflags(write=False)
        object.__setattr__(record, name, value)


def as_points(x, d: int) -> tuple[np.ndarray, bool]:
    """``x`` as an (N, d) float array and whether it was one point, the one way every evaluator reads
    points: a number (d = 1 only) or a (d,) vector is one point, an (N, d) array N, any other shape raises."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim > 2 or (pts.shape or (1,))[-1] != d:
        raise InvalidInputError(f"points of shape {pts.shape} do not match d={d}")
    return (pts, False) if pts.ndim == 2 else (pts.reshape(1, d), True)


def as_directions(x, d: int) -> tuple[np.ndarray, bool]:
    """``x`` read as ``as_points`` reads it, refused unless every row is a unit vector: a norm
    off 1 by more than 1e-12, or not a number, raises.  The one test of a direction's norm."""
    w, single = as_points(x, d)
    norms = np.linalg.norm(w, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-12))
    if len(bad):
        raise InvalidInputError(f"directions must be unit vectors, not of norm {float(norms[bad[0]])!r} at row {bad[0]}")
    return w, single


# most entries of one (grid points, atoms or rule nodes) table: 256 MiB as float64
_MAX_TABLE = 2**25


def _check_table(points: int, columns: int, what: str) -> None:
    """Refuse, before it is allocated, a table of ``points`` grid points by ``columns`` of
    ``what`` that would pass ``_MAX_TABLE`` entries."""
    if points * columns > _MAX_TABLE:
        raise DomainError(
            f"a table of {points} grid points x {columns} {what} is above the limit of {_MAX_TABLE} entries:"
            " use a smaller grid"
        )


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
