"""Semantic exception hierarchy used across the package."""

import math
from contextlib import contextmanager
from numbers import Integral, Real


class LocalScoresError(Exception):
    """Base class for all package errors."""


class InputError(LocalScoresError, ValueError):
    """Invalid argument: wrong shape, out-of-range parameter, malformed file."""


class UnsupportedError(LocalScoresError):
    """Requested operation is outside the supported envelope (e.g. space too
    large to enumerate, score kind without a closed form)."""


class InternalConsistencyError(LocalScoresError):
    """An internal invariant failed; signals a bug (e.g. a Bregman divergence
    evaluating below the negativity tolerance, which points at a gradient
    error rather than at user input)."""


@contextmanager
def open_text(path):
    """Open a file for reading text; bytes the text codec cannot decode raise
    InputError naming the file instead of a bare UnicodeDecodeError."""
    try:
        with open(path) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a text file: {exc}") from exc


def checked_count(name: str, value, least: int = 1):
    """`value` if it is an integer (not a bool) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def checked_real(name: str, value, positive: bool = False):
    """`value` if it is a finite real (not a bool) >= 0, or > 0 when
    `positive`."""
    if (isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value < math.inf
            or (positive and value == 0)):
        raise InputError(f"{name} must be a finite real {'>' if positive else '>='} 0, got {value!r}")
    return value


def checked_size(what: str, count: int, budget: int, unit: str = "entries") -> int:
    """`count`, refused with UnsupportedError above `budget` before `what` is built."""
    if count > budget:
        raise UnsupportedError(f"{what} needs {count} {unit}, above {budget}")
    return count
