"""Semantic exception hierarchy used across the package."""

from contextlib import contextmanager


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
