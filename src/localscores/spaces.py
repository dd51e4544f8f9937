"""Finite discrete sample spaces.

Three kinds of space are supported:

- ``enumerated``: an explicit list of distinct point identifiers;
- ``hypercube``: sign vectors {-1,+1}^D;
- ``labels``: the integers 0..L-1.

Every point carries a canonical dense index in 0..size-1. Hypercube points
are indexed by their binary encoding: coordinate j (0-based) contributes bit
j, with -1 encoded as 0 and +1 as 1, so coordinate 0 is the least significant
bit. This gives O(1) point lookup and a reproducible ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, checked_count

# Hypercube indices live in int64; the top bit is kept free.
MAX_HYPERCUBE_DIM = 62

# Spaces above this size refuse to enumerate (divergences, normalization).
MAX_ENUMERABLE = 2 ** 16

# Whole-space and whole-file passes (log f over many states, sample files,
# oracle trials) work on chunks of this many states, rows or log values, so
# their transient memory is O(output + chunk), not a multiple of the batch.
CHUNK_ENTRIES = 4096


@dataclass(frozen=True)
class SampleSpace:
    """A finite sample space with canonically indexed points."""

    kind: str  # "enumerated" | "hypercube" | "labels"
    size: int
    dim: int | None = None  # hypercube dimension D
    point_ids: tuple[str, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        checked_count("sample space size", self.size, 2)
        if self.kind == "hypercube":
            if checked_count("hypercube dimension", self.dim) > MAX_HYPERCUBE_DIM:
                raise InputError(f"hypercube dimension {self.dim} exceeds {MAX_HYPERCUBE_DIM}")
            if self.size != 2 ** self.dim:
                raise InputError("hypercube size must be 2**dim")
        elif self.kind == "labels":
            if self.dim is not None:
                raise InputError("label space takes no dimension")
        elif self.kind == "enumerated":
            if self.point_ids is None or len(self.point_ids) != self.size:
                raise InputError("enumerated space needs one identifier per point")
            if len(set(self.point_ids)) != self.size:
                raise InputError("enumerated point identifiers must be distinct")
        else:
            raise InputError(f"unknown space kind {self.kind!r}")

    @staticmethod
    def enumerated(point_ids) -> "SampleSpace":
        ids = tuple(str(p) for p in point_ids)
        return SampleSpace(kind="enumerated", size=len(ids), point_ids=ids)

    @staticmethod
    def hypercube(dim: int) -> "SampleSpace":
        checked_count("hypercube dimension", dim)
        return SampleSpace(kind="hypercube", size=2 ** dim, dim=dim)

    @staticmethod
    def label_range(num_labels: int) -> "SampleSpace":
        return SampleSpace(kind="labels", size=num_labels)

    @property
    def enumerable(self) -> bool:
        return self.size <= MAX_ENUMERABLE

    def require_enumerable(self, what: str) -> None:
        if not self.enumerable:
            from .errors import UnsupportedError

            raise UnsupportedError(
                f"{what} requires an enumerable space (|Y| <= {MAX_ENUMERABLE}), "
                f"got |Y| = {self.size}"
            )

    def checked_indices(self, values, what: str = "sample") -> np.ndarray:
        """Values as a flat index array, checked nonempty, integral and inside
        the space (before the cast, so nothing is truncated or wrapped)."""
        values = _integral(values, f"{what}s")
        if values.size == 0:
            raise InputError(f"{what}s must be nonempty")
        if values.min() < 0 or values.max() >= self.size:
            raise InputError(f"{what} index outside the space")
        return values.astype(np.int64, copy=False)

    def point_label(self, index: int) -> str:
        """Human-readable identifier of the point at a dense index."""
        if self.kind == "enumerated":
            return self.point_ids[index]
        if self.kind == "labels":
            return str(index)
        signs = index_to_signs(index, self.dim)
        return "(" + ",".join("+1" if s > 0 else "-1" for s in signs) + ")"

    def spec_string(self) -> str:
        """Compact `kind:param` form used by file headers and the CLI."""
        if self.kind == "hypercube":
            return f"hypercube:{self.dim}"
        if self.kind == "labels":
            return f"labels:{self.size}"
        return f"enumerated:{self.size}"


def parse_space_spec(text: str) -> SampleSpace:
    """Parse `hypercube:<D>`, `labels:<L>` or `enumerated:<n>` into a space."""
    try:
        kind, _, param = text.partition(":")
        value = int(param)
    except ValueError as exc:
        raise InputError(f"bad space spec {text!r}") from exc
    if kind == "hypercube":
        return SampleSpace.hypercube(value)
    if kind == "labels":
        return SampleSpace.label_range(value)
    if kind == "enumerated":
        return SampleSpace.enumerated([f"p{i}" for i in range(value)])
    raise InputError(f"bad space spec {text!r}")


def _integral(values, what: str) -> np.ndarray:
    """Values as a flat numeric array whose entries are all integers."""
    values = np.asarray(values).reshape(-1)
    kind = values.dtype.kind
    if kind not in "iuf" or (kind == "f" and np.any(values != np.trunc(values))):
        raise InputError(f"{what} must be integers")
    return values


def signs_to_index(signs) -> int:
    """Canonical index of a sign vector: bit j set iff coordinate j is +1."""
    return int(signs_matrix_to_indices(np.asarray(signs)[np.newaxis])[0])


def index_to_signs(index: int, dim: int) -> np.ndarray:
    """Sign vector of a canonical hypercube index."""
    return indices_to_signs([index], dim)[0]


def _chunk_slices(n: int) -> list[slice]:
    """range(n) cut into chunks of `CHUNK_ENTRIES`, the last also taking the
    remainder. No chunk is narrower than that unless n is: BLAS evaluates a
    narrow product by another route, which can round the last bit otherwise
    than the whole batch would."""
    count = max(1, n // CHUNK_ENTRIES)
    return [slice(k * CHUNK_ENTRIES, n if k == count - 1 else (k + 1) * CHUNK_ENTRIES)
            for k in range(count)]


def _hypercube_indices(indices, dim: int) -> np.ndarray:
    """Indices as a flat int64 array, checked integral and in 0..2**dim-1
    (before the cast, so nothing is truncated or wrapped)."""
    idx = _integral(indices, "hypercube indices")
    if idx.size and (idx.min() < 0 or idx.max() >= 2 ** dim):
        raise InputError(f"hypercube indices must lie in 0..{2 ** dim - 1}")
    return idx.astype(np.int64, copy=False)


def _sign_columns(indices, dim: int) -> np.ndarray:
    """Vectorized decoding: (n,) indices in 0..2**dim-1 -> the float64 (dim, n)
    matrix whose column k holds the signs of index k. Built in this layout, it
    takes a quarter of the time of transposing the (n, dim) rows."""
    return ((_hypercube_indices(indices, dim) >> np.arange(dim)[:, None]) & 1) * 2.0 - 1.0


def indices_to_signs(indices, dim: int) -> np.ndarray:
    """Vectorized decoding: (n,) indices in 0..2**dim-1 -> (n, dim) sign matrix."""
    return np.ascontiguousarray(_sign_columns(indices, dim).T, dtype=np.int64)


def signs_matrix_to_indices(signs) -> np.ndarray:
    """Vectorized encoding: (n, dim) matrix of +1/-1 entries -> (n,) indices."""
    signs = np.asarray(signs)
    if signs.ndim != 2 or signs.dtype.kind not in "iuf":
        raise InputError(f"expected a numeric (n, dim) sign matrix, got {signs.dtype} {signs.shape}")
    off = np.abs(signs) != 1
    if off.any():
        raise InputError(f"hypercube coordinates must be +1/-1, got {signs[off][0].item()!r}")
    bits = (signs > 0).astype(np.int64)
    weights = (np.int64(1) << np.arange(signs.shape[1], dtype=np.int64))
    return bits @ weights


def hamming_distance(y, z) -> int:
    """Number of coordinates at which two sign vectors differ."""
    ya = np.asarray(y)
    za = np.asarray(z)
    if ya.shape != za.shape:
        raise InputError(f"dimension mismatch: {ya.shape} vs {za.shape}")
    return int(np.count_nonzero(ya != za))


def index_hamming_distance(i: int, j: int) -> int:
    """Hamming distance between two canonical hypercube indices."""
    return int(i ^ j).bit_count()
