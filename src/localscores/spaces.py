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

from .errors import InputError

# Hypercube indices live in int64; the top bit is kept free.
MAX_HYPERCUBE_DIM = 62

# Spaces above this size refuse to enumerate (divergences, normalization).
MAX_ENUMERABLE = 2 ** 16


@dataclass(frozen=True)
class SampleSpace:
    """A finite sample space with canonically indexed points."""

    kind: str  # "enumerated" | "hypercube" | "labels"
    size: int
    dim: int | None = None  # hypercube dimension D
    point_ids: tuple[str, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.size < 2:
            raise InputError(f"sample space needs at least 2 points, got {self.size}")
        if self.kind == "hypercube":
            if self.dim is None or self.dim < 1:
                raise InputError("hypercube space needs a positive dimension")
            if self.dim > MAX_HYPERCUBE_DIM:
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
        if dim < 1:
            raise InputError("hypercube dimension must be positive")
        return SampleSpace(kind="hypercube", size=2 ** dim, dim=dim)

    @staticmethod
    def label_range(num_labels: int) -> "SampleSpace":
        if num_labels < 2:
            raise InputError("label range needs at least 2 labels")
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
        values = np.asarray(values).reshape(-1)
        if values.size == 0:
            raise InputError(f"{what}s must be nonempty")
        kind = values.dtype.kind
        if kind not in "iuf" or (kind == "f" and np.any(values != np.trunc(values))):
            raise InputError(f"{what}s must be integers")
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


def signs_to_index(signs) -> int:
    """Canonical index of a sign vector: bit j set iff coordinate j is +1."""
    idx = 0
    for j, s in enumerate(signs):
        if s == 1:
            idx |= 1 << j
        elif s != -1:
            raise InputError(f"hypercube coordinates must be +1/-1, got {s!r}")
    return idx


def index_to_signs(index: int, dim: int) -> np.ndarray:
    """Sign vector of a canonical hypercube index."""
    return np.array([1 if (index >> j) & 1 else -1 for j in range(dim)], dtype=np.int64)


def indices_to_signs(indices, dim: int) -> np.ndarray:
    """Vectorized decoding: (n,) indices -> (n, dim) sign matrix."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    bits = (idx[:, None] >> np.arange(dim)[None, :]) & 1
    return (2 * bits - 1).astype(np.int64)


def signs_matrix_to_indices(signs: np.ndarray) -> np.ndarray:
    """Vectorized encoding: (n, dim) sign matrix -> (n,) indices."""
    signs = np.asarray(signs)
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
