"""Local potential families over neighborhood systems.

A family assigns to each active point y a convex function on the positive
orthant indexed by its neighbors b(y). Five built-in kinds:

- ``pl``   pseudo-likelihood,        phi_y(g) = -sum_z log(1+g_z)
- ``rm``   ratio matching,           phi_y(g) = -(1/2) sum_z g_z/(1+g_z)
- ``dp``   density power (gamma>0),  phi_y(g) = sum_z g_z^(1+gamma)/(1+gamma)
- ``ps``   pseudo-spherical (gamma>0), phi_y(g) = (1+gamma)-norm of g
- ``cl``   block-conditional likelihood, phi_y(g) = -sum_l log(1+sum_{b_l} g_z)

plus ``custom`` additive families built from a user convex scalar function.
pl/rm/dp/custom are additive (a sum of one-dimensional terms), so their
scores stay on the original graph; ps/cl are not additive and their scores
also read the neighbors' neighborhoods.

Families never enumerate the space: they only need a neighbor generator, so
hypercubes far beyond enumeration size (D up to 62) can be scored through
the implicit neighborhoods defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import (
    BlockSystem,
    NeighborhoodGraph,
    block_neighbor_arrays,
    block_submasks,
    masks_up_to_weight,
    pad_rows,
    parse_blocks,
    xor_neighbors,
)
from .spaces import SampleSpace

ADDITIVE_KINDS = ("pl", "rm", "dp", "custom")
ALL_KINDS = ("pl", "rm", "dp", "ps", "cl", "custom")


# ---------------------------------------------------------------------------
# element-wise maps of the pl/rm edge terms on float arrays, in plain ufuncs
# worked in place (out passed by position, which parses fastest): on long
# arrays they run several times faster than np.logaddexp and scipy's expit


def _softplus(d):
    """log(1 + e^d) = max(d, 0) + log1p(e^-|d|), within an ulp for every
    finite d."""
    t = np.abs(d)
    np.negative(t, t)
    np.exp(t, t)
    np.log1p(t, t)
    t += np.maximum(d, 0.0)
    return t


def _sigmoid(d):
    """1 / (1 + e^-d)."""
    t = np.negative(d)
    np.exp(t, t)
    t += 1.0
    return np.reciprocal(t, t)


def _rm_value(d):
    """sigmoid(d)^2."""
    t = _sigmoid(d)
    return np.square(t, t)


def _rm_grad(d):
    """2 sigmoid(d)^2 sigmoid(-d) = 2 sigmoid(d)^2 / (1 + e^d)."""
    t = _rm_value(d)
    t *= 2.0
    u = np.exp(d)
    u += 1.0
    t /= u
    return t


# ---------------------------------------------------------------------------
# value vectors


@dataclass(frozen=True)
class UnnormalizedVector:
    """Strictly positive vector over the space, stored as logarithms."""

    logs: np.ndarray

    def __post_init__(self):
        logs = np.ascontiguousarray(self.logs, dtype=np.float64)
        if not np.all(np.isfinite(logs)):
            raise InputError("log values must be finite")
        logs.flags.writeable = False
        object.__setattr__(self, "logs", logs)

    @staticmethod
    def from_values(values) -> "UnnormalizedVector":
        values = np.asarray(values, dtype=np.float64)
        if np.any(values <= 0) or not np.all(np.isfinite(values)):
            raise InputError("values must be strictly positive and finite")
        return UnnormalizedVector(logs=np.log(values))

    @staticmethod
    def from_logs(logs) -> "UnnormalizedVector":
        return UnnormalizedVector(logs=np.asarray(logs, dtype=np.float64))

    @property
    def values(self) -> np.ndarray:
        return np.exp(self.logs)

    def __len__(self) -> int:
        return len(self.logs)


@dataclass(frozen=True)
class Probability:
    """Strictly positive weights summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise InputError("probability weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise InputError(f"weights sum to {w.sum()!r}, not 1")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @staticmethod
    def normalize(values) -> "Probability":
        values = np.asarray(values, dtype=np.float64)
        return Probability(weights=values / values.sum())

    @staticmethod
    def uniform(size: int) -> "Probability":
        return Probability(weights=np.full(size, 1.0 / size))

    def log(self) -> UnnormalizedVector:
        return UnnormalizedVector(logs=np.log(self.weights))

    def __len__(self) -> int:
        return len(self.weights)


# ---------------------------------------------------------------------------
# implicit neighborhoods (no materialized adjacency)


class HypercubeNeighborhood:
    """Hamming-ball adjacency on {-1,+1}^D generated by index XOR."""

    def __init__(self, dim: int, radius: int):
        if not 1 <= radius <= dim:
            raise InputError(f"radius must be in 1..{dim}, got {radius}")
        self.space = SampleSpace.hypercube(dim)
        self.radius = radius
        self._masks = np.array(masks_up_to_weight(dim, radius), dtype=np.int64)

    def neighbors(self, i: int) -> np.ndarray:
        return np.sort(int(i) ^ self._masks)

    def neighbor_matrix(self, points) -> tuple[np.ndarray, None]:
        return xor_neighbors(points, self._masks), None


class BlockNeighborhood:
    """Block-conditional adjacency on {-1,+1}^D: flip within any one block."""

    def __init__(self, system: BlockSystem):
        self.space = SampleSpace.hypercube(system.dim)
        self.system = system
        # b(y) is the union of the b_l(y), so y XOR the union of the submasks
        self._masks = np.unique(np.concatenate(block_submasks(system)))

    def neighbors(self, i: int) -> np.ndarray:
        return np.sort(int(i) ^ self._masks)

    def neighbor_matrix(self, points) -> tuple[np.ndarray, None]:
        return xor_neighbors(points, self._masks), None

    def block_neighbors(self, i: int) -> list[np.ndarray]:
        return block_neighbor_arrays(self.system, int(i))


# ---------------------------------------------------------------------------
# per-point potential evaluators


class _AdditivePotential:
    """phi_y(g) = sum_z f0(g_z) for a convex scalar f0."""

    additive = True

    def __init__(self, f0, f1, f2):
        self.f0, self.f1, self.f2 = f0, f1, f2

    def value(self, v):
        return float(np.sum(self.f0(v)))

    def grad(self, v):
        return self.f1(v)

    def hess_dot(self, v, x):
        return self.f2(v) * x

    def hess_row(self, v, pos):
        row = np.zeros_like(v)
        row[pos] = self.f2(v[pos : pos + 1])[0]
        return row


class _PseudoSphericalPotential:
    """phi_y(g) = (sum_z g_z^(1+gamma))^(1/(1+gamma)); convex, 1-homogeneous,
    not strictly convex."""

    additive = False

    def __init__(self, gamma: float):
        self.gamma = gamma

    def _norm(self, v):
        return float(np.sum(v ** (1.0 + self.gamma)) ** (1.0 / (1.0 + self.gamma)))

    def value(self, v):
        return self._norm(v)

    def grad(self, v):
        return (v / self._norm(v)) ** self.gamma

    def hess_dot(self, v, x):
        g, n = self.gamma, self._norm(v)
        vg = v ** g
        return g * n ** (-g) * v ** (g - 1.0) * x - g * n ** (-2 * g - 1.0) * vg * float(vg @ x)

    def hess_row(self, v, pos):
        g, n = self.gamma, self._norm(v)
        vg = v ** g
        row = -g * n ** (-2 * g - 1.0) * vg[pos] * vg
        row[pos] += g * n ** (-g) * v[pos] ** (g - 1.0)
        return row


class _CompositePotential:
    """phi_y(g) = -sum_l log(1 + sum over block l of g); `positions` gives,
    per block, the offsets of the block's neighbors inside sorted b(y)."""

    additive = False

    def __init__(self, positions: list[np.ndarray]):
        self.positions = positions

    def _sums(self, v):
        return [float(v[pos].sum()) for pos in self.positions]

    def value(self, v):
        return -sum(np.log1p(s) for s in self._sums(v))

    def grad(self, v):
        out = np.zeros_like(v)
        for pos, s in zip(self.positions, self._sums(v)):
            out[pos] -= 1.0 / (1.0 + s)
        return out

    def hess_dot(self, v, x):
        out = np.zeros_like(v)
        for pos, s in zip(self.positions, self._sums(v)):
            out[pos] += float(x[pos].sum()) / (1.0 + s) ** 2
        return out

    def hess_row(self, v, pos_idx):
        row = np.zeros_like(v)
        for pos, s in zip(self.positions, self._sums(v)):
            if np.any(pos == pos_idx):
                row[pos] += 1.0 / (1.0 + s) ** 2
        return row


def _scalar_triplet(kind: str, gamma: float | None):
    if kind == "pl":
        return (
            lambda t: -np.log1p(t),
            lambda t: -1.0 / (1.0 + t),
            lambda t: 1.0 / (1.0 + t) ** 2,
        )
    if kind == "rm":
        return (
            lambda t: -0.5 * t / (1.0 + t),
            lambda t: -0.5 / (1.0 + t) ** 2,
            lambda t: 1.0 / (1.0 + t) ** 3,
        )
    if kind == "dp":
        return (
            lambda t: t ** (1.0 + gamma) / (1.0 + gamma),
            lambda t: t ** gamma,
            lambda t: gamma * t ** (gamma - 1.0),
        )
    raise InputError(f"no scalar potential for kind {kind!r}")


# ---------------------------------------------------------------------------
# the family


class LocalPotentialFamily:
    """A potential kind bound to a neighborhood system and an active set.

    `graph` is anything exposing `.space` and `.neighbors(i)` (a materialized
    NeighborhoodGraph or an implicit neighborhood). `active` is None for the
    whole space or a set of point indices; every active point must have at
    least one neighbor.

    Families are immutable apart from an internal per-point memo; concurrent
    score evaluation is safe (racing writers store identical entries).
    """

    def __init__(
        self,
        kind: str,
        graph,
        *,
        gamma: float | None = None,
        blocks: BlockSystem | None = None,
        active=None,
        phi=None,
        dphi=None,
        d2phi=None,
    ):
        if kind not in ALL_KINDS:
            raise InputError(f"unknown potential kind {kind!r}")
        if kind in ("dp", "ps"):
            if gamma is None or gamma <= 0:
                raise InputError(f"kind {kind!r} needs gamma > 0")
        elif gamma is not None:
            raise InputError(f"kind {kind!r} takes no gamma")
        if blocks is not None and kind != "cl":
            raise InputError("blocks only apply to composite-likelihood families")
        if kind == "custom":
            if phi is None or dphi is None:
                raise InputError("custom families need phi and dphi")
            _spot_check_convexity(phi)
        self.kind = kind
        self.graph = graph
        self.gamma = gamma
        self.blocks = blocks
        self.phi, self.dphi = phi, dphi
        self.d2phi = d2phi if d2phi is not None else _numeric_second(dphi)
        self.active = None if active is None else frozenset(int(a) for a in active)
        self._local_cache: dict[int, object] = {}
        if self.active is not None and not self.active:
            raise InputError("active set must be nonempty")
        self._validate_active_neighborhoods()

    # -- structure ---------------------------------------------------------

    @property
    def space(self) -> SampleSpace:
        return self.graph.space

    @property
    def additive(self) -> bool:
        return self.kind in ADDITIVE_KINDS

    @property
    def potential_class(self) -> str:
        # ps is convex but not strictly convex; everything else built here is
        # strictly convex on its domain (cl only under the rank condition,
        # which diagnose-side callers must check separately).
        return "pseudo-spherical" if self.kind == "ps" else "strictly-convex"

    def in_active(self, y: int) -> bool:
        return self.active is None or int(y) in self.active

    def active_indices(self) -> np.ndarray:
        if self.active is None:
            self.space.require_enumerable("enumerating the active set")
            return np.arange(self.space.size, dtype=np.int64)
        return np.array(sorted(self.active), dtype=np.int64)

    def neighbors(self, y: int) -> np.ndarray:
        return self.graph.neighbors(int(y))

    def neighbor_matrix(self, points) -> tuple[np.ndarray, np.ndarray | None]:
        """b(y) for a batch of points: sorted rows, short rows padded with
        the point itself, and the mask of real entries (None when no row is
        short). Graphs without a batch form are read one point at a time."""
        points = np.asarray(points, dtype=np.int64)
        if hasattr(self.graph, "neighbor_matrix"):
            return self.graph.neighbor_matrix(points)
        return pad_rows([self.graph.neighbors(int(p)) for p in points], points)

    @property
    def _block_system(self) -> BlockSystem | None:
        if self.blocks is not None:
            return self.blocks
        if isinstance(self.graph, BlockNeighborhood):
            return self.graph.system
        return None

    @property
    def num_blocks(self) -> int:
        system = self._block_system
        return 1 if system is None else len(system.blocks)

    def block_lists(self, y: int) -> list[np.ndarray]:
        """Per-block neighbor arrays b_l(y); a single block b(y) when the
        family has no block structure."""
        system = self._block_system
        if system is None:
            return [self.neighbors(y)]
        return block_neighbor_arrays(system, int(y))

    def block_matrix(self, points, block: int) -> tuple[np.ndarray, np.ndarray | None]:
        """b_l(y) of one block l for a batch of points, as `neighbor_matrix`."""
        system = self._block_system
        if system is None:
            return self.neighbor_matrix(points)
        return xor_neighbors(points, block_submasks(system)[block]), None

    def local(self, y: int):
        """(neighbor array, potential evaluator) for the point y."""
        y = int(y)
        hit = self._local_cache.get(y)
        if hit is not None:
            return hit
        nbrs = self.neighbors(y)
        if self.kind == "ps":
            ev = _PseudoSphericalPotential(self.gamma)
        elif self.kind == "cl":
            positions = [np.searchsorted(nbrs, b) for b in self.block_lists(y)]
            ev = _CompositePotential(positions)
        elif self.kind == "custom":
            ev = _AdditivePotential(
                np.vectorize(self.phi, otypes=[float]),
                np.vectorize(self.dphi, otypes=[float]),
                np.vectorize(self.d2phi, otypes=[float]),
            )
        else:
            ev = _AdditivePotential(*_scalar_triplet(self.kind, self.gamma))
        if len(self._local_cache) < 65536:
            self._local_cache[y] = (nbrs, ev)
        return nbrs, ev

    def scalar_terms(self):
        """(f0, f1, f2) of the one-dimensional term for additive kinds."""
        if not self.additive:
            raise InputError(f"kind {self.kind!r} is not additive")
        if self.kind == "custom":
            return (
                np.vectorize(self.phi, otypes=[float]),
                np.vectorize(self.dphi, otypes=[float]),
                np.vectorize(self.d2phi, otypes=[float]),
            )
        return _scalar_triplet(self.kind, self.gamma)

    def edge_terms(self):
        """Stable per-edge maps of float arrays on the log-ratio scale for
        whole-space additive scoring: d = log f_z - log f_y gives the score
        term psi(e^d) and its derivative with respect to log f_z.

        pl/rm reduce to softplus and sigmoids and stay finite for any d; dp
        genuinely grows like exp((1+gamma)d), overflowing to a clean inf.
        A sigmoid's exp overflows where |d| exceeds about 709, which gives
        the right limit; callers that mind the warning run under np.errstate.
        """
        if not self.additive:
            raise InputError(f"kind {self.kind!r} is not additive")
        if self.kind == "pl":
            return _softplus, _sigmoid
        if self.kind == "rm":
            return _rm_value, _rm_grad
        if self.kind == "dp":
            g = self.gamma
            return (
                lambda d: g / (1.0 + g) * np.exp((1.0 + g) * d) - np.exp(-g * d),
                lambda d: g * (np.exp((1.0 + g) * d) + np.exp(-g * d)),
            )
        f0, f1, f2 = self.scalar_terms()

        def value(d):
            r = np.exp(d)
            s = np.exp(-d)
            return r * f1(r) - f0(r) - f1(s)

        def grad(d):
            r = np.exp(d)
            s = np.exp(-d)
            return r * r * f2(r) + s * f2(s)

        return value, grad

    def _validate_active_neighborhoods(self) -> None:
        # Implicit hypercube neighborhoods always have nonempty b(y).
        if not isinstance(self.graph, NeighborhoodGraph):
            return
        for y in (self.active if self.active is not None else range(self.space.size)):
            if len(self.graph.adjacency[int(y)]) == 0:
                raise InputError(f"active point {y} has an empty neighborhood")

    def describe(self) -> str:
        if self.kind in ("dp", "ps"):
            return f"{self.kind}:{self.gamma:g}"
        if self.kind == "cl" and self.blocks is not None:
            return f"cl:{self.blocks.spec_string()}"
        return self.kind


def _spot_check_convexity(phi, points=(0.1, 0.5, 1.0, 2.0, 7.5), h=1e-4) -> None:
    for t in points:
        second = phi(t + h) - 2.0 * phi(t) + phi(t - h)
        if second < -1e-8:
            raise InputError(f"custom potential fails the convexity spot check at t={t}")


def _numeric_second(dphi):
    if dphi is None:
        return None

    def second(t, _d=dphi):
        h = 1e-6 * max(1.0, abs(t))
        return (_d(t + h) - _d(t - h)) / (2.0 * h)

    return second


# ---------------------------------------------------------------------------
# constructors and the score-kind grammar


def pseudo_likelihood(graph, active=None) -> LocalPotentialFamily:
    return LocalPotentialFamily("pl", graph, active=active)


def ratio_matching(graph, active=None) -> LocalPotentialFamily:
    return LocalPotentialFamily("rm", graph, active=active)


def density_power(graph, gamma: float, active=None) -> LocalPotentialFamily:
    return LocalPotentialFamily("dp", graph, gamma=gamma, active=active)


def pseudo_spherical(graph, gamma: float, active=None) -> LocalPotentialFamily:
    return LocalPotentialFamily("ps", graph, gamma=gamma, active=active)


def composite_likelihood(source, active=None) -> LocalPotentialFamily:
    """CL family from a BlockSystem (hypercube) or from any graph, in which
    case each point gets the single block b(y)."""
    if isinstance(source, BlockSystem):
        return LocalPotentialFamily(
            "cl", BlockNeighborhood(source), blocks=source, active=active
        )
    return LocalPotentialFamily("cl", source, active=active)


def custom_additive(graph, phi, dphi, d2phi=None, active=None) -> LocalPotentialFamily:
    return LocalPotentialFamily(
        "custom", graph, phi=phi, dphi=dphi, d2phi=d2phi, active=active
    )


@dataclass(frozen=True)
class ScoreSpec:
    """Parsed score-kind text: `pl | rm | dp:<g> | ps:<g> | cl:<blocks> |
    mcl:<blocks>` with `<blocks>` like `1,2;3,4` (optional for cl/mcl)."""

    kind: str  # pl rm dp ps cl mcl
    gamma: float | None = None
    blocks_text: str | None = None

    @property
    def standard_cl(self) -> bool:
        """True when the estimation objective is the plain block-conditional
        likelihood rather than the gradient (mCL) score."""
        return self.kind == "cl"

    def family(self, graph) -> LocalPotentialFamily:
        if self.kind in ("pl", "rm"):
            return LocalPotentialFamily(self.kind, graph)
        if self.kind in ("dp", "ps"):
            return LocalPotentialFamily(self.kind, graph, gamma=self.gamma)
        # cl / mcl share the block-conditional potential
        if self.blocks_text is None:
            return composite_likelihood(graph)
        space = graph.space
        if space.kind != "hypercube":
            raise InputError("block lists require a hypercube space")
        return composite_likelihood(parse_blocks(self.blocks_text, space.dim))

    def text(self) -> str:
        if self.kind in ("dp", "ps"):
            return f"{self.kind}:{self.gamma:g}"
        if self.kind in ("cl", "mcl") and self.blocks_text:
            return f"{self.kind}:{self.blocks_text}"
        return self.kind


def parse_score_spec(text: str) -> ScoreSpec:
    head, sep, rest = text.strip().partition(":")
    if head in ("pl", "rm"):
        if sep:
            raise InputError(f"score kind {head!r} takes no parameter")
        return ScoreSpec(kind=head)
    if head in ("dp", "ps"):
        try:
            gamma = float(rest)
        except ValueError as exc:
            raise InputError(f"bad gamma in score spec {text!r}") from exc
        if gamma <= 0:
            raise InputError(f"gamma must be positive in {text!r}")
        return ScoreSpec(kind=head, gamma=gamma)
    if head in ("cl", "mcl"):
        return ScoreSpec(kind=head, blocks_text=rest if sep else None)
    raise InputError(f"unknown score kind {text!r}")
