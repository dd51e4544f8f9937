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
the implicit XOR neighborhoods of `graphs` (`HypercubeNeighborhood`,
`BlockNeighborhood`), which this module re-exports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, UnsupportedError, checked_real
from .graphs import (
    BlockNeighborhood,
    BlockSystem,
    HypercubeNeighborhood,
    NeighborhoodGraph,
    neighbor_rows,
    parse_blocks,
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


def _masked(values, mask):
    """values with the entries outside mask zeroed (mask None keeps all)."""
    return values if mask is None else np.where(mask, values, 0.0)


def _logsumexp(a, axis=None):
    """log(sum(exp(a))) over axis (None: every entry), bit for bit as
    scipy.special.logsumexp (1.17) computes it for real input without
    weights: the maximum's ties are counted apart and the rest summed through
    log1p. scipy falls back to log(sum(exp(a))) where that result is not
    finite; here those results already agree with its fallback (the ties
    leave the sum after the shift, so an all -inf row gives -inf, not nan).
    Plain numpy costs about a fifth of scipy's array-API dispatch on the
    short vectors scored here."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1)
    axis = tuple(range(a.ndim)) if axis is None else axis
    if a.size == 0:
        return np.full(np.sum(a, axis=axis).shape, -np.inf)[()]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max(axis, keepdims=True)
        at_top = a == top
        count = at_top.sum(axis, dtype=np.float64, keepdims=True)
        rest = a - top
        rest[at_top] = -np.inf
        np.exp(rest, rest)
        # a zero rest stays zero; a zero count means a nan maximum, whose
        # result is non-finite either way
        rest = rest.sum(axis, keepdims=True)
        rest /= count
        out = np.log1p(rest)
        out += np.log(count)
        out += top
    return out.squeeze(axis)[()]


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
# potential evaluators: value and gradient act on ratio vectors g = f_b(y) / f_y
# along the last axis, so one call serves a single point or a padded
# (points x width) batch, whose `valid` mask (None: no padding) drops the
# padding from every sum


class _AdditivePotential:
    """phi_y(g) = sum_z f0(g_z) for a convex scalar f0."""

    def __init__(self, f0, f1):
        self.f0, self.f1 = f0, f1

    def value(self, v, valid=None):
        return np.sum(_masked(self.f0(v), valid), axis=-1)

    def grad(self, v, valid=None):
        return _masked(self.f1(v), valid)


class _PseudoSphericalPotential:
    """phi_y(g) = (sum_z g_z^(1+gamma))^(1/(1+gamma)); convex, 1-homogeneous,
    not strictly convex."""

    def __init__(self, gamma: float):
        self.gamma = gamma

    def _norm(self, v, valid=None):
        g = self.gamma
        return np.sum(_masked(v ** (1.0 + g), valid), axis=-1) ** (1.0 / (1.0 + g))

    def value(self, v, valid=None):
        return self._norm(v, valid)

    def grad(self, v, valid=None):
        return _masked((v / self._norm(v, valid)[..., None]) ** self.gamma, valid)


class _CompositePotential:
    """phi_y(g) = -sum_l log(1 + sum over block l of g); `member` is the
    (..., blocks, width) mask of the neighbors in each block b_l(y)."""

    def __init__(self, member: np.ndarray):
        self.member = member  # padding lies in no block, so `valid` is not needed

    def _per_block(self, coef):
        """Spread per-block coefficients (..., blocks) onto their members."""
        return np.sum(np.where(self.member, coef[..., None], 0.0), axis=-2)

    def _sums(self, v):
        return np.sum(np.where(self.member, v[..., None, :], 0.0), axis=-1)

    def value(self, v, valid=None):
        return -np.sum(np.log1p(self._sums(v)), axis=-1)

    def grad(self, v, valid=None):
        return -self._per_block(1.0 / (1.0 + self._sums(v)))


class EdgeTerms(NamedTuple):
    """An additive family's score as per-edge maps of float arrays on the
    log-ratio scale d = log f_z - log f_y, each a (map, derivative in d)
    pair. With r = e^d, an active y's own potential gives
    own(d) = r phi'(r) - phi(r) per z in b(y), an active z's potential gives
    nbr(d) = -phi'(1/r), and `whole` is their sum, the whole-space term
    psi(r) = r phi'(r) - phi(r) - phi'(1/r).

    pl's and rm's maps reduce to softplus and sigmoids, with `whole` fused
    (softplus(d), sigmoid(d)^2) rather than summed, and stay finite for any
    d. A sigmoid's exp overflows where |d| exceeds about 709, which gives the
    right limit; callers that mind the warning run under np.errstate. dp's
    exponentials overflow to a clean inf; custom kinds are formed from r."""

    own: tuple
    nbr: tuple
    whole: tuple


def _scalar_pair(kind: str, gamma: float | None):
    if kind == "pl":
        return lambda t: -np.log1p(t), lambda t: -1.0 / (1.0 + t)
    if kind == "rm":
        return lambda t: -0.5 * t / (1.0 + t), lambda t: -0.5 / (1.0 + t) ** 2
    if kind == "dp":
        return lambda t: t ** (1.0 + gamma) / (1.0 + gamma), lambda t: t ** gamma
    raise InputError(f"no scalar potential for kind {kind!r}")


# ---------------------------------------------------------------------------
# the family


class LocalPotentialFamily:
    """A potential kind bound to a neighborhood system and an active set.

    `graph` is anything exposing `.space` and `.neighbors(i)` (a materialized
    NeighborhoodGraph or an implicit XOR neighborhood). A cl family reads its
    blocks from the graph: a `BlockNeighborhood` gives the block system, any
    other graph the single block b(y). `active` is None for the whole space
    or a set of point indices; every active point must have at least one
    neighbor.

    A cl family scores mCL, the gradient score of its potential, or with
    `standard_cl=True` (whole space only) the plain composite likelihood.
    Off equivalence-class blocks that is not the potential's gradient, so a
    standard family answers the score routes and refuses the potential ones.

    Families are immutable apart from two internal memos, each filled on
    first use: the batch of every active point's neighbors and evaluator
    (`active_local`, which divergences and composite potentials read), and
    the whole-space score kernel that `scoring.state_scores` compiles once
    per family and reuses for every log f. Concurrent evaluation is safe:
    racing writers store identical entries.
    """

    def __init__(
        self,
        kind: str,
        graph,
        *,
        gamma: float | None = None,
        active=None,
        phi=None,
        dphi=None,
        d2phi=None,
        standard_cl=False,
    ):
        if kind not in ALL_KINDS:
            raise InputError(f"unknown potential kind {kind!r}")
        if kind in ("dp", "ps"):
            checked_real(f"the gamma of kind {kind!r}", gamma, positive=True)
        elif gamma is not None:
            raise InputError(f"kind {kind!r} takes no gamma")
        if kind == "custom":
            if phi is None or dphi is None:
                raise InputError("custom families need phi and dphi")
            _spot_check_convexity(phi)
        if standard_cl and (kind != "cl" or active is not None):
            raise InputError("standard CL needs a cl family on the whole-space active set")
        self.kind = kind
        self.standard_cl = bool(standard_cl)
        self.graph = graph
        self.gamma = gamma
        self.phi, self.dphi = phi, dphi
        self.d2phi = d2phi if d2phi is not None else _numeric_second(dphi)
        self.active = None if active is None else frozenset(int(a) for a in active)
        self._active_local = None
        self._kernel = None
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
        short)."""
        return neighbor_rows(self.graph, points)

    @property
    def blocks(self) -> BlockSystem | None:
        """The block system of a `BlockNeighborhood` graph, else None."""
        return self.graph.system if isinstance(self.graph, BlockNeighborhood) else None

    @property
    def _block_graphs(self) -> tuple:
        """The neighborhood system of each block l, b_l, of a cl family on a
        block system; else the graph itself, as the single block b."""
        return (self.graph,) if self.kind != "cl" or self.blocks is None else self.graph._blocks

    @property
    def num_blocks(self) -> int:
        return len(self._block_graphs)

    def block_lists(self, y: int) -> list[np.ndarray]:
        """Per-block neighbor arrays b_l(y)."""
        return [block.neighbors(int(y)) for block in self._block_graphs]

    def block_matrix(self, points, block: int) -> tuple[np.ndarray, np.ndarray | None]:
        """b_l(y) of one block l for a batch of points, as `neighbor_matrix`."""
        return neighbor_rows(self._block_graphs[block], points)

    def local(self, y: int):
        """(neighbor array, potential evaluator) for the point y: the one-row
        case of `active_local`."""
        nbrs = self.neighbors(y)
        return nbrs, self._evaluator(int(y), nbrs, None)

    def active_local(self):
        """(points, neighbor matrix, valid, evaluator) for every active point:
        the padded rows of `neighbor_matrix` with their mask, and one
        evaluator acting on the matching (points x width) ratio matrices.
        Built on first use."""
        if self._active_local is None:
            points = self.active_indices()
            nbrs, valid = self.neighbor_matrix(points)
            self._active_local = points, nbrs, valid, self._evaluator(points, nbrs, valid)
        return self._active_local

    def _evaluator(self, points, nbrs, valid):
        if self.standard_cl:
            raise UnsupportedError("standard CL is not its potential's gradient: score routes only")
        if self.kind == "ps":
            return _PseudoSphericalPotential(self.gamma)
        if self.kind == "cl":
            return _CompositePotential(self._block_membership(points, nbrs, valid))
        return _AdditivePotential(*self.scalar_terms())

    def _block_membership(self, points, nbrs, valid):
        """(..., blocks, width) mask of the neighbors in each b_l(y), for one
        point and its neighbor array or for a batch and its padded matrix. In
        a block system z lies in b_l(y) iff y ^ z is a nonzero submask of
        block l; without one, b(y) is the single block."""
        real = np.ones(np.shape(nbrs), dtype=bool) if valid is None else valid
        if self.blocks is None:
            return real[..., None, :]
        flips = nbrs ^ np.asarray(points)[..., None]
        outside = ~np.array(self.blocks.masks, dtype=np.int64)[:, None]
        return ((flips[..., None, :] & outside) == 0) & real[..., None, :]

    def scalar_terms(self):
        """(f0, f1): the one-dimensional term phi and its derivative for
        additive kinds."""
        if not self.additive:
            raise InputError(f"kind {self.kind!r} is not additive")
        if self.kind == "custom":
            return (
                np.vectorize(self.phi, otypes=[float]),
                np.vectorize(self.dphi, otypes=[float]),
            )
        return _scalar_pair(self.kind, self.gamma)

    def edge_terms(self) -> EdgeTerms:
        """The additive score's per-edge maps as an `EdgeTerms` table."""
        if not self.additive:
            raise InputError(f"kind {self.kind!r} is not additive")
        if self.kind == "pl":
            return EdgeTerms(
                (lambda d: _softplus(d) - _sigmoid(d), _rm_value),  # d/dd is sigmoid(d)^2
                (_sigmoid, lambda d: _sigmoid(d) * _sigmoid(-d)),
                (_softplus, _sigmoid),
            )
        if self.kind == "rm":
            half = lambda d: 0.5 * _rm_value(d), lambda d: 0.5 * _rm_grad(d)
            return EdgeTerms(half, half, (_rm_value, _rm_grad))
        if self.kind == "dp":
            g = self.gamma
            own = (lambda d: g / (1.0 + g) * np.exp((1.0 + g) * d),
                   lambda d: g * np.exp((1.0 + g) * d))
            nbr = lambda d: -np.exp(-g * d), lambda d: g * np.exp(-g * d)
        else:
            f0, f1 = self.scalar_terms()
            f2 = np.vectorize(self.d2phi, otypes=[float])
            at = lambda term, sign: lambda d: term(np.exp(sign * d))  # term read at e^(sign d)
            own = at(lambda r: r * f1(r) - f0(r), 1.0), at(lambda r: r * r * f2(r), 1.0)
            nbr = at(lambda s: -f1(s), -1.0), at(lambda s: s * f2(s), -1.0)
        return EdgeTerms(own, nbr, (lambda d: own[0](d) + nbr[0](d),
                                    lambda d: own[1](d) + nbr[1](d)))

    def _validate_active_neighborhoods(self) -> None:
        # Implicit hypercube neighborhoods always have nonempty b(y).
        if not isinstance(self.graph, NeighborhoodGraph):
            return
        for y in (self.active if self.active is not None else range(self.space.size)):
            if len(self.graph.adjacency[int(y)]) == 0:
                raise InputError(f"active point {y} has an empty neighborhood")

    def describe(self) -> str:
        """The family's score in the score-kind grammar (`parse_score_spec`)."""
        if self.kind in ("dp", "ps"):
            return f"{self.kind}:{self.gamma:g}"
        if self.kind == "cl":
            name = "cl" if self.standard_cl else "mcl"
            return name if self.blocks is None else f"{name}:{self.blocks.spec_string()}"
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
    """mCL family from a BlockSystem (hypercube) or from any graph, in which
    case each point gets the single block b(y)."""
    graph = BlockNeighborhood(source) if isinstance(source, BlockSystem) else source
    return LocalPotentialFamily("cl", graph, active=active)


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

    def family(self, graph) -> LocalPotentialFamily:
        """The family on `graph`, or on the block system of a block list."""
        if self.kind not in ("cl", "mcl"):
            return LocalPotentialFamily(self.kind, graph, gamma=self.gamma)
        if self.blocks_text is not None:
            space = graph.space
            if space.kind != "hypercube":
                raise InputError("block lists require a hypercube space")
            graph = BlockNeighborhood(parse_blocks(self.blocks_text, space.dim))
        return LocalPotentialFamily("cl", graph, standard_cl=self.kind == "cl")

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
        return ScoreSpec(kind=head, gamma=checked_real(f"the gamma in {text!r}", gamma, positive=True))
    if head in ("cl", "mcl"):
        return ScoreSpec(kind=head, blocks_text=rest if sep else None)
    raise InputError(f"unknown score kind {text!r}")
