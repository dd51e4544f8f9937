"""Neighborhood systems on finite sample spaces.

A neighborhood system is an undirected, loop-free graph G on the points of a
space. b(y) denotes the neighbors of y and n(y) = b(y) + {y}; n(y) is always
derived, never stored. From G two derived graphs on an active subset Y0 are
built: one joins points whose n-neighborhoods intersect, the other points
whose b-neighborhoods intersect. Their connectivity, together with coverage
of the space by the active neighborhoods, decides whether a composite local
Bregman divergence separates distinct probabilities; `diagnose` packages that
decision. Every derived-graph fact comes from one table, the incidences
between active points and the members of their neighborhoods: `diagnose`
takes its components with one numpy connected-components routine in
near-linear time and never builds the derived graphs, while
`derived_graph_n` / `derived_graph_b` (and `extended_graph`, the whole-space
n-graph) group the incidences by member and emit the pairs inside each
group, refusing beyond `MAX_SHARED_PAIRS` pairs.

Every hypercube neighborhood is one XOR system, b(y) = {y ^ m} over fixed
distinct nonzero masks m: `HypercubeNeighborhood` and `BlockNeighborhood`
generate it on demand at any dimension, and `materialize` (behind
`hamming_graph` and `cl_neighborhood`) lists its adjacency.

All graph values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, UnsupportedError, checked_count, open_text
from .spaces import SampleSpace


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class NeighborhoodGraph:
    """Symmetric loop-free adjacency over the points of a space.

    adjacency[i] is the sorted array of neighbor indices b(i).
    """

    space: SampleSpace
    adjacency: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.adjacency) != self.space.size:
            raise InputError("adjacency must list every point of the space")
        _validate_adjacency(self.adjacency, self.space.size)

    def neighbors(self, i: int) -> np.ndarray:
        return self.adjacency[i]

    def neighbor_matrix(self, points) -> tuple[np.ndarray, np.ndarray | None]:
        """b(y) for a batch of points, padded to the largest degree (see
        `pad_rows`)."""
        table, valid = self._padded
        points = np.asarray(points, dtype=np.int64)
        return table[points], None if valid is None else valid[points]

    @cached_property
    def _padded(self) -> tuple[np.ndarray, np.ndarray | None]:
        return pad_rows(self.adjacency, np.arange(self.space.size, dtype=np.int64))

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Canonical (min, max) edge list in lexicographic order."""
        return _upper_edges(self.adjacency, np.arange(self.space.size))


def _edge_arrays(adjacency) -> tuple[np.ndarray, np.ndarray]:
    """The directed edges (i, j), j in adjacency[i], as two index arrays in
    row order."""
    lengths = np.fromiter((len(a) for a in adjacency), dtype=np.int64, count=len(adjacency))
    src = np.repeat(np.arange(len(adjacency), dtype=np.int64), lengths)
    return src, np.concatenate([*adjacency, src[:0]], dtype=np.int64, casting="unsafe")


def _upper_edges(adjacency, names: np.ndarray) -> list[tuple[int, int]]:
    """Each edge once as (names[i], names[j]) with i < j, in row order: the
    rows are sorted, so that order is lexicographic."""
    src, dst = _edge_arrays(adjacency)
    upper = src < dst
    return list(zip(names[src[upper]].tolist(), names[dst[upper]].tolist()))


def _validate_adjacency(adjacency, size: int) -> None:
    src, dst = _edge_arrays(adjacency)
    outside = (dst < 0) | (dst >= size)
    loop = dst == src
    unsorted = np.zeros(dst.shape, dtype=bool)
    unsorted[1:] = (src[1:] == src[:-1]) & (dst[1:] <= dst[:-1])
    offending = outside | loop | unsorted
    if offending.any():
        # the first offending point, its row checked in this order
        first = src[offending][0]
        row = src == first
        for bad, message in ((outside, "neighbor of point {} outside the space"),
                             (loop, "loop at point {}"),
                             (unsorted, "adjacency of point {} not sorted/distinct")):
            if bad[row].any():
                raise InputError(message.format(first))
    # rows are sorted and distinct, so the keys of the directed edges ascend
    keys = src * size + dst
    reverse = dst * size + src
    if not np.array_equal(np.sort(reverse), keys):
        k = int(np.argmin(np.isin(reverse, keys)))
        raise InputError(f"asymmetric adjacency: {src[k]}->{dst[k]} without {dst[k]}->{src[k]}")


def _table_rows(table: np.ndarray, valid: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Frozen adjacency rows from a padded table: row k keeps its valid
    entries (all of them when `valid` is None)."""
    if valid is None:
        return tuple(_freeze(table))
    return _split_rows(table[valid], valid.sum(axis=1))


def _split_rows(flat: np.ndarray, lengths) -> tuple[np.ndarray, ...]:
    """Frozen adjacency rows: row k is the next lengths[k] entries of flat."""
    return tuple(np.split(_freeze(flat), np.cumsum(lengths)[:-1]))


def pad_rows(rows, fill) -> tuple[np.ndarray, np.ndarray | None]:
    """Stack ragged index rows into an (n, longest) matrix.

    Row k is padded with fill[k] (callers pass the row's own point, a valid
    index that real entries never contain). Returns the matrix and the mask
    of real entries, or None for the mask when no row is short."""
    fill = np.asarray(fill, dtype=np.int64)
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
    out = np.repeat(fill[:, None], valid.shape[1], axis=1)
    if valid.any():
        out[valid] = np.concatenate(rows)
    return out, None if valid.all() else valid


def graph_from_edges(space: SampleSpace, edges) -> NeighborhoodGraph:
    """Build a graph from an iterable of index pairs (either orientation)."""
    nbrs: list[set[int]] = [set() for _ in range(space.size)]
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise InputError(f"loop edge ({i},{i})")
        if not (0 <= i < space.size and 0 <= j < space.size):
            raise InputError(f"edge ({i},{j}) outside the space")
        nbrs[i].add(j)
        nbrs[j].add(i)
    adjacency = tuple(_freeze(np.array(sorted(s), dtype=np.int64)) for s in nbrs)
    return NeighborhoodGraph(space=space, adjacency=adjacency)


def masks_up_to_weight(dim: int, radius: int) -> list[int]:
    """All nonzero bit masks over `dim` bits with at most `radius` set bits,
    generated combinatorially (dim can be far beyond enumeration size)."""
    from itertools import combinations

    out = []
    for weight in range(1, radius + 1):
        for bits in combinations(range(dim), weight):
            out.append(sum(1 << b for b in bits))
    return out


class _XorNeighborhood:
    """Adjacency on {-1,+1}^D generated by index XOR: b(y) = {y ^ m} over
    distinct nonzero bit masks m. Nothing is materialized."""

    def __init__(self, dim: int, masks):
        self.space = SampleSpace.hypercube(dim)
        self._masks = np.asarray(masks, dtype=np.int64)

    def neighbors(self, i: int) -> np.ndarray:
        return np.sort(int(i) ^ self._masks)

    def neighbor_matrix(self, points) -> tuple[np.ndarray, None]:
        """Rows sorted(y ^ masks) for a batch of points y."""
        return np.sort(np.asarray(points, dtype=np.int64)[:, None] ^ self._masks, axis=1), None


class HypercubeNeighborhood(_XorNeighborhood):
    """Hamming-ball adjacency on {-1,+1}^D: distance 1..radius."""

    def __init__(self, dim: int, radius: int):
        if checked_count("radius", radius) > dim:
            raise InputError(f"radius must be in 1..{dim}, got {radius}")
        super().__init__(dim, masks_up_to_weight(dim, radius))
        self.radius = radius


def neighbor_rows(graph, points) -> tuple[np.ndarray, np.ndarray | None]:
    """b(y) for a batch of points as `pad_rows` lays them out: from the
    graph's batch form, or one point at a time for graphs without one."""
    points = np.asarray(points, dtype=np.int64)
    if hasattr(graph, "neighbor_matrix"):
        return graph.neighbor_matrix(points)
    return pad_rows([graph.neighbors(int(p)) for p in points], points)


def materialize(system) -> NeighborhoodGraph:
    """The adjacency of any neighborhood system over its whole space."""
    system.space.require_enumerable("materialize")
    points = np.arange(system.space.size, dtype=np.int64)
    return NeighborhoodGraph(space=system.space, adjacency=_table_rows(*neighbor_rows(system, points)))


def hamming_graph(dim: int, radius: int) -> NeighborhoodGraph:
    """Hypercube graph joining sign vectors at Hamming distance 1..radius."""
    SampleSpace.hypercube(dim).require_enumerable("hamming_graph")
    return materialize(HypercubeNeighborhood(dim, radius))


def label_band_graph(num_labels: int, band: int) -> NeighborhoodGraph:
    """Graph on labels 0..L-1 joining y,z iff 1 <= |y-z| <= band."""
    space = SampleSpace.label_range(num_labels)
    if checked_count("band", band) >= num_labels:
        raise InputError(f"band must be in 1..{num_labels - 1}, got {band}")
    offsets = np.concatenate([np.arange(-band, 0), np.arange(1, band + 1)])
    table = np.arange(num_labels, dtype=np.int64)[:, None] + offsets
    valid = (table >= 0) & (table < num_labels)
    return NeighborhoodGraph(space=space, adjacency=_table_rows(table, valid))


def extended_graph(graph: NeighborhoodGraph) -> NeighborhoodGraph:
    """Join distinct points y, y' whenever n(y) and n(y') meet: every edge,
    and every pair of points sharing a neighbor. The result always contains
    the input."""
    derived = derived_graph_n(graph, np.arange(graph.space.size))
    return NeighborhoodGraph(space=graph.space, adjacency=derived.adjacency)


@dataclass(frozen=True)
class VertexGraph:
    """A plain graph over an explicit vertex list (derived graphs live here).

    `vertices` are original point indices; adjacency is positional.
    """

    vertices: tuple[int, ...]
    adjacency: tuple[np.ndarray, ...]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[int, int]]:
        """Canonical (min, max) edge list in original point indices."""
        return _upper_edges(self.adjacency, np.array(self.vertices, dtype=np.int64))


def _check_subset(graph, active) -> np.ndarray:
    if not isinstance(graph, NeighborhoodGraph):  # diagnostics allocate per point
        graph.space.require_enumerable("diagnosing an implicit neighborhood")
    values = active if isinstance(active, np.ndarray) else list(active)
    active = np.sort(graph.space.checked_indices(values, "active point"))
    if np.any(active[1:] == active[:-1]):
        raise InputError("active subset has repeats")
    return active


def derived_graph_n(graph, active) -> VertexGraph:
    """Graph on Y0 joining y != y' whenever n(y) and n(y') intersect."""
    return _derived_graph(graph, active, "n")


def derived_graph_b(graph, active) -> VertexGraph:
    """Graph on Y0 joining y != y' whenever b(y) and b(y') intersect."""
    return _derived_graph(graph, active, "b")


def _derived_graph(graph, active, mode: str) -> VertexGraph:
    verts = _check_subset(graph, active)
    return VertexGraph(vertices=tuple(verts.tolist()), adjacency=_shared_member_rows(graph, verts, mode))


def _component_labels(num_nodes: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Label every node with the smallest node of its connected component,
    for the undirected edges (u[k], v[k]).

    Min-label hooking with pointer jumping: each round hooks every root onto
    the smallest root it shares an edge with, then jumps pointers until each
    node points at its root. A root either hooks or is hooked onto, so the
    roots of a component at least halve per round, and parents only
    decrease, so the last root left is the component's smallest node."""
    parent = np.arange(num_nodes, dtype=np.int64)
    while True:
        pu, pv = parent[u], parent[v]
        differ = pu != pv
        if not differ.any():
            return parent
        pu, pv = pu[differ], pv[differ]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def _labels(graph) -> np.ndarray:
    """Component labels of a NeighborhoodGraph's points or a VertexGraph's
    positions."""
    return _component_labels(len(graph.adjacency), *_edge_arrays(graph.adjacency))


def components(graph) -> list[list[int]]:
    """Connected components, each with its vertices sorted, ordered by their
    smallest vertex."""
    labels = _labels(graph)
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    return [c.tolist() for c in np.split(order, starts)] if labels.size else []


def is_connected(graph) -> bool:
    return not np.any(_labels(graph))


def _incidences(graph, verts: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (k, z) with z in n(verts[k]) (mode 'n') or b(verts[k])
    (mode 'b'), as an array of positions k and an array of members z."""
    table, valid = neighbor_rows(graph, verts)
    owner = np.broadcast_to(np.arange(len(verts))[:, None], table.shape)
    if valid is not None:
        table, owner = table[valid], owner[valid]
    owner, member = owner.ravel(), table.ravel()
    if mode == "n":
        owner = np.concatenate([owner, np.arange(len(verts))])
        member = np.concatenate([member, verts])
    return owner, member


def covers(graph, active, mode: str) -> bool:
    """Does the union of n(y) (mode 'n') or b(y) (mode 'b') over Y0 equal Y?"""
    verts = _check_subset(graph, active)
    if mode not in ("n", "b"):
        raise InputError(f"mode must be 'n' or 'b', got {mode!r}")
    return _covered(graph, verts, mode)


def _covered(graph, verts: np.ndarray, mode: str) -> bool:
    hit = np.zeros(graph.space.size, dtype=bool)
    hit[_incidences(graph, verts, mode)[1]] = True
    return bool(hit.all())


def _incidence_labels(graph, verts: np.ndarray, mode: str) -> np.ndarray:
    """Component labels of the bipartite incidence graph linking each active
    point (node size + k) to the members of its n- (mode 'n') or
    b-neighborhood (mode 'b'), the points of the space (nodes 0..size-1).
    Two active points share a component exactly when they do in the derived
    graph joining y, y' whose neighborhoods intersect; a point that no
    neighborhood reaches is a component of its own."""
    size = graph.space.size
    owner, member = _incidences(graph, verts, mode)
    return _component_labels(size + len(verts), size + owner, member)


def _derived_component_count(graph, verts: np.ndarray, mode: str) -> int:
    return len(np.unique(_incidence_labels(graph, verts, mode)[graph.space.size:]))


# About 4.2M pairs; building them takes about 32 bytes a pair at the peak.
MAX_SHARED_PAIRS = 1 << 22


def _shared_member_rows(graph, verts: np.ndarray, mode: str) -> tuple[np.ndarray, ...]:
    """Adjacency rows, by position in verts, of the derived graph joining
    active points whose neighborhoods share a member: group the incidences
    by member and emit every pair inside each group. A member of s
    neighborhoods makes s^2 pairs; more than MAX_SHARED_PAIRS in all raise
    UnsupportedError before any is built."""
    owner, member = _incidences(graph, verts, mode)
    order = np.argsort(member)
    owner, member = owner[order], member[order]
    starts = np.flatnonzero(np.diff(member, prepend=-1))
    sizes = np.diff(starts, append=len(member))
    pairs = int(sizes @ sizes)
    if pairs > MAX_SHARED_PAIRS:
        raise UnsupportedError(
            f"derived graph needs {pairs} neighborhood-member pairs, above {MAX_SHARED_PAIRS}"
        )
    # incidence i pairs with the reach[i] incidences of its group from
    # first[i] on: slot sum(reach[:i]) + t reads incidence first[i] + t
    reach = np.repeat(sizes, sizes)
    first = np.repeat(starts, sizes)
    at = np.arange(pairs)
    at -= np.repeat(np.cumsum(reach) - reach - first, reach)
    k = len(verts)
    keys = np.repeat(owner * k, reach)
    keys += owner[at]
    keys.sort()
    src, dst = np.divmod(keys[np.diff(keys, prepend=-1) != 0], k)
    edge = src != dst
    return _split_rows(dst[edge], np.bincount(src[edge], minlength=k))


@dataclass(frozen=True)
class BlockSystem:
    """Coordinate index sets A_1..A_m over a hypercube {-1,+1}^D.

    Coordinates are 1-based, matching the usual statement of composite
    likelihoods; `masks` exposes 0-based bit masks.
    """

    dim: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        checked_count("block system dimension", self.dim)
        if not self.blocks:
            raise InputError("block system needs at least one block")
        for block in self.blocks:
            if not block:
                raise InputError("blocks must be nonempty")
            if any(not 1 <= i <= self.dim for i in block):
                raise InputError(f"block {set(block)} outside 1..{self.dim}")

    @staticmethod
    def of(dim: int, *blocks) -> "BlockSystem":
        return BlockSystem(dim=dim, blocks=tuple(frozenset(b) for b in blocks))

    @staticmethod
    def singletons(dim: int) -> "BlockSystem":
        return BlockSystem.of(dim, *({i} for i in range(1, dim + 1)))

    @property
    def masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << (i - 1) for i in block) for block in self.blocks)

    def covers_all_coordinates(self) -> bool:
        union = frozenset().union(*self.blocks)
        return union == frozenset(range(1, self.dim + 1))

    def spec_string(self) -> str:
        return ";".join(",".join(str(i) for i in sorted(b)) for b in self.blocks)


def parse_blocks(text: str, dim: int) -> BlockSystem:
    """Parse `1,2;3,4` style block lists (1-based coordinates)."""
    try:
        blocks = [frozenset(int(t) for t in part.split(",")) for part in text.split(";")]
    except ValueError as exc:
        raise InputError(f"bad block spec {text!r}") from exc
    return BlockSystem(dim=dim, blocks=tuple(blocks))


def _nonzero_submasks(mask: int) -> list[int]:
    sub = mask
    out = []
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return out


class BlockNeighborhood(_XorNeighborhood):
    """Block-conditional adjacency on {-1,+1}^D: flip within any one block.
    b_l(y) is y XOR a nonzero submask of block l, and b(y) is the union of
    the b_l(y)."""

    def __init__(self, system: BlockSystem):
        self._blocks = tuple(_XorNeighborhood(system.dim, _nonzero_submasks(m)) for m in system.masks)
        super().__init__(system.dim, np.unique(np.concatenate([b._masks for b in self._blocks])))
        self.system = system

    def block_neighbors(self, i: int) -> list[np.ndarray]:
        return [block.neighbors(i) for block in self._blocks]


def cl_neighborhood(system: BlockSystem):
    """Materialize the block-conditional neighborhood system on {-1,+1}^D.

    Returns the union graph (b(y) = union of the b_l(y)) and the per-point
    per-block neighbor lists.
    """
    SampleSpace.hypercube(system.dim).require_enumerable("cl_neighborhood")
    neighborhood = BlockNeighborhood(system)
    per_block = [materialize(block).adjacency for block in neighborhood._blocks]
    return materialize(neighborhood), tuple(zip(*per_block))


def cl_connectivity_matches_cover(system: BlockSystem) -> bool:
    """Self-test: block-union coverage of {1..D} must equal connectivity of
    the derived n-intersection graph over the whole space."""
    graph = BlockNeighborhood(system)
    graph.space.require_enumerable("cl_connectivity_matches_cover")
    points = np.arange(graph.space.size, dtype=np.int64)
    connected = _derived_component_count(graph, points, "n") == 1
    return connected == system.covers_all_coordinates()


STRICTLY_CONVEX = "strictly-convex"
PSEUDO_SPHERICAL = "pseudo-spherical"


@dataclass(frozen=True)
class GraphDiagnostics:
    """Graph-side facts that decide whether coincidence is guaranteed."""

    covers_n: bool
    covers_b: bool
    g0_connected: bool
    g0prime_connected: bool
    component_count_g0prime: int
    potential_class: str
    guaranteed: bool


def diagnose(graph, active, potential_class: str) -> GraphDiagnostics:
    """Decide the coincidence guarantee for a potential class on (G, Y0).

    `graph` is any neighborhood system a family accepts, on an enumerable space.

    Strictly convex local potentials need n-coverage plus a connected
    n-intersection graph; pseudo-spherical ones need b-coverage plus a
    connected b-intersection graph. The derived graphs are never built:
    their components come from the point-neighborhood incidences, in time
    linear in the sum of the active neighborhood sizes (up to a log factor).
    """
    if potential_class not in (STRICTLY_CONVEX, PSEUDO_SPHERICAL):
        raise InputError(f"unknown potential class {potential_class!r}")
    verts = _check_subset(graph, active)
    covers_n = _covered(graph, verts, "n")
    covers_b = _covered(graph, verts, "b")
    g0_connected = _derived_component_count(graph, verts, "n") == 1
    g0prime_count = _derived_component_count(graph, verts, "b")
    g0prime_connected = g0prime_count == 1
    if potential_class == STRICTLY_CONVEX:
        guaranteed = covers_n and g0_connected
    else:
        guaranteed = covers_b and g0prime_connected
    return GraphDiagnostics(
        covers_n=covers_n,
        covers_b=covers_b,
        g0_connected=g0_connected,
        g0prime_connected=g0prime_connected,
        component_count_g0prime=g0prime_count,
        potential_class=potential_class,
        guaranteed=guaranteed,
    )


def write_edge_list(graph: NeighborhoodGraph, path) -> None:
    """Edge-list text file: header `space <kind> <param>`, then `i j` lines."""
    space = graph.space
    param = space.dim if space.kind == "hypercube" else space.size
    lines = [f"space {space.kind} {param}"]
    lines += [f"{i} {j}" for i, j in graph.edges()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path) -> NeighborhoodGraph:
    with open_text(path) as fh:
        raw = [(lineno, line.strip()) for lineno, line in enumerate(fh, start=1) if line.strip()]
    header = raw[0][1] if raw else ""
    if not header.startswith("space "):
        raise InputError(f"{path}: missing `space <kind> <param>` header")
    try:
        _, kind, param = header.split()
        param = int(param)
    except ValueError as exc:
        raise InputError(f"{path}: bad header {header!r}") from exc
    if kind == "hypercube":
        space = SampleSpace.hypercube(param)
    elif kind == "labels":
        space = SampleSpace.label_range(param)
    elif kind == "enumerated":
        space = SampleSpace.enumerated([f"p{i}" for i in range(param)])
    else:
        raise InputError(f"{path}: unknown space kind {kind!r}")
    edges = []
    for lineno, line in raw[1:]:
        try:
            i, j = (int(t) for t in line.split())
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: expected `i j`, got {line!r}") from exc
        edges.append((i, j))
    return graph_from_edges(space, edges)
