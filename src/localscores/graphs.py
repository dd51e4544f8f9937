"""Neighborhood systems on finite sample spaces.

A neighborhood system is an undirected, loop-free graph G on the points of a
space. b(y) denotes the neighbors of y and n(y) = b(y) + {y}; n(y) is always
derived, never stored. From G two derived graphs on an active subset Y0 are
built: one joins points whose n-neighborhoods intersect, the other points
whose b-neighborhoods intersect. Their connectivity, together with coverage
of the space by the active neighborhoods, decides whether a composite local
Bregman divergence separates distinct probabilities; `diagnose` packages that
decision. It never builds the derived graphs: their components are those of
the point-neighborhood incidences, found by one numpy connected-components
routine in near-linear time. `derived_graph_n` / `derived_graph_b` build the
edges pairwise, in quadratic time, and serve as the small-space oracle.

All graph values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
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
        out = []
        for i, nbrs in enumerate(self.adjacency):
            for j in nbrs:
                if i < j:
                    out.append((i, int(j)))
        return out


def _edge_arrays(adjacency) -> tuple[np.ndarray, np.ndarray]:
    """The directed edges (i, j), j in adjacency[i], as two index arrays in
    row order."""
    lengths = np.fromiter((len(a) for a in adjacency), dtype=np.int64, count=len(adjacency))
    src = np.repeat(np.arange(len(adjacency), dtype=np.int64), lengths)
    return src, np.concatenate([*adjacency, src[:0]], dtype=np.int64, casting="unsafe")


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


def xor_neighbors(points, masks: np.ndarray) -> np.ndarray:
    """Rows sorted(y ^ masks) for a batch of hypercube indices y."""
    return np.sort(np.asarray(points, dtype=np.int64)[:, None] ^ masks, axis=1)


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


def hamming_graph(dim: int, radius: int) -> NeighborhoodGraph:
    """Hypercube graph joining sign vectors at Hamming distance 1..radius."""
    if not 1 <= radius <= dim:
        raise InputError(f"radius must be in 1..{dim}, got {radius}")
    space = SampleSpace.hypercube(dim)
    space.require_enumerable("hamming_graph")
    masks = np.array(masks_up_to_weight(dim, radius), dtype=np.int64)
    table = xor_neighbors(np.arange(space.size, dtype=np.int64), masks)
    return NeighborhoodGraph(space=space, adjacency=_table_rows(table))


def label_band_graph(num_labels: int, band: int) -> NeighborhoodGraph:
    """Graph on labels 0..L-1 joining y,z iff 1 <= |y-z| <= band."""
    if not 1 <= band < num_labels:
        raise InputError(f"band must be in 1..{num_labels - 1}, got {band}")
    space = SampleSpace.label_range(num_labels)
    offsets = np.concatenate([np.arange(-band, 0), np.arange(1, band + 1)])
    table = np.arange(num_labels, dtype=np.int64)[:, None] + offsets
    valid = (table >= 0) & (table < num_labels)
    return NeighborhoodGraph(space=space, adjacency=_table_rows(table, valid))


def extended_graph(graph: NeighborhoodGraph) -> NeighborhoodGraph:
    """Add an edge between every pair of distinct points sharing a neighbor.

    The original edges are kept, so the result always contains the input.
    """
    size = graph.space.size
    table, valid = graph._padded
    if valid is None:
        valid = np.ones(table.shape, dtype=bool)
    points = np.broadcast_to(np.arange(size, dtype=np.int64)[:, None], table.shape)
    # every edge y-z, and every pair of distinct neighbors u, v of one point z
    pair = valid[:, :, None] & valid[:, None, :] & (table[:, :, None] != table[:, None, :])
    src = np.concatenate([points[valid], np.broadcast_to(table[:, :, None], pair.shape)[pair]])
    dst = np.concatenate([table[valid], np.broadcast_to(table[:, None, :], pair.shape)[pair]])
    keys = np.unique(src * size + dst)
    adjacency = _split_rows(keys % size, np.bincount(keys // size, minlength=size))
    return NeighborhoodGraph(space=graph.space, adjacency=adjacency)


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
        out = []
        for a, nbrs in enumerate(self.adjacency):
            for b in nbrs:
                if a < b:
                    out.append((self.vertices[a], self.vertices[int(b)]))
        return out


def _sorted_intersects(a: np.ndarray, b: np.ndarray) -> bool:
    """Two-pointer merge test: do two sorted index lists share an element?"""
    ia = ib = 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        va, vb = a[ia], b[ib]
        if va == vb:
            return True
        if va < vb:
            ia += 1
        else:
            ib += 1
    return False


def _check_subset(graph: NeighborhoodGraph, active) -> np.ndarray:
    values = active if isinstance(active, np.ndarray) else list(active)
    active = np.sort(graph.space.checked_indices(values, "active point"))
    if np.any(active[1:] == active[:-1]):
        raise InputError("active subset has repeats")
    return active


def _intersection_graph(graph, active, include_self: bool) -> VertexGraph:
    verts = _check_subset(graph, active)
    if include_self:
        sets = [np.union1d(graph.adjacency[y], [y]) for y in verts]
    else:
        sets = [graph.adjacency[y] for y in verts]
    adjacency: list[list[int]] = [[] for _ in verts]
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            if _sorted_intersects(sets[a], sets[b]):
                adjacency[a].append(b)
                adjacency[b].append(a)
    return VertexGraph(
        vertices=tuple(verts.tolist()),
        adjacency=tuple(_freeze(np.array(sorted(s), dtype=np.int64)) for s in adjacency),
    )


def derived_graph_n(graph: NeighborhoodGraph, active) -> VertexGraph:
    """Graph on Y0 joining y != y' whenever n(y) and n(y') intersect."""
    return _intersection_graph(graph, active, include_self=True)


def derived_graph_b(graph: NeighborhoodGraph, active) -> VertexGraph:
    """Graph on Y0 joining y != y' whenever b(y) and b(y') intersect."""
    return _intersection_graph(graph, active, include_self=False)


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


def _neighborhood_rows(graph: NeighborhoodGraph, verts: np.ndarray, mode: str):
    """n(y) (mode 'n') or b(y) (mode 'b') of each active point as a padded
    table and the mask of its real entries."""
    table, valid = graph.neighbor_matrix(verts)
    if mode == "n":
        # padding repeats the row's own point, which n(y) holds
        rows = np.concatenate([table, verts[:, None]], axis=1)
        return rows, np.ones(rows.shape, dtype=bool)
    return table, np.ones(table.shape, dtype=bool) if valid is None else valid


def covers(graph: NeighborhoodGraph, active, mode: str) -> bool:
    """Does the union of n(y) (mode 'n') or b(y) (mode 'b') over Y0 equal Y?"""
    verts = _check_subset(graph, active)
    if mode not in ("n", "b"):
        raise InputError(f"mode must be 'n' or 'b', got {mode!r}")
    return _covered(graph, verts, mode)


def _covered(graph: NeighborhoodGraph, verts: np.ndarray, mode: str) -> bool:
    rows, real = _neighborhood_rows(graph, verts, mode)
    hit = np.zeros(graph.space.size, dtype=bool)
    hit[rows[real]] = True
    return bool(hit.all())


def _derived_component_count(graph: NeighborhoodGraph, verts: np.ndarray, mode: str) -> int:
    """Components of the derived graph on the active points joining y, y'
    whose n- (mode 'n') or b-neighborhoods (mode 'b') intersect, without
    building it: two active points share a component exactly when the
    bipartite incidence graph between active points (nodes size + k) and
    the members of their neighborhoods (nodes 0..size-1) links them."""
    size = graph.space.size
    rows, real = _neighborhood_rows(graph, verts, mode)
    active_nodes = np.broadcast_to(size + np.arange(len(verts))[:, None], rows.shape)
    labels = _component_labels(size + len(verts), active_nodes[real], rows[real])
    return len(np.unique(labels[size:]))


@dataclass(frozen=True)
class BlockSystem:
    """Coordinate index sets A_1..A_m over a hypercube {-1,+1}^D.

    Coordinates are 1-based, matching the usual statement of composite
    likelihoods; `masks` exposes 0-based bit masks.
    """

    dim: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("block system needs a positive dimension")
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


def block_neighbor_arrays(system: BlockSystem, index: int) -> list[np.ndarray]:
    """b_l(y) for each block: flip any nonempty subset of the block's bits."""
    out = []
    for mask in system.masks:
        submasks = _nonzero_submasks(mask)
        out.append(np.sort(np.array([index ^ m for m in submasks], dtype=np.int64)))
    return out


def block_submasks(system: BlockSystem) -> list[np.ndarray]:
    """Per block, the XOR masks that map y onto b_l(y)."""
    return [np.array(_nonzero_submasks(mask), dtype=np.int64) for mask in system.masks]


def _nonzero_submasks(mask: int) -> list[int]:
    sub = mask
    out = []
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return out


def cl_neighborhood(system: BlockSystem):
    """Materialize the block-conditional neighborhood system on {-1,+1}^D.

    Returns the union graph (b(y) = union of the b_l(y)) and the per-point
    per-block neighbor lists.
    """
    space = SampleSpace.hypercube(system.dim)
    space.require_enumerable("cl_neighborhood")
    points = np.arange(space.size, dtype=np.int64)
    tables = [xor_neighbors(points, masks) for masks in block_submasks(system)]
    union = np.sort(np.concatenate(tables, axis=1), axis=1)
    first = np.ones(union.shape, dtype=bool)  # blocks sharing a coordinate repeat flips
    first[:, 1:] = union[:, 1:] != union[:, :-1]
    graph = NeighborhoodGraph(space=space, adjacency=_table_rows(union, None if first.all() else first))
    return graph, tuple(zip(*(_table_rows(t) for t in tables)))


def cl_connectivity_matches_cover(system: BlockSystem) -> bool:
    """Self-test: block-union coverage of {1..D} must equal connectivity of
    the derived n-intersection graph over the whole space."""
    graph, _ = cl_neighborhood(system)
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


def diagnose(graph: NeighborhoodGraph, active, potential_class: str) -> GraphDiagnostics:
    """Decide the coincidence guarantee for a potential class on (G, Y0).

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
    with open(path) as fh:
        raw = [line.strip() for line in fh if line.strip()]
    if not raw or not raw[0].startswith("space "):
        raise InputError(f"{path}: missing `space <kind> <param>` header")
    try:
        _, kind, param = raw[0].split()
        param = int(param)
    except ValueError as exc:
        raise InputError(f"{path}: bad header {raw[0]!r}") from exc
    if kind == "hypercube":
        space = SampleSpace.hypercube(param)
    elif kind == "labels":
        space = SampleSpace.label_range(param)
    elif kind == "enumerated":
        space = SampleSpace.enumerated([f"p{i}" for i in range(param)])
    else:
        raise InputError(f"{path}: unknown space kind {kind!r}")
    edges = []
    for lineno, line in enumerate(raw[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"{path}:{lineno}: expected `i j`, got {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return graph_from_edges(space, edges)
