import itertools
import os
import re
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localscores import (
    BlockNeighborhood,
    BlockSystem,
    GraphDiagnostics,
    HypercubeNeighborhood,
    InputError,
    NeighborhoodGraph,
    SampleSpace,
    cl_connectivity_matches_cover,
    cl_neighborhood,
    components,
    covers,
    derived_graph_b,
    derived_graph_n,
    diagnose,
    extended_graph,
    graph_from_edges,
    hamming_graph,
    index_hamming_distance,
    is_connected,
    label_band_graph,
    parse_blocks,
    read_edge_list,
    write_edge_list,
    UnsupportedError,
    VertexGraph,
)
from localscores import graphs
from localscores.graphs import MAX_SHARED_PAIRS, materialize


def brute_force_hamming_edges(dim, radius):
    """Independent oracle: enumerate all pairs and count differing coords."""
    edges = set()
    for i, j in itertools.combinations(range(2 ** dim), 2):
        if 1 <= index_hamming_distance(i, j) <= radius:
            edges.add((i, j))
    return edges


def bfs_components(graph):
    """Independent oracle: breadth-first components of a derived graph, in
    original point indices."""
    seen = set()
    out = []
    for start in range(graph.num_vertices):
        if start in seen:
            continue
        comp, queue = [], deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            comp.append(graph.vertices[v])
            for w in graph.adjacency[v].tolist():
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        out.append(sorted(comp))
    return out


def pairwise_derived_graph(graph, active, mode):
    """Independent oracle: the derived graph on the active points from a
    comparison of every pair of n- (mode 'n') or b-neighborhoods (mode 'b')
    as Python sets, for any graph with `.neighbors(i)`."""
    active = sorted(int(y) for y in active)
    sets = [set(graph.neighbors(y).tolist()) | ({y} if mode == "n" else set()) for y in active]
    adjacency = [
        np.array([b for b in range(len(active)) if b != a and sets[a] & sets[b]], dtype=np.int64)
        for a in range(len(active))
    ]
    return VertexGraph(vertices=tuple(active), adjacency=tuple(adjacency))


def same_graph(a, b):
    return a.vertices == b.vertices and all(map(np.array_equal, a.adjacency, b.adjacency))


def oracle_diagnose(graph, active, potential_class):
    """`diagnose` from the pairwise derived graphs, breadth-first search and
    set unions."""
    active = sorted(int(y) for y in active)
    reached_b = set().union(*(graph.adjacency[y].tolist() for y in active))
    covers_n = reached_b | set(active) == set(range(graph.space.size))
    covers_b = reached_b == set(range(graph.space.size))
    g0_connected = len(bfs_components(pairwise_derived_graph(graph, active, "n"))) == 1
    count = len(bfs_components(pairwise_derived_graph(graph, active, "b")))
    if potential_class == "strictly-convex":
        guaranteed = covers_n and g0_connected
    else:
        guaranteed = covers_b and count == 1
    return GraphDiagnostics(
        covers_n=covers_n, covers_b=covers_b, g0_connected=g0_connected,
        g0prime_connected=count == 1, component_count_g0prime=count,
        potential_class=potential_class, guaranteed=guaranteed,
    )


def random_graph(size, edge_prob, rng):
    space = SampleSpace.enumerated([f"p{i}" for i in range(size)])
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(size), 2)
        if rng.random() < edge_prob
    ]
    return graph_from_edges(space, edges)


class TestHammingGraph:
    def test_d2_radius1_degrees(self):
        g = hamming_graph(2, 1)
        assert all(g.degree(i) == 2 for i in range(4))
        assert g.num_edges == 4
        assert set(g.edges()) == brute_force_hamming_edges(2, 1)

    def test_d2_radius2_complete(self):
        g = hamming_graph(2, 2)
        assert g.num_edges == 6

    def test_d3_radius1_cube(self):
        g = hamming_graph(3, 1)
        assert all(g.degree(i) == 3 for i in range(8))
        assert g.num_edges == 12
        assert set(g.edges()) == brute_force_hamming_edges(3, 1)

    def test_d4_radius2_matches_enumeration(self):
        g = hamming_graph(4, 2)
        assert set(g.edges()) == brute_force_hamming_edges(4, 2)

    def test_radius_out_of_range(self):
        with pytest.raises(InputError):
            hamming_graph(3, 0)
        with pytest.raises(InputError):
            hamming_graph(3, 4)


class TestXorTableBudgets:
    def test_masks_counted_before_they_are_generated(self, monkeypatch):
        # 8 + 28 masks at radius 2
        monkeypatch.setattr(graphs, "MAX_XOR_MASKS", 36)
        assert len(HypercubeNeighborhood(8, 2).neighbors(0)) == 36
        monkeypatch.setattr(graphs, "MAX_XOR_MASKS", 35)
        with pytest.raises(UnsupportedError, match="radius-2 neighborhood at D=8 needs 36 masks, above 35"):
            HypercubeNeighborhood(8, 2)
        # blocks {1,2,3} and {4,5} have 7 + 3 nonzero submasks
        monkeypatch.setattr(graphs, "MAX_XOR_MASKS", 9)
        with pytest.raises(UnsupportedError, match="block system 1,2,3;4,5 needs 10 masks, above 9"):
            BlockNeighborhood(parse_blocks("1,2,3;4,5", 8))

    def test_neighbor_table_refused_before_it_is_built(self, monkeypatch):
        system = HypercubeNeighborhood(8, 2)
        points = np.arange(10)
        monkeypatch.setattr(graphs, "MAX_NEIGHBOR_ENTRIES", 360)
        assert system.neighbor_matrix(points)[0].shape == (10, 36)
        monkeypatch.setattr(graphs, "MAX_NEIGHBOR_ENTRIES", 359)
        with pytest.raises(UnsupportedError, match="neighbor table needs 360 entries, above 359"):
            system.neighbor_matrix(points)
        with pytest.raises(UnsupportedError, match="neighbor table needs 9216 entries"):
            materialize(system)

    def test_radius_10_at_d62_refused_at_once(self):
        # sum_k C(62, k) for k <= 10 masks; generating them would not end
        start = time.perf_counter()
        with pytest.raises(UnsupportedError, match="needs 131746962837 masks"):
            HypercubeNeighborhood(62, 10)
        assert time.perf_counter() - start < 0.1

    def test_radius_4_at_d62_allowed(self):
        assert len(HypercubeNeighborhood(62, 4).neighbors(0)) == 597618


class TestLabelBandGraph:
    def test_path(self):
        g = label_band_graph(3, 1)
        assert set(g.edges()) == {(0, 1), (1, 2)}

    def test_band2_degrees(self):
        g = label_band_graph(10, 2)
        assert g.degree(0) == 2
        assert g.degree(5) == 4

    def test_two_labels(self):
        g = label_band_graph(2, 1)
        assert set(g.edges()) == {(0, 1)}

    def test_band_out_of_range(self):
        with pytest.raises(InputError):
            label_band_graph(3, 3)


class TestGraphInvariants:
    def test_loop_rejected(self):
        space = SampleSpace.enumerated(list("abc"))
        with pytest.raises(InputError):
            graph_from_edges(space, [(0, 0)])

    def test_out_of_range_rejected(self):
        space = SampleSpace.enumerated(list("abc"))
        with pytest.raises(InputError):
            graph_from_edges(space, [(0, 5)])

    def test_constructors_symmetric_loop_free(self):
        rng = np.random.default_rng(0)
        graphs = [
            hamming_graph(3, 1),
            hamming_graph(3, 2),
            label_band_graph(7, 2),
            random_graph(9, 0.3, rng),
        ]
        for g in graphs:
            for i, nbrs in enumerate(g.adjacency):
                assert i not in nbrs
                for j in nbrs:
                    assert i in g.adjacency[int(j)]
                assert np.all(np.diff(nbrs) > 0) or len(nbrs) < 2


class TestExtendedGraph:
    def test_single_edge_unchanged(self):
        space = SampleSpace.enumerated(["a", "b"])
        g = graph_from_edges(space, [(0, 1)])
        assert set(extended_graph(g).edges()) == {(0, 1)}

    def test_path_adds_endpoints(self):
        space = SampleSpace.enumerated(list("abc"))
        g = graph_from_edges(space, [(0, 1), (1, 2)])
        assert set(extended_graph(g).edges()) == {(0, 1), (1, 2), (0, 2)}

    def test_hypercube_d2_radius1_completes(self):
        # two-step pairs enumeration: every pair shares a neighbor
        g = extended_graph(hamming_graph(2, 1))
        assert g.num_edges == 6

    def test_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_graph(8, 0.25, rng)
            ext = extended_graph(g)
            assert set(g.edges()) <= set(ext.edges())

    def test_idempotent_on_complete(self):
        g = hamming_graph(2, 2)
        assert set(extended_graph(g).edges()) == set(g.edges())

    def test_matches_pairwise_rule(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(9, 0.25, rng)
            nbrs = [set(a.tolist()) for a in g.adjacency]
            expected = {
                (i, j) for i, j in itertools.combinations(range(9), 2)
                if j in nbrs[i] or nbrs[i] & nbrs[j]
            }
            assert set(extended_graph(g).edges()) == expected


class TestDerivedGraphs:
    def test_n_hypercube_connected(self):
        g = hamming_graph(2, 1)
        assert is_connected(derived_graph_n(g, range(4)))

    def test_n_disjoint_edges(self):
        space = SampleSpace.enumerated(list("abcd"))
        g = graph_from_edges(space, [(0, 1), (2, 3)])
        derived = derived_graph_n(g, [0, 2])
        assert derived.edges() == []

    def test_n_singleton(self):
        g = hamming_graph(2, 1)
        derived = derived_graph_n(g, [0])
        assert derived.num_vertices == 1
        assert is_connected(derived)

    def test_b_hypercube_radius1_two_parity_components(self):
        for dim in (2, 3):
            g = hamming_graph(dim, 1)
            comps = components(derived_graph_b(g, range(2 ** dim)))
            assert len(comps) == 2
            parities = [{int(v).bit_count() % 2 for v in comp} for comp in comps]
            assert sorted(map(len, parities)) == [1, 1]

    def test_b_hypercube_radius2_connected(self):
        assert is_connected(derived_graph_b(hamming_graph(2, 2), range(4)))

    def test_b_path_endpoints(self):
        space = SampleSpace.enumerated(list("abc"))
        g = graph_from_edges(space, [(0, 1), (1, 2)])
        derived = derived_graph_b(g, [0, 2])
        assert derived.edges() == [(0, 2)]

    def test_empty_active_rejected(self):
        with pytest.raises(InputError):
            derived_graph_n(hamming_graph(2, 1), [])

    def test_pair_count_guarded_before_allocation(self):
        # the hub lies in all 10^4 + 1 closed neighborhoods: about 10^8 pairs
        leaves = 10 ** 4
        space = SampleSpace.enumerated([f"p{i}" for i in range(leaves + 1)])
        star = graph_from_edges(space, [(0, i) for i in range(1, leaves + 1)])
        pairs = (leaves + 1) ** 2 + 4 * leaves
        assert pairs > MAX_SHARED_PAIRS
        with pytest.raises(UnsupportedError, match=f"needs {pairs} neighborhood-member pairs"):
            derived_graph_n(star, range(leaves + 1))
        with pytest.raises(UnsupportedError):
            extended_graph(star)
        # the b-graph's only shared member is the hub, reached from every leaf
        assert derived_graph_b(star, [0, 1]).edges() == []

    def test_edge_rule_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_graph(8, 0.3, rng)
            active = sorted(rng.choice(8, size=5, replace=False).tolist())
            nsets = [set(g.adjacency[y].tolist()) | {y} for y in active]
            bsets = [set(g.adjacency[y].tolist()) for y in active]
            dn = derived_graph_n(g, active)
            db = derived_graph_b(g, active)
            for a in range(5):
                for b in range(a + 1, 5):
                    assert ((active[a], active[b]) in dn.edges()) == bool(
                        nsets[a] & nsets[b]
                    )
                    assert ((active[a], active[b]) in db.edges()) == bool(
                        bsets[a] & bsets[b]
                    )


class TestConnectivity:
    def test_single_vertex(self):
        g = derived_graph_n(hamming_graph(2, 1), [1])
        assert is_connected(g)
        assert components(g) == [[0]]

    def test_two_disjoint_edges(self):
        space = SampleSpace.enumerated(list("abcd"))
        g = graph_from_edges(space, [(0, 1), (2, 3)])
        assert not is_connected(g)
        assert len(components(g)) == 2

    def test_components_sorted_and_ordered_by_smallest_vertex(self):
        space = SampleSpace.enumerated(list("abcdef"))
        g = graph_from_edges(space, [(0, 2), (2, 1), (5, 3)])
        assert components(g) == [[0, 1, 2], [3, 5], [4]]

    def test_cube_connected(self):
        assert is_connected(hamming_graph(3, 1))

    def test_derived_n_connected_implies_graph_connected(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            g = random_graph(8, 0.25, rng)
            dn = derived_graph_n(g, range(8))
            if is_connected(dn):
                assert is_connected(g)
            # with the whole space active the two are equivalent
            assert is_connected(dn) == is_connected(g)


class TestCovers:
    def test_full_active_always_covers_n(self):
        rng = np.random.default_rng(3)
        g = random_graph(7, 0.2, rng)
        assert covers(g, range(7), "n")

    def test_isolated_vertex_breaks_b_cover(self):
        space = SampleSpace.enumerated(list("abc"))
        g = graph_from_edges(space, [(0, 1)])
        assert not covers(g, range(3), "b")

    def test_single_point_neighborhood(self):
        g = hamming_graph(2, 1)
        assert not covers(g, [3], "n")  # n(y) reaches 3 of 4 points

    def test_bad_mode(self):
        with pytest.raises(InputError):
            covers(hamming_graph(2, 1), [0], "x")


class TestBlockSystems:
    def test_singletons_give_radius1(self):
        graph, per_point = cl_neighborhood(BlockSystem.singletons(3))
        assert set(graph.edges()) == set(hamming_graph(3, 1).edges())
        for blocks in per_point:
            assert all(len(b) == 1 for b in blocks)

    def test_partial_blocks_disconnect(self):
        graph, _ = cl_neighborhood(BlockSystem.of(3, {1}, {2}))
        assert all(graph.degree(i) == 2 for i in range(8))
        assert not is_connected(graph)

    def test_block_sizes(self):
        system = BlockSystem.of(3, {1}, {2, 3})
        _, per_point = cl_neighborhood(system)
        for blocks in per_point:
            assert [len(b) for b in blocks] == [1, 3]  # 2^|A|-1

    def test_full_block_complete_graph(self):
        graph, per_point = cl_neighborhood(BlockSystem.of(2, {1, 2}))
        assert graph.num_edges == 6
        assert len(per_point[0][0]) == 3

    def test_parse_blocks(self):
        system = parse_blocks("1,2;3", 3)
        assert system.blocks == (frozenset({1, 2}), frozenset({3}))
        assert system.spec_string() == "1,2;3"

    def test_invalid_blocks(self):
        with pytest.raises(InputError):
            BlockSystem.of(3, set())
        with pytest.raises(InputError):
            BlockSystem.of(3, {4})


class TestBlockCoverConnectivity:
    def test_full_cover_connected(self):
        assert cl_connectivity_matches_cover(BlockSystem.of(3, {1}, {2}, {3}))

    def test_partial_cover_disconnected(self):
        assert cl_connectivity_matches_cover(BlockSystem.of(3, {1}, {2}))

    def test_single_full_block(self):
        assert cl_connectivity_matches_cover(BlockSystem.of(2, {1, 2}))

    def test_random_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            dim = int(rng.integers(2, 5))
            m = int(rng.integers(1, dim + 1))
            blocks = []
            for _ in range(m):
                mask = int(rng.integers(1, 2 ** dim))
                blocks.append({i + 1 for i in range(dim) if (mask >> i) & 1})
            assert cl_connectivity_matches_cover(BlockSystem.of(dim, *blocks))


class TestDiagnose:
    def test_strictly_convex_radius1_guaranteed(self):
        diag = diagnose(hamming_graph(2, 1), range(4), "strictly-convex")
        assert diag.covers_n and diag.g0_connected and diag.guaranteed

    def test_pseudo_spherical_radius1_not_guaranteed(self):
        diag = diagnose(hamming_graph(2, 1), range(4), "pseudo-spherical")
        assert not diag.guaranteed
        assert diag.component_count_g0prime == 2

    def test_pseudo_spherical_radius2_guaranteed(self):
        diag = diagnose(hamming_graph(2, 2), range(4), "pseudo-spherical")
        assert diag.guaranteed

    def test_component_count_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_graph(7, 0.3, rng)
            diag = diagnose(g, range(7), "pseudo-spherical")
            assert diag.component_count_g0prime >= 1
            assert diag.g0prime_connected == (diag.component_count_g0prime == 1)

    def test_unknown_class(self):
        with pytest.raises(InputError):
            diagnose(hamming_graph(2, 1), range(4), "convex")

    def test_accepts_every_graph_a_family_accepts(self):
        class Pointwise:  # no batch form: `.space` and `.neighbors(i)` only
            def __init__(self, graph):
                self.space, self.neighbors = graph.space, graph.neighbors

        system = BlockSystem.of(3, {1, 2}, {2, 3})
        rng = np.random.default_rng(2)
        for mat, implicit in ((hamming_graph(3, 1), HypercubeNeighborhood(3, 1)),
                              (cl_neighborhood(system)[0], BlockNeighborhood(system))):
            for active in (range(8), [0, 3], sorted(rng.choice(8, 5, replace=False))):
                for klass in ("strictly-convex", "pseudo-spherical"):
                    expected = diagnose(mat, active, klass)
                    assert diagnose(implicit, active, klass) == expected
                    assert diagnose(Pointwise(mat), active, klass) == expected

    def test_refuses_implicit_graphs_beyond_enumeration(self):
        with pytest.raises(UnsupportedError):
            diagnose(HypercubeNeighborhood(40, 1), [0, 1], "strictly-convex")

    def test_non_integer_active_points_rejected(self):
        g = hamming_graph(2, 1)
        for active in ([0.5, 3.7], [0, np.nan], ["1"]):
            with pytest.raises(InputError, match="must be integers"):
                diagnose(g, active, "strictly-convex")
        # integral values of any numeric dtype are still points
        expected = diagnose(g, [0, 3], "strictly-convex")
        assert diagnose(g, [0.0, 3.0], "strictly-convex") == expected
        assert diagnose(g, np.array([3, 0], dtype=np.uint8), "strictly-convex") == expected

    def test_hypercube_d16_radius1(self):
        g = hamming_graph(16, 1)
        for klass in ("strictly-convex", "pseudo-spherical"):
            diag = diagnose(g, range(2 ** 16), klass)
            assert diag.covers_n and diag.covers_b and diag.g0_connected
            assert diag.component_count_g0prime == 2
            assert diag.guaranteed == (klass == "strictly-convex")


@st.composite
def diagnose_cases(draw):
    """A graph and an active subset: ragged `graph_from_edges` graphs (with
    isolated points, so some b(y) are empty), Hamming graphs at radius 1-2
    and label-band graphs."""
    kind = draw(st.sampled_from(["edges", "hamming", "band"]))
    if kind == "edges":
        size = draw(st.integers(2, 12))
        space = SampleSpace.enumerated([f"p{i}" for i in range(size)])
        pairs = list(itertools.combinations(range(size), 2))
        edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * size))
        graph = graph_from_edges(space, edges)
    elif kind == "hamming":
        dim = draw(st.integers(1, 5))
        graph = hamming_graph(dim, draw(st.integers(1, min(2, dim))))
    else:
        labels = draw(st.integers(2, 12))
        graph = label_band_graph(labels, draw(st.integers(1, labels - 1)))
    size = graph.space.size
    active = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True))
    return graph, active


@st.composite
def xor_cases(draw):
    """An implicit XOR neighborhood (a Hamming ball or a block system) at
    D <= 5 and an active subset."""
    dim = draw(st.integers(1, 5))
    if draw(st.booleans()):
        graph = HypercubeNeighborhood(dim, draw(st.integers(1, dim)))
    else:
        coords = st.sets(st.integers(1, dim), min_size=1)
        graph = BlockNeighborhood(BlockSystem.of(dim, *draw(st.lists(coords, min_size=1, max_size=3))))
    size = graph.space.size
    active = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True))
    return graph, active


class TestFastRouteAgainstPairwiseOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(diagnose_cases())
    def test_diagnose_components_and_cover(self, case):
        graph, active = case
        for klass in ("strictly-convex", "pseudo-spherical"):
            assert diagnose(graph, active, klass) == oracle_diagnose(graph, active, klass)
        for derived in (derived_graph_n(graph, active), derived_graph_b(graph, active)):
            expected = bfs_components(derived)
            assert [[derived.vertices[k] for k in c] for c in components(derived)] == expected
            assert is_connected(derived) == (len(expected) == 1)
        reached = set().union(*(graph.adjacency[y].tolist() for y in active))
        everything = set(range(graph.space.size))
        assert covers(graph, active, "b") == (reached == everything)
        assert covers(graph, active, "n") == (reached | set(active) == everything)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(diagnose_cases())
    def test_derived_graphs_equal_pairwise_oracle(self, case):
        graph, active = case
        for mode, build in (("n", derived_graph_n), ("b", derived_graph_b)):
            derived = build(graph, active)
            assert same_graph(derived, pairwise_derived_graph(graph, active, mode))
            assert derived.edges() == sorted(derived.edges())

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(xor_cases())
    def test_implicit_xor_neighborhoods_equal_pairwise_oracle(self, case):
        graph, active = case
        for mode, build in (("n", derived_graph_n), ("b", derived_graph_b)):
            expected = pairwise_derived_graph(graph, active, mode)
            assert same_graph(build(graph, active), expected)
            assert same_graph(build(materialize(graph), active), expected)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(diagnose_cases())
    def test_extended_graph_is_the_whole_space_n_graph(self, case):
        graph, _ = case
        everything = range(graph.space.size)
        assert extended_graph(graph).edges() == pairwise_derived_graph(graph, everything, "n").edges()


class TestAdjacencyValidation:
    @pytest.mark.parametrize("adjacency, message", [
        ([[1], [0, 2], [], []], "asymmetric adjacency: 1->2 without 2->1"),
        ([[1, 1], [0], [], []], "adjacency of point 0 not sorted/distinct"),
        ([[2, 1], [0], [0], []], "adjacency of point 0 not sorted/distinct"),
        ([[1], [0], [], [4]], "neighbor of point 3 outside the space"),
        ([[1], [0], [2, -1], []], "neighbor of point 2 outside the space"),
        ([[], [1], [], []], "loop at point 1"),
        ([[0, 9], [], [], []], "neighbor of point 0 outside the space"),
    ])
    def test_messages(self, adjacency, message):
        space = SampleSpace.enumerated(list("abcd"))
        rows = tuple(np.array(a, dtype=np.int64) for a in adjacency)
        with pytest.raises(InputError, match=f"^{message}$"):
            NeighborhoodGraph(space=space, adjacency=rows)

    def test_builders_pass_validation(self):
        for g in (hamming_graph(4, 2), label_band_graph(6, 2),
                  extended_graph(label_band_graph(5, 1)),
                  cl_neighborhood(BlockSystem.of(3, {1, 2}, {2, 3}))[0]):
            rows = tuple(np.array(a) for a in g.adjacency)
            assert NeighborhoodGraph(space=g.space, adjacency=rows).edges() == g.edges()


def test_import_loads_no_scipy():
    # scipy is a test dependency only: scipy.special took most of the 0.4 s
    # `import localscores` once did, and graph components are numpy-only
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, localscores; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = hamming_graph(3, 1)
        path = tmp_path / "graph.txt"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert g2.space.spec_string() == g.space.spec_string()
        assert g2.edges() == g.edges()

    def test_header_contents(self, tmp_path):
        path = tmp_path / "graph.txt"
        write_edge_list(label_band_graph(5, 1), path)
        assert path.read_text().splitlines()[0] == "space labels 5"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n")
        with pytest.raises(InputError):
            read_edge_list(path)

    @pytest.mark.parametrize("header", [
        "space cube 3", "space labels x", "space labels 3 4", "space hypercube 0",
    ])
    def test_bad_header(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n0 1\n")
        with pytest.raises(InputError, match=re.escape(f"{path}: bad header {header!r}")):
            read_edge_list(path)

    @pytest.mark.parametrize("text, message", [
        ("space labels 3\n0 1 2\n", ":2: expected `i j`, got '0 1 2'"),
        ("space labels 3\n\n0 1\n0 x\n", ":4: expected `i j`, got '0 x'"),
    ])
    def test_malformed_line(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InputError, match=re.escape(f"{path}{message}")):
            read_edge_list(path)

    def test_file_bytes_match_the_enumerated_edges(self, tmp_path):
        path = tmp_path / "graph.txt"
        write_edge_list(hamming_graph(4, 2), path)
        lines = [f"{i} {j}" for i, j in sorted(brute_force_hamming_edges(4, 2))]
        assert path.read_bytes() == ("\n".join(["space hypercube 4", *lines]) + "\n").encode()
