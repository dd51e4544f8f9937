import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localscores import (
    BlockNeighborhood,
    BlockSystem,
    HypercubeNeighborhood,
    InputError,
    LocalPotentialFamily,
    OracleReport,
    Probability,
    RngStream,
    check_block_cover_connectivity,
    check_coincidence,
    check_divergence_identity,
    check_properness,
    check_score_paths,
    SampleSpace,
    composite_likelihood,
    density_power,
    diagnose,
    divergence,
    expected_score,
    graph_from_edges,
    hamming_graph,
    label_band_graph,
    pseudo_likelihood,
    pseudo_spherical,
    ratio_matching,
    registered_counterexamples,
    standard_check_registry,
)
from localscores import oracle
from localscores.oracle import DEMONSTRATION_CHECKS


class PointwiseGraph:
    """A neighborhood system without a batch form: only `.space` and
    `.neighbors(i)`."""

    def __init__(self, graph):
        self.space = graph.space
        self.neighbors = graph.neighbors


class TestProperness:
    def test_equal_arguments_give_zero_gap(self):
        fam = pseudo_likelihood(hamming_graph(3, 1))
        p = Probability.normalize(np.exp(np.random.default_rng(0).uniform(-2, 2, 8)))
        gap = expected_score(fam, p, p.log()) - expected_score(fam, p, p.log())
        assert gap == 0.0

    def test_pl_on_connected_hypercube_passes(self):
        report = check_properness(pseudo_likelihood(hamming_graph(3, 1)), 300, RngStream(1))
        assert report.verdict == "pass"
        assert report.worst_violation <= 1e-9

    def test_standard_cl_improper_off_block_systems(self):
        # plain CL is proper only where block neighborhoods are equivalence
        # classes; mCL, the gradient score of the same potential, on any graph
        graph = label_band_graph(4, 1)
        standard = LocalPotentialFamily("cl", graph, standard_cl=True)
        assert check_properness(standard, 1000, RngStream(1)).verdict == "fail"
        assert check_properness(composite_likelihood(graph), 1000, RngStream(1)).verdict == "pass"

    def test_ps_radius1_still_proper(self):
        # properness holds even where coincidence fails
        report = check_properness(pseudo_spherical(hamming_graph(2, 1), 1.0), 300, RngStream(2))
        assert report.verdict == "pass"

    def test_report_is_deterministic(self):
        fam = ratio_matching(hamming_graph(3, 1))
        a = check_properness(fam, 100, RngStream(3))
        b = check_properness(fam, 100, RngStream(3))
        assert a == b

    def test_large_space_rejected(self):
        with pytest.raises(InputError):
            check_properness(pseudo_likelihood(hamming_graph(5, 1)), 10, RngStream(0))


class TestCoincidence:
    def test_ps_radius1_flags_counterexample(self):
        for gamma in (0.5, 1.0, 3.0):
            fam = pseudo_spherical(hamming_graph(2, 1), gamma)
            report = check_coincidence(fam, 200, RngStream(4))
            assert report.verdict == "fail", gamma
            assert "counterexample" in report.details
            assert len(report.witnesses) >= 1

    def test_ps_radius2_clears(self):
        for gamma in (0.5, 1.0, 3.0):
            fam = pseudo_spherical(hamming_graph(2, 2), gamma)
            report = check_coincidence(fam, 200, RngStream(5))
            assert report.verdict == "pass", gamma

    def test_pl_on_path_graph_passes(self):
        from localscores import SampleSpace, graph_from_edges

        space = SampleSpace.enumerated(list("abc"))
        fam = pseudo_likelihood(graph_from_edges(space, [(0, 1), (1, 2)]))
        report = check_coincidence(fam, 300, RngStream(6))
        assert report.verdict == "pass"

    def test_cross_references_diagnostics(self):
        fam = pseudo_spherical(hamming_graph(2, 1), 1.0)
        report = check_coincidence(fam, 50, RngStream(7))
        assert "diagnose_guaranteed=False" in report.details
        fam2 = pseudo_spherical(hamming_graph(2, 2), 1.0)
        report2 = check_coincidence(fam2, 50, RngStream(7))
        assert "diagnose_guaranteed=True" in report2.details

    def test_diagnoses_the_family_graph_in_every_form(self):
        # the same details whether the graph is materialized, implicit or
        # read one point at a time
        for radius, guaranteed in ((1, False), (2, True)):
            details = {
                check_coincidence(pseudo_spherical(g, 1.0), 20, RngStream(7)).details
                for g in (hamming_graph(2, radius), HypercubeNeighborhood(2, radius),
                          PointwiseGraph(hamming_graph(2, radius)))
            }
            assert len(details) == 1
            assert f"diagnose_guaranteed={guaranteed}" in details.pop()


class TestCounterexampleRegistry:
    def test_d2_pair_is_registered_and_exact(self):
        fam = pseudo_spherical(hamming_graph(2, 1), 1.0)
        entries = registered_counterexamples(fam)
        assert len(entries) == 1
        p, q, label = entries[0]
        assert label == "rescaled-2-components"
        assert divergence(fam, p.log(), q.log()) <= 1e-12
        assert np.max(np.abs(p.weights - q.weights)) >= 0.01

    def test_registry_matches_implicit_neighborhoods(self):
        fam = pseudo_spherical(HypercubeNeighborhood(3, 1), 1.0)
        entries = registered_counterexamples(fam)
        assert len(entries) == 1
        p, q, _ = entries[0]
        assert divergence(fam, p.log(), q.log()) <= 1e-12
        assert np.max(np.abs(p.weights - q.weights)) >= 0.01

    def test_no_entries_off_pattern(self):
        assert registered_counterexamples(pseudo_likelihood(hamming_graph(2, 1))) == []
        assert registered_counterexamples(pseudo_spherical(hamming_graph(2, 2), 1.0)) == []

    def test_radius1_recognized_in_every_graph_form(self):
        singletons = BlockNeighborhood(BlockSystem.singletons(3))
        for graph in (hamming_graph(3, 1), HypercubeNeighborhood(3, 1), singletons,
                      PointwiseGraph(hamming_graph(3, 1))):
            assert len(registered_counterexamples(pseudo_spherical(graph, 1.0))) == 1
        two_blocks = BlockNeighborhood(BlockSystem.of(3, {1, 2}, {3}))
        for graph in (HypercubeNeighborhood(3, 2), two_blocks, PointwiseGraph(hamming_graph(3, 2))):
            assert registered_counterexamples(pseudo_spherical(graph, 1.0)) == []

    def test_no_entries_beyond_enumeration_size(self):
        # divergences refuse |Y| > 2^16, so a pair of 2^17-entry vectors is
        # never built there
        fam = pseudo_spherical(HypercubeNeighborhood(17, 1), 1.0)
        assert registered_counterexamples(fam) == []


@st.composite
def witness_cases(draw):
    """A family on at most 16 points: pl, rm, ps:1, dp:0.5 or mcl on a ragged
    edge-list graph, a Hamming graph at radius 1-2 or a label band, with an
    active subset whose points all have neighbors."""
    kind = draw(st.sampled_from(["edges", "hamming", "band"]))
    if kind == "edges":
        size = draw(st.integers(2, 10))
        space = SampleSpace.enumerated([f"p{i}" for i in range(size)])
        pairs = list(itertools.combinations(range(size), 2))
        graph = graph_from_edges(space, draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2 * size)))
    elif kind == "hamming":
        dim = draw(st.integers(2, 4))
        graph = hamming_graph(dim, draw(st.integers(1, 2)))
    else:
        labels = draw(st.integers(3, 8))
        graph = label_band_graph(labels, draw(st.integers(1, 2)))
    candidates = [y for y in range(graph.space.size) if graph.degree(y) > 0]
    active = draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True))
    if draw(st.booleans()) and len(candidates) == graph.space.size:
        active = None
    build = draw(st.sampled_from([
        pseudo_likelihood, ratio_matching, composite_likelihood,
        lambda g, active: pseudo_spherical(g, 1.0, active=active),
        lambda g, active: density_power(g, 0.5, active=active),
    ]))
    return build(graph, active=active)


class TestWitnessForEveryNegativeVerdict:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(witness_cases())
    def test_witness_exactly_when_not_guaranteed(self, fam):
        diag = diagnose(fam.graph, fam.active_indices(), fam.potential_class)
        entries = registered_counterexamples(fam)
        assert len(entries) == (0 if diag.guaranteed else 1)
        for p, q, label in entries:
            assert divergence(fam, p.log(), q.log()) <= 1e-12
            assert np.max(np.abs(p.weights - q.weights)) >= 0.01
            assert not any(ch.isspace() for ch in label)


class TestScorePaths:
    def test_pl_routes_agree(self):
        report = check_score_paths(pseudo_likelihood(hamming_graph(3, 1)), 30, RngStream(8))
        assert report.verdict == "pass"

    def test_rm_routes_agree(self):
        report = check_score_paths(ratio_matching(hamming_graph(3, 1)), 30, RngStream(9))
        assert report.verdict == "pass"

    def test_mcl_on_labels_agrees(self):
        report = check_score_paths(composite_likelihood(label_band_graph(6, 2)), 30, RngStream(10))
        assert report.verdict == "pass"

    def test_cl_blocks_agree(self):
        fam = composite_likelihood(BlockSystem.of(3, {1}, {2, 3}))
        report = check_score_paths(fam, 30, RngStream(11))
        assert report.verdict == "pass"

    def test_family_on_block_neighborhood_agrees(self):
        # the blocks come from the graph, so every route reads the same b_l(y)
        fam = LocalPotentialFamily("cl", BlockNeighborhood(BlockSystem.of(3, {1, 2}, {3})))
        assert check_score_paths(fam, 30, RngStream(11)).verdict == "pass"

    def test_routes_without_closed_form_still_compared(self):
        g = hamming_graph(3, 1)
        active = pseudo_likelihood(g, active=[0, 1, 2, 5])
        custom = LocalPotentialFamily("custom", g, phi=lambda t: -np.log1p(t), dphi=lambda t: -1 / (1 + t))
        for fam in (active, custom):
            assert check_score_paths(fam, 10, RngStream(3)).verdict == "pass"

    def test_closed_form_errors_propagate(self, monkeypatch):
        def broken(family, y, log_f):
            raise ValueError("closed form bug")

        monkeypatch.setattr(oracle, "named_closed_form_score", broken)
        with pytest.raises(ValueError, match="closed form bug"):
            check_score_paths(pseudo_likelihood(hamming_graph(3, 1)), 5, RngStream(0))

    def test_kernel_route_is_compared(self, monkeypatch):
        # the generic route, the closed form and the finite difference are
        # independent of the kernel; a skewed kernel must fail the check
        from localscores.estimation import _ScoreKernel

        run = standard_check_registry()["score_paths_ps"]
        assert run(20, RngStream(12)).verdict == "pass"
        ps_terms = _ScoreKernel._ps_terms

        def skewed(self, logs):
            vals, finish = ps_terms(self, logs)
            return vals * (1.0 + 1e-3), finish

        monkeypatch.setattr(_ScoreKernel, "_ps_terms", skewed)
        report = run(20, RngStream(12))
        assert report.verdict == "fail"
        assert "kernel" in report.witnesses[0][1]


class TestBlockCoverConnectivity:
    def test_random_systems_pass(self):
        report = check_block_cover_connectivity(4, 200, RngStream(12))
        assert report.verdict == "pass"
        assert report.trials == 200

    def test_dim_capped(self):
        with pytest.raises(InputError):
            check_block_cover_connectivity(6, 10, RngStream(0))

    @pytest.mark.parametrize("dim_max", [1, 0, -3, 2.5, "4"])
    def test_dim_max_must_be_a_count_of_at_least_two(self, dim_max):
        # a block system needs D >= 2; below that the draw of D has no range
        with pytest.raises(InputError, match="dim_max must be an integer >= 2"):
            check_block_cover_connectivity(dim_max, 10, RngStream(0))

    def test_smallest_dim_max_runs(self):
        assert check_block_cover_connectivity(2, 20, RngStream(0)).verdict == "pass"


class TestDivergenceIdentity:
    def test_pl_identity_holds(self):
        report = check_divergence_identity(pseudo_likelihood(hamming_graph(3, 1)), 30, RngStream(13))
        assert report.verdict == "pass"

    def test_ps_identity_holds(self):
        report = check_divergence_identity(
            pseudo_spherical(hamming_graph(3, 1), 1.0), 30, RngStream(14)
        )
        assert report.verdict == "pass"


class TestReports:
    def test_verdict_tracks_tolerance(self):
        report = OracleReport.build("demo", 10, worst=5e-10, witnesses=[], tolerance=1e-9)
        assert report.verdict == "pass"
        report = OracleReport.build("demo", 10, worst=2e-9, witnesses=[], tolerance=1e-9)
        assert report.verdict == "fail"

    def test_witnesses_bounded(self):
        report = OracleReport.build("demo", 10, 1.0, [(i,) for i in range(50)], 0.0)
        assert len(report.witnesses) == 10

    def test_record_line_fields(self):
        report = OracleReport.build("demo", 10, worst=0.0, witnesses=[], tolerance=1e-9)
        line = report.record_line()
        assert "record=check" in line and "name=demo" in line and "verdict=pass" in line


class TestRegistry:
    def test_standard_suite_passes(self):
        registry = standard_check_registry()
        rng = RngStream(2026)
        for i, name in enumerate(sorted(set(registry) - DEMONSTRATION_CHECKS)):
            report = registry[name](60, rng.stream(i))
            assert report.verdict == "pass", (name, report)

    @pytest.mark.parametrize("trials", [0, -1, 2.5, True])
    @pytest.mark.parametrize("check, args", [
        (check_properness, (pseudo_likelihood(hamming_graph(2, 1)),)),
        (check_coincidence, (pseudo_likelihood(hamming_graph(2, 1)),)),
        (check_score_paths, (pseudo_likelihood(hamming_graph(2, 1)),)),
        (check_divergence_identity, (pseudo_likelihood(hamming_graph(2, 1)),)),
        (check_block_cover_connectivity, (4,)),
    ], ids=["properness", "coincidence", "score_paths", "divergence_identity", "block_cover"])
    def test_trials_must_be_a_positive_count(self, check, args, trials):
        with pytest.raises(InputError, match="trials must be an integer >= 1"):
            check(*args, trials=trials)

    @pytest.mark.parametrize("name, default", [("score_paths_pl", 50), ("block_cover_connectivity", 200)])
    def test_no_trial_count_runs_the_checks_default(self, name, default):
        registry = standard_check_registry()
        reports = [registry[name](trials, RngStream(4)) for trials in (None, 0, default)]
        assert reports[0].trials == default
        assert reports[0] == reports[1] == reports[2]

    def test_check_names_are_the_commands_names(self):
        # `check` takes these names on its command line
        assert sorted(standard_check_registry()) == sorted(
            [f"properness_{k}" for k in ("pl", "rm", "dp", "ps", "cl", "mcl")]
            + [f"coincidence_{k}" for k in ("pl", "rm", "ps_radius2", "ps_radius1")]
            + [f"score_paths_{k}" for k in ("pl", "rm", "dp", "ps", "mcl")]
            + [f"divergence_identity_{k}" for k in ("pl", "ps", "cl")]
            + ["block_cover_connectivity"]
        )

    def test_demonstration_check_fails_as_documented(self):
        registry = standard_check_registry()
        report = registry["coincidence_ps_radius1"](60, RngStream(1))
        assert report.verdict == "fail"
