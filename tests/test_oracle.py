import itertools
import math
import tracemalloc

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
    UnsupportedError,
    composite_likelihood,
    composite_potential,
    density_power,
    diagnose,
    divergence,
    expected_score,
    generic_score,
    graph_from_edges,
    hamming_graph,
    label_band_graph,
    named_closed_form_score,
    pseudo_likelihood,
    pseudo_spherical,
    ratio_matching,
    registered_counterexamples,
    standard_check_registry,
    state_scores,
)
from localscores import oracle
from localscores.estimation import _ScoreKernel
from localscores.oracle import (COINCIDENCE_MINIMUM, DEMONSTRATION_CHECKS, DIVERGENCE_IDENTITY_TOLERANCE,
                                MAX_WITNESSES, PROPERNESS_TOLERANCE, SCORE_PATH_TOLERANCE, _chunk_trials)


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


# ---------------------------------------------------------------------------
# the checks evaluate their trials as chunked stacks; these loops run one
# trial at a time over the public routes, drawing from the same generator in
# the same order, and return (trials, worst violation, witnesses, tolerance)


def _pair(gen, size):
    p = Probability.normalize(np.exp(gen.uniform(-3.0, 3.0, size=size)))
    return p, Probability.normalize(np.exp(gen.uniform(-3.0, 3.0, size=size)))


def loop_properness(family, trials, rng):
    gen, worst, witnesses = rng.generator(), -math.inf, []
    for _ in range(trials):
        p, q = _pair(gen, family.space.size)
        violation = expected_score(family, p, p.log()) - expected_score(family, p, q.log())
        worst = max(worst, violation)
        if violation > PROPERNESS_TOLERANCE:
            witnesses.append((tuple(p.weights), tuple(q.weights)))
    return trials, worst, witnesses, PROPERNESS_TOLERANCE


def loop_coincidence(family, trials, rng, rejected=None):
    gen, divs, witnesses = rng.generator(), [], []
    pairs = []
    while len(pairs) < trials:
        p, q = _pair(gen, family.space.size)
        if np.max(np.abs(p.weights - q.weights)) < 0.01:
            if rejected is not None:
                rejected.append((p, q))
            continue
        pairs.append((p, q))
    pairs += [(p, q) for p, q, _ in registered_counterexamples(family)]
    for p, q in pairs:
        divs.append(divergence(family, p.log(), q.log()))
        if divs[-1] < COINCIDENCE_MINIMUM:
            witnesses.append((tuple(p.weights), tuple(q.weights)))
    return len(pairs), -min(divs), witnesses, -COINCIDENCE_MINIMUM


def loop_score_paths(family, trials, rng, step=1e-5):
    gen, worst, witnesses = rng.generator(), 0.0, []
    for _ in range(trials):
        logs = gen.uniform(-3.0, 3.0, size=family.space.size)
        y = int(gen.integers(0, family.space.size))
        routes = {"kernel": float(state_scores(family, logs)[y]),
                  "generic": generic_score(family, y, logs)}
        try:
            routes["closed_form"] = named_closed_form_score(family, y, logs)
        except UnsupportedError:
            pass
        up, down = logs.copy(), logs.copy()
        up[y] += step
        down[y] -= step
        delta = composite_potential(family, up) - composite_potential(family, down)
        routes["finite_difference"] = -delta / (2.0 * math.exp(logs[y]) * math.sinh(step))
        vals = list(routes.values())
        spread = (max(vals) - min(vals)) / max(1.0, max(abs(v) for v in vals))
        worst = max(worst, spread)
        if spread > SCORE_PATH_TOLERANCE:
            witnesses.append((y, routes))
    return trials, worst, witnesses, SCORE_PATH_TOLERANCE


def loop_divergence_identity(family, trials, rng):
    gen, worst, witnesses = rng.generator(), 0.0, []
    n = family.space.size
    for _ in range(trials):
        flogs, glogs = gen.uniform(-3.0, 3.0, size=n), gen.uniform(-3.0, 3.0, size=n)
        lhs = divergence(family, flogs, glogs)
        rhs = float(np.exp(flogs) @ state_scores(family, glogs)) + composite_potential(family, flogs)
        spread = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, spread)
        if spread > DIVERGENCE_IDENTITY_TOLERANCE:
            witnesses.append((lhs, rhs))
        a = gen.normal(size=(n, n))
        pairs = [(x, int(z)) for x in range(n) for z in family.neighbors(x)]
        if math.fsum(a[x, z] for x, z in pairs) != math.fsum(a[z, x] for x, z in pairs):
            worst = max(worst, 1.0)
            witnesses.append("index swap mismatch")
    return trials, worst, witnesses, DIVERGENCE_IDENTITY_TOLERANCE


def _skew_kernel(monkeypatch):
    """Scale every kernel score by 1 + 1e-3, so that routes independent of
    the kernel disagree with it and the checks comparing them record witnesses."""
    terms = _ScoreKernel._score_terms
    monkeypatch.setattr(_ScoreKernel, "_score_terms",
                        lambda self, logs: (terms(self, logs)[0] * (1.0 + 1e-3), None))


LOOP_CASES = {  # check -> (its one-trial loop, [(family builder, skew the kernel?)])
    check_properness: (loop_properness, [
        (lambda: pseudo_likelihood(hamming_graph(3, 1)), False),
        # improper off block systems: about one trial in 150 is a witness
        (lambda: LocalPotentialFamily("cl", label_band_graph(4, 1), standard_cl=True), False),
    ]),
    check_coincidence: (loop_coincidence, [
        (lambda: pseudo_likelihood(hamming_graph(1, 1)), False),  # rejects about 4% of draws
        (lambda: pseudo_spherical(hamming_graph(4, 1), 1.0), False),  # a counterexample witness
    ]),
    check_score_paths: (loop_score_paths, [
        (lambda: composite_likelihood(label_band_graph(16, 2)), False),
        (lambda: pseudo_likelihood(hamming_graph(4, 1)), True),
    ]),
    check_divergence_identity: (loop_divergence_identity, [
        (lambda: pseudo_spherical(hamming_graph(4, 1), 1.0), False),
        (lambda: pseudo_likelihood(hamming_graph(4, 1)), True),
    ]),
}


class TestChunkedChecksMatchOneTrialLoops:
    @pytest.mark.parametrize("past_chunk", [-1, 0, 1])
    @pytest.mark.parametrize("case", [0, 1], ids=["passing", "witnessed"])
    @pytest.mark.parametrize("check", list(LOOP_CASES), ids=lambda c: c.__name__)
    def test_report_matches_the_loop(self, monkeypatch, check, case, past_chunk):
        loop, cases = LOOP_CASES[check]
        build, skew = cases[case]
        if skew:
            _skew_kernel(monkeypatch)
        trials = _chunk_trials(build().space) + past_chunk
        count, worst, witnesses, tolerance = loop(build(), trials, RngStream(5))
        report = check(build(), trials, RngStream(5))
        assert report.trials == count
        assert report.verdict == ("pass" if worst <= tolerance else "fail")
        assert (report.verdict == "fail") == (case == 1)
        assert report.witnesses == tuple(witnesses[:MAX_WITNESSES])
        assert report.worst_violation == pytest.approx(worst, rel=1e-12, abs=0)

    def test_coincidence_skips_rejected_draws_as_the_loop_does(self):
        fam = pseudo_likelihood(hamming_graph(1, 1))
        rejected, trials = [], _chunk_trials(fam.space) + 1
        count, worst, _, _ = loop_coincidence(fam, trials, RngStream(5), rejected)
        assert len(rejected) >= 5  # the first chunk is short of accepted pairs
        report = check_coincidence(fam, trials, RngStream(5))
        assert report.trials == count and report.worst_violation == pytest.approx(worst, rel=1e-12)

    def test_memory_does_not_grow_with_trials(self):
        fam = pseudo_likelihood(hamming_graph(3, 1))
        check_properness(fam, 1, RngStream(0))  # compile the kernel
        peaks = []
        for trials in (_chunk_trials(fam.space), 20 * _chunk_trials(fam.space)):
            tracemalloc.start()
            check_properness(fam, trials, RngStream(0))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0], peaks


def nan_derivative_family():
    """pl's potential with a derivative that is nan everywhere: every score,
    gradient and divergence it gives is nan."""
    return LocalPotentialFamily("custom", hamming_graph(2, 1), phi=lambda t: -np.log1p(t),
                                dphi=lambda t: math.nan)


class TestNonFiniteValuesFail:
    # a nan compares false with everything, so a check that only compares
    # would pass it; each must fail and keep the trial as a witness
    @pytest.mark.parametrize("check", [check_properness, check_coincidence, check_divergence_identity])
    def test_nan_route_fails_the_check(self, check):
        report = check(nan_derivative_family(), 20, RngStream(0))
        assert report.verdict == "fail"
        assert report.worst_violation == math.inf
        assert len(report.witnesses) == MAX_WITNESSES

    def test_nan_generic_score_fails_score_paths(self, monkeypatch):
        monkeypatch.setattr(oracle, "generic_score", lambda family, y, log_f: math.nan)
        report = check_score_paths(pseudo_likelihood(hamming_graph(3, 1)), 5, RngStream(0))
        assert report.verdict == "fail"
        assert report.worst_violation == math.inf
        assert len(report.witnesses) == 5 and math.isnan(report.witnesses[0][1]["generic"])

    def test_nan_divergence_is_reported(self):
        report = check_coincidence(nan_derivative_family(), 5, RngStream(0))
        assert "min_divergence=nan" in report.details
