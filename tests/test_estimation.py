import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localscores import (
    BlockNeighborhood,
    BlockSystem,
    BoltzmannModel,
    ConditionalModel,
    FitConfig,
    HypercubeNeighborhood,
    InputError,
    LocalPotentialFamily,
    NonFiniteObjectiveError,
    RngStream,
    SampleSpace,
    TabularModel,
    UnsupportedError,
    bind_spec,
    classify,
    classify_batch,
    composite_likelihood,
    custom_additive,
    density_power,
    empirical_score,
    exact_log_z,
    exact_sample,
    fit,
    generic_score,
    graph_from_edges,
    label_band_graph,
    mle_fit,
    negative_log_loss,
    normalize,
    parse_score_spec,
    population_gradient,
    pseudo_likelihood,
    pseudo_spherical,
    ratio_matching,
    score,
    standard_cl_score,
)
from localscores import test_error as error_rate
from localscores import estimation
from localscores.estimation import _ScoreKernel, _minimize
from dense_boltzmann import pair_features


def seeded_boltzmann(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    wt = rng.standard_normal((dim, dim)) * scale
    w = (wt + wt.T) / 2
    np.fill_diagonal(w, 0.0)
    return BoltzmannModel.from_matrix(w)


class TestEmpiricalScore:
    def test_single_sample(self):
        fam = pseudo_likelihood(HypercubeNeighborhood(3, 1))
        model = seeded_boltzmann(3, 0)
        logs = model.log_f_batch(np.arange(8))
        for y in range(8):
            assert empirical_score(fam, model, [y]) == pytest.approx(score(fam, y, logs))

    def test_uniform_model_gives_d_log2(self):
        fam = pseudo_likelihood(HypercubeNeighborhood(4, 1))
        model = BoltzmannModel.zeros(4)
        samples = np.arange(16)
        assert empirical_score(fam, model, samples) == pytest.approx(4 * math.log(2))

    def test_duplication_invariance(self):
        fam = ratio_matching(HypercubeNeighborhood(3, 1))
        model = seeded_boltzmann(3, 1)
        samples = np.array([0, 3, 5])
        doubled = np.concatenate([samples, samples])
        assert empirical_score(fam, model, samples) == pytest.approx(
            empirical_score(fam, model, doubled)
        )

    def test_empty_samples_rejected(self):
        fam = pseudo_likelihood(HypercubeNeighborhood(2, 1))
        with pytest.raises(InputError):
            empirical_score(fam, BoltzmannModel.zeros(2), [])


class TestFitConfig:
    def test_defaults(self):
        cfg = FitConfig()
        assert cfg.max_iterations == 10000
        assert cfg.gradient_tolerance == 1e-6
        assert cfg.l2_penalty == 0.0

    def test_validation(self):
        with pytest.raises(InputError):
            FitConfig(max_iterations=0)
        with pytest.raises(InputError):
            FitConfig(l2_penalty=-1.0)

    @pytest.mark.parametrize("bad", [
        {"gradient_tolerance": math.nan},
        {"gradient_tolerance": math.inf},
        {"gradient_tolerance": 0.0},
        {"l2_penalty": True},
        {"l2_penalty": math.nan},
        {"l2_penalty": math.inf},
        {"max_iterations": 2.5},
        {"max_iterations": 3.0},
        {"max_iterations": True},
    ])
    def test_rejects_non_finite_and_non_integer_settings(self, bad):
        # a nan tolerance would run every fit to the cap, unconverged
        with pytest.raises(InputError):
            FitConfig(**bad)
        assert FitConfig(max_iterations=np.int64(3)).max_iterations == 3


class TestFitMechanics:
    def test_trace_non_increasing(self):
        model = seeded_boltzmann(4, 2)
        samples = exact_sample(normalize(model), 500, RngStream(2))
        fam = pseudo_likelihood(HypercubeNeighborhood(4, 1))
        result = fit(fam, BoltzmannModel.zeros(4), samples, FitConfig(max_iterations=200))
        objectives = [obj for obj, _ in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_convergence_contract(self):
        model = seeded_boltzmann(3, 3, scale=0.5)
        samples = exact_sample(normalize(model), 2000, RngStream(3))
        fam = pseudo_likelihood(HypercubeNeighborhood(3, 1))
        result = fit(fam, BoltzmannModel.zeros(3), samples)
        assert result.converged
        assert result.gradient_norm <= 1e-6

    def test_determinism(self):
        model = seeded_boltzmann(3, 4)
        samples = exact_sample(normalize(model), 300, RngStream(4))
        fam = ratio_matching(HypercubeNeighborhood(3, 1))
        a = fit(fam, BoltzmannModel.zeros(3), samples)
        b = fit(fam, BoltzmannModel.zeros(3), samples)
        assert np.array_equal(a.parameters.upper, b.parameters.upper)
        assert a.trace == b.trace

    def test_each_point_is_evaluated_once(self):
        # one gradient per accepted point (the start and every step) and one
        # value per trial, so no point is evaluated twice
        model = seeded_boltzmann(4, 12, scale=0.5)
        samples = exact_sample(normalize(model), 300, RngStream(12))
        x, labels = TestConditional().make_separable(n=60, seed=12, noise=0.2)
        config = FitConfig(max_iterations=60, l2_penalty=0.01)
        runs = {
            "pl": fit(pseudo_likelihood(HypercubeNeighborhood(4, 1)), BoltzmannModel.zeros(4),
                      samples, config),
            "ps": fit(pseudo_spherical(HypercubeNeighborhood(4, 1), 1.0),
                      BoltzmannModel.zeros(4), samples, config),
            "mcl": fit(composite_likelihood(BlockSystem.of(4, {1, 2}, {3, 4})),
                       BoltzmannModel.zeros(4), samples, config),
            "conditional": fit(pseudo_likelihood(label_band_graph(4, 1)),
                               ConditionalModel.zeros(4, 4), labels, config, features=x),
            "conditional mle": mle_fit(ConditionalModel.zeros(4, 4), labels, config, features=x),
            "mle": mle_fit(BoltzmannModel.zeros(4), samples, config),
        }
        for name, result in runs.items():
            assert result.iterations_used > 0, name
            assert result.gradients == result.iterations_used + 1, name
            assert result.evaluations >= result.gradients, name
            assert len(result.trace) == result.gradients, name
            record = result.report_lines()[0]
            assert record.endswith(
                f" evaluations={result.evaluations} gradients={result.gradients}"
            ), name

    def test_l2_dominance_pulls_parameters_to_zero(self):
        model = seeded_boltzmann(3, 5)
        samples = exact_sample(normalize(model), 300, RngStream(5))
        fam = pseudo_likelihood(HypercubeNeighborhood(3, 1))
        init = BoltzmannModel(dim=3, upper=np.array([1.0, -1.0, 0.5]))
        result = fit(fam, init, samples, FitConfig(l2_penalty=1e8))
        assert np.max(np.abs(result.parameters.upper)) < 1e-6

    def test_nonfinite_initial_point_names_sample(self):
        # a density-power objective at an extreme tabular start overflows
        space = SampleSpace.hypercube(2)
        from localscores import hamming_graph

        fam = density_power(hamming_graph(2, 1), 1.0)
        init = TabularModel(space=space, eta=np.array([0.0, 800.0, -800.0, 0.0]))
        with pytest.raises(NonFiniteObjectiveError) as err:
            fit(fam, init, np.array([0, 1, 2, 3]), FitConfig())
        assert err.value.sample_index is not None

    def test_nonfinite_sample_index_is_a_position_in_samples(self):
        # point 1's score is finite, point 2's overflows: the first sample
        # at point 2 is samples[2]
        from localscores import hamming_graph

        fam = density_power(hamming_graph(2, 1), 1.0)
        init = TabularModel(space=SampleSpace.hypercube(2), eta=np.array([0.0, 0.0, -800.0, 0.0]))
        with pytest.raises(NonFiniteObjectiveError) as err:
            fit(fam, init, np.array([1, 1, 2]), FitConfig())
        assert err.value.sample_index == 2


class _Curve:
    """A one-parameter objective f with derivative df, started at x0, in the
    protocol `_minimize` drives; its fitted "model" is the parameter array."""

    def __init__(self, f, df, x0):
        self.f, self.df = f, df
        self.x0 = np.array([x0])
        self.model = self

    def evaluate(self, x):
        return self.f(x[0]), lambda: np.array([self.df(x[0])])

    def with_params(self, x):
        return x

    def offending_sample(self, x):
        return None


def _boltzmann_fit(spec, dim, config=FitConfig()):
    """A fit from zeros on 2000 exact samples of a weakly coupled Boltzmann
    machine, over the radius-1 Hamming graph."""
    model = seeded_boltzmann(dim, 2, scale=0.2)
    samples = exact_sample(normalize(model), 2000, RngStream(2))
    target = bind_spec(parse_score_spec(spec), HypercubeNeighborhood(dim, 1))
    return fit(target, BoltzmannModel.zeros(dim), samples, config)


def _conditional_fit(spec, labels=10, dim=32, config=FitConfig()):
    """A fit from zeros on 2000 feature rows of variance 2/dim, each labelled
    from the softmax of a random conditional model, over a label band of
    radius 1."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2000, dim)) * math.sqrt(2.0 / dim)
    logits = x @ rng.normal(size=(labels, dim)).T
    prob = np.exp(logits - logits.max(axis=1, keepdims=True))
    prob /= prob.sum(axis=1, keepdims=True)
    y = np.minimum((prob.cumsum(axis=1) < rng.random(2000)[:, None]).sum(axis=1), labels - 1)
    target = bind_spec(parse_score_spec(spec), label_band_graph(labels, 1))
    return fit(target, ConditionalModel.zeros(labels, dim), y, config, features=x)


class TestStepRule:
    # the first trial moves unit distance, step 1 / ||g0||_2; each later
    # search starts at the Barzilai-Borwein step s'y / y'y, capped at twice
    # the last accepted step
    @pytest.mark.parametrize("spec, dim", [
        ("pl", 6), ("rm", 6), ("ps:1", 6), ("mcl:1;2;3;4;5", 5), ("pl", None),
    ], ids=["pl", "rm", "ps", "mcl-singletons", "conditional-pl"])
    def test_few_trials_are_rejected(self, spec, dim):
        # dim None: 10 labels and 32 features
        result = _conditional_fit(spec) if dim is None else _boltzmann_fit(spec, dim)
        assert result.converged
        objectives = [obj for obj, _ in result.trace]
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))
        # doubling the last step rejected about one trial per iteration
        rejected = result.evaluations - result.gradients
        assert rejected / result.iterations_used <= 0.3

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    def test_first_trial_moves_unit_distance(self, a):
        # whatever the curvature, the first trial from 3 lands at 2
        curve = _Curve(lambda x: 0.5 * a * x * x, lambda x: a * x, 3.0)
        result = _minimize(curve, FitConfig(max_iterations=1))
        assert result.trace[1][0] == pytest.approx(0.5 * a * 2.0 * 2.0, rel=1e-15)
        assert result.evaluations == 2

    @pytest.mark.parametrize("fit_case", [
        lambda config: _boltzmann_fit("pl", 6, config),
        lambda config: _conditional_fit("pl", config=config),
    ], ids=["boltzmann-pl", "conditional-pl"])
    def test_first_move_of_a_fit_has_unit_length(self, fit_case):
        # from zeros the first move is one unit, halved per rejected trial
        result = fit_case(FitConfig(max_iterations=1))
        moved = np.linalg.norm(result.parameters.params)
        assert moved == pytest.approx(0.5 ** (result.evaluations - 2), rel=1e-12)

    def test_zero_gradient_start_returns_without_a_line_search(self):
        curve = _Curve(lambda x: 0.5 * x * x, lambda x: x, 0.0)
        result = _minimize(curve, FitConfig())
        assert result.converged
        assert result.iterations_used == 0
        assert (result.evaluations, result.gradients) == (1, 1)
        assert result.trace == ((0.0, 0.0),)
        assert result.parameters[0] == 0.0

    def test_growth_is_capped_at_doubling(self):
        # on x^2 / 2 from 1000 the quotient is 1, a thousand times the first
        # step 1 / 1000, so each step doubles the last until the quotient binds
        curve = _Curve(lambda x: 0.5 * x * x, lambda x: x, 1000.0)
        result = _minimize(curve, FitConfig())
        x1 = 999.0  # the first trial, one unit from 1000
        assert result.trace[1][0] == pytest.approx(0.5 * x1 * x1, rel=1e-15)
        assert result.trace[2][0] == pytest.approx(0.5 * (x1 - 2e-3 * x1) ** 2, rel=1e-15)
        assert result.converged
        assert result.evaluations == result.gradients  # no trial rejected

    def test_concave_stretch_falls_back_to_doubling(self):
        # 10 cos(x / 10) is concave on the first move from 5, a unit one to
        # 6, so s'y < 0 there and the next trial doubles the first step
        curve = _Curve(lambda x: 10.0 * math.cos(x / 10.0), lambda x: -math.sin(x / 10.0), 5.0)
        result = _minimize(curve, FitConfig())
        step = 1.0 / math.sin(0.5)
        x1 = 6.0  # the first trial
        assert result.trace[1][0] == pytest.approx(10.0 * math.cos(x1 / 10.0), rel=1e-15)
        x2 = x1 + 2.0 * step * math.sin(x1 / 10.0)
        assert result.trace[2][0] == pytest.approx(10.0 * math.cos(x2 / 10.0), rel=1e-15)
        assert result.converged
        assert result.parameters[0] == pytest.approx(10.0 * math.pi, abs=1e-4)

    def test_unchanged_gradient_falls_back_to_doubling(self):
        # the Huber function's slope is 1 beyond |x| = 1, so y = 0 and the
        # quotient is 0/0 until the iterate reaches the quadratic part
        def huber(x):
            return 0.5 * x * x if abs(x) <= 1 else abs(x) - 0.5

        curve = _Curve(huber, lambda x: max(-1.0, min(1.0, x)), 10.0)
        result = _minimize(curve, FitConfig())
        # steps 1, 2, 4 (doubled), 8 rejected at -5 then 4, then the
        # quotient's 2 rejected at 1 and 1 accepted at the minimum
        assert [obj for obj, _ in result.trace] == [9.5, 8.5, 6.5, 2.5, 0.5, 0.0]
        assert result.converged
        assert result.evaluations - result.gradients == 2


class TestGradientAssembly:
    @staticmethod
    def _cases():
        """(kind, model type, objective, point) for every kind x model."""
        from localscores.estimation import _build_objective, _mle_objective

        rng = np.random.default_rng(6)
        samples = rng.integers(0, 8, size=40)
        bm = BoltzmannModel(dim=3, upper=rng.normal(size=3) * 0.5)
        tab = TabularModel(space=SampleSpace.hypercube(3), eta=rng.normal(size=8) * 0.5)
        cond = ConditionalModel(4, 3, rng.normal(size=(4, 3)) * 0.5)
        labels = rng.integers(0, 4, size=40)
        features = rng.normal(size=(40, 3))
        cube = {
            "pl": pseudo_likelihood(HypercubeNeighborhood(3, 1)),
            "rm": ratio_matching(HypercubeNeighborhood(3, 1)),
            "dp": density_power(HypercubeNeighborhood(3, 1), 1.0),
            "ps": pseudo_spherical(HypercubeNeighborhood(3, 2), 1.0),
            "mcl": composite_likelihood(BlockSystem.of(3, {1}, {2, 3})),
            "cl": LocalPotentialFamily("cl", BlockNeighborhood(BlockSystem.of(3, {1}, {2, 3})),
                                       standard_cl=True),
            "mle": None,
        }
        band = label_band_graph(4, 1)
        label_fams = {
            "pl": pseudo_likelihood(band),
            "rm": ratio_matching(band),
            "dp": density_power(band, 1.0),
            "ps": pseudo_spherical(label_band_graph(4, 2), 1.0),
            "mcl": composite_likelihood(band),
            "cl": LocalPotentialFamily("cl", band, standard_cl=True),
            "mle": None,
        }
        cases = [
            (bm, cube, samples, None), (tab, cube, samples, None),
            (cond, label_fams, labels, features),
        ]
        for model, fams, ys, feats in cases:
            for name, fam in fams.items():
                if fam is None:
                    obj = _mle_objective(model, ys, feats, l2=0.01)
                else:
                    obj = _build_objective(fam, model, ys, feats, 0.01)
                x = np.array(obj.x0) + rng.normal(size=len(obj.x0)) * 0.2
                yield name, type(model).__name__, obj, x

    def test_every_kind_times_model_matches_finite_differences(self):
        h = 1e-6
        for name, model_name, obj, x in self._cases():
            _, grad = obj.value_and_grad(x)
            for k in range(len(x)):
                up = x.copy(); up[k] += h
                dn = x.copy(); dn[k] -= h
                fd = (obj.value(up) - obj.value(dn)) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-8), (name, model_name)

    def test_evaluate_matches_value_and_value_and_grad_bit_for_bit(self):
        # a finish keeps its own point's arrays: neither another point
        # evaluated in between (a rejected line-search trial) nor a second
        # call changes what it returns
        for name, model_name, obj, x in self._cases():
            value, gradient = obj.evaluate(x)
            obj.evaluate(x + 0.5)
            ref_value, ref_grad = obj.value_and_grad(x)
            assert value == ref_value == obj.value(x), (name, model_name)
            assert np.array_equal(gradient(), ref_grad), (name, model_name)
            assert np.array_equal(gradient(), ref_grad), (name, model_name)


class _PlainGraph:
    """Only what a family requires of a graph: `space` and `neighbors`."""

    def __init__(self, graph):
        self.space = graph.space
        self.neighbors = graph.neighbors


@st.composite
def objective_cases(draw):
    """A family, a model, samples and features (None unless the model is
    conditional): hypercube families over ragged-degree graphs, active
    subsets and uneven block systems, or label families over band and
    ragged label graphs with features per row."""
    conditional = draw(st.booleans())
    if conditional:
        size = draw(st.integers(2, 6))
        space = SampleSpace.label_range(size)
        shapes = ("ragged", "plain", "band")
    else:
        dim = draw(st.integers(2, 4))
        space = SampleSpace.hypercube(dim)
        size = space.size
        shapes = ("ragged", "plain", "hamming", "blocks")
    kind = draw(st.sampled_from(("pl", "rm", "dp", "ps", "mcl", "cl", "custom")))
    shape = draw(st.sampled_from(shapes))
    if shape in ("ragged", "plain"):
        # a path through every point keeps each degree positive
        order = draw(st.permutations(range(size)))
        extra = draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(
                lambda e: e[0] != e[1]),
            max_size=2 * size,
        ))
        graph = graph_from_edges(space, list(zip(order, order[1:])) + extra)
        if shape == "plain":
            graph = _PlainGraph(graph)
    elif shape == "band":
        graph = label_band_graph(size, draw(st.integers(1, size - 1)))
    elif shape == "hamming":
        graph = HypercubeNeighborhood(dim, draw(st.integers(1, 2)))
    else:
        coords = st.sets(st.integers(1, dim), min_size=1, max_size=dim)
        blocks = draw(st.lists(coords, min_size=1, max_size=3))
        graph = BlockNeighborhood(BlockSystem.of(dim, *blocks))
    standard_cl = kind == "cl"
    active = None
    if not standard_cl and draw(st.booleans()):
        active = draw(st.sets(st.integers(0, size - 1), min_size=1))
    gamma = draw(st.sampled_from((0.5, 1.0, 2.0)))
    if kind in ("mcl", "cl"):
        fam = LocalPotentialFamily("cl", graph, active=active, standard_cl=standard_cl)
    elif kind == "custom":
        fam = custom_additive(graph, lambda t: 0.5 * t * t, lambda t: t, lambda t: 1.0,
                              active=active)
    else:
        fam = LocalPotentialFamily(kind, graph, gamma=gamma if kind in ("dp", "ps") else None,
                                   active=active)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    samples = rng.integers(0, size, size=draw(st.integers(1, 25)))
    features = None
    if conditional:
        width = draw(st.integers(1, 4))
        model = ConditionalModel(size, width, rng.normal(size=(size, width)) * 0.5)
        features = rng.normal(size=(len(samples), width))
    elif draw(st.booleans()):
        model = BoltzmannModel(dim=dim, upper=rng.normal(size=dim * (dim - 1) // 2) * 0.5)
    else:
        model = TabularModel(space=space, eta=rng.normal(size=size) * 0.5)
    return fam, model, samples, features


def _per_state_reference(fam, model, samples, features, h=1e-5):
    """Mean score and its parameter gradient through the kernel-free point
    routes: values from `generic_score` (`standard_cl_score` for the plain
    CL objective), log-f partials from their central differences with step
    h. A conditional sample is scored on the logs theta @ x_i of its own
    row; unconditional samples share one logs vector, so each distinct
    state is scored once, weighted by its count."""
    point_score = standard_cl_score if fam.standard_cl else generic_score
    if features is None:
        logs = model.log_f_batch(np.arange(model.space.size))
        states, counts = np.unique(samples, return_counts=True)
        rows = [(int(y), c, logs, None) for y, c in zip(states, counts)]
    else:
        rows = [(int(y), 1, model.theta @ x, x) for y, x in zip(samples, features)]
    n = len(samples)
    value, grad = 0.0, 0.0
    for y, count, logs, x in rows:
        value += count * point_score(fam, y, logs) / n
        dj = np.zeros(len(logs))
        for j in range(len(logs)):
            up, dn = logs.copy(), logs.copy()
            up[j] += h
            dn[j] -= h
            dj[j] = (point_score(fam, y, up) - point_score(fam, y, dn)) / (2 * h)
        if isinstance(model, ConditionalModel):
            dj = np.outer(dj, x).ravel()
        elif isinstance(model, BoltzmannModel):
            dj = pair_features(model.dim, np.arange(len(logs))).T @ dj
        grad = grad + count * dj / n
    return value, grad


class TestScoreObjectiveProperties:
    @settings(max_examples=160, deadline=None, derandomize=True, database=None)
    @given(objective_cases())
    def test_batched_objective_matches_per_state_routes(self, case):
        from localscores.estimation import _build_objective

        fam, model, samples, features = case
        obj = _build_objective(fam, model, samples, features)
        ref_value, ref_grad = _per_state_reference(fam, model, samples, features)
        x = np.array(obj.x0)
        value, grad = obj.value_and_grad(x)
        assert obj.value(x) == pytest.approx(ref_value, rel=1e-10, abs=1e-12)
        assert value == pytest.approx(ref_value, rel=1e-10, abs=1e-12)
        # the central difference errs by about h^2 |S'''| / 6 + eps |S| / h, both
        # near 2e-11 at h = 1e-5; the worst case here is 1.6e-10 of the scale
        scale = max(1.0, float(np.max(np.abs(ref_grad))))
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-8, atol=1e-8 * scale)


@st.composite
def point_sets(draw):
    """A point range no wider than the mark-table rule allows for one entry,
    and one to four point arrays in it, some possibly empty, with duplicates
    and the range's ends favoured."""
    from localscores.estimation import _TABLE_RANGE_PER_ENTRY

    size = draw(st.integers(1, _TABLE_RANGE_PER_ENTRY))
    value = st.one_of(st.just(0), st.just(size - 1), st.integers(0, size - 1))
    sets = draw(st.lists(st.lists(value, max_size=10), min_size=1, max_size=4).filter(
        lambda sets: any(sets)))
    return size, [np.array(s, dtype=np.int64) for s in sets]


class TestIndexPoints:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(point_sets())
    def test_matches_unique_and_searchsorted_on_both_paths(self, case):
        from localscores.estimation import _TABLE_RANGE_PER_ENTRY, _index_points

        size, arrays = case
        entries = sum(a.size for a in arrays)
        expected = np.unique(np.concatenate(arrays))
        # the same points in a range that takes the table, then the sort
        for span in (size, _TABLE_RANGE_PER_ENTRY * entries + size):
            points, pos = _index_points(arrays, span)
            assert np.array_equal(points, expected) and points.dtype == expected.dtype
            queries = np.concatenate([np.arange(size), [span - 1]])  # every x, absent ones too
            want = np.searchsorted(expected, queries)
            assert np.array_equal(pos(queries), want) and pos(queries).dtype == want.dtype
            grid = queries[:size].reshape(1, -1)
            assert np.array_equal(pos(grid), np.searchsorted(expected, grid))

    @pytest.mark.parametrize("size", [1, 7, 2 ** 40])
    def test_empty_sets(self, size):
        from localscores.estimation import _index_points

        points, pos = _index_points([np.zeros(0, dtype=np.int64)] * 2, size)
        assert points.size == 0
        assert np.array_equal(pos(np.array([0, size - 1])), [0, 0])


class TestSortPathFits:
    """Hypercubes too large for a mark table over their points index the
    universe by sorting; the fitted objective must still be the mean score."""

    @pytest.mark.parametrize("spec, count", [("pl", 200), ("rm", 200), ("ps:1", 30)])
    def test_objective_is_mean_point_score(self, monkeypatch, spec, count):
        from localscores import estimation

        paths = []
        index = estimation._index_points

        def spy(arrays, size):
            entries = sum(np.size(a) for a in arrays)
            paths.append(size > estimation._TABLE_RANGE_PER_ENTRY * entries)
            return index(arrays, size)

        monkeypatch.setattr(estimation, "_index_points", spy)
        dim, l2 = 22, 0.01
        rng = np.random.default_rng(22)
        samples = rng.integers(0, 2 ** dim, size=count, dtype=np.int64)
        family, _ = bind_spec(parse_score_spec(spec), HypercubeNeighborhood(dim, 1))
        start = seeded_boltzmann(dim, 5, scale=0.05)
        res = fit(family, start, samples, FitConfig(max_iterations=3, l2_penalty=l2))
        assert paths and all(paths)
        model = res.parameters
        cache = {}

        def log_f(i):
            if i not in cache:
                cache[i] = float(model.log_f_batch([i])[0])
            return cache[i]

        mean = np.mean([score(family, int(y), log_f) for y in samples])
        expected = res.final_objective - l2 * float(model.upper @ model.upper)
        assert expected == pytest.approx(mean, rel=1e-10)


class TestMle:
    def test_tabular_recovers_empirical_frequencies(self):
        space = SampleSpace.enumerated(list("abc"))
        samples = np.array([0, 0, 1, 2])
        result = mle_fit(TabularModel.zeros(space), samples)
        assert np.allclose(normalize(result.parameters).weights, [0.5, 0.25, 0.25], atol=1e-6)
        assert result.gradient_norm <= 1e-6

    def test_boltzmann_beats_uniform_baseline(self):
        model = seeded_boltzmann(8, 7)
        p = normalize(model)
        train = exact_sample(p, 1000, RngStream(7, 1))
        test = exact_sample(p, 2000, RngStream(7, 2))
        result = mle_fit(BoltzmannModel.zeros(8), train)
        loss = negative_log_loss(result.parameters, test, log_z=exact_log_z(result.parameters))
        assert loss < 8 * math.log(2)

    def test_requires_enumerable_space(self):
        from localscores import UnsupportedError

        with pytest.raises(UnsupportedError):
            mle_fit(BoltzmannModel.zeros(20), np.array([0, 1]))


class TestScaleGauge:
    def test_fit_invariant_to_constant_log_shift(self):
        # homogeneous objectives cannot see a constant added to log f, which
        # is what a diagonal shift of W produces
        from localscores.estimation import _build_objective

        model = seeded_boltzmann(3, 8)
        samples = exact_sample(normalize(model), 400, RngStream(8))
        fam = pseudo_likelihood(HypercubeNeighborhood(3, 1))
        obj = _build_objective(fam, BoltzmannModel.zeros(3), samples, None)
        x = np.array([0.3, -0.2, 0.1])
        base_logs = obj.bound.logs(x)
        vals1, finish1 = obj.kernel._score_terms(base_logs)
        vals2, finish2 = obj.kernel._score_terms(base_logs + 3.7)
        assert np.allclose(vals1, vals2, rtol=1e-9)
        assert np.allclose(finish1(), finish2(), rtol=1e-9, atol=1e-12)

    def test_fitted_parameters_match_after_shift(self):
        model = seeded_boltzmann(3, 9, scale=0.6)
        samples = exact_sample(normalize(model), 1000, RngStream(9))
        fam = pseudo_likelihood(HypercubeNeighborhood(3, 1))
        # a second start takes GD down another path to the same minimizer
        a = fit(fam, BoltzmannModel.zeros(3), samples)
        b = fit(fam, BoltzmannModel(3, [0.3, -0.2, 0.1]), samples)
        assert np.allclose(a.parameters.upper, b.parameters.upper, atol=1e-5)


class TestPopulationConsistency:
    def test_population_gradient_vanishes_at_truth(self):
        model = seeded_boltzmann(4, 2026)
        p = normalize(model)
        fams = [
            pseudo_likelihood(HypercubeNeighborhood(4, 1)),
            ratio_matching(HypercubeNeighborhood(4, 1)),
            density_power(HypercubeNeighborhood(4, 1), 1.0),
            pseudo_spherical(HypercubeNeighborhood(4, 2), 1.0),
            composite_likelihood(BlockSystem.singletons(4)),
        ]
        for fam in fams:
            grad = population_gradient(fam, model, p)
            assert np.max(np.abs(grad)) <= 1e-8


class TestConditional:
    def make_separable(self, n=300, seed=10, noise=0.0):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, size=n)
        centers = np.eye(4) * 3.0
        x = centers[labels] + rng.normal(size=(n, 4))
        if noise:
            flip = rng.random(n) < noise
            labels = labels.copy()
            labels[flip] = rng.integers(0, 4, size=int(flip.sum()))
        return x, labels

    def test_zero_model_ln_l_loss_and_tie_break(self):
        model = ConditionalModel.zeros(10, 5)
        x = np.ones((6, 5))
        y = np.arange(6)
        assert negative_log_loss(model, y, features=x) == pytest.approx(math.log(10))
        assert classify(model, np.ones(5)) == 0  # ties toward the smallest label

    def test_balanced_zero_model_error(self):
        model = ConditionalModel.zeros(10, 3)
        x = np.ones((10, 3))
        y = np.arange(10)
        assert error_rate(model, x, y) == pytest.approx(0.9)

    @pytest.mark.parametrize("labels, rows, message", [
        ([-1], 1, "sample index outside the space"),
        ([3], 1, "sample index outside the space"),
        ([0, 1], 10, "features and labels must align"),
    ])
    def test_losses_reject_bad_labels_and_features(self, labels, rows, message):
        model = ConditionalModel(3, 2, np.arange(6.0).reshape(3, 2))
        x = np.ones((rows, 2))
        with pytest.raises(InputError, match=message):
            negative_log_loss(model, labels, features=x)
        with pytest.raises(InputError, match=message):
            error_rate(model, x, labels)

    def test_losses_reject_bad_feature_width(self):
        model = ConditionalModel.zeros(3, 2)
        with pytest.raises(InputError, match="feature dimension does not match the model"):
            negative_log_loss(model, [0], features=np.ones((1, 3)))
        with pytest.raises(InputError, match="feature dimension does not match the model"):
            error_rate(model, np.ones((1, 3)), [0])

    @pytest.mark.parametrize("samples", [[8, -1], [8], [-1]])
    def test_unconditional_loss_rejects_points_outside_the_space(self, samples):
        with pytest.raises(InputError, match="sample index outside the space"):
            negative_log_loss(BoltzmannModel.zeros(3), samples, log_z=0.0)

    def test_strict_argmax(self):
        theta = np.zeros((3, 2))
        theta[1] = [1.0, 1.0]
        model = ConditionalModel(3, 2, theta)
        assert classify(model, np.array([1.0, 1.0])) == 1

    def test_mle_learns_separable_data(self):
        x, y = self.make_separable()
        result = mle_fit(ConditionalModel.zeros(4, 4), y, FitConfig(l2_penalty=1e-3), features=x)
        assert error_rate(result.parameters, x, y) < 0.12
        loss = negative_log_loss(result.parameters, y, features=x)
        assert loss < math.log(4)
        theta = result.parameters.theta.ravel()
        assert result.final_objective == pytest.approx(loss + 1e-3 * theta @ theta, rel=1e-12)

    def test_every_local_kind_learns(self):
        x, y = self.make_separable()
        graph = label_band_graph(4, 1)
        config = FitConfig(l2_penalty=1e-3)
        specs = ["pl", "rm", "ps:1", "cl", "mcl"]
        for text in specs:
            spec = parse_score_spec(text)
            family = spec.family(graph)
            result = fit(family, ConditionalModel.zeros(4, 4), y, config, features=x)
            err = error_rate(result.parameters, x, y)
            assert err < 0.2, (text, err)
            # the pair bind_spec returns spells the same family and selects nothing
            pair = bind_spec(spec, graph)
            paired = fit(pair, ConditionalModel.zeros(4, 4), y, config, features=x)
            assert paired.trace == result.trace, text
            assert np.array_equal(paired.parameters.theta, result.parameters.theta), text
            fitted = result.parameters
            held_out = empirical_score(family, fitted, y, features=x)
            assert empirical_score(pair, fitted, y, features=x) == held_out, text
            mismatched = (family, not family.standard_cl)
            with pytest.raises(InputError, match="standard_cl"):
                fit(mismatched, ConditionalModel.zeros(4, 4), y, config, features=x)
            with pytest.raises(InputError, match="standard_cl"):
                empirical_score(mismatched, fitted, y, features=x)

    def test_density_power_is_unbounded_below_on_full_support_data(self):
        # label noise does not bound the density-power objective: along the
        # ray through a capped fit's parameters the -(f_y/f_z)^gamma terms
        # outrun the others and the penalty, so the full fit escapes and must
        # fail loudly, naming a sample
        from localscores.estimation import _build_objective

        x, y = self.make_separable(noise=0.3, seed=13)
        target = bind_spec(parse_score_spec("dp:1"), label_band_graph(4, 1))
        config = FitConfig(max_iterations=20, l2_penalty=1e-2)
        ray = fit(target, ConditionalModel.zeros(4, 4), y, config, features=x).parameters.params
        objective = _build_objective(target, ConditionalModel.zeros(4, 4), y, x, config.l2_penalty)
        along = [objective.value(s * ray) for s in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(b < a for a, b in zip(along, along[1:]))
        assert along[-1] < -1e80
        with pytest.raises(NonFiniteObjectiveError, match=r"\(sample \d+\)") as err:
            fit(target, ConditionalModel.zeros(4, 4), y, FitConfig(l2_penalty=1e-2), features=x)
        assert err.value.sample_index in range(len(y))

    def test_density_power_escape_reports_offending_sample(self):
        # on separable data the density-power empirical objective is
        # unbounded below (the -(f_y/f_z)^gamma terms outrun any quadratic
        # penalty); the optimizer must fail loudly, naming a sample
        x, y = self.make_separable()
        spec = parse_score_spec("dp:1")
        with pytest.raises(NonFiniteObjectiveError) as err:
            fit(
                bind_spec(spec, label_band_graph(4, 1)),
                ConditionalModel.zeros(4, 4),
                y,
                FitConfig(l2_penalty=1e-3),
                features=x,
            )
        assert err.value.sample_index is not None

    def test_gauge_fix_last_keeps_last_block_zero(self):
        x, y = self.make_separable(n=150)
        graph = label_band_graph(4, 1)
        fam = pseudo_likelihood(graph)
        result = fit(
            fam, ConditionalModel.zeros(4, 4), y, FitConfig(max_iterations=300),
            features=x, gauge_fix_last=True,
        )
        assert np.allclose(result.parameters.theta[-1], 0.0)

    def test_label_range_validation(self):
        with pytest.raises(InputError):
            fit(
                pseudo_likelihood(label_band_graph(4, 1)),
                ConditionalModel.zeros(4, 3),
                np.array([5]),
                features=np.ones((1, 3)),
            )

    def test_classify_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        model = ConditionalModel(5, 3, rng.normal(size=(5, 3)))
        x = rng.normal(size=(20, 3))
        batch = classify_batch(model, x)
        assert all(batch[i] == classify(model, x[i]) for i in range(20))


class TestImplicitScaleFitting:
    def test_fit_never_enumerates_large_hypercube(self):
        # D=24: 16.7M states; the objective must touch only sampled
        # neighborhoods
        rng = np.random.default_rng(12)
        dim = 24
        true = BoltzmannModel(dim=dim, upper=np.zeros(dim * (dim - 1) // 2))
        samples = rng.integers(0, 2 ** dim, size=50, dtype=np.int64)
        fam = pseudo_likelihood(HypercubeNeighborhood(dim, 1))
        value = empirical_score(fam, true, samples)
        assert value == pytest.approx(dim * math.log(2))
        result = fit(fam, true, samples, FitConfig(max_iterations=3))
        assert np.all(np.isfinite(result.parameters.upper))


class TestEmpiricalScoreConditional:
    def test_matches_manual_mean(self):
        rng = np.random.default_rng(14)
        model = ConditionalModel(4, 3, rng.normal(size=(4, 3)) * 0.3)
        x = rng.normal(size=(30, 3))
        y = rng.integers(0, 4, size=30)
        fam = pseudo_likelihood(label_band_graph(4, 1))
        got = empirical_score(fam, model, y, features=x)
        manual = np.mean(
            [score(fam, int(y[i]), model.log_f_labels(x[i])) for i in range(30)]
        )
        assert got == pytest.approx(manual, rel=1e-10)


class TestFitPreconditions:
    def test_family_space_must_match_model(self):
        fam = pseudo_likelihood(HypercubeNeighborhood(4, 1))
        with pytest.raises(InputError, match="lives on"):
            fit(fam, BoltzmannModel.zeros(3), np.array([0, 1]))

    def test_samples_must_lie_in_space(self):
        fam = pseudo_likelihood(HypercubeNeighborhood(3, 1))
        with pytest.raises(InputError, match="outside the space"):
            fit(fam, BoltzmannModel.zeros(3), np.array([0, 99]))

    def test_joint_models_take_no_features(self):
        # features were ignored for joint models; they now name the mistake
        fam = pseudo_likelihood(HypercubeNeighborhood(3, 1))
        with pytest.raises(InputError, match="only conditional models take features"):
            fit(fam, BoltzmannModel.zeros(3), [0, 5], features=np.ones((2, 3)))
        tab = TabularModel.zeros(fam.space)
        with pytest.raises(InputError, match="only conditional models take features"):
            empirical_score(fam, tab, [0, 5], features=np.ones((2, 3)))

    @pytest.mark.parametrize("samples", [[0.5, 3.7, 2.2], [0.0, 3.5], [np.nan, 1.0], ["1"]])
    def test_non_integral_samples_rejected(self, samples):
        # they were truncated: [0.5, 3.7, 2.2] fitted on [0, 3, 2]
        fam = pseudo_likelihood(HypercubeNeighborhood(3, 1))
        with pytest.raises(InputError, match="samples must be integers"):
            fit(fam, BoltzmannModel.zeros(3), samples)
        with pytest.raises(InputError, match="samples must be integers"):
            mle_fit(BoltzmannModel.zeros(3), samples)
        with pytest.raises(InputError, match="samples must be integers"):
            negative_log_loss(BoltzmannModel.zeros(3), samples, log_z=0.0)
        model = ConditionalModel.zeros(4, 2)
        x = np.ones((len(samples), 2))
        with pytest.raises(InputError, match="samples must be integers"):
            negative_log_loss(model, samples, features=x)
        with pytest.raises(InputError, match="samples must be integers"):
            error_rate(model, x, samples)
        with pytest.raises(InputError, match="samples must be integers"):
            fit(pseudo_likelihood(label_band_graph(4, 1)), model, samples, features=x)

    def test_integral_float_samples_accepted(self):
        fam = pseudo_likelihood(HypercubeNeighborhood(3, 1))
        config = FitConfig(max_iterations=20)
        a = fit(fam, BoltzmannModel.zeros(3), [0.0, 3.0, 2.0], config)
        b = fit(fam, BoltzmannModel.zeros(3), np.array([0, 3, 2], dtype=np.uint8), config)
        assert a.trace == b.trace
        model = BoltzmannModel.zeros(2)
        assert negative_log_loss(model, [1.0, 3.0], log_z=0.0) == negative_log_loss(
            model, [1, 3], log_z=0.0
        )


class TestBallTableBudget:
    @pytest.mark.parametrize("spec_text, radius", [
        ("ps:1", 1), ("ps:1", 2), ("mcl:1,2;3,4;5,6", 1), ("cl:1,2,3;4,5,6", 1), ("mcl:1,2,3,4;5,6", 1),
    ])
    def test_refused_above_the_budget_before_it_is_built(self, monkeypatch, spec_text, radius):
        fam = parse_score_spec(spec_text).family(HypercubeNeighborhood(6, radius))
        data = np.random.default_rng(0).integers(0, 64, 40)
        entries = _ScoreKernel(fam, data).balls.members.size
        config = FitConfig(max_iterations=2)
        monkeypatch.setattr(estimation, "MAX_BALL_ENTRIES", entries)
        fit(fam, BoltzmannModel.zeros(6), data, config)
        monkeypatch.setattr(estimation, "MAX_BALL_ENTRIES", entries - 1)
        with pytest.raises(UnsupportedError, match=rf"ball table needs {entries} entries, above {entries - 1}"):
            fit(fam, BoltzmannModel.zeros(6), data, config)

    def test_ps_radius_2_at_d24_refused_with_its_size(self):
        # 589 618 distinct neighbors x 300 members: numpy's 1.32 GiB
        # _ArrayMemoryError before the budget
        fam = parse_score_spec("ps:1").family(HypercubeNeighborhood(24, 2))
        data = np.random.default_rng(0).integers(0, 2 ** 24, 2000)
        with pytest.raises(UnsupportedError, match="ball table needs 176885400 entries, above 67108864"):
            fit(fam, BoltzmannModel.zeros(24), data, FitConfig(max_iterations=2))
