import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

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
    score_and_logf_gradient,
    standard_cl_score,
)
from localscores import test_error as error_rate


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
        assert cfg.initial_step == 1.0
        assert cfg.armijo_c == 1e-4
        assert cfg.backtrack_factor == 0.5
        assert cfg.l2_penalty == 0.0

    def test_validation(self):
        with pytest.raises(InputError):
            FitConfig(max_iterations=0)
        with pytest.raises(InputError):
            FitConfig(armijo_c=1.5)
        with pytest.raises(InputError):
            FitConfig(l2_penalty=-1.0)

    @pytest.mark.parametrize("bad", [
        {"gradient_tolerance": math.nan},
        {"gradient_tolerance": math.inf},
        {"initial_step": math.nan},
        {"initial_step": math.inf},
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
            "cl": (composite_likelihood(BlockSystem.of(3, {1}, {2, 3})), True),
            "mle": None,
        }
        band = label_band_graph(4, 1)
        label_fams = {
            "pl": pseudo_likelihood(band),
            "rm": ratio_matching(band),
            "dp": density_power(band, 1.0),
            "ps": pseudo_spherical(label_band_graph(4, 2), 1.0),
            "mcl": composite_likelihood(band),
            "cl": (composite_likelihood(band), True),
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
                    obj = _build_objective(fam, model, ys, feats, FitConfig(l2_penalty=0.01))
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
    system = None
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
        system = BlockSystem.of(dim, *draw(st.lists(coords, min_size=1, max_size=3)))
        graph = BlockNeighborhood(system)
    standard_cl = kind == "cl"
    active = None
    if not standard_cl and draw(st.booleans()):
        active = draw(st.sets(st.integers(0, size - 1), min_size=1))
    gamma = draw(st.sampled_from((0.5, 1.0, 2.0)))
    if kind in ("mcl", "cl"):
        fam = composite_likelihood(system if system is not None else graph, active=active)
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
    return (fam, standard_cl) if standard_cl else fam, model, samples, features


def _per_state_reference(target, model, samples, features):
    """Mean score and its parameter gradient, one sample at a time through
    the public point routes; a conditional sample is scored on the logs
    theta @ x_i of its own row."""
    fam, standard_cl = target if isinstance(target, tuple) else (target, False)
    n = len(samples)
    value, grad = 0.0, 0.0
    for i, y in enumerate(samples):
        y = int(y)
        if features is None:
            logs = model.log_f_batch(np.arange(model.space.size))
        else:
            logs = model.theta @ features[i]
        dj = np.zeros(len(logs))
        if standard_cl:
            value += standard_cl_score(fam, y, logs) / n
            for block in fam.block_lists(y):
                members = np.append(block, y)
                dj[members] += np.exp(logs[members] - logsumexp(logs[members]))
                dj[y] -= 1.0
        else:
            value += score(fam, y, logs) / n
            _, idx, partials = score_and_logf_gradient(fam, y, logs)
            dj[idx] += partials
        if isinstance(model, ConditionalModel):
            dj = np.outer(dj, features[i]).ravel()
        elif isinstance(model, BoltzmannModel):
            dj = model.pair_features(np.arange(len(logs))).T @ dj
        grad = grad + dj / n
    return value, grad


class TestScoreObjectiveProperties:
    @settings(max_examples=160, deadline=None, derandomize=True, database=None)
    @given(objective_cases())
    def test_batched_objective_matches_per_state_routes(self, case):
        from localscores.estimation import _build_objective

        target, model, samples, features = case
        obj = _build_objective(target, model, samples, features, FitConfig())
        ref_value, ref_grad = _per_state_reference(target, model, samples, features)
        x = np.array(obj.x0)
        value, grad = obj.value_and_grad(x)
        assert obj.value(x) == pytest.approx(ref_value, rel=1e-10, abs=1e-12)
        assert value == pytest.approx(ref_value, rel=1e-10, abs=1e-12)
        scale = max(1.0, float(np.max(np.abs(ref_grad))))
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-10 * scale)


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
        obj = _build_objective(fam, BoltzmannModel.zeros(3), samples, None, FitConfig())
        x = np.array([0.3, -0.2, 0.1])
        base_logs = obj.bound.logs(x)
        vals1, finish1 = obj._score_terms(base_logs)
        vals2, finish2 = obj._score_terms(base_logs + 3.7)
        assert np.allclose(vals1, vals2, rtol=1e-9)
        assert np.allclose(finish1(), finish2(), rtol=1e-9, atol=1e-12)

    def test_fitted_parameters_match_after_shift(self):
        model = seeded_boltzmann(3, 9, scale=0.6)
        samples = exact_sample(normalize(model), 1000, RngStream(9))
        fam = pseudo_likelihood(HypercubeNeighborhood(3, 1))
        a = fit(fam, BoltzmannModel.zeros(3), samples)
        b = fit(fam, BoltzmannModel.zeros(3), samples, FitConfig(initial_step=0.25))
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
        specs = ["pl", "rm", "ps:1", "cl", "mcl"]
        for text in specs:
            spec = parse_score_spec(text)
            objective = bind_spec(spec, graph)
            result = fit(
                objective,
                ConditionalModel.zeros(4, 4),
                y,
                FitConfig(l2_penalty=1e-3),
                features=x,
            )
            err = error_rate(result.parameters, x, y)
            assert err < 0.2, (text, err)

    def test_density_power_learns_full_support_data(self):
        # heavy label noise keeps every conditional ratio bounded away from
        # the degenerate corners where the density-power terms escape
        x, y = self.make_separable(noise=0.3, seed=13)
        spec = parse_score_spec("dp:1")
        result = fit(
            bind_spec(spec, label_band_graph(4, 1)),
            ConditionalModel.zeros(4, 4),
            y,
            FitConfig(l2_penalty=1e-2),
            features=x,
        )
        assert np.all(np.isfinite(result.parameters.theta))
        assert error_rate(result.parameters, x, y) < 0.7  # chance rate is 0.75

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
