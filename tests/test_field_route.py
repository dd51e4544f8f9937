"""The field route: Boltzmann additive objectives on XOR neighborhoods of one-
and two-bit masks read their log-ratios from the fields h = W s, with no
universe. The universe kernel with the model bound at its universe is the
independent route they must equal."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localscores import (
    BlockNeighborhood,
    BlockSystem,
    BoltzmannModel,
    FitConfig,
    HypercubeNeighborhood,
    InputError,
    LocalPotentialFamily,
    Probability,
    SampleSpace,
    TabularModel,
    UnsupportedError,
    fit,
    parse_score_spec,
    write_samples,
)
from localscores import models
from localscores.cli import main
from localscores.estimation import _Objective, _ScoreKernel, _ScoreObjective
from localscores.graphs import _XorNeighborhood


class _UniverseObjective(_Objective):
    """The universe route, built explicitly: the kernel compiled over its
    universe and the model bound there."""

    def __init__(self, family, model, samples, weights=None, l2=0.0):
        self.kernel = _ScoreKernel(family, samples, weights)
        super().__init__(model, model.bind(self.kernel.universe), l2)

    def _data_terms(self, logs):
        vals, finish = self.kernel._score_terms(logs)
        return float(vals @ self.kernel.weights), finish


def _masks_of(draw, dim):
    """A graph whose masks flip one or two bits: a Hamming ball of radius 1
    or 2, or a drawn set of such masks."""
    if draw(st.booleans()):
        return HypercubeNeighborhood(dim, draw(st.integers(1, min(2, dim))))
    bits = st.integers(0, dim - 1)
    masks = draw(st.sets(st.one_of(bits.map(lambda i: 1 << i),
                                   st.tuples(bits, bits).filter(lambda p: p[0] != p[1])
                                   .map(lambda p: (1 << p[0]) | (1 << p[1]))),
                         min_size=1, max_size=12))
    return _XorNeighborhood(dim, sorted(masks))


@st.composite
def field_cases(draw):
    """(family, model, samples, weights, l2) for pl, rm and dp:gamma at
    D <= 12; weights are a population p over the whole space (samples its
    points) or None for drawn samples aggregated by frequency."""
    dim = draw(st.integers(2, 12))
    graph = _masks_of(draw, dim)
    kind = draw(st.sampled_from(("pl", "rm", "dp")))
    gamma = draw(st.sampled_from((0.5, 1.0, 2.0))) if kind == "dp" else None
    family = LocalPotentialFamily(kind, graph, gamma=gamma)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    model = BoltzmannModel(dim, rng.normal(size=dim * (dim - 1) // 2) * draw(st.sampled_from((0.1, 0.5))))
    weights = None
    if dim <= 8 and draw(st.booleans()):
        samples = np.arange(2 ** dim)
        weights = Probability.normalize(rng.random(2 ** dim)).weights
    else:
        samples = rng.integers(0, 2 ** dim, size=draw(st.integers(1, 300)))
    l2 = draw(st.sampled_from((0.0, 1e-2, 1.0)))
    return family, model, samples, weights, l2


class TestFieldRouteEqualsUniverse:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(field_cases())
    def test_value_and_gradient(self, case):
        family, model, samples, weights, l2 = case
        field = _ScoreObjective(family, model, samples, weights=weights, l2=l2)
        universe = _UniverseObjective(family, model, samples, weights, l2)
        assert field.kernel.universe is None and universe.kernel.universe is not None
        x = np.array(model.params)
        value, grad = field.value_and_grad(x)
        ref_value, ref_grad = universe.value_and_grad(x)
        assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-300)
        scale = max(float(np.max(np.abs(ref_grad), initial=0.0)), 1e-300)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12 * scale)

    def test_log_ratios_match_log_f(self):
        rng = np.random.default_rng(3)
        model = BoltzmannModel(7, rng.normal(size=21))
        graph = HypercubeNeighborhood(7, 2)
        points = np.unique(rng.integers(0, 128, 40))
        d = model.bind_flips(points, graph.masks).logs(model.params)
        # rows: the single flips in mask order, then the pairs
        order = np.argsort([bin(int(m)).count("1") for m in graph.masks], kind="stable")
        flipped = points[None, :] ^ graph.masks[order][:, None]
        want = model.log_f_batch(flipped).reshape(flipped.shape) - model.log_f_batch(points)
        np.testing.assert_allclose(d, want, rtol=1e-12, atol=1e-12)


class TestRouteChoice:
    """The route follows the inputs alone: the model's binding and the weight
    of the graph's masks."""

    def _route(self, family, model, samples=(0, 3, 5)):
        return "field" if _ScoreObjective(family, model, list(samples)).kernel.universe is None else "universe"

    def test_field_where_the_model_and_masks_allow(self):
        boltzmann = BoltzmannModel.zeros(4)
        assert self._route(parse_score_spec("pl").family(HypercubeNeighborhood(4, 2)), boltzmann) == "field"
        assert self._route(parse_score_spec("dp:1").family(HypercubeNeighborhood(4, 1)), boltzmann) == "field"
        pairs = BlockNeighborhood(BlockSystem.of(4, {1, 2}, {3, 4}))
        assert self._route(LocalPotentialFamily("rm", pairs), boltzmann) == "field"

    def test_universe_elsewhere(self):
        boltzmann = BoltzmannModel.zeros(4)
        cube = HypercubeNeighborhood(4, 1)
        assert self._route(parse_score_spec("pl").family(HypercubeNeighborhood(4, 3)), boltzmann) == "universe"
        assert self._route(LocalPotentialFamily("pl", cube, active={0, 3}), boltzmann) == "universe"
        assert self._route(parse_score_spec("ps:1").family(cube), boltzmann) == "universe"
        assert self._route(parse_score_spec("pl").family(cube), TabularModel.zeros(SampleSpace.hypercube(4))) == "universe"

    @pytest.mark.parametrize("masks", [[1, 7], [0, 1], [1, 16]])
    def test_bind_flips_refuses_other_masks(self, masks):
        with pytest.raises(InputError, match="one or two of the 4 bits"):
            BoltzmannModel.zeros(4).bind_flips([0, 1], masks)


class TestBoundBudget:
    def test_field_log_ratios_refused_above_the_budget(self, monkeypatch):
        family = parse_score_spec("pl").family(HypercubeNeighborhood(10, 2))
        samples = np.arange(0, 1024, 8)  # 128 distinct states x 55 masks
        config = FitConfig(max_iterations=2)
        monkeypatch.setattr(models, "MAX_BOUND_ENTRIES", 128 * 55)
        fit(family, BoltzmannModel.zeros(10), samples, config)
        monkeypatch.setattr(models, "MAX_BOUND_ENTRIES", 128 * 55 - 1)
        with pytest.raises(UnsupportedError, match="field log-ratios needs 7040 entries, above 7039"):
            fit(family, BoltzmannModel.zeros(10), samples, config)

    def test_universe_sign_matrix_refused_on_an_active_subset(self, monkeypatch):
        # rm radius 2 on an active subset keeps the universe: 62 signs per point
        dim = 62
        samples = np.random.default_rng(1).integers(0, 2 ** dim, 20, dtype=np.int64)
        family = LocalPotentialFamily("rm", HypercubeNeighborhood(dim, 2), active=set(samples[:5].tolist()))
        points = _ScoreKernel(family, samples).universe.size
        monkeypatch.setattr(models, "MAX_BOUND_ENTRIES", dim * points - 1)
        with pytest.raises(UnsupportedError, match=f"sign matrix needs {dim * points} entries"):
            fit(family, BoltzmannModel.zeros(dim), samples, FitConfig(max_iterations=2))


def _fit_config(tmp_path, score, count, **extra):
    train = tmp_path / "train.txt"
    samples = np.random.default_rng(62).integers(0, 2 ** 62, count, dtype=np.int64)
    write_samples(train, SampleSpace.hypercube(62), samples, seed=0)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"score": score, "space": "hypercube:62", "model": "boltzmann",
                                    "train": str(train), "fit": {"max_iterations": 3}, **extra}))
    return cfg_path


class TestCliAtD62:
    def test_pl_radius_2_fits(self, capsys, tmp_path):
        code = main(["fit", "--config", str(_fit_config(tmp_path, "pl", 200, radius=2))])
        out = capsys.readouterr().out
        assert code == 0 and "record=fit_summary" in out

    def test_ps_sign_matrix_above_the_budget_exits_2(self, capsys, monkeypatch, tmp_path):
        # ps:1 reads log f at a universe of 16 * (1 + 62 + 1891) points at most
        cfg_path = _fit_config(tmp_path, "ps:1", 16)
        monkeypatch.setattr(models, "MAX_BOUND_ENTRIES", 62 * 1000)
        code = main(["fit", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == 2 and "record=fit_summary" not in captured.out
        assert captured.err.startswith("error: ") and "sign matrix needs" in captured.err
        assert "above 62000" in captured.err
