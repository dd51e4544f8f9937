import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from localscores import (
    BoltzmannModel,
    ConditionalModel,
    HypercubeNeighborhood,
    InputError,
    SampleSpace,
    TabularModel,
    exact_log_z,
    grad_log_f,
    indices_to_signs,
    load_model,
    log_f,
    model_from_dict,
    model_to_dict,
    normalize,
    pseudo_likelihood,
    pseudo_spherical,
    save_model,
    score,
    signs_to_index,
)
from dense_boltzmann import pair_features


class TestBoltzmann:
    def test_zero_matrix(self):
        model = BoltzmannModel.zeros(3)
        for i in range(8):
            assert log_f(model, i) == 0.0

    def test_quadratic_form_by_hand(self):
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        model = BoltzmannModel.from_matrix(w)
        assert log_f(model, (1, 1)) == pytest.approx(1.0)
        assert log_f(model, (1, -1)) == pytest.approx(-1.0)

    def test_matches_dense_quadratic(self):
        rng = np.random.default_rng(0)
        wt = rng.normal(size=(4, 4))
        w = (wt + wt.T) / 2
        np.fill_diagonal(w, 0.0)
        model = BoltzmannModel.from_matrix(w)
        from localscores import index_to_signs

        for i in range(16):
            y = index_to_signs(i, 4).astype(float)
            assert log_f(model, i) == pytest.approx(y @ w @ y, rel=1e-12)

    def test_log_f_batch_matches_pair_features(self):
        rng = np.random.default_rng(2)
        for dim in range(2, 33):
            model = BoltzmannModel(dim=dim, upper=rng.normal(size=dim * (dim - 1) // 2))
            idx = rng.integers(0, 2 ** dim, size=64)
            dense = pair_features(dim, idx) @ model.upper
            np.testing.assert_allclose(model.log_f_batch(idx), dense, rtol=1e-12,
                                       atol=1e-12 * np.abs(model.upper).sum())

    def test_pair_features_column_order(self):
        # the dense oracle itself: one column 2 * y_i * y_j per pair, in upper-triangle order
        idx = np.arange(32)
        signs = indices_to_signs(idx, 5).astype(float)
        cols = [2.0 * signs[:, i] * signs[:, j] for i in range(5) for j in range(i + 1, 5)]
        assert np.array_equal(pair_features(5, idx), np.stack(cols, axis=1))

    @pytest.mark.parametrize("make", [
        lambda: BoltzmannModel(0, []),
        lambda: BoltzmannModel(-1, [0.0]),
        lambda: BoltzmannModel.zeros(70),
        lambda: BoltzmannModel.zeros(63),
        lambda: BoltzmannModel(2.0, [0.5]),
        lambda: BoltzmannModel(True, []),
    ], ids=["zero", "negative", "seventy", "past-62", "a-float", "a-bool"])
    def test_constructor_checks_the_dimension(self, make):
        # each of these used to construct and fail only later, at `.space`
        with pytest.raises(InputError, match="hypercube dimension"):
            make()

    @pytest.mark.parametrize("dim", [1, 62])
    def test_dimensions_at_the_bounds_construct(self, dim):
        assert BoltzmannModel.zeros(dim).space.size == 2 ** dim

    def test_matrix_is_cached_and_read_only(self):
        model = BoltzmannModel(dim=3, upper=[0.5, -1.0, 2.0])
        assert model.matrix is model.matrix
        assert np.array_equal(model.matrix, [[0, 0.5, -1.0], [0.5, 0, 2.0], [-1.0, 2.0, 0]])
        assert not model.matrix.flags.writeable
        assert np.array_equal(BoltzmannModel.from_matrix(model.matrix).upper, model.upper)

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            BoltzmannModel.from_matrix(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InputError):
            BoltzmannModel.from_matrix(np.array([[1.0, 0.5], [0.5, 0.0]]))

    def test_gradient_structure(self):
        model = BoltzmannModel.zeros(2)
        assert np.allclose(grad_log_f(model, (1, -1)), [-2.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            upper = rng.normal(size=6)
            model = BoltzmannModel(dim=4, upper=upper)
            y = int(rng.integers(16))
            grad = grad_log_f(model, y)
            h = 1e-6
            for k in range(6):
                up = upper.copy(); up[k] += h
                dn = upper.copy(); dn[k] -= h
                fd = (
                    log_f(BoltzmannModel(dim=4, upper=up), y)
                    - log_f(BoltzmannModel(dim=4, upper=dn), y)
                ) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestConditional:
    def test_zero_parameters(self):
        model = ConditionalModel.zeros(3, 4)
        assert log_f(model, 1, x=np.ones(4)) == 0.0

    def test_gradient_block_structure(self):
        model = ConditionalModel.zeros(3, 2)
        g = grad_log_f(model, 1, x=np.array([2.0, 3.0]))
        assert np.allclose(g[1], [2.0, 3.0])
        assert np.allclose(g[[0, 2]], 0.0)

    def test_needs_features(self):
        with pytest.raises(InputError):
            log_f(ConditionalModel.zeros(3, 2), 0)

    def test_log_z_over_labels(self):
        rng = np.random.default_rng(2)
        model = ConditionalModel(3, 2, rng.normal(size=(3, 2)))
        x = rng.normal(size=2)
        brute = math.log(sum(math.exp(log_f(model, y, x=x)) for y in range(3)))
        assert model.log_z(x) == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("whole_space", [normalize, exact_log_z])
    def test_no_normalization_without_features(self, whole_space):
        # used to end in AttributeError: no attribute 'log_f_batch'
        with pytest.raises(InputError, match=r"per feature vector: use its log_z\(x\)"):
            whole_space(ConditionalModel.zeros(3, 2))


class TestTabular:
    def test_one_hot_gradient(self):
        space = SampleSpace.enumerated(list("abc"))
        model = TabularModel.zeros(space)
        assert np.allclose(grad_log_f(model, 1), [0.0, 1.0, 0.0])

    def test_softmax_normalize(self):
        space = SampleSpace.enumerated(["a", "b"])
        model = TabularModel(space=space, eta=np.array([0.0, math.log(3.0)]))
        assert np.allclose(normalize(model).weights, [0.25, 0.75])

    def test_log_f_batch_reads_only_points_of_the_space(self):
        model = TabularModel(space=SampleSpace.hypercube(2), eta=[0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(model.log_f_batch([3, 0, 2.0]), [3.0, 0.0, 2.0])
        # a fractional index used to be truncated, and -1 to wrap to the last point
        for bad in ([2.5], [-1], [model.space.size]):
            with pytest.raises(InputError):
                model.log_f_batch(bad)


class TestNormalization:
    def test_uniform_at_zero(self):
        model = BoltzmannModel.zeros(3)
        assert np.allclose(normalize(model).weights, 1 / 8)
        assert exact_log_z(model) == pytest.approx(8 * math.log(2) - 5 * math.log(2))

    def test_wzero_d8(self):
        assert exact_log_z(BoltzmannModel.zeros(8)) == pytest.approx(8 * math.log(2))

    def test_two_site_coupling(self):
        beta = 0.8
        model = BoltzmannModel.from_matrix(np.array([[0.0, beta], [beta, 0.0]]))
        expected = math.log(2 * math.exp(2 * beta) + 2 * math.exp(-2 * beta))
        assert exact_log_z(model) == pytest.approx(expected, rel=1e-12)

    def test_consistency_log_scale(self):
        rng = np.random.default_rng(3)
        model = BoltzmannModel(dim=4, upper=rng.normal(size=6))
        p = normalize(model)
        lz = exact_log_z(model)
        assert abs(p.weights.sum() - 1.0) <= 1e-12
        for i in range(16):
            assert math.log(p.weights[i]) == pytest.approx(log_f(model, i) - lz, abs=1e-12)

    def test_tabular_log_z(self):
        space = SampleSpace.enumerated(list("abcd"))
        eta = np.array([0.1, -0.4, 2.0, 0.0])
        model = TabularModel(space=space, eta=eta)
        assert exact_log_z(model) == pytest.approx(math.log(np.exp(eta).sum()), rel=1e-12)


class TestDiagonalGauge:
    def test_constant_log_shift_leaves_scores_unchanged(self):
        # adding c to every diagonal entry of W shifts log f by c*D; any
        # homogeneous score must not see it
        rng = np.random.default_rng(4)
        model = BoltzmannModel(dim=3, upper=rng.normal(size=3))
        shift = 1.7  # = c*D for c = 1.7/3
        fams = [
            pseudo_likelihood(HypercubeNeighborhood(3, 1)),
            pseudo_spherical(HypercubeNeighborhood(3, 2), 1.0),
        ]
        logs = model.log_f_batch(np.arange(8))
        for fam in fams:
            for y in range(8):
                base = score(fam, y, logs)
                shifted = score(fam, y, logs + shift)
                assert abs(shifted - base) <= 1e-9 * (1 + abs(base))


class TestPersistence:
    def test_boltzmann_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        model = BoltzmannModel(dim=4, upper=rng.normal(size=6))
        path = tmp_path / "bm.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, BoltzmannModel)
        assert np.array_equal(loaded.upper, model.upper)  # exact round trip

    def test_conditional_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        model = ConditionalModel(10, 64, rng.normal(size=(10, 64)))
        path = tmp_path / "cond.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.theta, model.theta)

    def test_tabular_round_trip(self, tmp_path):
        model = TabularModel(space=SampleSpace.label_range(5), eta=np.linspace(-1, 1, 5))
        path = tmp_path / "tab.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.eta, model.eta)
        assert loaded.space.spec_string() == "labels:5"

    def test_document_shape(self):
        doc = model_to_dict(BoltzmannModel.zeros(8))
        assert doc["kind"] == "boltzmann" and doc["D"] == 8 and len(doc["upper"]) == 28
        doc = model_to_dict(ConditionalModel.zeros(10, 64))
        assert doc["kind"] == "conditional" and doc["L"] == 10 and doc["d"] == 64

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            model_from_dict({"kind": "hopfield"})


class TestPointForms:
    def test_sign_vector_and_index_agree(self):
        rng = np.random.default_rng(7)
        model = BoltzmannModel(dim=3, upper=rng.normal(size=3))
        for i in range(8):
            from localscores import index_to_signs

            signs = index_to_signs(i, 3)
            assert log_f(model, signs) == pytest.approx(log_f(model, i))
            assert signs_to_index(signs) == i

    def test_tabular_on_hypercube_takes_sign_vectors(self):
        model = TabularModel(space=SampleSpace.hypercube(2), eta=[0.0, 1.0, 2.0, 3.0])
        assert log_f(model, (1, -1)) == 1.0
        assert np.array_equal(grad_log_f(model, (-1, 1)), [0.0, 0.0, 1.0, 0.0])

    @pytest.mark.parametrize("point", [(1, -1), (1, -1, 1, 1), (1, 0, -1)])
    def test_rejects_malformed_sign_vectors(self, point):
        model = BoltzmannModel.zeros(3)
        with pytest.raises(InputError):
            log_f(model, point)

    def test_label_space_takes_no_vectors(self):
        with pytest.raises(InputError, match="neither an index nor a sign vector"):
            log_f(TabularModel.zeros(SampleSpace.label_range(4)), (1, 0))


def _three_point_models():
    """(model, features, log f at the last point) on three-point spaces."""
    return [
        (TabularModel(SampleSpace.enumerated(list("abc")), [0.5, 1.5, 2.5]), None, 2.5),
        (ConditionalModel(3, 2, np.arange(6.0).reshape(3, 2)), np.array([1.0, -1.0]), -1.0),
    ]


class TestPointRange:
    """Points outside the space raise InputError instead of wrapping,
    reading another point or escaping as an IndexError."""

    def test_boltzmann_index_past_the_space(self):
        model = BoltzmannModel(3, [0.3, -0.2, 0.7])
        for fn in (log_f, grad_log_f):
            with pytest.raises(InputError, match="point index outside the space"):
                fn(model, 9)

    @pytest.mark.parametrize("model, x, _", _three_point_models())
    def test_negative_point(self, model, x, _):
        for fn in (log_f, grad_log_f):
            with pytest.raises(InputError, match="point index outside the space"):
                fn(model, -1, x=x)

    @pytest.mark.parametrize("model, x, _", _three_point_models())
    def test_point_one_past_the_end(self, model, x, _):
        for fn in (log_f, grad_log_f):
            with pytest.raises(InputError, match="point index outside the space"):
                fn(model, 3, x=x)

    @pytest.mark.parametrize("model, x, last", _three_point_models())
    def test_last_point_is_accepted(self, model, x, last):
        assert log_f(model, 2, x=x) == last

    def test_non_integer_point(self):
        with pytest.raises(InputError, match="points must be integers"):
            log_f(BoltzmannModel.zeros(3), 1.5)

    def test_joint_models_take_no_features(self):
        with pytest.raises(InputError, match="only conditional models take features"):
            log_f(BoltzmannModel.zeros(3), 1, x=np.ones(2))


class TestBoltzmannBind:
    """`bind` and `log_f_batch` evaluate y'Wy from the sign matrix; the dense
    pair-feature map of `dense_boltzmann` is their oracle."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1))
    def test_bind_matches_the_dense_map(self, dim, seed):
        rng = np.random.default_rng(seed)
        size = 2 ** dim
        points = rng.choice(size, size=int(rng.integers(1, min(size, 400) + 1)), replace=False)
        model = BoltzmannModel(dim, rng.normal(size=dim * (dim - 1) // 2))
        x = rng.normal(size=model.upper.size) * rng.choice([1e-3, 1.0, 1e3])
        g = rng.normal(size=points.size)
        bound, dense = model.bind(points), pair_features(dim, points)
        # tolerances are relative to the sum of the terms' magnitudes: every
        # entry of the dense map is +-2
        np.testing.assert_allclose(bound.logs(x), dense @ x, rtol=1e-12,
                                   atol=2e-12 * np.abs(x).sum())
        np.testing.assert_allclose(bound.pullback(g), dense.T @ g, rtol=1e-12,
                                   atol=2e-12 * np.abs(g).sum())
        np.testing.assert_allclose(model.log_f_batch(points), bound.logs(model.upper),
                                   rtol=1e-12, atol=2e-12 * np.abs(model.upper).sum())
        lhs, rhs = g @ bound.logs(x), x @ bound.pullback(g)
        assert abs(lhs - rhs) <= 2e-12 * (np.abs(g).sum() * np.abs(x).sum())

    def test_bind_memory_is_linear_in_the_points(self):
        # 10^5 distinct points at D=32: the float64 sign matrix is 25.6 MB,
        # the dense pair-feature map would be 397 MB
        rng = np.random.default_rng(3)
        points = rng.choice(2 ** 32, size=10 ** 5, replace=False)
        model = BoltzmannModel(32, rng.normal(size=32 * 31 // 2))
        x, g = rng.normal(size=model.upper.size), rng.normal(size=points.size)
        sign_bytes = points.size * 32 * 8
        tracemalloc.start()
        try:
            bound = model.bind(points)
            kept, _ = tracemalloc.get_traced_memory()
            bound.logs(x)
            bound.pullback(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 1.1 * sign_bytes  # the bind keeps one sign matrix
        assert peak <= 2.5 * sign_bytes, peak / sign_bytes


def _protocol_case(kind, seed):
    """A random model of the kind, distinct points to bind and, for a
    conditional model, the feature rows of those points."""
    rng = np.random.default_rng(seed)
    features = None
    if kind == "boltzmann":
        dim = int(rng.integers(2, 7))
        model = BoltzmannModel(dim, rng.normal(size=dim * (dim - 1) // 2))
        size = 2 ** dim
    elif kind == "tabular":
        size = int(rng.integers(2, 12))
        model = TabularModel(SampleSpace.enumerated(range(size)), rng.normal(size=size))
    else:
        labels, width, rows = (int(v) for v in rng.integers([2, 1, 1], [6, 5, 6]))
        model = ConditionalModel(labels, width, rng.normal(size=(labels, width)))
        features = rng.normal(size=(rows, width))
        size = rows * labels
    points = rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)
    return model, points, features, rng


def _log_f_at(model, point, features):
    if features is None:
        return log_f(model, point)
    row, label = divmod(int(point), model.num_labels)
    return log_f(model, label, x=features[row])


class TestModelProtocol:
    @settings(max_examples=90, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["boltzmann", "tabular", "conditional"]), st.integers(0, 2 ** 32 - 1))
    def test_bind_logs_pullback_and_with_params(self, kind, seed):
        model, points, features, rng = _protocol_case(kind, seed)
        params = model.params
        bound = model.bind(points, features)

        # logs at the model's own parameters are log f at each point
        logs = bound.logs(params)
        expected = [_log_f_at(model, p, features) for p in points]
        np.testing.assert_allclose(logs, expected, rtol=1e-12, atol=1e-12 * np.abs(params).sum())

        # the pullback is the adjoint of logs (both are linear in x)
        x = rng.normal(size=params.size)
        g = rng.normal(size=points.size)
        lhs, rhs = bound.pullback(g) @ x, g @ bound.logs(x)
        assert abs(lhs - rhs) <= 1e-12 * max(np.abs(g) @ np.abs(bound.logs(x)), 1e-300)

        # params is a flat copy and with_params rebuilds the same model
        before = model_to_dict(model)
        assert params.dtype == np.float64 and params.ndim == 1
        params[0] += 1.0
        assert model_to_dict(model.with_params(model.params)) == before
        assert type(model.with_params(model.params)) is type(model)
        assert np.array_equal(model.with_params(x).params, x)
