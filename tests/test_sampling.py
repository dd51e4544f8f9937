import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit, logsumexp

from localscores import (
    AisConfig,
    BoltzmannModel,
    InputError,
    Probability,
    RngStream,
    SampleSpace,
    ais_log_z,
    exact_log_z,
    exact_sample,
    gibbs_sample,
    indices_to_signs,
    normalize,
    read_samples,
    signs_matrix_to_indices,
    write_samples,
)
from localscores.sampling import _ais, _decode_sign_rows, _sweep_states
from localscores.spaces import CHUNK_ENTRIES


def gibbs_sweep_matrix(model: BoltzmannModel) -> np.ndarray:
    """Independent oracle: the exact one-sweep transition matrix, assembled
    by enumerating states and composing per-site conditional kernels.
    T[i, j] = P(next=j | current=i)."""
    dim = model.dim
    size = 2 ** dim
    w = model.matrix
    sweep = np.eye(size)
    for site in range(dim):
        t_site = np.zeros((size, size))
        for state in range(size):
            signs = indices_to_signs([state], dim)[0].astype(float)
            h = float(w[site] @ signs) - w[site, site] * signs[site]
            p_plus = expit(4.0 * h)
            plus_state = state | (1 << site)
            minus_state = state & ~(1 << site)
            t_site[state, plus_state] += p_plus
            t_site[state, minus_state] += 1.0 - p_plus
        sweep = sweep @ t_site
    return sweep


def reference_gibbs(model: BoltzmannModel, n: int, burn_in: int, thinning: int, rng: RngStream):
    """Reference chain: the same random draws as `gibbs_sample`, with each
    site's field h_i = s . W[:, i] taken as a numpy dot product of a float
    sign vector. Also returns, per sweep, the smallest |logit(u) - 4 h_i|
    over the sweep's site updates: a chain that runs the threshold sum in
    another order can only take another branch where that margin is at the
    level of rounding."""
    dim = model.dim
    w = model.matrix
    gen = rng.generator()
    state = (2.0 * gen.integers(0, 2, size=(1, dim)) - 1.0).astype(np.float64)
    out, margins = [], []
    total_sweeps = burn_in + n * thinning
    sweeps_done = 0
    while sweeps_done < total_sweeps:
        block = min(4096, total_sweeps - sweeps_done)
        u = gen.random((block, dim))
        logit_u = np.log(u) - np.log1p(-u)
        for t in range(block):
            margin = math.inf
            for i in range(dim):
                threshold = 4.0 * (state @ w[:, i])
                margin = min(margin, float(np.abs(logit_u[t, i] - threshold)[0]))
                state[:, i] = np.where(logit_u[t : t + 1, i] < threshold, 1.0, -1.0)
            margins.append(margin)
            sweeps_done += 1
            if sweeps_done > burn_in and (sweeps_done - burn_in) % thinning == 0:
                out.append(signs_matrix_to_indices(state)[0])
    return np.array(out, dtype=np.int64), np.array(margins)


def reference_ais_chains(w: np.ndarray, states: np.ndarray, logit_u: np.ndarray, beta: float):
    """Reference AIS sweep: chains held as rows (m, D), each site updated by
    a strided column mat-vec, a compare and `np.where`. Returns the new
    states and, per chain, the smallest |logit(u) - 4 beta h_i| over the
    sweep: a sweep that sums the field in another order can only take
    another branch where that margin is at the level of rounding."""
    states = states.copy()
    margins = np.full(states.shape[0], math.inf)
    for i in range(states.shape[1]):
        threshold = 4.0 * beta * (states @ w[:, i])
        margins = np.minimum(margins, np.abs(logit_u[:, i] - threshold))
        states[:, i] = np.where(logit_u[:, i] < threshold, 1.0, -1.0)
    return states, margins


def reference_ais(model: BoltzmannModel, config: AisConfig, rng: RngStream):
    """Reference AIS run on `reference_ais_chains`, taking the same draws as
    `ais_log_z`: the log weights and each chain's smallest tie margin."""
    w, m = model.matrix, config.num_chains
    gen = rng.generator()
    betas = np.linspace(0.0, 1.0, config.num_temperatures)
    states = (2.0 * gen.integers(0, 2, size=(m, model.dim)) - 1.0).astype(np.float64)
    log_w, margins = np.zeros(m), np.full(m, math.inf)
    for k in range(len(betas) - 1):
        log_w += (betas[k + 1] - betas[k]) * np.einsum("ij,ij->i", states @ w, states)
        for _ in range(config.sweeps_per_temperature):
            u = gen.random((m, model.dim))
            states, margin = reference_ais_chains(w, states, np.log(u) - np.log1p(-u), betas[k + 1])
            margins = np.minimum(margins, margin)
    return log_w, margins


def sweep_columns(w: np.ndarray, states: np.ndarray, logit_u: np.ndarray, beta: float) -> np.ndarray:
    """`_sweep_states` run on (m, D) chains and draws, returned as (m, D)."""
    dim = w.shape[0]
    aug = np.vstack([states.T, logit_u.T])
    coef = np.hstack([4.0 * beta * w, -np.eye(dim)])
    _sweep_states(aug, coef)
    return aug[:dim].T


def random_couplings(rng: np.random.Generator, dim: int, scale: float) -> np.ndarray:
    wt = rng.normal(size=(dim, dim)) * scale
    w = (wt + wt.T) / 2
    np.fill_diagonal(w, 0.0)
    return w


def reference_sample_text(space: SampleSpace, indices, seed: int) -> str:
    """Sample-file text built line by line with f-strings."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    param = space.dim if space.kind == "hypercube" else space.size
    lines = [f"# space {space.kind} {param} seed {seed}"]
    if space.kind == "hypercube":
        signs = indices_to_signs(idx, space.dim)
        lines += [" ".join(f"{s:+d}" for s in row) for row in signs]
    else:
        lines += [str(int(i)) for i in idx]
    return "\n".join(lines) + "\n"


class TestRngStream:
    def test_determinism(self):
        a = RngStream(42, 3).generator().random(5)
        b = RngStream(42, 3).generator().random(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().random(5)
        b = RngStream(42, 1).generator().random(5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1), (1.5, 0), (True, 0), (0, None)])
    def test_seed_and_stream_are_counts_from_zero(self, seed, stream):
        with pytest.raises(InputError, match="must be an integer >= 0"):
            RngStream(seed, stream)

    def test_numpy_integer_seed_draws_as_int(self):
        draw = RngStream(np.int64(42), np.uint8(3)).generator().random()
        assert draw == RngStream(42, 3).generator().random()

    def test_known_first_draw(self):
        # frozen: PCG64 output must never change for this package
        assert RngStream(0, 0).generator().random() == pytest.approx(
            0.9429375528828794, abs=1e-15
        )
        assert RngStream(42, 0).generator().random() == pytest.approx(
            0.9167441575549085, abs=1e-15
        )


class TestExactSample:
    def test_determinism(self):
        p = Probability.normalize([1, 2, 3, 4])
        a = exact_sample(p, 100, RngStream(7))
        b = exact_sample(p, 100, RngStream(7))
        assert np.array_equal(a, b)

    def test_near_point_mass(self):
        p = Probability(weights=np.array([1 - 1e-9, 1e-9]))
        draws = exact_sample(p, 10000, RngStream(1))
        assert np.count_nonzero(draws) <= 1

    def test_uniform_frequencies_within_4_sigma(self):
        n = 40000
        p = Probability.uniform(4)
        draws = exact_sample(p, n, RngStream(2))
        freq = np.bincount(draws, minlength=4) / n
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(freq - 0.25) < 4 * sigma)

    def test_positive_count_required(self):
        with pytest.raises(InputError):
            exact_sample(Probability.uniform(2), 0, RngStream(0))

    def test_integer_count_required(self):
        with pytest.raises(InputError, match="sample count"):
            exact_sample(Probability.uniform(2), 2.5, RngStream(0))


class TestGibbs:
    def test_independent_coordinates_at_zero_coupling(self):
        model = BoltzmannModel.zeros(3)
        idx = gibbs_sample(model, 30000, rng=RngStream(5))
        signs = indices_to_signs(idx, 3)
        sigma = 1.0 / math.sqrt(len(idx))
        assert np.all(np.abs(signs.mean(axis=0)) < 4 * sigma)

    def test_strong_coupling_alignment(self):
        model = BoltzmannModel.from_matrix(np.array([[0.0, 3.0], [3.0, 0.0]]))
        idx = gibbs_sample(model, 30000, rng=RngStream(6))
        signs = indices_to_signs(idx, 2)
        aligned = np.mean(signs[:, 0] == signs[:, 1])
        target = math.exp(6) / (math.exp(6) + math.exp(-6))  # exact 4-state enumeration
        sigma = math.sqrt(target * (1 - target) / len(idx))
        # correlated draws: allow a generous multiple of the iid band
        assert abs(aligned - target) < max(8 * sigma, 5e-3)

    def test_kernel_leaves_exact_distribution_invariant(self):
        rng = np.random.default_rng(8)
        for dim in (2, 3, 4):
            wt = rng.normal(size=(dim, dim)) * 0.7
            w = (wt + wt.T) / 2
            np.fill_diagonal(w, 0.0)
            model = BoltzmannModel.from_matrix(w)
            p = normalize(model).weights
            sweep = gibbs_sweep_matrix(model)
            assert np.max(np.abs(p @ sweep - p)) <= 1e-12

    def test_determinism(self):
        model = BoltzmannModel.from_matrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
        a = gibbs_sample(model, 500, rng=RngStream(11, 2))
        b = gibbs_sample(model, 500, rng=RngStream(11, 2))
        assert np.array_equal(a, b)

    def test_thinning_and_burn_in_validation(self):
        model = BoltzmannModel.zeros(2)
        with pytest.raises(InputError):
            gibbs_sample(model, 10, thinning=0)
        with pytest.raises(InputError):
            gibbs_sample(model, 0)

    def test_negative_burn_in_rejected(self):
        with pytest.raises(InputError, match="burn-in"):
            gibbs_sample(BoltzmannModel.zeros(3), 5, burn_in=-3)

    def test_non_integer_burn_in_rejected(self):
        for burn_in in (2.5, 3.0, "3", True):
            with pytest.raises(InputError, match="burn-in"):
                gibbs_sample(BoltzmannModel.zeros(3), 5, burn_in=burn_in)

    def test_non_integer_count_and_thinning_rejected(self):
        # a fractional thinning would skip recording some of the n states
        with pytest.raises(InputError, match="thinning"):
            gibbs_sample(BoltzmannModel.zeros(3), 4, thinning=1.5)
        with pytest.raises(InputError, match="sample count"):
            gibbs_sample(BoltzmannModel.zeros(3), 2.5)

    def test_zero_burn_in_records_first_sweep(self):
        idx = gibbs_sample(BoltzmannModel.zeros(3), 4, burn_in=np.int64(0), rng=RngStream(3))
        ref, _ = reference_gibbs(BoltzmannModel.zeros(3), 4, 0, 1, RngStream(3))
        assert np.array_equal(idx, ref)

    @pytest.mark.parametrize("dim", [2, 5, 8, 9, 17, 33])
    @pytest.mark.parametrize("thinning", [1, 3])
    def test_matches_reference_chain(self, dim, thinning):
        rng = np.random.default_rng(1000 + dim)
        wt = rng.normal(size=(dim, dim)) * 0.4
        w = (wt + wt.T) / 2
        np.fill_diagonal(w, 0.0)
        model = BoltzmannModel.from_matrix(w)
        n, burn_in = 400, 50
        idx = gibbs_sample(model, n, burn_in=burn_in, thinning=thinning, rng=RngStream(dim, thinning))
        ref, margins = reference_gibbs(model, n, burn_in, thinning, RngStream(dim, thinning))
        assert idx.dtype == np.int64 and idx.shape == (n,)
        differ = np.flatnonzero(idx != ref)
        if differ.size:
            # the chains may part only at a threshold tie
            last_sweep = burn_in + (differ[0] + 1) * thinning
            assert margins[:last_sweep].min() < 1e-12


class TestAis:
    def test_zero_coupling_is_exact(self):
        est, se = ais_log_z(BoltzmannModel.zeros(8), AisConfig(), RngStream(1))
        assert est == pytest.approx(8 * math.log(2), abs=1e-9)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_matches_exact_log_z(self):
        rng = np.random.default_rng(77)
        wt = rng.standard_normal((6, 6))
        w = (wt + wt.T) / 2
        np.fill_diagonal(w, 0.0)
        model = BoltzmannModel.from_matrix(w)
        est, se = ais_log_z(model, AisConfig(num_temperatures=500, num_chains=100), RngStream(3))
        assert abs(est - exact_log_z(model)) < 0.1

    def test_unbiasedness_proxy(self):
        # mean of the importance weights estimates Z/Z0 within 3 SE
        rng = np.random.default_rng(21)
        wt = rng.normal(size=(3, 3)) * 0.6
        w = (wt + wt.T) / 2
        np.fill_diagonal(w, 0.0)
        model = BoltzmannModel.from_matrix(w)
        est, se = ais_log_z(
            model, AisConfig(num_temperatures=60, num_chains=10000), RngStream(4)
        )
        true = exact_log_z(model)
        assert abs(est - true) < 3 * se + 1e-3

    def test_determinism(self):
        model = BoltzmannModel.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        cfg = AisConfig(num_temperatures=50, num_chains=20)
        a = ais_log_z(model, cfg, RngStream(9, 5))
        b = ais_log_z(model, cfg, RngStream(9, 5))
        assert a == b

    def test_config_validation(self):
        with pytest.raises(InputError):
            AisConfig(num_temperatures=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_temperatures", 2.5),
            ("num_chains", 1.5),
            ("num_chains", True),
            ("num_temperatures", "10"),
            ("sweeps_per_temperature", 0.5),
            ("num_chains", 0),
        ],
    )
    def test_config_counts_must_be_integers(self, field, value):
        with pytest.raises(InputError, match=r"must be an integer >= \d"):
            AisConfig(**{field: value})

    def test_config_accepts_numpy_integers(self):
        config = AisConfig(num_temperatures=np.int64(20), num_chains=np.int32(4))
        est, _ = ais_log_z(BoltzmannModel.zeros(3), config, RngStream(1))
        assert est == pytest.approx(3 * math.log(2), abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 20),
        st.floats(0.0, 1.0, exclude_min=True),
        st.integers(0, 2 ** 32 - 1),
    )
    def test_sweep_matches_reference_chains(self, dim, m, beta, seed):
        rng = np.random.default_rng(seed)
        w = random_couplings(rng, dim, 1.0)
        states = rng.choice([-1.0, 1.0], size=(m, dim))
        for _ in range(3):
            u = rng.random((m, dim))
            logit_u = np.log(u) - np.log1p(-u)
            ref, margins = reference_ais_chains(w, states, logit_u, beta)
            new = sweep_columns(w, states, logit_u, beta)
            assert set(np.unique(new)) <= {-1.0, 1.0}
            clear = margins >= 1e-12
            assert np.array_equal(new[clear], ref[clear])
            states = ref

    def test_sweep_takes_plus_one_at_a_minus_inf_logit(self):
        # u = 0 gives logit(u) = -inf; its zero coefficient in the other
        # sites' fields must not turn them into NaN
        rng = np.random.default_rng(5)
        w = random_couplings(rng, 4, 1.0)
        states = rng.choice([-1.0, 1.0], size=(3, 4))
        u = rng.random((3, 4))
        u[1, 2] = 0.0
        with np.errstate(divide="ignore"):
            logit_u = np.log(u) - np.log1p(-u)
        assert logit_u[1, 2] == -math.inf
        new = sweep_columns(w, states, logit_u, 0.7)
        ref, margins = reference_ais_chains(w, states, logit_u, 0.7)
        assert not np.isnan(new).any()
        assert new[1, 2] == 1.0
        assert margins.min() >= 1e-12 and np.array_equal(new, ref)

    @pytest.mark.parametrize("dim, seed, sweeps", [(1, 0, 1), (6, 1, 1), (8, 2, 2), (16, 3, 1), (32, 4, 1)])
    def test_estimate_matches_reference_run(self, dim, seed, sweeps):
        model = BoltzmannModel.from_matrix(random_couplings(np.random.default_rng(seed), dim, 0.3))
        config = AisConfig(num_temperatures=60, num_chains=25, sweeps_per_temperature=sweeps)
        log_w, margins = reference_ais(model, config, RngStream(seed, 9))
        assert margins.min() >= 1e-12  # no tie on these seeds: every chain must follow
        est, _ = ais_log_z(model, config, RngStream(seed, 9))
        ref = dim * math.log(2) + logsumexp(log_w) - math.log(config.num_chains)
        assert est == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_ess_is_the_chain_count_at_zero_coupling(self):
        est, se, ess = _ais(BoltzmannModel.zeros(5), AisConfig(num_temperatures=30, num_chains=37), RngStream(2))
        assert ess == 37.0
        assert (est, se) == ais_log_z(BoltzmannModel.zeros(5), AisConfig(num_temperatures=30, num_chains=37),
                                      RngStream(2))

    def test_ess_is_kish_over_the_chain_weights(self):
        model = BoltzmannModel.from_matrix(random_couplings(np.random.default_rng(8), 6, 1.0))
        config = AisConfig(num_temperatures=40, num_chains=50)
        log_w, _ = reference_ais(model, config, RngStream(3))
        weights = np.exp(log_w)
        _, _, ess = _ais(model, config, RngStream(3))
        assert ess == pytest.approx(weights.sum() ** 2 / (weights ** 2).sum(), rel=1e-10)
        assert 1.0 <= ess < 50.0


class TestSampleFiles:
    def test_hypercube_round_trip(self, tmp_path):
        space = SampleSpace.hypercube(3)
        idx = np.array([0, 7, 5, 2])
        path = tmp_path / "samples.txt"
        write_samples(path, space, idx, seed=42)
        space2, idx2, seed = read_samples(path)
        assert space2.spec_string() == "hypercube:3"
        assert np.array_equal(idx2, idx)
        assert seed == 42

    def test_hypercube_rows_are_signs(self, tmp_path):
        path = tmp_path / "samples.txt"
        write_samples(path, SampleSpace.hypercube(2), [1], seed=0)
        lines = path.read_text().splitlines()
        assert lines[0] == "# space hypercube 2 seed 0"
        assert lines[1] == "+1 -1"

    def test_labels_round_trip(self, tmp_path):
        space = SampleSpace.label_range(10)
        idx = np.array([0, 9, 3])
        path = tmp_path / "labels.txt"
        write_samples(path, space, idx, seed=7)
        space2, idx2, seed = read_samples(path)
        assert space2.spec_string() == "labels:10"
        assert np.array_equal(idx2, idx)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# space hypercube 2 seed 0\n+1 -1\n+1\n")
        with pytest.raises(InputError, match=":3"):
            read_samples(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 -1\n")
        with pytest.raises(InputError):
            read_samples(path)

    @pytest.mark.parametrize("header", [
        "# space hypercube 2 seed -1",  # write_samples and RngStream refuse negative seeds
        "# space hypercube 2 bogus 3",
        "# space hypercube 2 bogus 3 trailing",
        "# space hypercube 2 seed 3 trailing",
        "# space hypercube 2 seed 2.5",
        "# space hypercube 2 seed",
    ])
    def test_header_must_be_six_fields_ending_in_a_count_seed(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n+1 -1\n")
        with pytest.raises(InputError, match="bad header"):
            read_samples(path)

    def test_header_seed_zero_is_read(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("# space hypercube 2 seed 0\n+1 -1\n")
        assert read_samples(path)[2] == 0

    @pytest.mark.parametrize(
        "space, indices",
        [
            (SampleSpace.hypercube(1), [0, 1, 1]),
            (SampleSpace.hypercube(3), [0, 7, 5, 2]),
            (SampleSpace.hypercube(16), np.random.default_rng(4).integers(0, 2 ** 16, 300)),
            (SampleSpace.hypercube(62), [0, 2 ** 62 - 1, 12345678901234]),
            (SampleSpace.hypercube(4), []),
            (SampleSpace.label_range(10), [0, 9, 3]),
            (SampleSpace.label_range(1000), np.random.default_rng(5).integers(0, 1000, 300)),
            (SampleSpace.label_range(3), []),
            # files of one chunk of rows less, one chunk, and one chunk more
            (SampleSpace.hypercube(1), np.random.default_rng(6).integers(0, 2, CHUNK_ENTRIES - 1)),
            (SampleSpace.hypercube(16), np.random.default_rng(7).integers(0, 2 ** 16, CHUNK_ENTRIES)),
            (SampleSpace.hypercube(16), np.random.default_rng(8).integers(0, 2 ** 16, CHUNK_ENTRIES + 1)),
            (SampleSpace.label_range(7), np.random.default_rng(9).integers(0, 7, CHUNK_ENTRIES + 1)),
        ],
    )
    def test_write_matches_line_formatter(self, tmp_path, space, indices):
        path = tmp_path / "samples.txt"
        write_samples(path, space, indices, seed=17)
        assert path.read_bytes() == reference_sample_text(space, indices, 17).encode()
        space2, idx2, seed = read_samples(path)
        assert space2.spec_string() == space.spec_string() and seed == 17
        assert idx2.dtype == np.int64
        assert np.array_equal(idx2, np.asarray(indices, dtype=np.int64))

    @pytest.mark.parametrize("space, indices", [
        (SampleSpace.hypercube(3), [9, -1]),  # would read back as [1, 7]
        (SampleSpace.hypercube(3), [8]),
        (SampleSpace.label_range(3), [7]),
        (SampleSpace.label_range(3), [-1]),
        (SampleSpace.label_range(3), [1.7]),  # would be written as 1
        (SampleSpace.hypercube(2), [0.5, 1]),
    ])
    def test_write_refuses_points_outside_the_space(self, tmp_path, space, indices):
        path = tmp_path / "samples.txt"
        with pytest.raises(InputError, match="outside the space|must be integers"):
            write_samples(path, space, indices, seed=0)
        assert not path.exists()

    @pytest.mark.parametrize("seed", ["abc", -1, 2.5, True])
    def test_write_refuses_a_seed_that_is_not_a_count(self, tmp_path, seed):
        # read_samples would refuse the header such a seed makes
        path = tmp_path / "samples.txt"
        with pytest.raises(InputError, match="seed must be an integer >= 0"):
            write_samples(path, SampleSpace.label_range(3), [1, 2], seed=seed)
        assert not path.exists()

    def test_write_accepts_integral_floats(self, tmp_path):
        path = tmp_path / "samples.txt"
        write_samples(path, SampleSpace.label_range(3), np.array([2.0, 0.0]), seed=0)
        assert np.array_equal(read_samples(path)[1], [2, 0])

    def test_header_only_hypercube_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# space hypercube 3 seed 4\n\n")
        space, idx, seed = read_samples(path)
        assert space.spec_string() == "hypercube:3" and seed == 4
        assert idx.dtype == np.int64 and idx.shape == (0,)

    def test_coordinates_must_be_signs(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# space hypercube 2 seed 0\n+1 -1\n0 7\n")
        with pytest.raises(InputError, match=r"bad\.txt:3: .*got 0"):
            read_samples(path)

    @pytest.mark.parametrize(
        "body, lineno",
        [
            ("+1 -1\n+1 x\n", 3),
            ("+1 -1\n\n-1 +1 +1\n", 4),
            ("+1 -1 +1\n-1 +1 +1\n", 2),
            ("+1 -1\n-1 2\n", 3),
            ("-1 1.0\n", 2),
            # in the second chunk of rows
            ("+1 -1\n" * CHUNK_ENTRIES + "-1 2\n", CHUNK_ENTRIES + 2),
            ("+1 -1\n" * (CHUNK_ENTRIES + 7) + "+1 x\n" + "-1 -1\n" * 5, CHUNK_ENTRIES + 9),
        ],
    )
    def test_bad_hypercube_line_reported(self, tmp_path, body, lineno):
        path = tmp_path / "bad.txt"
        path.write_text("# space hypercube 2 seed 0\n" + body)
        with pytest.raises(InputError, match=rf"bad\.txt:{lineno}: "):
            read_samples(path)

    @pytest.mark.parametrize("body, lineno", [("0\n3\n", 3), ("1\n-1\n", 3), ("1 2\n", 2), ("x\n", 2)])
    def test_bad_label_line_reported(self, tmp_path, body, lineno):
        path = tmp_path / "bad.txt"
        path.write_text("# space labels 3 seed 0\n" + body)
        with pytest.raises(InputError, match=rf"bad\.txt:{lineno}: "):
            read_samples(path)


class TestSampleFileDecoder:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data(), st.integers(1, 20))
    def test_written_layout_decodes_from_bytes(self, tmp_path_factory, data, dim):
        indices = data.draw(st.lists(st.integers(0, 2 ** dim - 1), min_size=1, max_size=40))
        path = tmp_path_factory.mktemp("dec") / "samples.txt"
        write_samples(path, SampleSpace.hypercube(dim), indices, seed=3)
        body = path.read_bytes().split(b"\n", 1)[1]
        decoded = _decode_sign_rows(body, dim)
        assert decoded is not None and decoded.dtype == np.int64
        assert np.array_equal(decoded, indices)
        assert np.array_equal(read_samples(path)[1], indices)

    @pytest.mark.parametrize(
        "name, layout",
        [
            ("crlf", lambda rows: "".join(r + "\r\n" for r in rows)),
            ("doubled spaces", lambda rows: "".join(r.replace(" ", "  ") + "\n" for r in rows)),
            ("bare 1", lambda rows: "".join(r.replace("+1", "1") + "\n" for r in rows)),
            ("trailing blank line", lambda rows: "".join(r + "\n" for r in rows) + "\n"),
            ("no final newline", lambda rows: "\n".join(rows)),
        ],
    )
    def test_other_layouts_fall_back(self, tmp_path, name, layout):
        space = SampleSpace.hypercube(3)
        indices = [5, 0, 7, 2, 6, 1]
        rows = reference_sample_text(space, indices, 0).splitlines()[1:]
        body = layout(rows).encode()
        assert _decode_sign_rows(body, 3) is None
        path = tmp_path / "samples.txt"
        path.write_bytes(b"# space hypercube 3 seed 0\n" + body)
        assert np.array_equal(read_samples(path)[1], indices)

    def test_crlf_decoded_across_chunks(self, tmp_path):
        indices = np.arange(CHUNK_ENTRIES + 9) % 8
        text = reference_sample_text(SampleSpace.hypercube(3), indices, 1)
        path = tmp_path / "crlf.txt"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        assert np.array_equal(read_samples(path)[1], indices)

    @pytest.mark.parametrize(
        "header_dim, rows",
        [
            # 3 rows of 6 bytes fill 2 rows of 9: only the pattern check tells
            (3, ["+1 -1", "-1 -1", "+1 +1"]),
            (2, ["+1 -1 +1", "-1 -1 -1"]),
        ],
    )
    def test_header_width_mismatch_reported(self, tmp_path, header_dim, rows):
        body = "".join(r + "\n" for r in rows).encode()
        assert _decode_sign_rows(body, header_dim) is None
        path = tmp_path / "bad.txt"
        path.write_bytes(f"# space hypercube {header_dim} seed 0\n".encode() + body)
        with pytest.raises(InputError, match=rf"bad\.txt:2: expected {header_dim} coordinates"):
            read_samples(path)

    @pytest.mark.parametrize(
        "cell, reason",
        [(b"+2", "got 2"), (b"/1", "invalid literal"), (b")1", "invalid literal"), (b"*1", "invalid literal")],
    )
    def test_canonical_looking_bad_cell_reported(self, tmp_path, cell, reason):
        # '/', ')' and '*' differ from '+' or '-' in the bits that tell those two apart
        body = b"+1 -1\n" + cell + b" -1\n"
        assert _decode_sign_rows(body, 2) is None
        path = tmp_path / "bad.txt"
        path.write_bytes(b"# space hypercube 2 seed 0\n" + body)
        with pytest.raises(InputError, match=rf"bad\.txt:3: .*{reason}"):
            read_samples(path)
