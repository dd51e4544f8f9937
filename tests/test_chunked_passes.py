"""Whole-space and whole-file passes in chunks: the same values as one pass
over the whole batch, and traced peak memory of the output plus a chunk.

log f over many states, normalization, sample files and Gibbs uniforms are
all worked `CHUNK_ENTRIES` at a time (the sample files' chunk boundaries are
tested with the other sample-file cases in test_sampling.py). tracemalloc
counts numpy's buffers; each pass's inputs are made, and the pass run once,
before tracing starts.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from localscores import (
    BoltzmannModel,
    InputError,
    RngStream,
    exact_log_z,
    exact_sample,
    gibbs_sample,
    negative_log_loss,
    normalize,
    read_samples,
    write_samples,
)
from localscores.models import _quadratic_forms
from localscores.potentials import _logsumexp
from localscores.spaces import CHUNK_ENTRIES, _chunk_slices, _sign_columns
from test_sampling import random_couplings

BOUNDARY_SIZES = [0, 1, CHUNK_ENTRIES - 1, CHUNK_ENTRIES, CHUNK_ENTRIES + 1]


def seeded_model(dim, seed=0, scale=0.3):
    return BoltzmannModel.from_matrix(random_couplings(np.random.default_rng([dim, seed]), dim, scale))


def single_shot(model, indices):
    """log f of every state through one quadratic form over the whole batch."""
    return _quadratic_forms(_sign_columns(indices, model.dim), model.matrix)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [0, 1, 5, 4095, 4096, 4097, 8191, 8192, 8193, 50000])
def test_chunk_slices_cover_the_range_in_wide_chunks(n):
    parts = _chunk_slices(n)
    assert parts[0].start == 0 and parts[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
    widths = [p.stop - p.start for p in parts]
    assert all(min(n, CHUNK_ENTRIES) <= w < 2 * CHUNK_ENTRIES for w in widths)


class TestLogFIdentity:
    @pytest.mark.parametrize("dim", [1, 12, 16])
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_log_f_batch_equals_one_pass(self, dim, n):
        model = seeded_model(dim)
        indices = np.random.default_rng([dim, n]).integers(0, 2 ** dim, n)
        assert same_bits(model.log_f_batch(indices), single_shot(model, indices))

    @pytest.mark.parametrize("dim", [1, 12, 16])
    def test_normalization_equals_one_pass(self, dim):
        model = seeded_model(dim)
        logs = single_shot(model, np.arange(2 ** dim))
        log_z = _logsumexp(logs)
        assert exact_log_z(model).hex() == float(log_z).hex()
        assert same_bits(normalize(model).weights, np.exp(logs - log_z))

    def test_indices_checked_before_any_chunk(self):
        model = seeded_model(3)
        bad = np.zeros(2 * CHUNK_ENTRIES + 5, dtype=np.int64)
        bad[-1] = 8
        with pytest.raises(InputError, match=r"hypercube indices must lie in 0\.\.7"):
            model.log_f_batch(bad)
        with pytest.raises(InputError, match="hypercube indices must be integers"):
            model.log_f_batch(np.full(CHUNK_ENTRIES + 1, 0.5))


@pytest.mark.parametrize("dim, n, burn_in, thinning, digest", [
    (1, 5000, 0, 1, "9d49323a735885fe"),  # two uniform blocks
    (3, 2000, 10, 3, "1ee87e404c4eedea"),
    (8, 3000, 800, 1, "a6bff75f40c7ad7e"),
    (13, 700, 50, 2, "139b87bdd0be02e1"),
])
def test_gibbs_chain_unchanged_by_its_uniform_blocks(dim, n, burn_in, thinning, digest):
    # the digests of the chain drawn with 4096 sweeps of uniforms a block
    wt = np.random.default_rng(dim).normal(size=(dim, dim)) * 0.3
    w = (wt + wt.T) / 2
    np.fill_diagonal(w, 0.0)
    idx = gibbs_sample(BoltzmannModel.from_matrix(w), n, burn_in=burn_in, thinning=thinning,
                       rng=RngStream(7, 1))
    assert hashlib.sha256(idx.tobytes()).hexdigest()[:16] == digest


def traced_peak_mb(call) -> float:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestPassMemory:
    """Peaks before chunking: 17.0 MB for normalization at D=16, 12.6 MB for
    the 50k-row log loss, 8.4 and 14.1 MB to write and read its file, and
    2.0 MB for a 20k-state Gibbs chain at D=8."""

    @pytest.fixture(scope="class")
    def rows_d16(self, tmp_path_factory):
        model = seeded_model(16)
        rows = exact_sample(normalize(model), 50000, RngStream(1, 21))
        path = tmp_path_factory.mktemp("rows") / "rows.txt"
        write_samples(path, model.space, rows, seed=1)
        return model, rows, path

    @pytest.mark.parametrize("normalization", [normalize, exact_log_z])
    def test_normalization_d16(self, normalization):
        model = seeded_model(16)
        assert traced_peak_mb(lambda: normalization(model)) <= 3.0

    def test_log_loss_50k_rows(self, rows_d16):
        model, rows, _ = rows_d16
        assert traced_peak_mb(lambda: negative_log_loss(model, rows, log_z=1.0)) <= 2.0

    def test_write_50k_rows(self, rows_d16, tmp_path):
        model, rows, _ = rows_d16
        assert traced_peak_mb(lambda: write_samples(tmp_path / "w.txt", model.space, rows, 1)) <= 1.5

    def test_read_50k_rows(self, rows_d16):
        assert traced_peak_mb(lambda: read_samples(rows_d16[2])) <= 5.0

    def test_gibbs_d8(self):
        # 6100 sweeps draw more than one old block of 4096 sweeps' uniforms
        # (1.8 MB before); a 20k-state chain runs for 1 s under tracing
        model = seeded_model(8)
        assert traced_peak_mb(lambda: gibbs_sample(model, 6000, burn_in=100, rng=RngStream(2))) <= 1.0

    def test_gibbs_d16_100k_states(self):
        # states kept as Python ints until the end cost 41 traced bytes each
        # at D=16 (4.87 MB for 100k states). A 100k chain takes 16 s under
        # tracing, so its peak is extrapolated from chains of 2000 and 6000
        # states, which each state grows by its 8 output bytes: 1.24 MB, as
        # the traced 100k chain gives
        model = seeded_model(16)
        small, large = (traced_peak_mb(lambda: gibbs_sample(model, n, burn_in=0, rng=RngStream(2)))
                        for n in (2000, 6000))
        assert large + (large - small) * (100_000 - 6000) / 4000 <= 1.5
