"""Seeded random generation: exact sampling, Gibbs chains, and annealed
importance sampling for log-partition estimates.

Randomness always flows through an `RngStream`, a (seed, stream_id) pair
mapped to numpy's PCG64 via a SeedSequence spawn key. PCG64 output is stable
across platforms and numpy releases; the generator algorithm is fixed for
the life of this package, so every operation here is a pure function of its
inputs and the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, checked_count, open_text
from .models import BoltzmannModel, _quadratic_forms
from .potentials import Probability, _logsumexp
from .spaces import CHUNK_ENTRIES, SampleSpace, _chunk_slices, parse_space_spec, signs_matrix_to_indices


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream_id: int = 0

    def __post_init__(self):
        checked_count("seed", self.seed, 0)
        checked_count("stream", self.stream_id, 0)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))

    def stream(self, stream_id: int) -> "RngStream":
        return RngStream(seed=self.seed, stream_id=stream_id)


@dataclass(frozen=True)
class AisConfig:
    num_temperatures: int = 1000
    num_chains: int = 100
    sweeps_per_temperature: int = 1

    def __post_init__(self):
        checked_count("AIS temperature count", self.num_temperatures, 2)
        checked_count("AIS chain count", self.num_chains)
        checked_count("AIS sweeps per temperature", self.sweeps_per_temperature)


def exact_sample(p: Probability, n: int, rng: RngStream) -> np.ndarray:
    """n i.i.d. state indices drawn by inverse CDF over the enumerated space."""
    checked_count("sample count", n)
    cdf = np.cumsum(p.weights)
    u = rng.generator().random(n)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def _sweep_states(aug: np.ndarray, coef: np.ndarray) -> None:
    """One systematic-scan sweep, in place, over chains held as columns: `aug`
    stacks D state rows (row i is site i of every chain) over D rows of
    logit(u). With coef = [4*beta*W, -I], coef[i] @ aug = 4*beta*h_i - logit(u_i)
    and site i takes its sign (+1 at +0.0). A -inf logit (u = 0) is first
    raised to the most negative float, as 0 * -inf would make other fields NaN."""
    dim = coef.shape[0]
    np.maximum(aug[dim:], -np.finfo(np.float64).max, out=aug[dim:])
    h = np.empty(aug.shape[1])
    for i in range(dim):
        np.dot(coef[i], aug, out=h)
        np.copysign(1.0, h, out=aug[i])


def _byte_tables(w: np.ndarray) -> list[list[list[float]]]:
    """Site thresholds split over 8-bit chunks of the state index.

    Table k holds, for each of the 256 values b of bits 8k..8k+7, the list
    of `4 * sum_{j in chunk k} W_ji s_j(b)` over every site i, so the
    threshold 4*h_i at a state is the sum over k of table k at the state's
    k-th byte. At D=62 the tables hold 8*256*62 floats."""
    dim = w.shape[0]
    tables = []
    for lo in range(0, dim, 8):
        width = min(8, dim - lo)
        bits = (np.arange(2 ** width)[:, None] >> np.arange(width)) & 1
        tables.append((4.0 * ((2.0 * bits - 1.0) @ w[lo : lo + width])).tolist())
    return tables


def gibbs_sample(
    model: BoltzmannModel,
    n: int,
    burn_in: int | None = None,
    thinning: int = 1,
    rng: RngStream = RngStream(0),
) -> np.ndarray:
    """Systematic-scan single-site Gibbs chain for a Boltzmann machine.

    `burn_in` counts full sweeps and defaults to 100*D; after burn-in the
    state is recorded every `thinning` sweeps until n states are collected.
    Returns canonical state indices.

    The chain runs on the canonical index of the state in plain Python.
    Site i flips to +1 when logit(u) < 4*h_i, the log odds of its
    conditional distribution, and 4*h_i is read from `_byte_tables` one
    byte of the index at a time; only the byte holding site i changes when
    site i is updated.
    """
    dim = model.dim
    if burn_in is None:
        burn_in = 100 * dim
    checked_count("sample count", n)
    checked_count("thinning", thinning)
    checked_count("burn-in", burn_in, 0)
    tables = _byte_tables(model.matrix)
    gen = rng.generator()
    idx = sum(bit << j for j, bit in enumerate(gen.integers(0, 2, size=(1, dim))[0].tolist()))
    # rows[k]: table k's row at the state's k-th byte
    rows = [table[(idx >> (8 * k)) & 255] for k, table in enumerate(tables)]
    sites = [(i, 1 << i, ~(1 << i), i >> 3, tables[i >> 3], 8 * (i >> 3)) for i in range(dim)]
    out = []
    total_sweeps = burn_in + n * thinning
    sweeps_done = 0
    block_sweeps = max(1, CHUNK_ENTRIES // dim)  # about CHUNK_ENTRIES uniforms a block
    while sweeps_done < total_sweeps:
        block = min(block_sweeps, total_sweeps - sweeps_done)
        u = gen.random((block, dim))
        for logit_u in (np.log(u) - np.log1p(-u)).tolist():
            for i, bit, clear, k, table, shift in sites:
                threshold = 0.0
                for row in rows:
                    threshold += row[i]
                if logit_u[i] < threshold:
                    idx |= bit
                else:
                    idx &= clear
                rows[k] = table[(idx >> shift) & 255]
            sweeps_done += 1
            if sweeps_done > burn_in and (sweeps_done - burn_in) % thinning == 0:
                out.append(idx)
    return np.array(out, dtype=np.int64)


def _ais(model: BoltzmannModel, config: AisConfig, rng: RngStream) -> tuple[float, float, float]:
    """`ais_log_z`'s estimate and standard error, and the Kish effective
    sample size (sum w)^2 / sum w^2 of the same chain weights."""
    dim, m, w = model.dim, config.num_chains, model.matrix
    gen = rng.generator()
    betas = np.linspace(0.0, 1.0, config.num_temperatures)
    aug = np.empty((2 * dim, m))  # states over logit(u), see `_sweep_states`
    states, logit_u = aug[:dim], aug[dim:]
    states[...] = (2.0 * gen.integers(0, 2, size=(m, dim)) - 1.0).T
    coef = np.hstack([w, -np.eye(dim)])
    log_w = np.zeros(m)
    for k in range(len(betas) - 1):
        log_w += (betas[k + 1] - betas[k]) * _quadratic_forms(states, w)
        np.multiply(w, 4.0 * betas[k + 1], out=coef[:, :dim])
        for _ in range(config.sweeps_per_temperature):
            u = gen.random((m, dim)).T
            np.subtract(np.log(u), np.log1p(-u), out=logit_u)
            _sweep_states(aug, coef)
    estimate = float(dim * np.log(2.0) + _logsumexp(log_w) - np.log(m))
    shifted = np.exp(log_w - log_w.max())
    std_error = float(shifted.std(ddof=1) / (shifted.mean() * np.sqrt(m))) if m > 1 else float("inf")
    return estimate, std_error, float(shifted.sum() ** 2 / np.dot(shifted, shifted))


def ais_log_z(
    model: BoltzmannModel, config: AisConfig = AisConfig(), rng: RngStream = RngStream(0)
) -> tuple[float, float]:
    """Annealed importance sampling estimate of log Z with a delta-method
    standard error.

    The path runs from the uniform base (beta=0, log Z0 = D log 2) to the
    target (beta=1) along a linear schedule; each chain accumulates
    sum_k (beta_{k+1}-beta_k) * y'Wy at its current state, then takes
    `sweeps_per_temperature` Gibbs sweeps at the new temperature. The
    estimate is log-mean-exp of the chain weights plus D log 2.
    Chains are the columns of a (D, m) sign array; site i of a chain becomes
    +1 where logit(u) < 4*beta*h_i, else -1, one row at a time (`_sweep_states`).
    """
    return _ais(model, config, rng)[:2]


# ---------------------------------------------------------------------------
# sample files: one sample per line, `# space <kind> <param> seed <seed>` header


def write_samples(path, space: SampleSpace, indices, seed: int) -> None:
    """Write the indices under the space's header, one chunk of rows at a
    time (`_chunk_slices`); a seed that is not a count, and indices that are
    not integral points of the space, are refused before opening."""
    checked_count("seed", seed, 0)
    idx = space.checked_indices(indices) if np.size(indices) else np.empty(0, dtype=np.int64)
    param = space.dim if space.kind == "hypercube" else space.size
    cells = np.array([b"-1 ", b"+1 "])
    with open(path, "wb") as fh:
        fh.write(f"# space {space.kind} {param} seed {seed}\n".encode())
        for part in _chunk_slices(idx.size):
            chunk = idx[part]
            if space.kind == "hypercube":
                # one 3-byte cell per coordinate; each row's last space becomes its newline
                rows = cells[(chunk[:, None] >> np.arange(space.dim)) & 1].view(np.uint8)
                rows = rows.reshape(chunk.size, 3 * space.dim)
                rows[:, -1] = ord("\n")
                fh.write(rows)
            else:
                fh.write("".join([f"{i}\n" for i in chunk.tolist()]).encode())


@lru_cache
def _sign_row_layout(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (D, 3) bytes of a `write_samples` row of `+1 ` cells, its last
    space a newline; the (D, 3) mask of the bits a `-1 ` cell may not change
    in it; and the bit weight of each coordinate. Built once per D."""
    pattern = np.tile(np.frombuffer(b"+1 ", dtype=np.uint8), (dim, 1))
    pattern[-1, -1] = ord("\n")
    mask = np.tile(np.uint8([0xFD, 0xFF, 0xFF]), (dim, 1))
    return pattern, mask, 1 << np.arange(dim, dtype=np.int64)


def _decode_sign_rows(body: bytes, dim: int) -> np.ndarray | None:
    """Indices of a body in `write_samples`' layout (rows of D cells `+1 ` or
    `-1 `, the last space a newline), else None. Mod 256, a cell minus `+1 `
    is 0 at every byte but the sign byte of `-1 `, which is 2."""
    pattern, mask, weights = _sign_row_layout(dim)
    raw = np.frombuffer(body, dtype=np.uint8)
    if raw.size % (3 * dim):
        return None
    diff = raw.reshape(-1, dim, 3) - pattern
    plus = diff[:, :, 0] == 0
    if np.bitwise_and(diff, mask, out=diff).any():
        return None
    return plus @ weights


def _read_sign_rows(fh, dim: int) -> np.ndarray | None:
    """The indices in the rest of a text file in `write_samples`' hypercube
    layout, read and decoded `CHUNK_ENTRIES` rows at a time, else None."""
    parts = [np.empty(0, dtype=np.int64)]
    while chunk := fh.read(CHUNK_ENTRIES * 3 * dim):
        parts.append(_decode_sign_rows(chunk.encode(), dim))
        if parts[-1] is None:
            return None
    return np.concatenate(parts)


def _first_bad_line(space: SampleSpace, lines, first_lineno: int) -> tuple[int, str] | None:
    """Line number and reason of the first malformed sample line, if any."""
    for lineno, line in enumerate(lines, start=first_lineno):
        tokens = line.split()
        if not tokens:
            continue
        try:
            values = [int(t) for t in tokens]
        except ValueError as exc:
            return lineno, str(exc)
        if space.kind == "hypercube":
            if len(values) != space.dim:
                return lineno, f"expected {space.dim} coordinates"
            for v in values:
                if v not in (1, -1):
                    return lineno, f"hypercube coordinates must be +1/-1, got {v}"
        elif len(values) != 1:
            return lineno, "expected one sample index"
        elif not 0 <= values[0] < space.size:
            return lineno, f"sample {values[0]} outside the space 0..{space.size - 1}"
    return None


def read_samples(path) -> tuple[SampleSpace, np.ndarray, int]:
    """(space, indices, seed) from a sample file. Hypercube coordinates must
    be +1/-1 and indices must lie in the space; the first malformed line is
    reported as `path:lineno`. A file holding only its header has no samples.
    A hypercube body in `write_samples`' layout is decoded from its bytes a
    chunk of rows at a time (CRLF arrives as LF in text mode); other bodies
    are read whole and go through `np.loadtxt`."""
    with open_text(path) as fh:
        header, header_lineno = "", 0
        for header_lineno, line in enumerate(iter(fh.readline, ""), start=1):
            if line.strip():
                header = line.strip()
                break
        if not header.startswith("# space "):
            raise InputError(f"{path}: missing `# space <kind> <param> seed <seed>` header")
        parts = header.split()
        try:  # exactly `# space <kind> <param> seed <seed>`, the seed a count
            if len(parts) != 6 or parts[4] != "seed":
                raise ValueError("not six fields with `seed` fifth")
            kind, param, seed = parts[2], int(parts[3]), checked_count("seed", int(parts[5]), 0)
        except ValueError as exc:  # InputError is a ValueError
            raise InputError(f"{path}: bad header {header!r}") from exc
        space = parse_space_spec(f"{kind}:{param}")
        if space.kind == "hypercube":
            start = fh.tell()
            indices = _read_sign_rows(fh, space.dim)
            if indices is not None:
                return space, indices, seed
            fh.seek(start)
        body = fh.read()
    if not body or body.isspace():
        return space, np.empty(0, dtype=np.int64), seed
    width = space.dim if space.kind == "hypercube" else 1
    error = None
    try:
        rows = np.loadtxt(path, dtype=np.int64, comments=None, skiprows=header_lineno, ndmin=2)
        if rows.shape[1] == width:
            if space.kind == "hypercube":
                return space, signs_matrix_to_indices(rows), seed
            if rows.min() >= 0 and rows.max() < space.size:
                return space, rows[:, 0], seed
    except ValueError as exc:  # a parse failure, or the encoder's InputError
        error = exc
    # the fast parse refused the body: name the first bad line
    bad = _first_bad_line(space, body.split("\n"), header_lineno + 1)
    if bad is None:
        raise InputError(f"{path}: {error}")
    raise InputError(f"{path}:{bad[0]}: {bad[1]}")
