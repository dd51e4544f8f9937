"""Scores, composite potentials and composite local Bregman divergences.

Every route reads log f the same way: as an array of logs over the space,
an `UnnormalizedVector`, a `Probability`, or a callable point -> log f. A
log f that is not finite, does not match the space, or whose callable
fails has no score, and every route raises InputError for it. An array is
checked once per call; a callable is called once per point read.

Every production score comes from the batched score kernel that fits run
on (`estimation._ScoreKernel`):

- `score` / `score_and_logf_gradient`: one point's score, and its partials
  with respect to log f, from the kernel compiled at that point. Log f is
  read only at the points the score touches (the kernel's universe), so
  with a callable no dense vector over the space is built and implicit
  hypercube neighborhoods score at dimensions far beyond enumeration size;
- `state_scores`: every point's score at once, from the kernel compiled
  once per family over the whole space. Expected scores are
  p . state_scores(f).

Independent routes are kept deliberately separate so they can check it:

- `generic_score`: the gradient of the composite potential, assembled one
  point at a time from local potential values and gradients;
- `named_closed_form_score`: the per-kind explicit formula
  (`standard_cl_score` for a standard CL family);
- a finite difference of `composite_potential`.

Composite potentials and divergences are the local-Bregman route: every
active point's local potential evaluated in one pass over the padded
neighbor matrix, independent of the score kernel. These enumerate and
therefore require an enumerable space.

The whole-space routes (`state_scores`, `composite_potential`,
`divergence`) are 1-D forms of private stacked ones that act along the last
axis on a (..., |Y|) stack of logs, each row exactly as the 1-D route gives
it; the oracle evaluates its trials through them as chunked stacks.

A standard CL family's score is not its potential's gradient: the kernel
routes and closed forms answer it, and the potential routes (local and
composite potentials, divergences, `generic_score`) raise UnsupportedError.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import InputError, InternalConsistencyError, UnsupportedError
from .estimation import _ScoreKernel
from .graphs import BlockNeighborhood, BlockSystem
from .potentials import (
    LocalPotentialFamily,
    Probability,
    UnnormalizedVector,
    _logsumexp,
    composite_likelihood,
)

DIVERGENCE_NEGATIVITY_TOLERANCE = 1e-12


def _log_f_reader(space, log_f):
    """log f as read(points) -> finite float64 logs at an index array, or
    over the whole space when no points are given. The one place that
    decides what a log f is; anything else raises InputError."""
    if callable(log_f):
        def read(points=None):
            points = range(space.size) if points is None else points
            try:
                logs = np.array([log_f(int(i)) for i in points], dtype=np.float64)
            except (IndexError, KeyError, TypeError, ValueError) as exc:
                raise InputError(f"log f query failed: {exc}") from exc
            if not np.isfinite(logs).all():
                raise InputError("log f values must be finite")
            return logs
        return read
    if isinstance(log_f, UnnormalizedVector):
        logs = log_f.logs
    elif isinstance(log_f, Probability):
        logs = np.log(log_f.weights)
    else:
        try:
            logs = np.ascontiguousarray(log_f, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InputError(f"log f must be an array of logs: {exc}") from exc
        if not np.isfinite(logs).all():
            raise InputError("log f values must be finite")
    if logs.shape != (space.size,):
        raise InputError(f"log f has shape {logs.shape}; the space has {space.size} points")
    return lambda points=None: logs if points is None else logs[points]


# ---------------------------------------------------------------------------
# local potentials


def _checked_local(family: LocalPotentialFamily, y: int, g):
    """(g checked as a positive vector over b(y), y's potential evaluator)."""
    if not family.in_active(y):
        raise InputError(f"point {y} is outside the active set")
    g = np.asarray(g, dtype=np.float64)
    nbrs, ev = family.local(y)
    if g.shape != (len(nbrs),):
        raise InputError(f"expected {len(nbrs)} neighbor values, got shape {g.shape}")
    if not np.all(np.isfinite(g) & (g > 0)):
        raise InputError("neighbor values must be finite and strictly positive")
    return g, ev


def local_potential(family: LocalPotentialFamily, y: int, g) -> float:
    """phi_y evaluated on a positive vector over b(y)."""
    g, ev = _checked_local(family, y, g)
    return float(ev.value(g))


def local_potential_gradient(family: LocalPotentialFamily, y: int, g) -> np.ndarray:
    g, ev = _checked_local(family, y, g)
    return np.asarray(ev.grad(g), dtype=np.float64)


# ---------------------------------------------------------------------------
# composite potential


def _space_logs(family, what, *vectors):
    """Logs of value vectors over the whole (enumerable) space."""
    family.space.require_enumerable(what)
    return [_log_f_reader(family.space, f)() for f in vectors]


def _ratios(logs, points, nbrs):
    """f over b(y) / f_y for a batch of points and their neighbor matrix,
    for logs over the space along the last axis."""
    return np.exp(logs.take(nbrs, axis=-1) - logs.take(points, axis=-1)[..., None])


def _rowdot(a, b):
    """a . b along the last axis, each row bit for bit the 1-D `a @ b`."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _stacked_composite_potential(family: LocalPotentialFamily, logs) -> np.ndarray:
    """`composite_potential` of every row of a (..., |Y|) stack of logs."""
    points, nbrs, valid, ev = family.active_local()
    return _rowdot(np.exp(logs.take(points, axis=-1)), ev.value(_ratios(logs, points, nbrs), valid))


def composite_potential(family: LocalPotentialFamily, f) -> float:
    """phi(f) = sum over active y of f_y * phi_y(f_{b(y)} / f_y).

    1-homogeneous in f by construction; requires an enumerable space.
    """
    (logs,) = _space_logs(family, "composite_potential", f)
    return float(_stacked_composite_potential(family, logs))


# ---------------------------------------------------------------------------
# score paths


def _point(family: LocalPotentialFamily, y) -> int:
    """y as a point index of the family's space: integral and inside it, so
    that nothing is truncated or wrapped."""
    return family.space.checked_indices(y, what="point").item()


def _read_at(family: LocalPotentialFamily, y, log_f):
    """(y checked as a point, log f's reader, log f at y)."""
    y, read = _point(family, y), _log_f_reader(family.space, log_f)
    return y, read, float(read([y])[0])


def _point_terms(family: LocalPotentialFamily, y, log_f):
    """(value, universe, finish) of y's score from the kernel compiled at y;
    finish() returns its partials over the universe."""
    kernel = _ScoreKernel(family, [_point(family, y)])
    logs = _log_f_reader(family.space, log_f)(kernel.universe)
    with np.errstate(over="ignore"):  # pl/rm sigmoids reach their limits through inf
        vals, finish = kernel._score_terms(logs)
    return float(vals[0]), kernel.universe, finish


def score(family: LocalPotentialFamily, y: int, log_f) -> float:
    """The proper homogeneous score: minus the y-partial of the composite
    potential, from the score kernel at y. `log_f` is any log f the module
    docstring accepts."""
    return _point_terms(family, y, log_f)[0]


def score_and_logf_gradient(family: LocalPotentialFamily, y: int, log_f):
    """Score plus its partials with respect to log f, from the score kernel
    at y.

    Returns (value, indices, gradient): `indices` are the sorted points the
    score reads; the gradient entries sum to zero (scale invariance).
    """
    value, universe, finish = _point_terms(family, y, log_f)
    with np.errstate(over="ignore"):
        return value, universe, finish()


def _has_own_term(family: LocalPotentialFamily, y: int) -> bool:
    """Whether y's own term v . grad phi_y(v) - phi_y(v), v = f over b(y) / f_y,
    can be nonzero. ps potentials are 1-homogeneous, so for them the term
    vanishes identically; computing it would only add cancellation error of
    the size of sum(v)."""
    return family.kind != "ps" and family.in_active(y)


def generic_score(family: LocalPotentialFamily, y: int, log_f) -> float:
    """Gradient-of-potential route valid for every kind, including inactive
    points (indicator terms).

    It evaluates the local potentials on the raw ratios f over b(z) / f_z,
    so it is finite only while every log ratio it forms stays within about
    +-709: beyond that exp overflows, and a term such as
    v . grad phi_y(v) - phi_y(v) becomes inf - inf. The score kernel
    (`score`, `state_scores`) uses stable log-scale terms instead."""
    y, read, ly = _read_at(family, y, log_f)
    total = 0.0
    if _has_own_term(family, y):
        nbrs, ev = family.local(y)
        v = np.exp(read(nbrs) - ly)
        total += float(v @ ev.grad(v)) - float(ev.value(v))
    for z in family.neighbors(y):
        z = int(z)
        if not family.in_active(z):
            continue
        nbrs_z, ev_z = family.local(z)
        pos = int(np.searchsorted(nbrs_z, y))
        if pos >= len(nbrs_z) or nbrs_z[pos] != y:
            raise InternalConsistencyError(f"asymmetric neighborhood at ({y},{z})")
        v_z = np.exp(read(nbrs_z) - read([z])[0])
        total -= float(ev_z.grad(v_z)[pos])
    return total


def named_closed_form_score(family: LocalPotentialFamily, y: int, log_f) -> float:
    """Explicit per-kind score formula; an evaluation route independent of
    the potential-gradient machinery. Whole-space active set only."""
    if family.active is not None:
        raise UnsupportedError("closed forms are whole-space formulas")
    if family.standard_cl:
        return standard_cl_score(family, y, log_f)
    y, read, ly = _read_at(family, y, log_f)
    kind = family.kind
    if kind == "custom":
        raise UnsupportedError("custom additive families have no named closed form")
    if kind == "cl":
        return _mcl_closed_form(family, y, read, ly)
    nbrs = family.neighbors(y)
    d = read(nbrs) - ly
    if kind == "pl":
        return float(np.sum(np.logaddexp(0.0, d)))
    if kind == "rm":  # sigmoid(d)^2 = exp(-2 log(1 + exp(-d)))
        return float(np.sum(np.exp(-2.0 * np.logaddexp(0.0, -d))))
    if kind == "dp":
        g = family.gamma
        return float(np.sum(g / (1.0 + g) * np.exp((1.0 + g) * d) - np.exp(-g * d)))
    # ps: -sum_z ||f_{b(z)} / f_y||_{1+gamma}^{-gamma}
    g = family.gamma
    total = 0.0
    for z in nbrs:
        dz = read(family.neighbors(int(z))) - ly
        log_norm = _logsumexp((1.0 + g) * dz) / (1.0 + g)
        total -= float(np.exp(-g * log_norm))
    return total


def _mcl_closed_form(family, y, read, ly) -> float:
    # per block: -log q(y | n_l(y)) + sum_{z in n_l(y)} q(z | n_l(z)) - 1
    total = 0.0
    for block_index, bl in enumerate(family.block_lists(y)):
        lse_y = float(_logsumexp(np.append(read(bl), ly)))
        total += lse_y - ly
        members = [y, *map(int, bl)]
        for z, lz in zip(members, read(members)):
            bl_z = family.block_lists(z)[block_index]
            lse_z = float(_logsumexp(np.append(read(bl_z), lz)))
            total += float(np.exp(lz - lse_z))
        total -= 1.0
    return total


def standard_cl_score(family: LocalPotentialFamily, y: int, log_f) -> float:
    """Plain block-conditional likelihood score: sum_l -log q(y | n_l(y)).

    Proper only where each block neighborhood is an equivalence function
    (always true on hypercube block systems); the gradient (mCL) score of a
    family without `standard_cl` is the safe general-space variant."""
    if family.kind != "cl":
        raise InputError("standard CL scores need a composite-likelihood family")
    y, read, ly = _read_at(family, y, log_f)
    total = 0.0
    for bl in family.block_lists(y):
        total += float(_logsumexp(np.append(read(bl), ly))) - ly
    return total


def cl_score(system: BlockSystem, y: int, log_f) -> float:
    """Standard composite likelihood on a hypercube block system."""
    return standard_cl_score(composite_likelihood(system), y, log_f)


def additive_score_term(family: LocalPotentialFamily):
    """The one-dimensional map psi with score(y) = sum_z psi(f_z / f_y)
    for additive whole-space families: psi(r) = r phi'(r) - phi(r) - phi'(1/r)."""
    f0, f1 = family.scalar_terms()

    def psi(r):
        r = np.asarray(r, dtype=np.float64)
        return r * f1(r) - f0(r) - f1(1.0 / r)

    return psi


# ---------------------------------------------------------------------------
# divergence and expectations


def _stacked_state_scores(family: LocalPotentialFamily, logs) -> np.ndarray:
    """`state_scores` of every row of a (..., |Y|) stack of logs."""
    kernel = family._kernel
    if kernel is None:
        kernel = family._kernel = _ScoreKernel(family, np.arange(family.space.size))
    with np.errstate(over="ignore"):  # pl/rm sigmoids reach their limits through inf
        return kernel._score_terms(logs)[0]


def state_scores(family: LocalPotentialFamily, log_f) -> np.ndarray:
    """score(y, f) for every point y of the (enumerable) space, from one
    value pass of the score kernel. The kernel is compiled at every point on
    the first call and kept on the family; its universe is the whole space
    and its value pass reads no sample weights, so it serves every f."""
    (logs,) = _space_logs(family, "state_scores", log_f)
    return _stacked_state_scores(family, logs)


def _stacked_divergence(family: LocalPotentialFamily, flogs, glogs) -> np.ndarray:
    """`divergence` of every pair of rows of two (..., |Y|) stacks of logs."""
    points, nbrs, valid, ev = family.active_local()
    u = _ratios(flogs, points, nbrs)
    v = _ratios(glogs, points, nbrs)
    local = ev.value(u, valid) - ev.value(v, valid) - np.sum(ev.grad(v, valid) * (u - v), axis=-1)
    total = _rowdot(np.exp(flogs.take(points, axis=-1)), local)
    if np.any(total < -DIVERGENCE_NEGATIVITY_TOLERANCE):
        raise InternalConsistencyError(
            f"divergence evaluated to {float(np.nanmin(total))!r}; "
            "local potential gradients are inconsistent"
        )
    return np.where(total < 0.0, 0.0, total)  # keeps -0.0 and nan, as max(total, 0.0) does


def divergence(family: LocalPotentialFamily, f, g) -> float:
    """Composite local Bregman divergence between two positive vectors.

    Tiny negative totals (above -1e-12) are floating noise and clip to zero;
    anything lower signals a gradient bug and raises."""
    flogs, glogs = _space_logs(family, "divergence", f, g)
    return float(_stacked_divergence(family, flogs, glogs))


def expected_score(family: LocalPotentialFamily, p: Probability, f) -> float:
    """S(p, f) = sum_y p_y S(y, f) over the whole (enumerable) space."""
    family.space.require_enumerable("expected_score")
    if not isinstance(p, Probability):
        raise InputError(f"expected a Probability, got {type(p).__name__}")
    if len(p) != family.space.size:
        raise InputError("probability does not match the space")
    return float(p.weights @ state_scores(family, f))


# ---------------------------------------------------------------------------
# strict convexity of block-conditional local potentials


def rank_condition(system: BlockSystem, y: int = 0) -> bool:
    """Exact test: the |b(y)| x m block-membership 0/1 matrix has full row
    rank |b(y)|. Rank is computed over the rationals, so the verdict is
    deterministic. Block systems are coordinate-symmetric, so the answer does
    not depend on y."""
    neighborhood = BlockNeighborhood(system)
    nbrs = neighborhood.neighbors(y)
    blocks = [set(map(int, b)) for b in neighborhood.block_neighbors(y)]
    rows = [
        [Fraction(1) if int(z) in blk else Fraction(0) for blk in blocks] for z in nbrs
    ]
    return _exact_rank(rows) == len(nbrs)


def _exact_rank(rows: list[list[Fraction]]) -> int:
    rows = [row[:] for row in rows]
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank
