"""Scores, composite potentials and composite local Bregman divergences.

Three independent evaluation routes exist for the same score and are kept
deliberately separate so they can cross-check each other:

- `score` / `generic_score`: the gradient of the composite potential,
  assembled from local potential values and gradients (additive families use
  the collapsed one-dimensional form);
- `named_closed_form_score`: the per-kind explicit formula;
- a finite difference of `composite_potential` (test-side only).

Scores are evaluated through a log-value query, never through a dense vector
over the space, so implicit hypercube neighborhoods score at dimensions far
beyond enumeration size. Divergences and expected scores do enumerate and
therefore require an enumerable space.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.special import expit, logsumexp

from .errors import InputError, InternalConsistencyError, UnsupportedError
from .graphs import BlockSystem
from .potentials import (
    BlockNeighborhood,
    LocalPotentialFamily,
    Probability,
    UnnormalizedVector,
    composite_likelihood,
)

DIVERGENCE_NEGATIVITY_TOLERANCE = 1e-12


def _as_logf(log_f):
    """Accept a callable point->log f, an UnnormalizedVector, or an array."""
    if callable(log_f):
        return log_f
    if isinstance(log_f, UnnormalizedVector):
        arr = log_f.logs
    else:
        arr = np.asarray(log_f, dtype=np.float64)
    return lambda i: arr[i]


def _gather(logf, indices) -> np.ndarray:
    try:
        return np.array([logf(int(i)) for i in indices], dtype=np.float64)
    except (IndexError, KeyError) as exc:
        raise InputError(f"log f query failed: {exc}") from exc


def _query(logf, i: int) -> float:
    try:
        return float(logf(int(i)))
    except (IndexError, KeyError) as exc:
        raise InputError(f"log f query failed at point {i}: {exc}") from exc


# ---------------------------------------------------------------------------
# local potentials


def _check_local_args(family: LocalPotentialFamily, y: int, g) -> np.ndarray:
    if not family.in_active(y):
        raise InputError(f"point {y} is outside the active set")
    g = np.asarray(g, dtype=np.float64)
    nbrs = family.neighbors(y)
    if g.shape != (len(nbrs),):
        raise InputError(f"expected {len(nbrs)} neighbor values, got shape {g.shape}")
    if np.any(g <= 0):
        raise InputError("neighbor values must be strictly positive")
    return g


def local_potential(family: LocalPotentialFamily, y: int, g) -> float:
    """phi_y evaluated on a positive vector over b(y)."""
    g = _check_local_args(family, y, g)
    _, ev = family.local(y)
    return float(ev.value(g))


def local_potential_gradient(family: LocalPotentialFamily, y: int, g) -> np.ndarray:
    g = _check_local_args(family, y, g)
    _, ev = family.local(y)
    return np.asarray(ev.grad(g), dtype=np.float64)


# ---------------------------------------------------------------------------
# composite potential


def _logs_of(f) -> np.ndarray:
    if isinstance(f, UnnormalizedVector):
        return f.logs
    if isinstance(f, Probability):
        return f.log().logs
    return UnnormalizedVector.from_logs(f).logs


def composite_potential(family: LocalPotentialFamily, f) -> float:
    """phi(f) = sum over active y of f_y * phi_y(f_{b(y)} / f_y).

    1-homogeneous in f by construction; requires an enumerable space.
    """
    logs = _logs_of(f)
    family.space.require_enumerable("composite_potential")
    if len(logs) != family.space.size:
        raise InputError("value vector does not match the space")
    total = 0.0
    for y in family.active_indices():
        nbrs, ev = family.local(int(y))
        v = np.exp(logs[nbrs] - logs[y])
        total += float(np.exp(logs[y])) * float(ev.value(v))
    return total


# ---------------------------------------------------------------------------
# score paths


def score(family: LocalPotentialFamily, y: int, log_f) -> float:
    """The proper homogeneous score: minus the y-partial of the composite
    potential. Additive families use the collapsed one-dimensional route;
    the rest go through the generic route."""
    if family.additive:
        return _additive_score(family, y, log_f)
    return generic_score(family, y, log_f)


@np.errstate(over="ignore")  # pl/rm sigmoids reach their limits through inf
def _additive_score(family, y, log_f) -> float:
    logf = _as_logf(log_f)
    y = int(y)
    nbrs = family.neighbors(y)
    d = _gather(logf, nbrs) - _query(logf, y)
    if family.active is None:
        value_term, _ = family.edge_terms()
        return float(np.sum(value_term(d)))
    f0, f1, _ = family.scalar_terms()
    total = 0.0
    if family.in_active(y):
        r = np.exp(d)
        total += float(np.sum(r * f1(r) - f0(r)))
    for z, dz in zip(nbrs, d):
        if family.in_active(int(z)):
            total -= float(f1(np.exp(-dz)))
    return total


def _has_own_term(family: LocalPotentialFamily, y: int) -> bool:
    """Whether y's own term v . grad phi_y(v) - phi_y(v), v = f over b(y) / f_y,
    can be nonzero. ps potentials are 1-homogeneous, so for them the term and
    its gradient hess(v) v vanish identically; computing them would only add
    cancellation error of the size of sum(v)."""
    return family.kind != "ps" and family.in_active(y)


def generic_score(family: LocalPotentialFamily, y: int, log_f) -> float:
    """Gradient-of-potential route valid for every kind, including inactive
    points (indicator terms)."""
    logf = _as_logf(log_f)
    y = int(y)
    ly = _query(logf, y)
    total = 0.0
    if _has_own_term(family, y):
        nbrs, ev = family.local(y)
        v = np.exp(_gather(logf, nbrs) - ly)
        total += float(v @ ev.grad(v)) - float(ev.value(v))
    for z in family.neighbors(y):
        z = int(z)
        if not family.in_active(z):
            continue
        nbrs_z, ev_z = family.local(z)
        pos = int(np.searchsorted(nbrs_z, y))
        if pos >= len(nbrs_z) or nbrs_z[pos] != y:
            raise InternalConsistencyError(f"asymmetric neighborhood at ({y},{z})")
        v_z = np.exp(_gather(logf, nbrs_z) - _query(logf, z))
        total -= float(ev_z.grad(v_z)[pos])
    return total


def named_closed_form_score(family: LocalPotentialFamily, y: int, log_f) -> float:
    """Explicit per-kind score formula; an evaluation route independent of
    the potential-gradient machinery. Whole-space active set only."""
    if family.active is not None:
        raise UnsupportedError("closed forms are whole-space formulas")
    logf = _as_logf(log_f)
    y = int(y)
    ly = _query(logf, y)
    kind = family.kind
    if kind == "custom":
        raise UnsupportedError("custom additive families have no named closed form")
    if kind == "cl":
        return _mcl_closed_form(family, y, logf, ly)
    nbrs = family.neighbors(y)
    d = _gather(logf, nbrs) - ly
    if kind == "pl":
        return float(np.sum(np.logaddexp(0.0, d)))
    if kind == "rm":
        return float(np.sum(expit(d) ** 2))
    if kind == "dp":
        g = family.gamma
        return float(np.sum(g / (1.0 + g) * np.exp((1.0 + g) * d) - np.exp(-g * d)))
    # ps: -sum_z ||f_{b(z)} / f_y||_{1+gamma}^{-gamma}
    g = family.gamma
    total = 0.0
    for z in nbrs:
        dz = _gather(logf, family.neighbors(int(z))) - ly
        log_norm = logsumexp((1.0 + g) * dz) / (1.0 + g)
        total -= float(np.exp(-g * log_norm))
    return total


def _mcl_closed_form(family, y, logf, ly) -> float:
    # per block: -log q(y | n_l(y)) + sum_{z in n_l(y)} q(z | n_l(z)) - 1
    total = 0.0
    for block_index, bl in enumerate(family.block_lists(y)):
        lse_y = float(logsumexp(np.append(_gather(logf, bl), ly)))
        total += lse_y - ly
        members = [y] + [int(z) for z in bl]
        for z in members:
            lz = _query(logf, z)
            bl_z = family.block_lists(z)[block_index]
            lse_z = float(logsumexp(np.append(_gather(logf, bl_z), lz)))
            total += float(np.exp(lz - lse_z))
        total -= 1.0
    return total


def standard_cl_score(family: LocalPotentialFamily, y: int, log_f) -> float:
    """Plain block-conditional likelihood score: sum_l -log q(y | n_l(y)).

    Proper only where each block neighborhood is an equivalence function
    (always true on hypercube block systems); the gradient score from
    `score` is the safe general-space variant."""
    if family.kind != "cl":
        raise InputError("standard CL scores need a composite-likelihood family")
    logf = _as_logf(log_f)
    y = int(y)
    ly = _query(logf, y)
    total = 0.0
    for bl in family.block_lists(y):
        total += float(logsumexp(np.append(_gather(logf, bl), ly))) - ly
    return total


def cl_score(system: BlockSystem, y: int, log_f) -> float:
    """Standard composite likelihood on a hypercube block system."""
    return standard_cl_score(composite_likelihood(system), y, log_f)


def additive_score_term(family: LocalPotentialFamily):
    """The one-dimensional map psi with score(y) = sum_z psi(f_z / f_y)
    for additive whole-space families: psi(r) = r phi'(r) - phi(r) - phi'(1/r)."""
    f0, f1, _ = family.scalar_terms()

    def psi(r):
        r = np.asarray(r, dtype=np.float64)
        return r * f1(r) - f0(r) - f1(1.0 / r)

    return psi


# ---------------------------------------------------------------------------
# score gradient with respect to log f (drives parameter fitting)


def score_and_logf_gradient(family: LocalPotentialFamily, y: int, log_f):
    """Score plus its partials with respect to the touched log values.

    Returns (value, indices, gradient) with `indices` sorted; the gradient
    entries sum to zero (scale invariance).
    """
    logf = _as_logf(log_f)
    y = int(y)
    if family.additive:
        return _additive_score_grad(family, y, logf)
    return _generic_score_grad(family, y, logf)


@np.errstate(over="ignore")  # pl/rm sigmoids reach their limits through inf
def _additive_score_grad(family, y, logf):
    nbrs = family.neighbors(y)
    ly = _query(logf, y)
    d = _gather(logf, nbrs) - ly
    if family.active is None:
        value_term, grad_term = family.edge_terms()
        value = float(np.sum(value_term(d)))
        gnbrs = grad_term(d)
    else:
        f0, f1, f2 = family.scalar_terms()
        value = 0.0
        gnbrs = np.zeros(len(nbrs))
        if family.in_active(y):
            r = np.exp(d)
            value += float(np.sum(r * f1(r) - f0(r)))
            gnbrs += r * r * f2(r)
        active_nbrs = np.array([family.in_active(int(z)) for z in nbrs])
        if np.any(active_nbrs):
            s = np.exp(-d[active_nbrs])
            value -= float(np.sum(f1(s)))
            gnbrs[active_nbrs] += s * f2(s)
    indices = np.append(nbrs, y)
    grads = np.append(gnbrs, -float(gnbrs.sum()))
    order = np.argsort(indices)
    return value, indices[order], grads[order]


def _generic_score_grad(family, y, logf):
    acc: dict[int, float] = {}

    def bump(i, delta):
        acc[i] = acc.get(i, 0.0) + delta

    ly = _query(logf, y)
    value = 0.0
    if _has_own_term(family, y):
        nbrs, ev = family.local(y)
        v = np.exp(_gather(logf, nbrs) - ly)
        value += float(v @ ev.grad(v)) - float(ev.value(v))
        hv = ev.hess_dot(v, v)
        contrib = hv * v
        for i, c in zip(nbrs, contrib):
            bump(int(i), float(c))
        bump(y, -float(contrib.sum()))
    for z in family.neighbors(y):
        z = int(z)
        if not family.in_active(z):
            continue
        nbrs_z, ev_z = family.local(z)
        pos = int(np.searchsorted(nbrs_z, y))
        if pos >= len(nbrs_z) or nbrs_z[pos] != y:
            raise InternalConsistencyError(f"asymmetric neighborhood at ({y},{z})")
        v_z = np.exp(_gather(logf, nbrs_z) - _query(logf, z))
        value -= float(ev_z.grad(v_z)[pos])
        row = ev_z.hess_row(v_z, pos)
        contrib = row * v_z
        for i, c in zip(nbrs_z, contrib):
            bump(int(i), -float(c))
        bump(z, float(contrib.sum()))
    indices = np.array(sorted(acc), dtype=np.int64)
    grads = np.array([acc[int(i)] for i in indices], dtype=np.float64)
    return value, indices, grads


# ---------------------------------------------------------------------------
# divergence and expectations


def divergence(family: LocalPotentialFamily, f, g) -> float:
    """Composite local Bregman divergence between two positive vectors.

    Tiny negative totals (above -1e-12) are floating noise and clip to zero;
    anything lower signals a gradient bug and raises."""
    flogs = _logs_of(f)
    glogs = _logs_of(g)
    family.space.require_enumerable("divergence")
    if len(flogs) != family.space.size or len(glogs) != family.space.size:
        raise InputError("value vectors do not match the space")
    total = 0.0
    for y in family.active_indices():
        nbrs, ev = family.local(int(y))
        u = np.exp(flogs[nbrs] - flogs[y])
        v = np.exp(glogs[nbrs] - glogs[y])
        local = float(ev.value(u)) - float(ev.value(v)) - float(ev.grad(v) @ (u - v))
        total += float(np.exp(flogs[y])) * local
    if total < -DIVERGENCE_NEGATIVITY_TOLERANCE:
        raise InternalConsistencyError(
            f"divergence evaluated to {total!r}; local potential gradients are inconsistent"
        )
    return max(total, 0.0)


def expected_score(family: LocalPotentialFamily, p: Probability, f) -> float:
    """S(p, f) = sum_y p_y S(y, f) over the whole (enumerable) space."""
    family.space.require_enumerable("expected_score")
    if len(p) != family.space.size:
        raise InputError("probability does not match the space")
    logs = _logs_of(f)
    return float(
        sum(p.weights[y] * score(family, y, logs) for y in range(family.space.size))
    )


# ---------------------------------------------------------------------------
# strict convexity of block-conditional local potentials


def rank_condition(system: BlockSystem, y: int = 0) -> bool:
    """Exact test: the |b(y)| x m block-membership 0/1 matrix has full row
    rank |b(y)|. Rank is computed over the rationals, so the verdict is
    deterministic. Block systems are coordinate-symmetric, so the answer does
    not depend on y."""
    nbrs = BlockNeighborhood(system).neighbors(y)
    blocks = [set(map(int, b)) for b in BlockNeighborhood(system).block_neighbors(y)]
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
