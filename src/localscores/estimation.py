"""Empirical score minimization over model parameters.

The optimizer is deterministic gradient descent with Armijo backtracking. The
first trial moves unit distance, step 1 / ||g0||_2 (1 where ||g0||_2 is 0 or
not finite); each later search starts at the last move's Barzilai-Borwein step
s'y / y'y capped at twice the last step, or at twice it where s'y <= 0.
Objectives bind the model once at the points they read (`bind` in `models`)
and assemble their parameter gradient analytically, pulling the score's
partials with respect to log f back through the bound map; finite differences
only appear in tests.

Every local score objective is one kernel, `_ScoreKernel`, with the model
bound at the kernel's universe; `scoring` runs its per-point and
whole-space scores on the same kernel. It aggregates
duplicate samples by frequency and touches only the union of the sampled
points' neighborhoods (the universe), so fitting never enumerates the
space. It compiles once into padded index arrays built in batch from the
neighborhoods: an (n, degree) neighbor matrix for additive kinds, with masks
for ragged degree and active sets, and for ps and cl a ball table: one entry
per distinct set whose normalizer the score reads (b(z) for ps,
n_l(z) = b_l(z) + {z} per block for cl). Each ball's log-normalizer and
softmax are computed once per evaluation, states gather from the table, and
gradients accumulate per ball.

The field route skips the universe where the model gives the log-ratios
d = log f(y ^ m) - log f(y) itself: an additive score (pl, rm, dp, custom)
on the whole space of an XOR neighborhood whose masks flip one or two bits,
with a model that offers `bind_flips` (a `BoltzmannModel`). The kernel then
keeps only the aggregated states and the `whole` edge terms, which read the
model's (masks, states) array d directly, and the bound pullback takes
dJ/dd to the parameters: no gather or bincount over a universe. These
inputs alone choose the route. ps and cl keep the universe, since they read
normalizers over balls of neighbors' neighbors (at D=10, radius 1, a field
table would hold about n D^2 = 70k entries against about 10k in the ball
table; estimated, not built); so do active subsets, whose terms depend on
which neighbors are active, and tabular and conditional models. The
universe kernel is the field route's independent check. Either route's
model array, the universe's sign matrix or the field's log-ratios, is
refused with its size above `models.MAX_BOUND_ENTRIES` entries.

The value pass (`_score_terms`) reads logs along the last axis, so one call
scores a single log f or a (..., universe) stack of them, each row exactly as
alone; it gathers with `take(idx, axis=-1)`, since `x[..., idx]` runs about
three times slower than either. `finish()` and the objectives stay 1-D.

Every point set that compilation reads (sample aggregation, ball centers, the
universe) is indexed once by `_index_points`: a mark table over the
objective's point range (the space, or rows x L for a conditional objective)
gives the sorted points and, through its running count, every position the
arrays need, without sorting. Only when the range exceeds the entry count by
a fixed factor, as for a few samples on a hypercube from about D=20, does it
sort the entries instead.

Objectives share one protocol: `evaluate(x)` computes the value and returns
it with `gradient()`, which finishes dJ/dx from the logs and the per-edge or
per-ball arrays the value pass kept. The line search evaluates every trial
point once and finishes the gradient of the accepted one only; rejected
trials and `empirical_score` never pay for a gradient.

Conditional models fit through the same kernel: sample i with label y is
the point i * L + y of a product space in which every row holds its own copy
of the label graph, and features @ theta' reads a C-contiguous theta'
(`_label_logits` in `models`). Their exact log loss is the standard CL score of
the one block holding every other label, so conditional MLE is that kernel too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import InputError, checked_count, checked_real, checked_size
from .graphs import label_band_graph
from .models import ConditionalModel, _label_logits, _one_or_two_bits
from .potentials import LocalPotentialFamily, Probability, ScoreSpec, _logsumexp, _masked
from .reports import format_record

STEP_FLOOR = 1e-20
FIRST_MOVE = 1.0  # the length of the first line search's first trial move
ARMIJO_C = 1e-4  # the fraction of the linear decrease a step must achieve
BACKTRACK_FACTOR = 0.5  # the step's shrink after each rejected trial


@dataclass(frozen=True)
class FitConfig:
    max_iterations: int = 10000
    gradient_tolerance: float = 1e-6  # infinity norm
    l2_penalty: float = 0.0

    def __post_init__(self):
        checked_count("max_iterations", self.max_iterations)
        checked_real("gradient_tolerance", self.gradient_tolerance, positive=True)
        checked_real("l2_penalty", self.l2_penalty)


@dataclass(frozen=True)
class FitResult:
    parameters: object  # fitted model
    final_objective: float
    gradient_norm: float
    iterations_used: int
    converged: bool
    trace: tuple[tuple[float, float], ...] = field(repr=False)
    evaluations: int  # objective values: the start point and every line-search trial
    gradients: int  # gradients finished: the start point and every accepted step

    def record_line(self, record: str) -> str:
        """The fit's outcome as one `format_record` line named `record`."""
        return format_record(
            record=record, objective=self.final_objective, grad_norm=self.gradient_norm,
            iterations=self.iterations_used, converged=self.converged,
            evaluations=self.evaluations, gradients=self.gradients,
        )

    def report_lines(self) -> list[str]:
        return [self.record_line("fit")] + [
            format_record(record="trace", iteration=i, objective=obj, grad_norm=gn)
            for i, (obj, gn) in enumerate(self.trace)
        ]


class NonFiniteObjectiveError(InputError):
    """Objective became non-finite and backtracking could not recover."""

    def __init__(self, sample_index, message: str):
        self.sample_index = sample_index
        super().__init__(message)


# ---------------------------------------------------------------------------
# objectives


def bind_spec(spec: ScoreSpec, graph):
    """(family, family.standard_cl) for a score spec on a graph, a pair that
    `fit`/`empirical_score` accept as a checked spelling of the family."""
    family = spec.family(graph)
    return family, family.standard_cl


class _Objective:
    """An objective over a model's flat parameters, started at `model`.
    `evaluate(x)` returns the value with `gradient()`, which finishes dJ/dx
    from the arrays the value pass kept; `bound` is the model bound at what
    the objective reads (log f at points, or the field route's log-ratios).
    Each objective supplies the data part, `_data_terms(logs) -> (value,
    finish)`, with finish() returning dJ/d logs; `evaluate` adds the l2
    penalty and holds the frozen tail."""

    frozen_tail = 0  # trailing parameters held at their start (a conditional gauge)

    def __init__(self, model, bound, l2):
        self.model = model
        self.x0 = model.params
        self.bound = bound
        self.l2 = l2

    def evaluate(self, x):
        """(value, gradient) at x."""
        # exploratory line-search steps overflow by design; non-finite
        # values are treated as rejections upstream
        with np.errstate(all="ignore"):
            value, finish = self._data_terms(self.bound.logs(x))
            value += self.l2 * float(x @ x)

        def gradient():
            with np.errstate(all="ignore"):
                grad = self.bound.pullback(finish()) + 2.0 * self.l2 * x
            if self.frozen_tail:
                grad[-self.frozen_tail:] = 0.0
            return grad

        return value, gradient

    def value_and_grad(self, x):
        value, gradient = self.evaluate(x)
        return value, gradient()

    def value(self, x):
        return self.evaluate(x)[0]

    def offending_sample(self, x) -> int | None:
        return None


class _Balls:
    """The sets whose normalizers non-additive scores read, one per
    distinct set: b(z) for ps, n_l(z) = b_l(z) + {z} for each block l for cl.

    `members` holds universe positions as a (width, sets) array, so that
    reductions run across the short member axis in whole rows; short sets
    are padded (`valid` masks the padding, None when none is short).
    `center` is the position of z. For member logs l_w the relative
    log-normalizer is s = log sum_w exp(scale * (l_w - l_z)), so
    log ||f over the set||_scale = s / scale + l_z. Logs may carry leading
    stack axes; the member axis is then second to last."""

    def __init__(self, members, valid, center, scale):
        self.members = np.ascontiguousarray(members.T)
        self.valid = None if valid is None else np.ascontiguousarray(valid.T)
        self.center = center
        self.scale = scale

    def log_norms(self, logs):
        """(s, a): relative log-normalizers and the scaled, center-shifted
        member logs (-inf at padding) they came from."""
        a = self.scale * (logs.take(self.members, axis=-1)
                          - logs.take(self.center, axis=-1)[..., None, :])
        if self.valid is not None:
            a = np.where(self.valid, a, -np.inf)
        # every set has a real member, so each max is finite unless log f
        # overflowed (then the value is non-finite either way)
        top = a.max(axis=-2)
        return top + np.log(np.exp(a - top[..., None, :]).sum(axis=-2)), a

    def pullback(self, coef, s, a, n_u):
        """Gradient over the universe of sum_sets coef * (s / scale + l_z),
        the weighted absolute log-normalizers: coef times each set's softmax.
        Terms in the relative s alone also owe -coef at each center."""
        soft = np.exp(a - s)
        return np.bincount(self.members.ravel(), weights=(coef * soft).ravel(), minlength=n_u)


# A mark table costs a byte and an int64 count per point of the range;
# np.unique hashes and sorts the entries. On int64 entries the table was the
# faster up to about 32 points of range per entry (numpy 2.4, 200 to 22 000
# entries), so hypercubes from about D=20 with few samples take the sort.
_TABLE_RANGE_PER_ENTRY = 32

# About 67M entries: 512 MB as an int64 ball table, beside which the kernel
# keeps the table's positions in the universe and its mask. A ps:1 radius-2
# kernel at D=24 on 2000 samples would need 589 618 centers x 300 members.
MAX_BALL_ENTRIES = 1 << 26


def _index_points(arrays, size):
    """(points, pos) for point arrays with entries in [0, size): the sorted
    distinct entries, and pos(x), the left np.searchsorted(points, x) for
    any x in [0, size), absent ones included. Small ranges are indexed by a
    mark table and its exclusive running count, large ones by a sort."""
    flat = [np.ravel(a) for a in arrays]
    if size > _TABLE_RANGE_PER_ENTRY * sum(a.size for a in flat):
        points = np.unique(np.concatenate(flat))
        return points, lambda x: np.searchsorted(points, x)
    mark = np.zeros(size, dtype=bool)
    for a in flat:
        mark[a] = True
    rank = np.cumsum(mark)
    rank -= mark  # points below each x
    return np.flatnonzero(mark), rank.__getitem__


def _stack_balls(parts):
    """Concatenate per-block (members, valid, centers) row sets, padding every
    row to the widest block with its own center."""
    if len(parts) == 1:  # nothing to pad: keep the one table, not copies of it
        return parts[0][:2]
    width = max(m.shape[1] for m, _, _ in parts)
    members, valid = [], []
    for m, v, c in parts:
        pad = width - m.shape[1]
        members.append(np.concatenate([m, np.repeat(c[:, None], pad, axis=1)], axis=1))
        v = np.ones(m.shape, dtype=bool) if v is None else v
        valid.append(np.concatenate([v, np.zeros((len(c), pad), dtype=bool)], axis=1))
    valid = np.concatenate(valid)
    return np.concatenate(members), None if valid.all() else valid


class _ScoreKernel:
    """The batched score of a family at sampled states, compiled once.

    Compilation turns the family's neighborhoods into padded position arrays
    over the universe (the sorted points whose log f the score reads); every
    `_score_terms(logs)` is then a fixed sequence of array operations on the
    logs at the universe. The kernel knows no model: an objective binds one
    at the universe, and the per-point scoring routes read log f there.

    With `conditional`, the samples are labels on one feature row each, and
    the points are row * L + label; the family acts on each point's label.
    Points lie in [0, size): the space, or rows x L for a conditional
    kernel; `_index_points` indexes every point set over that range, by a
    sort only where size exceeds `_TABLE_RANGE_PER_ENTRY` times its entries.
    `weights`, when given, belong to `samples` as sorted distinct states.
    With `field` an additive kernel compiles no universe and scores the
    (masks, states) log-ratios a model's `bind_flips` gives.
    """

    def __init__(self, family, samples, weights=None, conditional=False, field=False):
        samples = family.space.checked_indices(samples)
        size = family.space.size
        if conditional:  # label y on feature row i is the point i * L + y
            samples = np.arange(samples.size) * size + samples
            size *= samples.size
        self.size = size  # every point the kernel reads lies in [0, size)
        if weights is None:
            states, pos = _index_points([samples], size)
            counts = np.bincount(pos(samples), minlength=len(states))
            w = counts / counts.sum()
        else:
            states = samples
            w = np.asarray(weights, dtype=np.float64)
        self.family = family
        self.samples = samples
        self.states = states
        self.weights = w
        self.period = family.space.size
        self.active = None if family.active is None else family.active_indices()
        if field:  # the model gives d itself: only the whole edge terms remain
            self.universe, self.edge_parts = None, [(family.edge_terms().whole, None)]
        else:
            self._compile()

    def _batch(self, matrix, points, *block):
        """A family batch map (`neighbor_matrix`, `block_matrix`) on points:
        the map sees each point's label and the row offset is added back
        (unconditional points are their own label, at offset 0)."""
        local = points % self.period
        nbrs, valid = matrix(local, *block)
        return nbrs + (points - local)[:, None], valid

    def _reach(self, points, valid):
        """Mask of the padded entries that are real and active, or None when
        all are."""
        mask = np.ones(points.shape, dtype=bool) if valid is None else valid
        if self.active is not None:
            mask = mask & np.isin(points % self.period, self.active)
        return None if mask.all() else mask

    def _compile(self):
        """The additive shape: the padded neighbor matrix and the masked
        parts of the family's edge-term table; else the ball shape."""
        fam, states = self.family, self.states
        if not fam.additive:
            return self._compile_balls()
        nbrs, valid = self._batch(fam.neighbor_matrix, states)
        own, nbr, whole = fam.edge_terms()
        nbr_mask = self._reach(nbrs, valid)
        if self.active is None:
            self.edge_parts = [(whole, nbr_mask)]
        else:  # y's own local potential and its active neighbors' potentials
            own_mask = self._reach(np.broadcast_to(states[:, None], nbrs.shape), valid)
            self.edge_parts = [(own, own_mask), (nbr, nbr_mask)]
        self.universe, pos = _index_points([states, nbrs], self.size)
        self.ypos, self.nbpos = pos(states), pos(nbrs)

    def _compile_balls(self):
        """The ball shape: the table of the sets a ps or cl score reads, over
        a universe of the states, their neighbor rows and the members. ps
        reads b(z) for each active z in b(y), a single block of balls without
        their centers. cl reads n_l(z) = b_l(z) + {z} per block l for y's own
        ball and, for mCL, each active z in b_l(y). Block relations are
        symmetric (z in b_l(y) iff y in b_l(z)), as on every hypercube block
        system and single-block graph."""
        fam, states = self.family, self.states
        cl = fam.kind == "cl"
        own_ids, nbr_ids, nbr_reach, parts, points = [], [], [], [], [states]
        offset = width = 0
        for block in range(fam.num_blocks):  # ps has the single block b
            nbrs, valid = self._batch(fam.block_matrix, states, block)
            points.append(nbrs)
            if fam.standard_cl:  # the states are sorted and distinct
                centers, own = states, np.arange(len(states))
            else:
                reach = self._reach(nbrs, valid)
                reached = nbrs if reach is None else nbrs[reach]
                centers, pos = _index_points([states, reached] if cl else [reached], self.size)
                own = pos(states)
                nbr_ids.append(offset + np.minimum(pos(nbrs), max(len(centers) - 1, 0)))
                nbr_reach.append(np.ones(nbrs.shape, dtype=bool) if reach is None else reach)
            width = max(width, nbrs.shape[1] + cl)
            checked_size("ball table", (offset + len(centers)) * width, MAX_BALL_ENTRIES)
            cm, cvalid = self._batch(fam.block_matrix, centers, block)
            if cl:  # each ball also holds its center, and y owns one ball per block
                own_ids.append(offset + own)
                cm = np.concatenate([cm, centers[:, None]], axis=1)
                if cvalid is not None:
                    cvalid = np.pad(cvalid, ((0, 0), (0, 1)), constant_values=True)
            parts.append((cm, cvalid, centers))
            offset += len(centers)
        if not fam.standard_cl:
            self.nbr_ids = np.concatenate(nbr_ids, axis=1)
            reach = np.concatenate(nbr_reach, axis=1)
            self.nbr_reach = None if reach.all() else reach
        if cl:
            self.own_ids = np.stack(own_ids, axis=1)
            self.own_mask = self._reach(states, None)
            own_weights = _masked(self.weights, self.own_mask)
            # per-ball weights of the -log q(y | n_l(y)) terms and of the q terms
            self.ball_log_weight = np.bincount(
                self.own_ids.ravel(), weights=np.repeat(own_weights, fam.num_blocks),
                minlength=offset,
            )
            if not fam.standard_cl:
                self.ball_q_weight = self.ball_log_weight + np.bincount(
                    self.nbr_ids.ravel(), weights=(reach * self.weights[:, None]).ravel(),
                    minlength=offset,
                )
        members, valid = _stack_balls(parts)
        self.universe, pos = _index_points(points + [members], self.size)
        self.ypos = pos(states)
        centers = np.concatenate([c for _, _, c in parts])
        scale = 1.0 + fam.gamma if fam.kind == "ps" else 1.0
        self.balls = _Balls(pos(members), valid, pos(centers), scale)

    def _score_terms(self, logs):
        """(per-state scores, finish): finish() returns dJ/d logs over the
        universe from the arrays the value pass computed. Logs of shape
        (..., universe) give scores of shape (..., states), row by row;
        finish() needs 1-D logs."""
        if self.family.additive:
            return self._additive_terms(logs)
        if self.family.kind == "ps":
            return self._ps_terms(logs)
        return self._cl_terms(logs)

    def _additive_terms(self, logs):
        if self.universe is None:  # the field route: logs are the (masks, states) log-ratios d
            (value, slope), _ = self.edge_parts[0]

            def finish():
                g = slope(logs)
                g *= self.weights
                return g

            return value(logs).sum(axis=0), finish
        ly = logs.take(self.ypos, axis=-1)
        d = logs.take(self.nbpos, axis=-1) - ly[..., None]

        def summed(k):  # map k (0 the term, 1 its derivative) of every part, masked
            return reduce(np.add, (_masked(pair[k](d), mask) for pair, mask in self.edge_parts))

        return np.sum(summed(0), axis=-1), lambda: self._edge_pullback(summed(1))

    def _edge_pullback(self, g):
        """dJ/d logs over the universe of per-edge derivatives g with respect
        to each neighbor's log f; y's own log f owes minus their sum."""
        n_u = len(self.universe)
        dj = np.bincount(
            self.nbpos.ravel(), weights=(g * self.weights[:, None]).ravel(), minlength=n_u
        )
        dj -= np.bincount(self.ypos, weights=g.sum(axis=1) * self.weights, minlength=n_u)
        return dj

    def _ps_terms(self, logs):
        # score(y) = -sum over active z in b(y) of (f_y / ||f over b(z)||_{1+gamma})^gamma
        gamma = self.family.gamma
        n_u = len(self.universe)
        balls = self.balls
        if not len(balls.center):  # no sampled state has an active neighbor
            return np.zeros(logs.shape[:-1] + self.states.shape), lambda: np.zeros(n_u)
        s, a = balls.log_norms(logs)
        log_norm = s / balls.scale + logs.take(balls.center, axis=-1)
        ly = logs.take(self.ypos, axis=-1)
        t = np.exp(gamma * (ly[..., None] - log_norm.take(self.nbr_ids, axis=-1)))
        t = _masked(t, self.nbr_reach)

        def finish():
            tw = gamma * t * self.weights[:, None]
            coef = np.bincount(self.nbr_ids.ravel(), weights=tw.ravel(), minlength=len(s))
            dj = balls.pullback(coef, s, a, n_u)
            dj -= np.bincount(self.ypos, weights=tw.sum(axis=1), minlength=n_u)
            return dj

        return -t.sum(axis=-1), finish

    def _cl_terms(self, logs):
        # per block, with q_l(z) = f_z / sum over n_l(z) of f = exp(-s):
        # standard CL scores -log q_l(y); the gradient (mCL) score adds
        # q_l(y) - 1 for active y and q_l(z) for each active z in b_l(y)
        balls = self.balls
        s, a = balls.log_norms(logs)
        own = s.take(self.own_ids, axis=-1)
        if self.family.standard_cl:
            vals = own.sum(axis=-1)
        else:
            q = np.exp(-s)
            own = own - 1.0 + q.take(self.own_ids, axis=-1)
            if self.own_mask is not None:
                own = np.where(self.own_mask[:, None], own, 0.0)
            nbr = _masked(q.take(self.nbr_ids, axis=-1), self.nbr_reach)
            vals = own.sum(axis=-1) + nbr.sum(axis=-1)

        def finish():
            coef = self.ball_log_weight
            if not self.family.standard_cl:
                coef = coef - self.ball_q_weight * q
            n_u = len(self.universe)
            dj = balls.pullback(coef, s, a, n_u)
            dj -= np.bincount(balls.center, weights=coef, minlength=n_u)
            return dj

        return vals, finish


def _field_masks(family, model, features):
    """The XOR masks along which the model gives the log-ratios itself (the
    field route), or None where the kernel reads log f at a universe: scores
    that are not additive, active subsets, graphs that are not XOR systems,
    masks of more than two bits, and models without `bind_flips`."""
    masks = getattr(family.graph, "masks", None)
    if (masks is None or features is not None or not family.additive or family.active is not None
            or not hasattr(model, "bind_flips") or not _one_or_two_bits(masks)):
        return None
    return masks


class _ScoreObjective(_Objective):
    """Mean score over sampled states, aggregated by state frequency: a
    `_ScoreKernel` with the model bound at its universe, or on the field
    route at the states along the graph's masks. A conditional model's
    samples are labels with one feature row each."""

    def __init__(self, family, model, samples, weights=None, l2=0.0, features=None):
        if family.space.spec_string() != model.space.spec_string():
            raise InputError(
                f"score family lives on {family.space.spec_string()}, "
                f"model on {model.space.spec_string()}"
            )
        masks = _field_masks(family, model, features)
        kernel = _ScoreKernel(family, samples, weights, features is not None, masks is not None)
        if features is not None and np.shape(features)[:1] != kernel.samples.shape:
            raise InputError("features and labels must align")
        if masks is None:
            bound = model.bind(kernel.universe, features)
        else:
            bound = model.bind_flips(kernel.states, masks)
        super().__init__(model, bound, l2)
        self.kernel = kernel

    def _data_terms(self, logs):
        vals, finish = self.kernel._score_terms(logs)
        return float(vals @ self.kernel.weights), finish

    def offending_sample(self, x) -> int | None:
        """Position in the caller's samples of the first sample whose score
        is non-finite at x; None if all are finite."""
        kernel = self.kernel
        with np.errstate(all="ignore"):
            vals, _ = kernel._score_terms(self.bound.logs(x))
        bad = np.flatnonzero(np.isin(kernel.samples, kernel.states[~np.isfinite(vals)]))
        return int(bad[0]) if bad.size else None


class _MleObjective(_Objective):
    """Negative mean log-likelihood with the exact normalization constant."""

    def __init__(self, model, samples, l2=0.0):
        space = model.space
        space.require_enumerable("mle_fit")
        samples = space.checked_indices(samples)
        super().__init__(model, model.bind(np.arange(space.size)), l2)
        self.emp = np.bincount(samples, minlength=space.size) / samples.size

    def _data_terms(self, logs):
        lz = float(_logsumexp(logs))
        return lz - float(self.emp @ logs), lambda: np.exp(logs - lz) - self.emp


# ---------------------------------------------------------------------------
# the optimizer


def _minimize(objective, config: FitConfig) -> FitResult:
    x = np.array(objective.x0, dtype=np.float64)
    fx, finish = objective.evaluate(x)
    evaluations = 1
    if not np.isfinite(fx):
        bad = objective.offending_sample(x)
        raise NonFiniteObjectiveError(
            bad, f"objective non-finite at the initial point (sample {bad})"
        )
    gx = finish()
    gradients = 1
    trace = [(fx, float(np.max(np.abs(gx))) if gx.size else 0.0)]
    g0 = float(np.linalg.norm(gx))
    step = FIRST_MOVE / g0 if 0.0 < g0 < np.inf else 1.0
    iterations = 0
    converged = trace[0][1] <= config.gradient_tolerance
    while not converged and iterations < config.max_iterations:
        finish = None  # release the last point's arrays before the next trial
        direction = -gx
        with np.errstate(all="ignore"):
            slope = float(gx @ direction)  # -||g||^2
        t = step
        while True:
            with np.errstate(all="ignore"):
                xt = x + t * direction
            ft, finish = objective.evaluate(xt)
            evaluations += 1
            if np.isfinite(ft) and ft <= fx + ARMIJO_C * t * slope:
                break
            finish = None
            t *= BACKTRACK_FACTOR
            if t < STEP_FLOOR:
                if not np.isfinite(ft):
                    # non-finite persists at vanishing steps: genuinely broken
                    bad = objective.offending_sample(xt)
                    raise NonFiniteObjectiveError(
                        bad,
                        f"objective non-finite during line search (sample {bad}); "
                        "parameters at the failing trial step are reported",
                    )
                # float noise beats the decrease test; stop where we are
                t = 0.0
                break
        if t == 0.0:
            break
        # the accepted trial is the next point: finish its gradient
        x, fx, gx = xt, ft, finish()
        gradients += 1
        y = gx + direction  # the gradient's change over the step s = t * direction
        with np.errstate(all="ignore"):
            bb = float(t * (direction @ y) / (y @ y))  # the Barzilai-Borwein step s'y / y'y
        step = min(bb, 2.0 * t) if 0.0 < bb < np.inf else 2.0 * t  # 2t where s'y <= 0 or y = 0
        iterations += 1
        gnorm = float(np.max(np.abs(gx)))
        trace.append((fx, gnorm))
        converged = gnorm <= config.gradient_tolerance
    return FitResult(
        parameters=objective.model.with_params(x),
        final_objective=trace[-1][0],
        gradient_norm=trace[-1][1],
        iterations_used=iterations,
        converged=converged,
        trace=tuple(trace),
        evaluations=evaluations,
        gradients=gradients,
    )


# ---------------------------------------------------------------------------
# public operations


def _build_objective(family, model, samples, features, l2=0.0, weights=None):
    if isinstance(family, tuple):
        # the pair `bind_spec` returns selects nothing: its flag must be the family's
        family, standard_cl = family
        if standard_cl != getattr(family, "standard_cl", None):
            raise InputError(f"pair flag {standard_cl!r} is not the family's standard_cl")
    if not isinstance(family, LocalPotentialFamily):
        raise InputError("expected a potential family (bind ScoreSpecs to a graph first)")
    return _ScoreObjective(family, model, samples, weights=weights, l2=l2, features=features)


def _mle_objective(model, samples, features=None, l2=0.0):
    if isinstance(model, ConditionalModel):
        # -log q(y | x) is the standard CL score of the one block holding
        # every other label
        labels = model.num_labels
        complete = LocalPotentialFamily("cl", label_band_graph(labels, labels - 1),
                                        standard_cl=True)
        return _ScoreObjective(complete, model, samples, l2=l2, features=features)
    return _MleObjective(model, samples, l2=l2)


def empirical_score(family, model, samples, features=None) -> float:
    """Mean score of the samples under the model's unnormalized values;
    conditional models score each label on its own feature row."""
    obj = _build_objective(family, model, samples, features)
    return obj.value(obj.x0)


def fit(family, model_init, samples, config: FitConfig | None = None,
        features=None, gauge_fix_last: bool = False) -> FitResult:
    """Minimize the empirical score over the model's parameters.

    `family` is a LocalPotentialFamily, and its score is the objective: a cl
    family's `standard_cl` picks the plain composite likelihood over mCL.
    Conditional models take labels in `samples`, one row of the feature
    matrix `features` per label, and a family on their label space; every
    row is scored on its own copy of the family's label graph.
    `gauge_fix_last` holds a conditional model's last label row at its
    initial value.
    """
    config = config or FitConfig()
    obj = _build_objective(family, model_init, samples, features, config.l2_penalty)
    if gauge_fix_last:
        if not isinstance(model_init, ConditionalModel):
            raise InputError("gauge fixing applies to conditional models")
        obj.frozen_tail = model_init.feature_dim
    return _minimize(obj, config)


def mle_fit(model_init, samples, config: FitConfig | None = None, features=None) -> FitResult:
    """Minimize the exact negative log-likelihood: over the enumerated space
    for unconditional models, over each feature row's labels (the standard
    CL objective on the complete label graph) for conditional ones."""
    config = config or FitConfig()
    return _minimize(_mle_objective(model_init, samples, features, config.l2_penalty), config)


def population_gradient(family, model, p: Probability) -> np.ndarray:
    """Gradient of the population objective sum_y p_y S(y, f_theta) at the
    model's parameters, over the enumerated space."""
    space = model.space
    space.require_enumerable("population_gradient")
    states = np.arange(space.size, dtype=np.int64)
    obj = _build_objective(family, model, states, None, weights=p.weights)
    _, grad = obj.value_and_grad(obj.x0)
    return grad


def negative_log_loss(model, test_samples, log_z: float | None = None, features=None) -> float:
    """Mean of log Z - log f over test samples; conditional models normalize
    per feature vector exactly."""
    if isinstance(model, ConditionalModel):
        y = model.space.checked_indices(test_samples)
        lmat = _label_logits(model.feature_rows(features, y.size), model.theta)
        lse = _logsumexp(lmat, axis=1)
        return float(np.mean(lse - lmat[np.arange(y.size), y]))
    if log_z is None:
        raise InputError("supply log_z (exact or estimated) for unconditional models")
    idx = model.space.checked_indices(test_samples)
    return float(np.mean(log_z - model.log_f_batch(idx)))


def classify(model: ConditionalModel, x) -> int:
    """Most plausible label; ties resolve to the smallest label."""
    return int(np.argmax(model.log_f_labels(x)))


def classify_batch(model: ConditionalModel, features) -> np.ndarray:
    return np.argmax(_label_logits(model.feature_rows(features), model.theta), axis=1)


def test_error(model: ConditionalModel, features, labels) -> float:
    if np.size(labels) == 0:
        raise InputError("test set must be nonempty")
    labels = model.space.checked_indices(labels)
    features = model.feature_rows(features, labels.size)
    return float(np.mean(classify_batch(model, features) != labels))
