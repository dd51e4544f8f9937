"""Brute-force verification engine for small spaces.

Every check draws randomized inputs from a seeded stream, measures the worst
violation of the property it probes, and returns an `OracleReport` with up to
ten witnesses. One `_Tally` keeps that bookkeeping for every check: the
trials folded in, the worst violation, the witness cap and the report; a
violation that is not finite fails the check like one above tolerance and is
kept as a witness. A check supplies only its draws, its routes and what a
witness holds. A passing coincidence check is evidence, not proof: the graph
diagnostics carry the actual guarantee, so coincidence reports cross-reference
them. Wherever `diagnose` denies the guarantee, a coincidence check also
evaluates the counterexample the graph forces: p against p rescaled on
alternate components of the neighborhood incidences (on radius-1 hypercubes
under pseudo-spherical potentials, the two parity classes).

A check draws its trials' inputs from its stream in the order a loop running
one trial at a time would draw them, then evaluates the score kernel and the
local-Bregman route once per chunk of trials, over the stacked (trials, |Y|)
logs; a chunk holds `CHUNK_ENTRIES` log values, so memory grows with neither
the trial count nor |Y|. The per-point routes that check the kernel
(`generic_score`, `named_closed_form_score`) still run one trial at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnsupportedError, checked_count
from .graphs import (PSEUDO_SPHERICAL, BlockSystem, _incidence_labels, cl_connectivity_matches_cover,
                     diagnose, hamming_graph, label_band_graph)
from .potentials import (LocalPotentialFamily, Probability, composite_likelihood, density_power,
                         pseudo_likelihood, pseudo_spherical, ratio_matching)
from .sampling import RngStream
from .scoring import (
    _rowdot,
    _stacked_composite_potential,
    _stacked_divergence,
    _stacked_state_scores,
    generic_score,
    named_closed_form_score,
)
from .spaces import CHUNK_ENTRIES

MAX_WITNESSES = 10
PROPERNESS_TOLERANCE = 1e-9
COINCIDENCE_MINIMUM = 1e-8
SCORE_PATH_TOLERANCE = 1e-5
DIVERGENCE_IDENTITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OracleReport:
    check_name: str
    trials: int
    worst_violation: float
    witnesses: tuple
    verdict: str
    tolerance: float
    details: str = ""

    @staticmethod
    def build(check_name, trials, worst, witnesses, tolerance, details=""):
        verdict = "pass" if worst <= tolerance else "fail"
        return OracleReport(
            check_name=check_name,
            trials=trials,
            worst_violation=float(worst),
            witnesses=tuple(witnesses[:MAX_WITNESSES]),
            verdict=verdict,
            tolerance=tolerance,
            details=details,
        )

    def record_line(self, name: str | None = None) -> str:
        line = (
            f"record=check name={name or self.check_name} trials={self.trials} "
            f"worst_violation={self.worst_violation:.6g} tolerance={self.tolerance:.6g} "
            f"verdict={self.verdict}"
        )
        if self.details:
            line += f" {self.details}"
        return line


def _random_probabilities(gen, count: int, size: int) -> np.ndarray:
    """(count, 2, size) weights: `count` (p, q) pairs across a wide dynamic
    range, exp of uniform[-3,3] normalized, drawn as a loop drawing p, then q,
    one pair at a time, would draw them; each row is normalized bit for bit
    as `Probability.normalize` does it."""
    w = np.exp(gen.uniform(-3.0, 3.0, size=(count, 2, size)))
    return w / w.sum(axis=-1, keepdims=True)


def _chunk_trials(space) -> int:
    """The trials in one chunk on `space`: `CHUNK_ENTRIES` log values (256
    trials on 16 points). 256 trials of pl radius 2 on 256 points, stacked
    whole, peaked at 81 MB."""
    return max(1, CHUNK_ENTRIES // space.size)


def _chunks(trials: int, space, limit: int, what: str):
    """The trial counts of successive chunks, `_chunk_trials` until the last,
    once `trials` is a count and |Y| is at most `limit` (both checked now,
    before a check sets up anything for its space)."""
    checked_count("trials", trials)
    if space.size > limit:
        raise InputError(f"{what}; need |Y| <= {limit}")
    step = _chunk_trials(space)
    return (min(step, trials - start) for start in range(0, trials, step))


class _Tally:
    """What a check reports: the trials folded in, the worst violation and
    the first `MAX_WITNESSES` witnesses. A violation that is not finite,
    because a route gave nan or inf, fails like one above tolerance and
    makes the worst inf: a comparison alone would pass a nan."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.trials, self.worst, self.witnesses = 0, -math.inf, []

    def fold(self, violations, witnesses_of) -> None:
        """Fold in a chunk of per-trial violations; `witnesses_of(i)` lists
        the witnesses of the chunk's failing trial i."""
        violations = np.asarray(violations, dtype=np.float64)
        finite = np.isfinite(violations)
        self.trials += len(violations)
        self.worst = max(self.worst, float(violations.max())) if finite.all() else math.inf
        failing = np.flatnonzero(~finite | (violations > self.tolerance))
        for i in failing[: MAX_WITNESSES - len(self.witnesses)]:
            self.witnesses += witnesses_of(i)
        del self.witnesses[MAX_WITNESSES:]

    def report(self, name: str, details: str = "") -> OracleReport:
        return OracleReport.build(name, self.trials, self.worst, self.witnesses, self.tolerance, details)


def _pair_witnesses(pq):
    """`witnesses_of` for (trials, 2, |Y|) weights: trial i's (p, q)."""
    return lambda i: [(tuple(pq[i, 0]), tuple(pq[i, 1]))]


def _relative_spread(vals) -> np.ndarray:
    """max - min over max(1, max |v|), per row of (trials, routes) values."""
    return (vals.max(axis=1) - vals.min(axis=1)) / np.maximum(1.0, np.abs(vals).max(axis=1))


def registered_counterexamples(family: LocalPotentialFamily):
    """The (p, q, label) pair with zero divergence despite p != q that the
    graph forces: none where `diagnose` guarantees coincidence, or where the
    space is beyond enumeration size.

    q is p scaled by e^0.6 on alternate components of the incidence graph of
    the active neighborhoods (b(y) for pseudo-spherical potentials, n(y)
    otherwise). Each local divergence reads f on one neighborhood, inside one
    component, and is unchanged when f is rescaled there; a point that no
    neighborhood reaches is read by no term."""
    space = family.space
    if not space.enumerable:
        return []
    mode = "b" if family.potential_class == PSEUDO_SPHERICAL else "n"
    labels = _incidence_labels(family.graph, family.active_indices(), mode)[: space.size]
    _, component = np.unique(labels, return_inverse=True)
    if not component.any():
        return []
    base = np.exp(np.linspace(-1.0, 1.0, space.size))
    p = Probability.normalize(base)
    q = Probability.normalize(base * np.exp(0.6 * (component % 2)))
    return [(p, q, f"rescaled-{component.max() + 1}-components")]


def check_properness(
    family: LocalPotentialFamily, trials: int = 1000, rng: RngStream = RngStream(0)
) -> OracleReport:
    """Worst value of S(p,p) - S(p,q) over random pairs; positive means the
    truth failed to minimize the expected score."""
    space = family.space
    chunks = _chunks(trials, space, 16, "properness checks enumerate pairs")
    gen, tally = rng.generator(), _Tally(PROPERNESS_TOLERANCE)
    for count in chunks:
        pq = _random_probabilities(gen, count, space.size)
        expected = _rowdot(pq[:, :1], _stacked_state_scores(family, np.log(pq)))
        tally.fold(expected[:, 0] - expected[:, 1], _pair_witnesses(pq))
    return tally.report(f"properness[{family.describe()}]")


def check_coincidence(
    family: LocalPotentialFamily, trials: int = 1000, rng: RngStream = RngStream(0)
) -> OracleReport:
    """Minimum divergence over clearly separated random pairs, plus every
    registered counterexample; a minimum at numerical zero means the
    divergence cannot tell the two distributions apart. A pair closer than
    0.01 in every weight is drawn, rejected and not counted, so rejections,
    not `_chunks`, size the chunks."""
    space = family.space
    _chunks(trials, space, 16, "coincidence checks enumerate pairs")
    gen, tally = rng.generator(), _Tally(-COINCIDENCE_MINIMUM)
    min_div = math.inf

    def fold(pq):
        """The divergences of (pairs, 2, |Y|) weights, folded into the tally."""
        nonlocal min_div
        logs = np.log(pq)
        divs = _stacked_divergence(family, logs[:, 0], logs[:, 1])
        tally.fold(-divs, _pair_witnesses(pq))
        min_div = np.minimum(min_div, divs.min())  # a nan stays
        return divs

    while tally.trials < trials:  # each chunk draws only pairs the loop would draw
        pq = _random_probabilities(gen, min(_chunk_trials(space), trials - tally.trials), space.size)
        pq = pq[np.max(np.abs(pq[:, 0] - pq[:, 1]), axis=-1) >= 0.01]
        if len(pq):
            fold(pq)
    details = [f"counterexample[{label}]={fold(np.stack([p.weights, q.weights])[None])[0]:.3g}"
               for p, q, label in registered_counterexamples(family)]
    diag = diagnose(family.graph, family.active_indices(), family.potential_class)
    details += [f"diagnose_guaranteed={diag.guaranteed}", f"min_divergence={min_div:.6g}"]
    return tally.report(f"coincidence[{family.describe()}]", " ".join(details))


def check_score_paths(
    family: LocalPotentialFamily, trials: int = 50, rng: RngStream = RngStream(0)
) -> OracleReport:
    """Max pairwise relative discrepancy among the evaluation routes: the
    score kernel (its whole-space vector, compiled once per family), the
    generic gradient path, the closed form (when the kind has one), and a
    central finite difference of the composite potential on the log scale.
    The generic route and the closed form run one trial at a time."""
    space = family.space
    chunks = _chunks(trials, space, 256, "score path checks enumerate the space")
    gen, tally = rng.generator(), _Tally(SCORE_PATH_TOLERANCE)
    step = 1e-5
    for count in chunks:
        draws = [(gen.uniform(-3.0, 3.0, size=space.size), int(gen.integers(0, space.size)))
                 for _ in range(count)]
        logs = np.stack([row for row, _ in draws])
        at = np.arange(count), np.array([y for _, y in draws])
        routes = {
            "kernel": _stacked_state_scores(family, logs)[at],
            "generic": [generic_score(family, y, row) for row, y in draws],
        }
        try:
            routes["closed_form"] = [named_closed_form_score(family, y, row) for row, y in draws]
        except UnsupportedError:
            pass  # custom kinds and active subsets have no closed form
        up, down = logs.copy(), logs.copy()
        up[at] += step
        down[at] -= step
        up, down = _stacked_composite_potential(family, np.stack([up, down]))
        # math.exp, as one trial at a time took f_y: numpy's exp may differ in the last bit
        at_y = np.array([math.exp(v) for v in logs[at]])
        routes["finite_difference"] = -(up - down) / (2.0 * at_y * math.sinh(step))
        vals = np.column_stack(list(routes.values()))
        tally.fold(_relative_spread(vals),
                   lambda i: [(int(at[1][i]), dict(zip(routes, map(float, vals[i]))))])
    return tally.report(f"score_paths[{family.describe()}]")


def check_block_cover_connectivity(
    dim_max: int = 4, trials: int = 200, rng: RngStream = RngStream(0)
) -> OracleReport:
    """Random block systems: derived-graph connectivity over the whole cube
    must hold exactly when the blocks cover every coordinate."""
    checked_count("trials", trials)
    checked_count("dim_max", dim_max, 2)
    if dim_max > 4:
        raise InputError("block systems are enumerated exhaustively; need D <= 4")
    gen, tally = rng.generator(), _Tally(0.0)
    for _ in range(trials):
        dim = int(gen.integers(2, dim_max + 1))
        masks = [int(gen.integers(1, 2 ** dim)) for _ in range(int(gen.integers(1, dim + 1)))]
        blocks = [{i + 1 for i in range(dim) if (mask >> i) & 1} for mask in masks]
        matches = cl_connectivity_matches_cover(BlockSystem.of(dim, *blocks))
        tally.fold([0.0 if matches else 1.0], lambda i: [(dim, tuple(tuple(sorted(b)) for b in blocks))])
    return tally.report("block_cover_connectivity")


def check_divergence_identity(
    family: LocalPotentialFamily, trials: int = 50, rng: RngStream = RngStream(0)
) -> OracleReport:
    """divergence(f,g), the batched local-Bregman route, must equal
    f . state_scores(g) + potential(f), the score kernel's route; the
    index-swap identity over random arrays must hold to the digit."""
    space = family.space
    chunks = _chunks(trials, space, 16, "divergence identity checks enumerate pairs")
    gen, tally = rng.generator(), _Tally(DIVERGENCE_IDENTITY_TOLERANCE)
    # the (x, z) entries of every z in b(x): summing a over them and over
    # their swaps must agree exactly (fsum rounds once, in any order)
    rows = np.concatenate([np.full(len(family.neighbors(x)), x) for x in range(space.size)])
    cols = np.concatenate([family.neighbors(x) for x in range(space.size)]).astype(np.int64)
    for count in chunks:
        draws = [(gen.uniform(-3.0, 3.0, size=space.size), gen.uniform(-3.0, 3.0, size=space.size),
                  gen.normal(size=(space.size, space.size))) for _ in range(count)]
        flogs, glogs = (np.stack([d[k] for d in draws]) for k in (0, 1))
        swapped = np.array([math.fsum(a[rows, cols]) != math.fsum(a[cols, rows])
                            for _, _, a in draws])
        lhs = _stacked_divergence(family, flogs, glogs)
        rhs = _rowdot(np.exp(flogs), _stacked_state_scores(family, glogs))
        rhs += _stacked_composite_potential(family, flogs)
        spread = _relative_spread(np.column_stack([lhs, rhs]))

        def witnesses_of(i):  # the two routes if they disagree, a note if the swap did
            apart = not spread[i] <= DIVERGENCE_IDENTITY_TOLERANCE
            return [(float(lhs[i]), float(rhs[i]))] * apart + ["index swap mismatch"] * bool(swapped[i])
        tally.fold(np.where(swapped, np.maximum(spread, 1.0), spread), witnesses_of)
    return tally.report(f"divergence_identity[{family.describe()}]")


# ---------------------------------------------------------------------------
# the named suite behind the `check` command


def standard_check_registry():
    """Named check builders: name -> callable(trials, rng) -> OracleReport.

    A name is the check's name without `check_`, then its family's key. A
    `trials` of 0 or None runs the check's own default count. The names
    marked in `DEMONSTRATION_CHECKS` reproduce known failures (the radius-1
    pseudo-spherical coincidence gap) and are excluded from the default run."""
    families = {
        "pl": lambda: pseudo_likelihood(hamming_graph(3, 1)),
        "rm": lambda: ratio_matching(hamming_graph(3, 1)),
        "dp": lambda: density_power(hamming_graph(3, 1), 1.0),
        "ps": lambda: pseudo_spherical(hamming_graph(3, 1), 1.0),
        "cl": lambda: composite_likelihood(BlockSystem.of(3, {1}, {2}, {3})),
        "mcl": lambda: composite_likelihood(label_band_graph(6, 2)),
        "ps_radius2": lambda: pseudo_spherical(hamming_graph(2, 2), 1.0),
        "ps_radius1": lambda: pseudo_spherical(hamming_graph(2, 1), 1.0),
    }
    table = {
        check_properness: "pl rm dp ps cl mcl",
        check_coincidence: "pl rm ps_radius2 ps_radius1",
        check_score_paths: "pl rm dp ps mcl",
        check_divergence_identity: "pl ps cl",
    }

    def bound(check, build=None):
        def run(trials, rng):
            family = () if build is None else (build(),)
            return check(*family, rng=rng, **({"trials": trials} if trials else {}))
        return run

    registry = {
        f"{check.__name__.removeprefix('check_')}_{key}": bound(check, families[key])
        for check, keys in table.items()
        for key in keys.split()
    }
    registry["block_cover_connectivity"] = bound(check_block_cover_connectivity)
    return registry


DEMONSTRATION_CHECKS = frozenset({"coincidence_ps_radius1"})
