"""Brute-force verification engine for small spaces.

Every check draws randomized inputs from a seeded stream, measures the worst
violation of the property it probes, and returns an `OracleReport` with up to
ten witnesses. A passing coincidence check is evidence, not proof: the graph
diagnostics carry the actual guarantee, so coincidence reports cross-reference
them. Wherever `diagnose` denies the guarantee, a coincidence check also
evaluates the counterexample the graph forces: p against p rescaled on
alternate components of the neighborhood incidences (on radius-1 hypercubes
under pseudo-spherical potentials, the two parity classes).
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
    composite_potential,
    divergence,
    expected_score,
    generic_score,
    named_closed_form_score,
    state_scores,
)

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


def _random_positive(gen, size: int) -> np.ndarray:
    """Positive vectors across a wide dynamic range: exp of uniform[-3,3]."""
    return np.exp(gen.uniform(-3.0, 3.0, size=size))


def _random_probability(gen, size: int) -> Probability:
    return Probability.normalize(_random_positive(gen, size))


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
    checked_count("trials", trials)
    space = family.space
    if space.size > 16:
        raise InputError("properness checks enumerate pairs; need |Y| <= 16")
    gen = rng.generator()
    worst = -math.inf
    witnesses = []
    for _ in range(trials):
        p = _random_probability(gen, space.size)
        q = _random_probability(gen, space.size)
        violation = expected_score(family, p, p.log()) - expected_score(family, p, q.log())
        if violation > worst:
            worst = violation
        if violation > PROPERNESS_TOLERANCE and len(witnesses) < MAX_WITNESSES:
            witnesses.append((tuple(p.weights), tuple(q.weights)))
    return OracleReport.build(
        f"properness[{family.describe()}]", trials, worst, witnesses, PROPERNESS_TOLERANCE
    )


def check_coincidence(
    family: LocalPotentialFamily, trials: int = 1000, rng: RngStream = RngStream(0)
) -> OracleReport:
    """Minimum divergence over clearly separated random pairs, plus every
    registered counterexample; a minimum at numerical zero means the
    divergence cannot tell the two distributions apart."""
    checked_count("trials", trials)
    space = family.space
    if space.size > 16:
        raise InputError("coincidence checks enumerate pairs; need |Y| <= 16")
    gen = rng.generator()
    min_div = math.inf
    witnesses = []
    count = 0
    while count < trials:
        p = _random_probability(gen, space.size)
        q = _random_probability(gen, space.size)
        if np.max(np.abs(p.weights - q.weights)) < 0.01:
            continue
        count += 1
        div = divergence(family, p.log(), q.log())
        if div < min_div:
            min_div = div
        if div <= COINCIDENCE_MINIMUM and len(witnesses) < MAX_WITNESSES:
            witnesses.append((tuple(p.weights), tuple(q.weights)))
    details = []
    for p, q, label in registered_counterexamples(family):
        div = divergence(family, p.log(), q.log())
        count += 1
        if div < min_div:
            min_div = div
        if div <= COINCIDENCE_MINIMUM and len(witnesses) < MAX_WITNESSES:
            witnesses.append((tuple(p.weights), tuple(q.weights)))
        details.append(f"counterexample[{label}]={div:.3g}")
    diag = diagnose(family.graph, family.active_indices(), family.potential_class)
    details.append(f"diagnose_guaranteed={diag.guaranteed}")
    return OracleReport.build(
        f"coincidence[{family.describe()}]",
        count,
        -min_div,
        witnesses,
        -COINCIDENCE_MINIMUM,
        details=" ".join(details) + f" min_divergence={min_div:.6g}",
    )


def check_score_paths(
    family: LocalPotentialFamily, trials: int = 50, rng: RngStream = RngStream(0)
) -> OracleReport:
    """Max pairwise relative discrepancy among the evaluation routes: the
    score kernel (its whole-space vector, compiled once per family), the
    generic gradient path, the closed form (when the kind has one), and a
    central finite difference of the composite potential on the log scale."""
    checked_count("trials", trials)
    space = family.space
    if space.size > 256:
        raise InputError("score path checks enumerate the space; need |Y| <= 256")
    gen = rng.generator()
    worst = 0.0
    witnesses = []
    step = 1e-5
    for _ in range(trials):
        logs = gen.uniform(-3.0, 3.0, size=space.size)
        y = int(gen.integers(0, space.size))
        routes = {
            "kernel": float(state_scores(family, logs)[y]),
            "generic": generic_score(family, y, logs),
        }
        try:
            routes["closed_form"] = named_closed_form_score(family, y, logs)
        except UnsupportedError:
            pass  # custom kinds and active subsets have no closed form
        up = logs.copy()
        up[y] += step
        down = logs.copy()
        down[y] -= step
        delta = composite_potential(family, up) - composite_potential(family, down)
        routes["finite_difference"] = -delta / (2.0 * math.exp(logs[y]) * math.sinh(step))
        vals = list(routes.values())
        scale = max(1.0, max(abs(v) for v in vals))
        spread = (max(vals) - min(vals)) / scale
        if spread > worst:
            worst = spread
        if spread > SCORE_PATH_TOLERANCE and len(witnesses) < MAX_WITNESSES:
            witnesses.append((y, {k: float(v) for k, v in routes.items()}))
    return OracleReport.build(
        f"score_paths[{family.describe()}]", trials, worst, witnesses, SCORE_PATH_TOLERANCE
    )


def check_block_cover_connectivity(
    dim_max: int = 4, trials: int = 200, rng: RngStream = RngStream(0)
) -> OracleReport:
    """Random block systems: derived-graph connectivity over the whole cube
    must hold exactly when the blocks cover every coordinate."""
    checked_count("trials", trials)
    checked_count("dim_max", dim_max, 2)
    if dim_max > 4:
        raise InputError("block systems are enumerated exhaustively; need D <= 4")
    gen = rng.generator()
    worst = 0.0
    witnesses = []
    for _ in range(trials):
        dim = int(gen.integers(2, dim_max + 1))
        m = int(gen.integers(1, dim + 1))
        blocks = []
        for _ in range(m):
            mask = int(gen.integers(1, 2 ** dim))
            blocks.append({i + 1 for i in range(dim) if (mask >> i) & 1})
        system = BlockSystem.of(dim, *blocks)
        if not cl_connectivity_matches_cover(system):
            worst = 1.0
            if len(witnesses) < MAX_WITNESSES:
                witnesses.append((dim, tuple(tuple(sorted(b)) for b in blocks)))
    return OracleReport.build(
        "block_cover_connectivity", trials, worst, witnesses, 0.0
    )


def check_divergence_identity(
    family: LocalPotentialFamily, trials: int = 50, rng: RngStream = RngStream(0)
) -> OracleReport:
    """divergence(f,g), the batched local-Bregman route, must equal
    f . state_scores(g) + potential(f), the score kernel's route; the
    index-swap identity over random arrays must hold to the digit."""
    checked_count("trials", trials)
    space = family.space
    if space.size > 16:
        raise InputError("divergence identity checks need |Y| <= 16")
    gen = rng.generator()
    worst = 0.0
    witnesses = []
    for _ in range(trials):
        flogs = gen.uniform(-3.0, 3.0, size=space.size)
        glogs = gen.uniform(-3.0, 3.0, size=space.size)
        lhs = divergence(family, flogs, glogs)
        rhs = float(np.exp(flogs) @ state_scores(family, glogs)) + composite_potential(family, flogs)
        scale = max(1.0, abs(lhs), abs(rhs))
        spread = abs(lhs - rhs) / scale
        if spread > worst:
            worst = spread
        if spread > DIVERGENCE_IDENTITY_TOLERANCE and len(witnesses) < MAX_WITNESSES:
            witnesses.append((float(lhs), float(rhs)))
        a = gen.normal(size=(space.size, space.size))
        lhs_terms = [a[x, int(z)] for x in range(space.size) for z in family.neighbors(x)]
        rhs_terms = [a[int(z), x] for x in range(space.size) for z in family.neighbors(x)]
        if math.fsum(lhs_terms) != math.fsum(rhs_terms):
            worst = max(worst, 1.0)
            if len(witnesses) < MAX_WITNESSES:
                witnesses.append("index swap mismatch")
    return OracleReport.build(
        f"divergence_identity[{family.describe()}]",
        trials,
        worst,
        witnesses,
        DIVERGENCE_IDENTITY_TOLERANCE,
    )


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
