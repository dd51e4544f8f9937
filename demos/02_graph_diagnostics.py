"""When is a local score strictly proper? Ask the graph.

Strict properness of a composite local score reduces to two graph-side
facts: the active neighborhoods must cover the space, and a derived
intersection graph must be connected. `diagnose` packages the decision;
this demo shows it agreeing with brute-force divergence checks, plus the
block-system tooling for composite likelihoods.

Run:  python3 demos/02_graph_diagnostics.py
"""

import numpy as np

import localscores as ls

# ---------------------------------------------------------------------------
# Derived graphs. For strictly convex local potentials the relevant derived
# graph joins points whose closed neighborhoods n(y) intersect; for the
# pseudo-spherical family it is the open neighborhoods b(y), which is a
# strictly harder requirement.

for radius in (1, 2):
    g = ls.hamming_graph(2, radius)
    db = ls.derived_graph_b(g, range(4))
    comps = ls.components(db)
    print(f"radius {radius}: b-intersection graph components = {comps}")

# On the radius-1 cube the two components are exactly the even/odd parity
# classes, which is why the pseudo-spherical score has its blind spot there.

# ---------------------------------------------------------------------------
# The verdicts.

for radius, klass in [(1, "strictly-convex"), (1, "pseudo-spherical"), (2, "pseudo-spherical")]:
    g = ls.hamming_graph(2, radius)
    diag = ls.diagnose(g, range(4), klass)
    print(
        f"radius {radius}, {klass:17s}: guaranteed={diag.guaranteed} "
        f"(covers_n={diag.covers_n}, covers_b={diag.covers_b}, "
        f"G0'={diag.component_count_g0prime} component(s))"
    )

# ---------------------------------------------------------------------------
# The oracle cross-checks the verdicts by brute force. A coincidence check
# samples well-separated pairs and reports the smallest divergence seen.
# Where the verdict is "not guaranteed" it also evaluates the witness the
# graph forces: p against p rescaled on alternate components (here the two
# parity classes), which every local divergence reads as the same.

for radius in (1, 2):
    fam = ls.pseudo_spherical(ls.hamming_graph(2, radius), 1.0)
    report = ls.check_coincidence(fam, trials=300, rng=ls.RngStream(0))
    print(f"coincidence check, radius {radius}: verdict={report.verdict}  [{report.details}]")

# ---------------------------------------------------------------------------
# Composite likelihood block systems. Blocks are sets of coordinates that
# may flip together; the union graph is connected exactly when the blocks
# cover every coordinate.

for blocks in ({1}, {2}, {3}), ({1}, {2}):
    system = ls.BlockSystem.of(3, *blocks)
    graph, _ = ls.cl_neighborhood(system)
    print(
        f"blocks {system.spec_string():10s} cover={system.covers_all_coordinates()} "
        f"connected={ls.is_connected(graph)} "
        f"matches={ls.cl_connectivity_matches_cover(system)}"
    )

# Strict convexity of the block-conditional local potential is a separate,
# exact linear-algebra question: the block membership matrix needs full row
# rank. Note the second system below covers all coordinates yet fails the
# rank test, and the first is the reverse; the two conditions are genuinely
# independent.

print("rank condition {1},{2} on D=3:   ", ls.rank_condition(ls.BlockSystem.of(3, {1}, {2})))
print("rank condition {1},{2,3} on D=3: ", ls.rank_condition(ls.BlockSystem.of(3, {1}, {2, 3})))

# ---------------------------------------------------------------------------
# Restricted active sets. Scoring only the even-parity half of the 3-cube
# still separates distributions: the even points' neighborhoods cover the
# whole cube and their intersection graph stays connected.

even = [i for i in range(8) if bin(i).count("1") % 2 == 0]
g3 = ls.hamming_graph(3, 1)
diag = ls.diagnose(g3, even, "strictly-convex")
print("even-parity active set on the 3-cube: guaranteed =", diag.guaranteed)

fam = ls.pseudo_likelihood(g3, active=even)
rng = np.random.default_rng(1)
p = ls.Probability.normalize(np.exp(rng.uniform(-2, 2, 8)))
q = ls.Probability.normalize(np.exp(rng.uniform(-2, 2, 8)))
print("divergence on a random separated pair:", ls.divergence(fam, p.log(), q.log()))
