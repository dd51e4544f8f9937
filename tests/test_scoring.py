import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from localscores import (
    BlockSystem,
    BoltzmannModel,
    HypercubeNeighborhood,
    InputError,
    InternalConsistencyError,
    Probability,
    SampleSpace,
    UnnormalizedVector,
    UnsupportedError,
    additive_score_term,
    cl_score,
    composite_likelihood,
    composite_potential,
    custom_additive,
    density_power,
    divergence,
    expected_score,
    generic_score,
    graph_from_edges,
    hamming_graph,
    label_band_graph,
    named_closed_form_score,
    pseudo_likelihood,
    pseudo_spherical,
    rank_condition,
    ratio_matching,
    score,
    score_and_logf_gradient,
    standard_cl_score,
)

RNG = np.random.default_rng(20260809)


def random_logs(size, rng=RNG, span=3.0):
    return rng.uniform(-span, span, size=size)


def all_families_on_cube3():
    g1 = hamming_graph(3, 1)
    g2 = hamming_graph(3, 2)
    return {
        "pl": pseudo_likelihood(g1),
        "rm": ratio_matching(g1),
        "dp": density_power(g1, 1.0),
        "ps": pseudo_spherical(g2, 1.0),
        "cl": composite_likelihood(BlockSystem.of(3, {1}, {2, 3})),
        "custom": custom_additive(
            g1, phi=lambda t: t * math.log(t) - t, dphi=math.log, d2phi=lambda t: 1.0 / t
        ),
    }


class TestCompositePotential:
    def test_pl_two_point_space(self):
        space = SampleSpace.hypercube(1)
        g = graph_from_edges(space, [(0, 1)])
        fam = pseudo_likelihood(g)
        value = composite_potential(fam, UnnormalizedVector.from_values([1.0, 1.0]))
        assert value == pytest.approx(-2 * math.log(2))

    def test_dp_two_point_expansion(self):
        space = SampleSpace.hypercube(1)
        g = graph_from_edges(space, [(0, 1)])
        fam = density_power(g, 1.0)
        value = composite_potential(fam, UnnormalizedVector.from_values([1.0, 2.0]))
        assert value == pytest.approx(1 * (2 / 1) ** 2 / 2 + 2 * (1 / 2) ** 2 / 2)

    def test_one_homogeneous(self):
        for name, fam in all_families_on_cube3().items():
            logs = random_logs(8)
            base = composite_potential(fam, UnnormalizedVector.from_logs(logs))
            scaled = composite_potential(
                fam, UnnormalizedVector.from_logs(logs + math.log(7.0))
            )
            assert scaled == pytest.approx(7.0 * base, rel=1e-9), name

    def test_brute_force_definition(self):
        # independent oracle: assemble phi(f) from raw local potential calls
        from localscores import local_potential

        for name, fam in all_families_on_cube3().items():
            logs = random_logs(8)
            f = np.exp(logs)
            expected = sum(
                f[y] * local_potential(fam, y, f[fam.neighbors(y)] / f[y])
                for y in range(8)
            )
            got = composite_potential(fam, UnnormalizedVector.from_logs(logs))
            assert got == pytest.approx(expected, rel=1e-12), name


class TestScoreValues:
    def test_pl_uniform(self):
        fam = pseudo_likelihood(hamming_graph(2, 1))
        assert score(fam, 0, np.zeros(4)) == pytest.approx(2 * math.log(2))

    def test_rm_uniform(self):
        fam = ratio_matching(hamming_graph(2, 1))
        assert score(fam, 0, np.zeros(4)) == pytest.approx(0.5)

    def test_scale_invariance(self):
        lam_set = (1e-3, 0.5, 2.0, 1e3)
        for name, fam in all_families_on_cube3().items():
            logs = random_logs(8)
            for y in range(8):
                base = score(fam, y, logs)
                for lam in lam_set:
                    shifted = score(fam, y, logs + math.log(lam))
                    assert abs(shifted - base) <= 1e-9 * (1 + abs(base)), (name, y, lam)

    def test_callable_log_f(self):
        fam = pseudo_likelihood(hamming_graph(2, 1))
        logs = random_logs(4)
        assert score(fam, 1, lambda i: logs[i]) == pytest.approx(score(fam, 1, logs))

    def test_query_failure_is_input_error(self):
        fam = pseudo_likelihood(hamming_graph(2, 1))
        table = {0: 0.0, 1: 0.0}  # missing neighbors

        with pytest.raises(InputError):
            score(fam, 0, lambda i: table[i])

    def test_additive_routes_quiet_at_extreme_ratios(self):
        # log ratios beyond about +-709 overflow a sigmoid's exp on the way
        # to its exact limit; neither route may warn, and both stay right
        g = hamming_graph(2, 1)
        logs = np.array([0.0, 800.0, -800.0, 0.0])
        refs = {"pl": lambda d: np.logaddexp(0.0, d), "rm": lambda d: expit(d) ** 2}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fam in (pseudo_likelihood(g), ratio_matching(g)):
                for y in range(4):
                    d = logs[fam.neighbors(y)] - logs[y]
                    expected = float(np.sum(refs[fam.kind](d)))
                    assert score(fam, y, logs) == pytest.approx(expected, rel=1e-15)
                    value, _, grad = score_and_logf_gradient(fam, y, logs)
                    assert value == pytest.approx(expected, rel=1e-15)
                    assert np.all(np.isfinite(grad)) and grad.sum() == pytest.approx(0.0)


class TestScorePathsAgree:
    def test_three_paths(self):
        h = 1e-5
        for name, fam in all_families_on_cube3().items():
            for trial in range(20):
                logs = random_logs(8)
                y = int(RNG.integers(8))
                routes = [score(fam, y, logs), generic_score(fam, y, logs)]
                if name != "custom":
                    routes.append(named_closed_form_score(fam, y, logs))
                up = logs.copy(); up[y] += h
                dn = logs.copy(); dn[y] -= h
                delta = composite_potential(
                    fam, UnnormalizedVector.from_logs(up)
                ) - composite_potential(fam, UnnormalizedVector.from_logs(dn))
                routes.append(-delta / (2 * math.exp(logs[y]) * math.sinh(h)))
                scale = max(1.0, max(abs(v) for v in routes))
                assert (max(routes) - min(routes)) / scale < 1e-5, (name, routes)

    def test_closed_form_tight_agreement(self):
        # the analytic routes agree far tighter than the finite difference
        for name, fam in all_families_on_cube3().items():
            if name == "custom":
                continue
            for _ in range(50):
                logs = random_logs(8)
                y = int(RNG.integers(8))
                a = score(fam, y, logs)
                b = named_closed_form_score(fam, y, logs)
                assert abs(a - b) <= 1e-10 * (1 + abs(a)), (name, a, b)

    def test_ps_routes_exact_at_strong_couplings(self):
        # ps potentials are 1-homogeneous, so y's own term is zero; formed
        # from terms of size f_b(y) / f_y it once swamped the score
        rng = np.random.default_rng(4)
        h = 1e-6
        for radius in (1, 2):
            fam = pseudo_spherical(HypercubeNeighborhood(4, radius), 0.5)
            for _ in range(10):
                model = BoltzmannModel(dim=4, upper=rng.normal(size=6) * 4.0)
                logs = model.log_f_batch(np.arange(16))
                for y in range(16):
                    exact = named_closed_form_score(fam, y, logs)
                    value, idx, grad = score_and_logf_gradient(fam, y, logs)
                    assert score(fam, y, logs) == pytest.approx(exact, rel=1e-12)
                    assert value == pytest.approx(exact, rel=1e-12)
                    for pos, i in enumerate(idx):
                        up = logs.copy(); up[i] += h
                        dn = logs.copy(); dn[i] -= h
                        fd = (named_closed_form_score(fam, y, up)
                              - named_closed_form_score(fam, y, dn)) / (2 * h)
                        assert abs(grad[pos] - fd) <= 1e-7 * abs(exact), (y, i)

    def test_custom_has_no_closed_form(self):
        fam = all_families_on_cube3()["custom"]
        with pytest.raises(UnsupportedError):
            named_closed_form_score(fam, 0, np.zeros(8))


class TestPsiIdentities:
    def test_symbolic(self):
        sympy = pytest.importorskip("sympy")
        r, g = sympy.symbols("r gamma", positive=True)
        cases = {
            # phi -> expected psi
            -sympy.log(1 + r): sympy.log(1 + r),
            -r / (2 * (1 + r)): 1 / (1 + 1 / r) ** 2,
            r ** (1 + g) / (1 + g): g / (1 + g) * r ** (1 + g) - r ** (-g),
        }
        for phi, expected in cases.items():
            dphi = sympy.diff(phi, r)
            psi = r * dphi - phi - dphi.subs(r, 1 / r)
            assert sympy.simplify(psi - expected) == 0

    def test_numeric_matches_library(self):
        g1 = hamming_graph(2, 1)
        gamma = 1.6
        closed = {
            "pl": lambda t: math.log(1 + t),
            "rm": lambda t: 1 / (1 + 1 / t) ** 2,
            "dp": lambda t: gamma / (1 + gamma) * t ** (1 + gamma) - t ** (-gamma),
        }
        fams = {
            "pl": pseudo_likelihood(g1),
            "rm": ratio_matching(g1),
            "dp": density_power(g1, gamma),
        }
        for name, fam in fams.items():
            psi = additive_score_term(fam)
            for t in (0.1, 0.7, 1.0, 3.3, 12.0):
                assert float(psi(t)) == pytest.approx(closed[name](t), rel=1e-12)


class TestCompositeLikelihoodScores:
    def test_singleton_blocks_equal_pl(self):
        system = BlockSystem.singletons(3)
        fam_cl = composite_likelihood(system)
        fam_pl = pseudo_likelihood(hamming_graph(3, 1))
        for _ in range(20):
            logs = random_logs(8)
            for y in range(8):
                assert cl_score(system, y, logs) == pytest.approx(
                    score(fam_pl, y, logs), rel=1e-12
                )
                assert score(fam_cl, y, logs) == pytest.approx(
                    score(fam_pl, y, logs), rel=1e-12
                )

    def test_uniform_full_block(self):
        system = BlockSystem.of(2, {1, 2})
        assert cl_score(system, 0, np.zeros(4)) == pytest.approx(math.log(4))

    def test_cl_equals_mcl_on_hypercube(self):
        # equivalence-function neighborhoods collapse the correction terms
        for system in (
            BlockSystem.singletons(3),
            BlockSystem.of(3, {1}, {2, 3}),
            BlockSystem.of(3, {1, 2}, {2, 3}),
        ):
            fam = composite_likelihood(system)
            for _ in range(30):
                q = Probability.normalize(np.exp(random_logs(8)))
                y = int(RNG.integers(8))
                assert cl_score(system, y, q.log()) == pytest.approx(
                    score(fam, y, q.log()), abs=1e-10
                )

    def test_cl_differs_from_mcl_on_labels(self):
        fam = composite_likelihood(label_band_graph(6, 2))
        logs = random_logs(6)
        gaps = [
            abs(standard_cl_score(fam, y, logs) - score(fam, y, logs)) for y in range(6)
        ]
        assert max(gaps) > 1e-3

    def test_standard_cl_requires_cl_family(self):
        with pytest.raises(InputError):
            standard_cl_score(pseudo_likelihood(hamming_graph(2, 1)), 0, np.zeros(4))


class TestDivergence:
    def test_zero_on_diagonal(self):
        for name, fam in all_families_on_cube3().items():
            logs = random_logs(8)
            assert divergence(fam, logs, logs) == 0.0, name

    def test_nonnegative_on_random_pairs(self):
        for name, fam in all_families_on_cube3().items():
            for _ in range(50):
                f, g = random_logs(8), random_logs(8)
                assert divergence(fam, f, g) >= 0.0, name

    def test_pl_closed_form(self):
        # independent oracle: the conditional-pair KL expansion
        graph = hamming_graph(3, 1)
        fam = pseudo_likelihood(graph)
        for _ in range(20):
            p = Probability.normalize(np.exp(random_logs(8)))
            q = Probability.normalize(np.exp(random_logs(8)))
            expected = 0.0
            for y in range(8):
                for z in graph.neighbors(y):
                    for a in (y, int(z)):
                        pc = p.weights[a] / (p.weights[y] + p.weights[z])
                        qc = q.weights[a] / (q.weights[y] + q.weights[z])
                        expected += p.weights[y] * pc * math.log(pc / qc)
            assert divergence(fam, p.log(), q.log()) == pytest.approx(expected, rel=1e-9)

    def test_rm_closed_form(self):
        # per-edge identity for phi(t) = -t/(2(1+t)):
        # D_phi(u,v) = (u-v)^2 / (2 (1+u) (1+v)^2)
        graph = hamming_graph(3, 1)
        fam = ratio_matching(graph)
        for _ in range(20):
            p = Probability.normalize(np.exp(random_logs(8)))
            q = Probability.normalize(np.exp(random_logs(8)))
            expected = 0.0
            for y in range(8):
                for z in graph.neighbors(y):
                    pz, py = p.weights[int(z)], p.weights[y]
                    qz, qy = q.weights[int(z)], q.weights[y]
                    expected += 0.5 * (py + pz) * (pz / (py + pz) - qz / (qy + qz)) ** 2
            assert divergence(fam, p.log(), q.log()) == pytest.approx(expected, rel=1e-9)

    def test_rm_edge_divergence_identity_symbolic(self):
        sympy = pytest.importorskip("sympy")
        u, v = sympy.symbols("u v", positive=True)
        phi = -u / (2 * (1 + u))
        dphi = sympy.diff(phi, u)
        bregman = phi - phi.subs(u, v) - dphi.subs(u, v) * (u - v)
        closed = (u - v) ** 2 / (2 * (1 + u) * (1 + v) ** 2)
        assert sympy.simplify(bregman - closed) == 0

    def test_dp_closed_form(self):
        gamma = 1.0
        graph = hamming_graph(3, 1)
        fam = density_power(graph, gamma)
        for _ in range(20):
            f = np.exp(random_logs(8))
            g = np.exp(random_logs(8))
            expected = 0.0
            for y in range(8):
                for z in graph.neighbors(y):
                    rf, rg = f[int(z)] / f[y], g[int(z)] / g[y]
                    expected += f[y] * (
                        rf ** (1 + gamma) / (1 + gamma)
                        + gamma / (1 + gamma) * rg ** (1 + gamma)
                        - rg ** gamma * rf
                    )
            assert divergence(fam, np.log(f), np.log(g)) == pytest.approx(expected, rel=1e-9)

    def test_ps_closed_form(self):
        gamma = 1.0
        graph = hamming_graph(2, 2)
        fam = pseudo_spherical(graph, gamma)
        for _ in range(20):
            f = np.exp(random_logs(4))
            g = np.exp(random_logs(4))
            expected = 0.0
            for y in range(4):
                for z in graph.neighbors(y):
                    fn = np.linalg.norm(f[graph.neighbors(int(z))] / f[y], ord=1 + gamma)
                    gn = np.linalg.norm(g[graph.neighbors(int(z))] / g[y], ord=1 + gamma)
                    expected += f[y] * (fn ** -gamma - gn ** -gamma)
            assert divergence(fam, np.log(f), np.log(g)) == pytest.approx(expected, rel=1e-9)

    def test_bilinear_identity(self):
        for name, fam in all_families_on_cube3().items():
            for _ in range(10):
                flogs, glogs = random_logs(8), random_logs(8)
                lhs = divergence(fam, flogs, glogs)
                f = np.exp(flogs)
                rhs = sum(f[y] * score(fam, y, glogs) for y in range(8))
                rhs += composite_potential(fam, UnnormalizedVector.from_logs(flogs))
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12), name

    def test_index_swap_identity_exact(self):
        import itertools

        rng = np.random.default_rng(17)
        for trial in range(30):
            if trial % 2 == 0:
                g = hamming_graph(3, int(rng.integers(1, 4)))
                size = 8
            else:
                size = int(rng.integers(4, 10))
                space = SampleSpace.enumerated([f"p{i}" for i in range(size)])
                edges = [
                    e for e in itertools.combinations(range(size), 2) if rng.random() < 0.4
                ]
                g = graph_from_edges(space, edges)
            a = rng.normal(size=(size, size))
            lhs = [a[x, int(z)] for x in range(size) for z in g.neighbors(x)]
            rhs = [a[int(z), x] for x in range(size) for z in g.neighbors(x)]
            assert math.fsum(lhs) == math.fsum(rhs)

    def test_broken_gradient_raises_consistency_error(self):
        # a deliberately wrong derivative makes the "divergence" go negative
        g = hamming_graph(2, 1)
        fam = custom_additive(
            g,
            phi=lambda t: (t - 1.0) ** 2,
            dphi=lambda t: -2.0 * (t - 1.0),  # wrong sign
            d2phi=lambda t: 2.0,
        )
        rng = np.random.default_rng(3)
        with pytest.raises(InternalConsistencyError):
            for _ in range(50):
                divergence(fam, rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4))

    def test_counterexample_pair(self):
        fam1 = pseudo_spherical(hamming_graph(2, 1), 1.0)
        fam2 = pseudo_spherical(hamming_graph(2, 2), 1.0)
        p = Probability(weights=np.array([0.1, 0.4, 0.4, 0.1]))
        q = Probability(weights=np.array([0.2, 0.3, 0.3, 0.2]))
        assert divergence(fam1, p.log(), q.log()) <= 1e-12
        assert divergence(fam2, p.log(), q.log()) > 1e-6


class TestExpectedScore:
    def test_uniform_pl(self):
        fam = pseudo_likelihood(hamming_graph(2, 1))
        p = Probability.uniform(4)
        assert expected_score(fam, p, np.zeros(4)) == pytest.approx(2 * math.log(2))

    def test_self_score_is_negative_potential(self):
        for name, fam in all_families_on_cube3().items():
            p = Probability.normalize(np.exp(random_logs(8)))
            lhs = expected_score(fam, p, p.log())
            rhs = -composite_potential(fam, p.log())
            assert lhs == pytest.approx(rhs, rel=1e-9), name

    def test_properness_gap_equals_divergence(self):
        for name, fam in all_families_on_cube3().items():
            p = Probability.normalize(np.exp(random_logs(8)))
            q = Probability.normalize(np.exp(random_logs(8)))
            gap = expected_score(fam, p, q.log()) - expected_score(fam, p, p.log())
            assert gap == pytest.approx(divergence(fam, p.log(), q.log()), rel=1e-9, abs=1e-11)
            assert gap >= -1e-9, name


class TestActiveSubsets:
    def test_even_parity_pl_still_separates(self):
        # strictly convex potentials on the even-parity active set keep the
        # coincidence property on the 3-cube
        from localscores import diagnose

        even = [i for i in range(8) if bin(i).count("1") % 2 == 0]
        g = hamming_graph(3, 1)
        fam = pseudo_likelihood(g, active=even)
        diag = diagnose(g, even, "strictly-convex")
        assert diag.guaranteed
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = Probability.normalize(np.exp(rng.uniform(-3, 3, 8)))
            q = Probability.normalize(np.exp(rng.uniform(-3, 3, 8)))
            if np.max(np.abs(p.weights - q.weights)) < 0.01:
                continue
            assert divergence(fam, p.log(), q.log()) > 1e-8

    def test_indicator_score_matches_potential_derivative(self):
        even = [i for i in range(8) if bin(i).count("1") % 2 == 0]
        for fam in (
            pseudo_likelihood(hamming_graph(3, 1), active=even),
            pseudo_spherical(hamming_graph(3, 2), 1.0, active=even),
        ):
            h = 1e-5
            for _ in range(20):
                logs = random_logs(8)
                y = int(RNG.integers(8))
                up = logs.copy(); up[y] += h
                dn = logs.copy(); dn[y] -= h
                delta = composite_potential(
                    fam, UnnormalizedVector.from_logs(up)
                ) - composite_potential(fam, UnnormalizedVector.from_logs(dn))
                fd = -delta / (2 * math.exp(logs[y]) * math.sinh(h))
                assert score(fam, y, logs) == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_closed_forms_reject_active_subsets(self):
        fam = pseudo_likelihood(hamming_graph(2, 1), active=[0, 3])
        with pytest.raises(UnsupportedError):
            named_closed_form_score(fam, 0, np.zeros(4))


class TestImplicitLocality:
    def test_additive_score_touches_only_neighborhood(self):
        fam = pseudo_likelihood(HypercubeNeighborhood(32, 1))
        queried = set()

        def log_f(i):
            queried.add(i)
            return 0.01 * (int(i) % 97)

        y = 123456789
        score(fam, y, log_f)
        assert len(queried) == 33  # y plus its 32 neighbors

    def test_non_additive_score_touches_second_ring(self):
        fam = pseudo_spherical(HypercubeNeighborhood(32, 1), 1.0)
        queried = set()

        def log_f(i):
            queried.add(i)
            return 0.01 * (int(i) % 89)

        score(fam, 1 << 31, log_f)
        # n(y) plus each neighbor's neighborhood, deduplicated
        assert len(queried) <= 1 + 32 + 32 * 32

    def test_matches_materialized_at_small_dim(self):
        imp = pseudo_spherical(HypercubeNeighborhood(4, 1), 1.0)
        mat = pseudo_spherical(hamming_graph(4, 1), 1.0)
        logs = random_logs(16)
        for y in range(16):
            assert score(imp, y, logs) == pytest.approx(score(mat, y, logs), rel=1e-12)

    def test_divergence_refuses_huge_spaces(self):
        fam = pseudo_likelihood(HypercubeNeighborhood(32, 1))
        with pytest.raises(UnsupportedError):
            divergence(fam, np.zeros(4), np.zeros(4))


class TestRankCondition:
    def test_two_singletons_pass(self):
        assert rank_condition(BlockSystem.of(3, {1}, {2}))

    def test_mixed_blocks_fail(self):
        assert not rank_condition(BlockSystem.of(3, {1}, {2, 3}))

    def test_d2_singletons(self):
        assert rank_condition(BlockSystem.of(2, {1}, {2}))

    def test_point_independence(self):
        for system in (
            BlockSystem.of(3, {1}, {2, 3}),
            BlockSystem.singletons(4),
            BlockSystem.of(4, {1, 2}, {3, 4}),
        ):
            answers = {rank_condition(system, y) for y in range(2 ** system.dim)}
            assert len(answers) == 1

    def test_spanning_blocks_pass(self):
        # b(y) = {flip1, flip2, flip12}; columns e1, e2, (1,1,1) span R^3
        assert rank_condition(BlockSystem.of(2, {1}, {2}, {1, 2}))

    def test_block_count_below_neighborhood_size_fails(self):
        # a |b(y)| x m matrix cannot reach full row rank when m < |b(y)|
        assert not rank_condition(BlockSystem.of(4, {1}, {3}, {1, 2}, {3, 4}))


class TestScoreGradients:
    def test_gradient_sums_to_zero(self):
        for name, fam in all_families_on_cube3().items():
            logs = random_logs(8)
            for y in range(8):
                _, idx, grad = score_and_logf_gradient(fam, y, logs)
                assert abs(grad.sum()) < 1e-10, name

    def test_gradient_matches_finite_differences(self):
        h = 1e-6
        for name, fam in all_families_on_cube3().items():
            for _ in range(10):
                logs = random_logs(8, span=2.0)
                y = int(RNG.integers(8))
                value, idx, grad = score_and_logf_gradient(fam, y, logs)
                assert value == pytest.approx(score(fam, y, logs), rel=1e-10)
                for pos, i in enumerate(idx):
                    up = logs.copy(); up[i] += h
                    dn = logs.copy(); dn[i] -= h
                    fd = (score(fam, y, up) - score(fam, y, dn)) / (2 * h)
                    assert grad[pos] == pytest.approx(fd, rel=2e-5, abs=1e-7), (name, i)
