import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from localscores import (
    BlockNeighborhood,
    BlockSystem,
    BoltzmannModel,
    HypercubeNeighborhood,
    InputError,
    InternalConsistencyError,
    LocalPotentialFamily,
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
    local_potential,
    local_potential_gradient,
    named_closed_form_score,
    pseudo_likelihood,
    pseudo_spherical,
    rank_condition,
    ratio_matching,
    score,
    empirical_score,
    score_and_logf_gradient,
    standard_cl_score,
    state_scores,
    TabularModel,
)
from test_estimation import objective_cases

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


CUBE3 = HypercubeNeighborhood(3, 1)
POINT_ROUTES = {  # route(y, log_f) for every per-point scoring route
    "score": lambda y, lf: score(pseudo_likelihood(CUBE3), y, lf),
    "score_and_logf_gradient": lambda y, lf: score_and_logf_gradient(pseudo_likelihood(CUBE3), y, lf),
    "generic_score": lambda y, lf: generic_score(pseudo_likelihood(CUBE3), y, lf),
    "named_closed_form_score": lambda y, lf: named_closed_form_score(pseudo_likelihood(CUBE3), y, lf),
    "standard_cl_score": lambda y, lf: standard_cl_score(composite_likelihood(CUBE3), y, lf),
    "cl_score": lambda y, lf: cl_score(BlockSystem.singletons(3), y, lf),
}
ALL_ROUTES = {  # the whole-space routes ignore y
    **POINT_ROUTES,
    "state_scores": lambda y, lf: state_scores(pseudo_likelihood(CUBE3), lf),
    "expected_score": lambda y, lf: expected_score(pseudo_likelihood(CUBE3), Probability.uniform(8), lf),
    "composite_potential": lambda y, lf: composite_potential(pseudo_likelihood(CUBE3), lf),
    "divergence": lambda y, lf: divergence(pseudo_likelihood(CUBE3), lf, lf),
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

    @pytest.mark.parametrize("y", [-1, 8, 2.5])
    @pytest.mark.parametrize("route", list(POINT_ROUTES))
    def test_points_outside_the_space_rejected(self, route, y):
        # -1 read wrapped neighbor indices, 2.5 was truncated to 2, and 8
        # raised a raw IndexError
        with pytest.raises(InputError, match="point index outside the space|points must be integers"):
            POINT_ROUTES[route](y, np.linspace(-1.0, 1.0, 8))

    @pytest.mark.parametrize("log_f", [
        np.zeros(5), np.zeros(9), np.array([0.0] * 7 + [np.nan]), np.array([np.inf] + [0.0] * 7),
        {}.__getitem__, lambda i: math.nan,
    ], ids=["short", "long", "nan", "inf", "callable_key_error", "callable_nan"])
    @pytest.mark.parametrize("route", list(ALL_ROUTES))
    def test_bad_log_f_rejected(self, route, log_f):
        # wrong lengths were read by index (or wrapped), non-finite logs
        # returned nan, and whole-space routes refused callables with a TypeError
        with pytest.raises(InputError):
            ALL_ROUTES[route](3, log_f)

    @pytest.mark.parametrize("route", list(ALL_ROUTES))
    def test_probability_reads_as_its_logs(self, route):
        p = Probability.normalize(np.exp(random_logs(8)))
        got, expected = ALL_ROUTES[route](3, p), ALL_ROUTES[route](3, np.log(p.weights))
        for a, b in zip(*(v if isinstance(v, tuple) else (v,) for v in (got, expected))):
            np.testing.assert_array_equal(a, b)

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


    def test_active_subset_additive_routes_finite_at_extreme_ratios(self):
        # on an active subset y's own terms and its active neighbors' terms
        # are formed apart; past a log ratio of about 709 the ratio form
        # r f1(r) - f0(r) was inf - inf. The four routes give the same
        # values at +-800 as at +-700
        g = hamming_graph(2, 1)
        p = Probability.normalize([0.4, 0.3, 0.2, 0.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for span in (700.0, 800.0):
                logs = np.array([0.0, span, -span, 0.0])
                for fam, expected in ((pseudo_likelihood(g, active=[0, 1]), span),
                                      (ratio_matching(g, active=[0, 1]), 1.0)):
                    assert score(fam, 0, logs) == expected, (fam.kind, span)
                    value, _, grad = score_and_logf_gradient(fam, 0, logs)
                    assert value == expected and np.all(np.isfinite(grad))
                    assert empirical_score(fam, TabularModel(g.space, logs), [0]) == expected
                    per_point = [score(fam, y, logs) for y in range(4)]
                    assert np.all(np.isfinite(per_point))
                    assert expected_score(fam, p, logs) == pytest.approx(
                        float(p.weights @ per_point), rel=1e-15
                    )


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

    @pytest.mark.parametrize("graph", [
        label_band_graph(6, 1),
        label_band_graph(6, 2),
        BlockNeighborhood(BlockSystem.of(3, {1, 2}, {2, 3})),
        BlockNeighborhood(BlockSystem.of(4, {1, 2}, {2, 3, 4}, {1, 4})),
    ], ids=["band1", "band2", "blocks3", "blocks4"])
    def test_standard_family_score_routes_are_standard_cl(self, graph):
        standard = LocalPotentialFamily("cl", graph, standard_cl=True)
        size = graph.space.size
        logs = random_logs(size)
        ref = np.array([standard_cl_score(standard, y, logs) for y in range(size)])
        kernel = state_scores(standard, logs)
        np.testing.assert_allclose(kernel, ref, rtol=0, atol=1e-12)
        h = 1e-6
        for y in range(size):
            value, idx, grad = score_and_logf_gradient(standard, y, logs)
            assert abs(score(standard, y, logs) - ref[y]) <= 1e-12
            assert abs(value - ref[y]) <= 1e-12
            assert named_closed_form_score(standard, y, logs) == ref[y]
            for pos, i in enumerate(idx):
                up = logs.copy(); up[i] += h
                dn = logs.copy(); dn[i] -= h
                fd = standard_cl_score(standard, y, up) - standard_cl_score(standard, y, dn)
                fd /= 2 * h
                assert grad[pos] == pytest.approx(fd, rel=1e-6, abs=1e-8), (y, i)
        if isinstance(graph, BlockNeighborhood):
            # block neighborhoods are equivalence classes: mCL's extra terms cancel
            mcl = state_scores(LocalPotentialFamily("cl", graph), logs)
            np.testing.assert_allclose(kernel, mcl, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("route", [
        "local_potential", "local_potential_gradient", "composite_potential", "divergence",
        "generic_score",
    ])
    def test_standard_family_refuses_potential_routes(self, route):
        # off equivalence classes standard CL is not the gradient of the cl potential
        fam = LocalPotentialFamily("cl", label_band_graph(4, 1), standard_cl=True)
        logs = random_logs(4)
        calls = {
            "local_potential": lambda: local_potential(fam, 0, np.ones(1)),
            "local_potential_gradient": lambda: local_potential_gradient(fam, 0, np.ones(1)),
            "composite_potential": lambda: composite_potential(fam, logs),
            "divergence": lambda: divergence(fam, logs, logs),
            "generic_score": lambda: generic_score(fam, 0, logs),
        }
        with pytest.raises(UnsupportedError, match="standard CL"):
            calls[route]()


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

    def test_requires_a_probability(self):
        # a bare array ended in an AttributeError on `.weights`
        fam = pseudo_likelihood(hamming_graph(3, 1))
        with pytest.raises(InputError, match="expected a Probability"):
            expected_score(fam, np.full(8, 1 / 8), np.zeros(8))


class TestLocalPotential:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("route", [local_potential, local_potential_gradient])
    def test_refuses_non_finite_and_non_positive_values(self, route, bad):
        # NaN passed the `<= 0` test and came back as a nan potential
        fam = pseudo_likelihood(hamming_graph(3, 1))
        with pytest.raises(InputError, match="finite and strictly positive"):
            route(fam, 0, [1.0, bad, 1.0])


def _loop_composite_potential(fam, logs):
    """composite_potential one active point at a time (the reference for the
    batched route)."""
    total = 0.0
    for y in fam.active_indices():
        nbrs, ev = fam.local(int(y))
        total += float(np.exp(logs[y])) * float(ev.value(np.exp(logs[nbrs] - logs[y])))
    return total


def _loop_divergence(fam, flogs, glogs):
    """divergence one active point at a time (the reference for the batched
    route)."""
    total = 0.0
    for y in fam.active_indices():
        nbrs, ev = fam.local(int(y))
        u = np.exp(flogs[nbrs] - flogs[y])
        v = np.exp(glogs[nbrs] - glogs[y])
        local = float(ev.value(u)) - float(ev.value(v)) - float(ev.grad(v) @ (u - v))
        total += float(np.exp(flogs[y])) * local
    return max(total, 0.0)


def _space_case(case):
    """A family with log f over its whole space and a probability there,
    from an objective case: a conditional model gives the label logs of its
    first feature row."""
    fam, model, samples, features = case
    size = fam.space.size
    if features is None:
        logs = model.log_f_batch(np.arange(size))
    else:
        logs = model.theta @ features[0]
    p = Probability.normalize(np.bincount(samples, minlength=size) + 0.5)
    return fam, logs, p


class TestArrayRoutes:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(objective_cases())
    def test_kernel_expected_score_matches_per_point_sum(self, case):
        fam, logs, p = _space_case(case)
        point_score = standard_cl_score if fam.standard_cl else generic_score
        ref = np.array([point_score(fam, y, logs) for y in range(fam.space.size)])
        scale = max(1.0, float(np.max(np.abs(ref))))
        np.testing.assert_allclose(state_scores(fam, logs), ref, rtol=1e-12, atol=1e-12 * scale)
        total = expected_score(fam, p, logs)
        assert abs(total - float(p.weights @ ref)) <= 1e-12 * max(1.0, float(p.weights @ np.abs(ref)))

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(objective_cases())
    def test_batched_divergence_and_potential_match_loops(self, case):
        fam, flogs, _ = _space_case(case)
        if fam.standard_cl:  # its cl potential, without the standard score
            fam = LocalPotentialFamily("cl", fam.graph)
        glogs = 0.7 * np.roll(flogs, 1) + 0.3
        for logs in (flogs, glogs):
            ref = _loop_composite_potential(fam, logs)
            assert composite_potential(fam, logs) == pytest.approx(ref, rel=1e-12, abs=1e-12)
        ref = _loop_divergence(fam, flogs, glogs)
        scale = max(1.0, abs(_loop_composite_potential(fam, flogs)))
        assert divergence(fam, flogs, glogs) == pytest.approx(ref, rel=1e-12, abs=1e-12 * scale)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(objective_cases(), st.sampled_from([(1,), (5,), (2, 3)]), st.sampled_from([1.0, 40.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_stacked_routes_match_the_one_row_routes(self, case, shape, span, seed):
        # the oracle evaluates its trials through the stacked forms; each row
        # must be what the public 1-D route gives for it
        from localscores.scoring import (_stacked_composite_potential, _stacked_divergence,
                                         _stacked_state_scores)

        fam, logs, _ = _space_case(case)
        rng = np.random.default_rng(seed)
        flogs = rng.uniform(-span, span, size=shape + logs.shape)
        flogs.reshape(-1, logs.size)[0] = logs
        glogs = rng.uniform(-span, span, size=flogs.shape)
        rows = list(zip(flogs.reshape(-1, logs.size), glogs.reshape(-1, logs.size)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # dp overflows at span 40
            stacked = _stacked_state_scores(fam, flogs)
            assert stacked.shape == shape + (fam.space.size,)
            for got, (f, _) in zip(stacked.reshape(-1, logs.size), rows):
                np.testing.assert_array_equal(got, state_scores(fam, f))  # bit for bit
            if fam.standard_cl:
                with pytest.raises(UnsupportedError):
                    _stacked_composite_potential(fam, flogs)
                return
            potentials = _stacked_composite_potential(fam, flogs).ravel()
            divergences = _stacked_divergence(fam, flogs, glogs).ravel()
            assert potentials.shape == divergences.shape == (len(rows),)
            np.testing.assert_allclose(
                potentials, [composite_potential(fam, f) for f, _ in rows], rtol=1e-15, atol=0)
            np.testing.assert_allclose(
                divergences, [divergence(fam, f, g) for f, g in rows], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("route", [
        state_scores, composite_potential, lambda fam, logs: divergence(fam, logs, logs),
    ], ids=["state_scores", "composite_potential", "divergence"])
    def test_public_whole_space_routes_refuse_stacks(self, route):
        with pytest.raises(InputError, match="shape"):
            route(pseudo_likelihood(hamming_graph(2, 1)), np.zeros((3, 4)))

    def test_kernel_compiled_once_per_family(self, monkeypatch):
        from localscores.estimation import _ScoreKernel

        compiles = []
        compile_ = _ScoreKernel._compile

        def counted(self):
            compiles.append(self.family)
            return compile_(self)

        monkeypatch.setattr(_ScoreKernel, "_compile", counted)
        for name, fam in all_families_on_cube3().items():
            for _ in range(3):
                p = Probability.normalize(np.exp(random_logs(8)))
                expected_score(fam, p, random_logs(8))
            state_scores(fam, random_logs(8))
            assert compiles.count(fam) == 1, name
        assert len(compiles) == len(all_families_on_cube3())

    def test_block_membership_matches_block_lists(self):
        # the batch marks block members by bit masks; the per-point block
        # lists enumerate them
        families = [
            composite_likelihood(BlockSystem.of(4, {1, 2}, {2, 3}, {4})),
            composite_likelihood(label_band_graph(6, 2)),
        ]
        for fam in families:
            points, nbrs, valid, ev = fam.active_local()
            for y in points:
                one_nbrs, one = fam.local(y)
                width = len(one_nbrs)
                assert np.array_equal(nbrs[y, :width], one_nbrs)
                assert not ev.member[y, :, width:].any()
                assert np.array_equal(ev.member[y, :, :width], one.member)
                for block, members in zip(one.member, fam.block_lists(y)):
                    assert np.array_equal(one_nbrs[block], members)


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
        queried = Counter()

        def log_f(i):
            queried[i] += 1
            return 0.01 * (int(i) % 97)

        y = 123456789
        score(fam, y, log_f)
        assert len(queried) == 33  # y plus its 32 neighbors
        assert set(queried.values()) == {1}

    def test_non_additive_score_touches_second_ring(self):
        fam = pseudo_spherical(HypercubeNeighborhood(32, 1), 1.0)
        queried = Counter()

        def log_f(i):
            queried[i] += 1
            return 0.01 * (int(i) % 89)

        score(fam, 1 << 31, log_f)
        # y, its 32 neighbors and the C(32, 2) points two flips away, each
        # read once
        assert len(queried) == 1 + 32 + 32 * 31 // 2
        assert set(queried.values()) == {1}

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
