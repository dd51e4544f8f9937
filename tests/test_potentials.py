import math

import numpy as np
import pytest

from localscores import (
    BlockNeighborhood,
    BlockSystem,
    HypercubeNeighborhood,
    InputError,
    LocalPotentialFamily,
    Probability,
    UnnormalizedVector,
    composite_likelihood,
    custom_additive,
    density_power,
    graph_from_edges,
    hamming_graph,
    local_potential,
    local_potential_gradient,
    parse_score_spec,
    pseudo_likelihood,
    pseudo_spherical,
    ratio_matching,
    SampleSpace,
)


class TestValueVectors:
    def test_unnormalized_from_values(self):
        v = UnnormalizedVector.from_values([1.0, 2.0])
        assert np.allclose(v.logs, [0.0, math.log(2)])

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            UnnormalizedVector.from_values([1.0, 0.0])

    def test_rejects_non_finite_logs(self):
        with pytest.raises(InputError):
            UnnormalizedVector.from_logs([0.0, np.inf])

    def test_probability_sum(self):
        with pytest.raises(InputError):
            Probability(weights=np.array([0.5, 0.4]))

    def test_probability_positive(self):
        with pytest.raises(InputError):
            Probability(weights=np.array([1.0, 0.0]))

    def test_normalize(self):
        p = Probability.normalize([1, 3])
        assert np.allclose(p.weights, [0.25, 0.75])


class TestLocalPotentialValues:
    def test_pl_at_ones(self):
        fam = pseudo_likelihood(hamming_graph(2, 1))
        assert local_potential(fam, 0, [1.0, 1.0]) == pytest.approx(-2 * math.log(2))

    def test_ps_euclidean_norm(self):
        fam = pseudo_spherical(hamming_graph(2, 1), 1.0)
        assert local_potential(fam, 0, [3.0, 4.0]) == pytest.approx(5.0)

    def test_rm_at_ones(self):
        fam = ratio_matching(hamming_graph(3, 1))
        assert local_potential(fam, 0, [1.0, 1.0, 1.0]) == pytest.approx(-0.75)

    def test_dimension_mismatch(self):
        fam = pseudo_likelihood(hamming_graph(2, 1))
        with pytest.raises(InputError):
            local_potential(fam, 0, [1.0])

    def test_outside_active_set(self):
        fam = pseudo_likelihood(hamming_graph(2, 1), active=[0, 3])
        with pytest.raises(InputError):
            local_potential(fam, 1, [1.0, 1.0])


class TestLocalPotentialGradients:
    def test_pl_gradient(self):
        fam = pseudo_likelihood(hamming_graph(2, 1))
        assert np.allclose(local_potential_gradient(fam, 0, [1.0, 1.0]), [-0.5, -0.5])

    def test_dp_gradient(self):
        fam = density_power(hamming_graph(2, 1), 1.0)
        assert np.allclose(local_potential_gradient(fam, 0, [2.0, 3.0]), [2.0, 3.0])

    def test_ps_gradient(self):
        fam = pseudo_spherical(hamming_graph(2, 1), 1.0)
        assert np.allclose(local_potential_gradient(fam, 0, [3.0, 4.0]), [0.6, 0.8])

    def test_all_kinds_match_finite_differences(self):
        rng = np.random.default_rng(5)
        g1 = hamming_graph(3, 1)
        families = [
            pseudo_likelihood(g1),
            ratio_matching(g1),
            density_power(g1, 1.7),
            pseudo_spherical(g1, 0.6),
            composite_likelihood(BlockSystem.of(3, {1}, {2, 3})),
            custom_additive(g1, phi=lambda t: t * math.log(t) - t, dphi=math.log),
        ]
        h = 1e-5
        for fam in families:
            for _ in range(20):
                y = int(rng.integers(fam.space.size))
                k = len(fam.neighbors(y))
                g = np.exp(rng.uniform(-2, 2, size=k))
                grad = local_potential_gradient(fam, y, g)
                for pos in range(k):
                    up = g.copy(); up[pos] += h
                    dn = g.copy(); dn[pos] -= h
                    fd = (local_potential(fam, y, up) - local_potential(fam, y, dn)) / (2 * h)
                    assert grad[pos] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_convexity_along_segments(self):
        # every built-in local potential is convex on its domain
        rng = np.random.default_rng(6)
        g1 = hamming_graph(3, 1)
        families = [
            pseudo_likelihood(g1),
            ratio_matching(g1),
            density_power(g1, 0.8),
            pseudo_spherical(g1, 2.0),
            composite_likelihood(BlockSystem.of(3, {1, 2}, {3})),
        ]
        for fam in families:
            for _ in range(30):
                y = int(rng.integers(fam.space.size))
                k = len(fam.neighbors(y))
                a = np.exp(rng.uniform(-2, 2, size=k))
                b = np.exp(rng.uniform(-2, 2, size=k))
                lam = rng.uniform()
                mid = local_potential(fam, y, lam * a + (1 - lam) * b)
                chord = lam * local_potential(fam, y, a) + (1 - lam) * local_potential(fam, y, b)
                assert mid <= chord + 1e-10


class TestFamilyConstruction:
    def test_gamma_required(self):
        with pytest.raises(InputError):
            LocalPotentialFamily("dp", hamming_graph(2, 1))

    def test_gamma_forbidden(self):
        with pytest.raises(InputError):
            LocalPotentialFamily("pl", hamming_graph(2, 1), gamma=1.0)

    def test_additivity_flags(self):
        g = hamming_graph(2, 1)
        assert pseudo_likelihood(g).additive
        assert ratio_matching(g).additive
        assert density_power(g, 1.0).additive
        assert not pseudo_spherical(g, 1.0).additive
        assert not composite_likelihood(BlockSystem.of(2, {1}, {2})).additive

    def test_empty_neighborhood_rejected_at_binding(self):
        space = SampleSpace.enumerated(list("abc"))
        g = graph_from_edges(space, [(0, 1)])  # point 2 isolated
        with pytest.raises(InputError):
            pseudo_likelihood(g)
        fam = pseudo_likelihood(g, active=[0, 1])  # fine when 2 is inactive
        assert fam.in_active(0) and not fam.in_active(2)

    def test_custom_convexity_spot_check(self):
        g = hamming_graph(2, 1)
        with pytest.raises(InputError):
            custom_additive(g, phi=lambda t: -t * t, dphi=lambda t: -2 * t)

    def test_custom_needs_derivative(self):
        with pytest.raises(InputError):
            LocalPotentialFamily("custom", hamming_graph(2, 1), phi=lambda t: t * t)


class TestImplicitNeighborhoods:
    def test_hypercube_matches_materialized(self):
        imp = HypercubeNeighborhood(4, 2)
        mat = hamming_graph(4, 2)
        for i in range(16):
            assert np.array_equal(imp.neighbors(i), mat.neighbors(i))

    def test_block_matches_materialized(self):
        from localscores import cl_neighborhood

        system = BlockSystem.of(3, {1}, {2, 3})
        imp = BlockNeighborhood(system)
        mat, per_point = cl_neighborhood(system)
        for i in range(8):
            assert np.array_equal(imp.neighbors(i), mat.neighbors(i))
            for a, b in zip(imp.block_neighbors(i), per_point[i]):
                assert np.array_equal(a, b)

    def test_large_dimension_neighbor_count(self):
        imp = HypercubeNeighborhood(32, 1)
        assert len(imp.neighbors(0)) == 32
        assert len(imp.neighbors(2 ** 31)) == 32


class TestScoreSpecGrammar:
    def test_plain_kinds(self):
        assert parse_score_spec("pl").kind == "pl"
        assert parse_score_spec("rm").kind == "rm"

    def test_gamma_kinds(self):
        spec = parse_score_spec("dp:0.5")
        assert spec.kind == "dp" and spec.gamma == 0.5
        assert parse_score_spec("ps:2").gamma == 2.0

    def test_block_kinds(self):
        spec = parse_score_spec("cl:1,2;3,4")
        assert spec.kind == "cl" and spec.blocks_text == "1,2;3,4"
        assert spec.standard_cl
        mcl = parse_score_spec("mcl:1,2;3,4")
        assert not mcl.standard_cl

    def test_blockless_cl(self):
        spec = parse_score_spec("mcl")
        assert spec.blocks_text is None

    def test_text_round_trip(self):
        for text in ("pl", "rm", "dp:0.5", "ps:3", "cl:1,2;3", "mcl:1;2"):
            assert parse_score_spec(text).text() == text

    def test_rejects_bad_specs(self):
        for bad in ("pl:1", "dp", "dp:x", "ps:-1", "brier"):
            with pytest.raises(InputError):
                parse_score_spec(bad)

    def test_family_binding(self):
        g = hamming_graph(3, 1)
        fam = parse_score_spec("cl:1;2,3").family(g)
        assert fam.kind == "cl" and fam.blocks is not None
        fam2 = parse_score_spec("mcl").family(g)
        assert fam2.blocks is None and fam2.kind == "cl"


class TestEdgeTerms:
    def test_match_psi_definition(self):
        # psi(r) = r phi'(r) - phi(r) - phi'(1/r) on the log-ratio scale
        g = hamming_graph(2, 1)
        for fam in (pseudo_likelihood(g), ratio_matching(g), density_power(g, 1.4)):
            f0, f1, _ = fam.scalar_terms()
            value_term, grad_term = fam.edge_terms()
            for d in np.linspace(-4, 4, 33):
                r = math.exp(d)
                psi = r * float(f1(np.array([r]))[0]) - float(f0(np.array([r]))[0]) - float(
                    f1(np.array([1 / r]))[0]
                )
                assert float(value_term(np.array([d]))[0]) == pytest.approx(psi, rel=1e-9)
                h = 1e-6
                fd = (value_term(np.array([d + h])) - value_term(np.array([d - h]))) / (2 * h)
                assert float(grad_term(np.array([d]))[0]) == pytest.approx(
                    float(fd[0]), rel=1e-6, abs=1e-9
                )

    def test_pl_rm_terms_match_mpmath(self):
        # relative error in units of eps against 50-digit references; where
        # the reference is subnormal, one subnormal step absolute. softplus
        # and the sigmoid are within 2 ulp. rm's terms compound two and three
        # roundings of sigmoid size: they measured up to 2.3 and 2.95 ulp on
        # 50 000 random points, and scipy's expit in the same products up to
        # 2.4 and 2.8 on this grid
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2026)
        d = np.concatenate(
            [np.linspace(-700, 700, 2801), rng.uniform(-40, 40, 600), rng.uniform(-700, 700, 200)]
        )

        def refs(x):
            e = mpmath.exp(-mpmath.mpf(float(x)))
            sig = 1 / (1 + e)
            return mpmath.log1p(1 / e), sig, sig**2, 2 * sig**2 * e / (1 + e)

        with mpmath.workdps(50):
            ref = np.array([[float(v) for v in refs(x)] for x in d])
        g = hamming_graph(2, 1)
        with np.errstate(over="ignore"):
            got = np.stack(
                [t(d) for t in pseudo_likelihood(g).edge_terms() + ratio_matching(g).edge_terms()],
                axis=1,
            )
        err = np.abs(got - ref)
        floor = np.finfo(float).smallest_subnormal
        for column, ulps in enumerate((2, 2, 3, 4)):
            bound = np.maximum(ulps * np.finfo(float).eps * np.abs(ref[:, column]), floor)
            worst = int(np.argmax(err[:, column] / bound))
            assert err[worst, column] <= bound[worst], (column, d[worst])

    def test_stable_at_extreme_ratios(self):
        g = hamming_graph(2, 1)
        d = np.array([-800.0, 800.0])
        for fam in (pseudo_likelihood(g), ratio_matching(g)):
            value_term, grad_term = fam.edge_terms()
            with np.errstate(over="ignore"):  # as the edge_terms docstring asks
                values, grads = value_term(d), grad_term(d)
            assert np.all(np.isfinite(values))
            assert np.all(np.isfinite(grads))
