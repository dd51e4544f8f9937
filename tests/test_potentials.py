import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import logsumexp

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
from localscores.potentials import _logsumexp


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

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, True, 0.0, -1.0])
    @pytest.mark.parametrize("build", [
        lambda g, gamma: density_power(g, gamma),
        lambda g, gamma: pseudo_spherical(g, gamma),
        lambda g, gamma: LocalPotentialFamily("dp", g, gamma=gamma),
        lambda g, gamma: LocalPotentialFamily("ps", g, gamma=gamma),
    ], ids=["density_power", "pseudo_spherical", "family_dp", "family_ps"])
    def test_gamma_must_be_finite_and_positive(self, build, gamma):
        # a nan gamma used to build a family whose scores were all nan
        with pytest.raises(InputError, match="gamma"):
            build(hamming_graph(2, 1), gamma)

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


def brute_ball(dim, radius, y):
    """b(y) of the Hamming ball: z with 1 <= popcount(y ^ z) <= radius."""
    return [z for z in range(2 ** dim) if 1 <= (y ^ z).bit_count() <= radius]


def brute_block(dim, block, y):
    """b_l(y): z != y that differs from y only on the block's coordinates."""
    outside = ~sum(1 << (i - 1) for i in block)
    return [z for z in range(2 ** dim) if z != y and (y ^ z) & outside == 0]


@st.composite
def block_systems(draw):
    dim = draw(st.integers(1, 5))
    coords = st.sets(st.integers(1, dim), min_size=1)  # blocks may overlap
    return BlockSystem.of(dim, *draw(st.lists(coords, min_size=1, max_size=4)))


class TestImplicitNeighborhoods:
    def test_hypercube_matches_brute_force(self):
        for dim, radius in ((1, 1), (4, 1), (4, 2), (5, 3), (4, 4)):
            imp = HypercubeNeighborhood(dim, radius)
            mat = hamming_graph(dim, radius)
            table, valid = imp.neighbor_matrix(np.arange(2 ** dim))
            assert valid is None
            for y in range(2 ** dim):
                expected = brute_ball(dim, radius, y)
                assert imp.neighbors(y).tolist() == expected
                assert mat.neighbors(y).tolist() == expected
                assert table[y].tolist() == expected

    def test_block_matches_brute_force(self):
        from localscores import cl_neighborhood

        system = BlockSystem.of(3, {1}, {2, 3})
        imp = BlockNeighborhood(system)
        mat, per_point = cl_neighborhood(system)
        for y in range(8):
            blocks = [brute_block(3, b, y) for b in system.blocks]
            union = sorted(set().union(*blocks))
            assert imp.neighbors(y).tolist() == union
            assert mat.neighbors(y).tolist() == union
            assert [b.tolist() for b in imp.block_neighbors(y)] == blocks
            assert [b.tolist() for b in per_point[y]] == blocks

    @given(system=block_systems())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_random_block_systems_match_brute_force(self, system):
        from localscores import cl_neighborhood

        dim = system.dim
        imp = BlockNeighborhood(system)
        mat, per_point = cl_neighborhood(system)
        family = composite_likelihood(system)
        for y in range(2 ** dim):
            blocks = [brute_block(dim, b, y) for b in system.blocks]
            union = sorted(set().union(*blocks))
            assert imp.neighbors(y).tolist() == union
            assert mat.neighbors(y).tolist() == union
            assert [b.tolist() for b in imp.block_neighbors(y)] == blocks
            assert [b.tolist() for b in per_point[y]] == blocks
            assert [b.tolist() for b in family.block_lists(y)] == blocks
        for block, rows in enumerate(zip(*per_point)):
            table, valid = family.block_matrix(np.arange(2 ** dim), block)
            assert valid is None and table.tolist() == [r.tolist() for r in rows]

    def test_large_dimension_neighbor_count(self):
        imp = HypercubeNeighborhood(32, 1)
        assert len(imp.neighbors(0)) == 32
        assert len(imp.neighbors(2 ** 31)) == 32

    def test_radius2_far_beyond_enumeration(self):
        # every z with popcount(y ^ z) in 1..2, each once: C(40,1) + C(40,2)
        imp = HypercubeNeighborhood(40, 2)
        rng = np.random.default_rng(5)
        for y in [0, 2 ** 40 - 1, *rng.integers(0, 2 ** 40, size=6).tolist()]:
            nbrs = imp.neighbors(y).tolist()
            assert len(nbrs) == 40 + 780 and nbrs == sorted(set(nbrs))
            assert all(1 <= (y ^ z).bit_count() <= 2 and 0 <= z < 2 ** 40 for z in nbrs)
            table, _ = imp.neighbor_matrix([y])
            assert table[0].tolist() == nbrs

    def test_family_blocks_come_from_the_graph(self):
        # a `blocks=` keyword could disagree with the family's graph; it is gone
        system = BlockSystem.of(3, {1, 2}, {3})
        with pytest.raises(TypeError):
            LocalPotentialFamily("cl", hamming_graph(3, 1), blocks=system)
        assert LocalPotentialFamily("cl", hamming_graph(3, 1)).blocks is None
        fam = LocalPotentialFamily("cl", BlockNeighborhood(system))
        assert fam.blocks is system and fam.describe() == "mcl:1,2;3"
        assert fam.describe() == composite_likelihood(system).describe()

    def test_potentials_module_reexports_the_neighborhoods(self):
        import localscores.graphs
        import localscores.potentials

        assert localscores.potentials.HypercubeNeighborhood is localscores.graphs.HypercubeNeighborhood
        assert localscores.potentials.BlockNeighborhood is localscores.graphs.BlockNeighborhood
        assert HypercubeNeighborhood is localscores.graphs.HypercubeNeighborhood


class TestScoreSpecGrammar:
    def test_plain_kinds(self):
        assert parse_score_spec("pl").kind == "pl"
        assert parse_score_spec("rm").kind == "rm"

    def test_gamma_kinds(self):
        spec = parse_score_spec("dp:0.5")
        assert spec.kind == "dp" and spec.gamma == 0.5
        assert parse_score_spec("ps:2").gamma == 2.0

    @pytest.mark.parametrize("text", ["dp:nan", "ps:inf", "dp:-inf", "ps:0", "dp:-1"])
    def test_gamma_must_be_finite_and_positive(self, text):
        with pytest.raises(InputError, match="gamma"):
            parse_score_spec(text)

    def test_block_kinds(self):
        spec = parse_score_spec("cl:1,2;3,4")
        assert spec.kind == "cl" and spec.blocks_text == "1,2;3,4"
        g = hamming_graph(4, 1)
        assert spec.family(g).standard_cl
        mcl = parse_score_spec("mcl:1,2;3,4")
        assert mcl.family(g).kind == "cl" and not mcl.family(g).standard_cl

    def test_blockless_cl(self):
        spec = parse_score_spec("mcl")
        assert spec.blocks_text is None

    def test_text_round_trip(self):
        g = hamming_graph(3, 1)
        for text in ("pl", "rm", "dp:0.5", "ps:3", "cl", "mcl", "cl:1,2;3", "mcl:1;2"):
            assert parse_score_spec(text).text() == text
            assert parse_score_spec(text).family(g).describe() == text

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

    @pytest.mark.parametrize("kind, gamma, active", [
        ("pl", None, None), ("ps", 1.0, None), ("cl", None, [0, 1, 2]),
    ])
    def test_standard_cl_needs_a_whole_space_cl_family(self, kind, gamma, active):
        with pytest.raises(InputError, match="standard CL"):
            LocalPotentialFamily(kind, hamming_graph(3, 1), gamma=gamma, active=active,
                                 standard_cl=True)
        assert not LocalPotentialFamily(kind, hamming_graph(3, 1), gamma=gamma,
                                        active=active).standard_cl


class TestEdgeTerms:
    def test_match_psi_definition(self):
        # psi(r) = r phi'(r) - phi(r) - phi'(1/r) on the log-ratio scale
        g = hamming_graph(2, 1)
        for fam in (pseudo_likelihood(g), ratio_matching(g), density_power(g, 1.4)):
            f0, f1 = fam.scalar_terms()
            value_term, grad_term = fam.edge_terms().whole
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
                [t(d) for t in pseudo_likelihood(g).edge_terms().whole
                 + ratio_matching(g).edge_terms().whole],
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
            value_term, grad_term = fam.edge_terms().whole
            with np.errstate(over="ignore"):  # as the EdgeTerms docstring asks
                values, grads = value_term(d), grad_term(d)
            assert np.all(np.isfinite(values))
            assert np.all(np.isfinite(grads))

    @pytest.mark.parametrize("kind", ["pl", "rm", "dp"])
    def test_table_entries_follow_from_phi(self, kind):
        # with r = e^d: own(d) = r phi'(r) - phi(r), nbr(d) = -phi'(1/r) and
        # whole = own + nbr, and each derivative in d, derived from phi
        sympy = pytest.importorskip("sympy")
        mpmath = pytest.importorskip("mpmath")
        t, d = sympy.Symbol("t", positive=True), sympy.Symbol("d", real=True)
        gamma = sympy.Rational(7, 5)
        phi = {
            "pl": -sympy.log(1 + t), "rm": -t / (2 * (1 + t)), "dp": t ** (1 + gamma) / (1 + gamma),
        }[kind]
        dphi = sympy.diff(phi, t)
        own = (t * dphi - phi).subs(t, sympy.exp(d))
        nbr = -dphi.subs(t, sympy.exp(-d))
        fam = LocalPotentialFamily(kind, hamming_graph(2, 1), gamma=1.4 if kind == "dp" else None)
        grid = np.linspace(-6.0, 6.0, 25)
        with mpmath.workdps(40):
            for pair, expr in zip(fam.edge_terms(), (own, nbr, own + nbr)):
                for term, exact in zip(pair, (expr, sympy.diff(expr, d))):
                    ref = sympy.lambdify(d, exact, "mpmath")
                    np.testing.assert_allclose(
                        term(grid), [float(ref(x)) for x in grid], rtol=1e-11
                    )

    def test_own_and_nbr_terms_sum_to_whole(self):
        # own + neighbor terms make the whole-space term, their derivatives
        # match finite differences, and pl/rm stay finite at any ratio
        g = hamming_graph(2, 1)
        families = (
            pseudo_likelihood(g),
            ratio_matching(g),
            density_power(g, 1.4),
            custom_additive(g, lambda t: t * math.log(t) - t, math.log, lambda t: 1.0 / t),
        )
        d = np.linspace(-4, 4, 33)
        h = 1e-6
        for fam in families:
            (own, own_grad), (nbr, nbr_grad), (value_term, grad_term) = fam.edge_terms()
            np.testing.assert_allclose(own(d) + nbr(d), value_term(d), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(own_grad(d) + nbr_grad(d), grad_term(d), rtol=1e-12)
            for term, grad in ((own, own_grad), (nbr, nbr_grad)):
                fd = (term(d + h) - term(d - h)) / (2 * h)
                np.testing.assert_allclose(grad(d), fd, rtol=1e-6, atol=1e-9)
        with np.errstate(over="ignore"):
            for fam in families[:2]:
                for term in (t for pair in fam.edge_terms() for t in pair):
                    assert np.all(np.isfinite(term(np.array([-800.0, 800.0])))), fam.kind


_SPECIAL = st.sampled_from([0.0, 1.0, -2.5, 700.0, 1e308, np.inf, -np.inf, np.nan])


class TestLogSumExp:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=5),
               elements=st.one_of(_SPECIAL, st.floats(-1e3, 1e3))),
        st.sampled_from([None, 0, 1, -1]),
    )
    @example(np.full(3, -np.inf), None)
    @example(np.array([[2.0, 2.0, -1.0], [-np.inf, -np.inf, -np.inf]]), 1)
    @example(np.array([np.inf, np.inf, 1.0]), None)
    @example(np.array([np.nan, np.inf]), None)
    @example(np.array([[3.0, np.nan], [3.0, 3.0]]), 0)
    def test_bit_identical_to_scipy(self, a, axis):
        if axis == 1 and a.ndim == 1:
            axis = -1
        with np.errstate(all="ignore"):
            want = logsumexp(a, axis=axis)
        got = _logsumexp(a, axis=axis)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (a, axis, got, want)

    def test_scalar_and_empty_input(self):
        for a, axis in ((np.float64(2.5), None), (np.array([]), None), (np.zeros((0, 3)), 1)):
            got, want = _logsumexp(a, axis=axis), logsumexp(a, axis=axis)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
