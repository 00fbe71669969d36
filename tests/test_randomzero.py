import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

from zerosetkit import randomzero
from zerosetkit._rng import RandomnessSpec, substream
from zerosetkit.descent import _uniform_far_weighting
from zerosetkit.errors import (
    BadParams,
    BetaTooLarge,
    ConclusionViolated,
    EmptySupport,
    LPSolveFailed,
    MinDistanceViolated,
    ModerationViolated,
    PairTooClose,
    QuasisymmetryViolated,
    TauExceedsDiameter,
)
from zerosetkit.graphs import PairWeighting, ThresholdedGraph
from zerosetkit.metric import (
    EuclideanMap,
    PointMeasure,
    QuasiParams,
    snowflake_embed,
)
from zerosetkit.randomzero import (
    ComponentSeparatedSampler,
    LevelFunction,
    ZeroSetDistribution,
    _column_coverage,
    _layer_index,
    beta_cap,
    build_level_function,
    duality_solve,
    general_zeroset_sampler,
    glue_scales,
    good_graph_builder,
    layered_pair_sets,
    separated_pipeline,
    slab_membership,
    spreading_estimate,
    tent,
)

from conftest import space_from_points


def _line_space(n):
    return space_from_points(np.arange(n, dtype=float)[:, None])


# -------------------------------------------------------------------------
# slabs and tents
# -------------------------------------------------------------------------


def test_slab_membership_cases():
    m = slab_membership(0.1, 0.0)
    assert m.in_L and not m.in_R
    m = slab_membership(0.6, 0.0)
    assert m.in_R and not m.in_L
    m = slab_membership(0.3, 0.0)
    assert not m.in_L and not m.in_R
    # the shift moves the slabs
    assert slab_membership(0.3, 0.25).in_L


@settings(max_examples=200, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 1))
def test_slab_pair_always_separated(a, b, theta):
    ma, mb = slab_membership(a, theta), slab_membership(b, theta)
    if ma.in_L and mb.in_R:
        # fractional parts lie in [0, 1/4) and [1/2, 3/4): gap > 1/4 mod 1
        sa, sb = (a - theta) % 1.0, (b - theta) % 1.0
        gap = min(abs(sa - sb), 1.0 - abs(sa - sb))
        assert gap > 0.25


def test_tent_values_and_integral():
    assert tent(0.5) == 0.25
    assert tent(0.0) == 0.0
    assert tent(0.25) == 0.0
    assert tent(0.75) == 0.0
    assert tent(1.5) == 0.25  # period one
    xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    ys = np.array([tent(x) for x in xs])
    assert float(np.trapezoid(ys, xs)) == 1.0 / 16.0


@settings(max_examples=100, deadline=None)
@given(st.floats(-5, 5))
def test_tent_symmetry_and_range(s):
    assert 0.0 <= tent(s) <= 0.25
    assert math.isclose(tent(s), tent(1.0 - s % 1.0), abs_tol=1e-12)


# -------------------------------------------------------------------------
# layers
# -------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(0, 1), st.floats(0.3, 2.0))
def test_layer_index_bracket(lam, r, alpha):
    i = _layer_index(lam, r, alpha)
    if i is not None:
        assert math.exp(3 * alpha * (i + r) - 2 * alpha) <= lam * (1 + 1e-9)
        assert lam < math.exp(3 * alpha * (i + r)) * (1 + 1e-9)


def test_layered_pair_sets_disjoint_and_infinite_branch():
    rng = substream(3, "test", "layers")
    n = 10
    coords = rng.standard_normal((n, 3))
    lam = np.concatenate([rng.random(5) * 10 + 0.1, np.full(5, np.inf)])
    counts = {"E": 0, "F": 0}
    for k in range(200):
        v = rng.standard_normal(3)
        E, F = layered_pair_sets(range(n), coords, lam, 0.7, 1.0, v, rng)
        assert not (E & F)
        inf_pts = set(range(5, 10))
        in_E = inf_pts <= E
        in_F = inf_pts <= F
        # infinite-level points move wholesale or not at all
        assert in_E or in_F or not (inf_pts & (E | F))
        counts["E"] += in_E
        counts["F"] += in_F
    # the (2/3, 1/6, 1/6) branch puts them somewhere a fair fraction of draws
    assert counts["E"] > 0 and counts["F"] > 0


def test_layered_pair_sets_rejects_bad_params():
    with pytest.raises(BadParams):
        layered_pair_sets(
            [0], np.zeros((1, 1)), np.ones(1), 0.0, 1.0, np.ones(1),
            substream(0, "x"),
        )


# -------------------------------------------------------------------------
# component-separated sampler
# -------------------------------------------------------------------------


def test_sampler_rejects_immoderate_level():
    space = _line_space(3)
    g = ThresholdedGraph(space, ((0, 1), (1, 2)))
    f = EuclideanMap(np.arange(3, dtype=float)[:, None])
    with pytest.raises(ModerationViolated):
        ComponentSeparatedSampler(
            g, f, LevelFunction(np.array([1.0, 5.0, 5.0])), None, 1.0,
            RandomnessSpec(0),
        )


def test_sampler_rejects_close_weighted_pair():
    space = _line_space(3)
    g = ThresholdedGraph(space, ((0, 1), (1, 2)))
    f = EuclideanMap(np.zeros((3, 1)))  # image collapses: min-distance fails
    W = np.zeros((3, 3))
    W[0, 2] = W[2, 0] = 0.5
    omega = PairWeighting(W, 2.0, space)
    with pytest.raises(MinDistanceViolated) as info:
        ComponentSeparatedSampler(
            g, f, LevelFunction(np.ones(3)), omega, 1.0, RandomnessSpec(0)
        )
    assert info.value.pair == (0, 2)  # the first of (0, 2) and (2, 0)


def test_sampler_draws_satisfy_directional_separation():
    # the separation conclusion is asserted inside draw(); many draws on a
    # nontrivial two-component instance must never raise
    rng = substream(4, "test", "sep")
    pts = np.vstack([rng.standard_normal((5, 2)), rng.standard_normal((5, 2)) + 50.0])
    space = space_from_points(pts)
    g = ThresholdedGraph(
        space,
        tuple((i, j) for i in range(5) for j in range(i, 5))
        + tuple((i, j) for i in range(5, 10) for j in range(i, 10)),
    )
    f = EuclideanMap(pts)
    lam = np.full(10, np.inf)
    sampler = ComponentSeparatedSampler(
        g, f, LevelFunction(lam), None, 1.0, RandomnessSpec(11)
    )
    for k in range(300):
        A, B = sampler.draw(k)
        assert not (A & B)


# -------------------------------------------------------------------------
# good graphs
# -------------------------------------------------------------------------


def test_beta_cap_formula():
    params = QuasiParams(0.25, 0.5)
    r = 4.0
    expect = 0.25 ** (3.0 * math.log(32.0) / 0.5)
    assert math.isclose(beta_cap(params, r), expect, rel_tol=1e-12)


def test_good_graph_builder_enforces_beta(cube4, uniform_measure):
    space = cube4.space
    mu = uniform_measure(space)
    phi = snowflake_embed(space, 0.5)
    params = QuasiParams(0.25, 0.5)
    with pytest.raises(BetaTooLarge):
        good_graph_builder(space, mu, phi, params, 1.0, 2.0, r=4.0, beta=0.5)
    # under the cap the build succeeds and self-certifies
    good = good_graph_builder(
        space, mu, phi, params, 1.0, 2.0, r=4.0, beta=0.5,
        enforce_beta_bound=False,
    )
    assert good.beta == 0.5
    assert np.all(good.level.values > 0)


def test_good_graph_builder_rejects_bad_quasisymmetry(cube3, uniform_measure):
    space = cube3.space
    phi = snowflake_embed(space, 0.5)
    with pytest.raises(QuasisymmetryViolated):
        good_graph_builder(
            space, uniform_measure(space), phi, QuasiParams(0.5, 0.5),
            1.0, 2.0, r=4.0, beta=1e-6, enforce_beta_bound=False,
        )


def test_level_function_infinite_on_small_components():
    space = _line_space(4)
    # two components of diameter 1 < tau = 2
    g = ThresholdedGraph(space, ((0, 1), (2, 3)))
    f = EuclideanMap(np.arange(4, dtype=float)[:, None])
    level = build_level_function(space, g, f, C=1.0, tau=2.0)
    assert np.all(np.isinf(level.values))
    # one component spanning distance >= tau gets finite levels
    g2 = ThresholdedGraph(space, ((0, 1), (1, 2), (2, 3)))
    level2 = build_level_function(space, g2, f, C=1.0, tau=2.0)
    assert np.all(np.isfinite(level2.values))


def _scalar_level_function(space, graph, f, C, tau):
    """Reference: the level function as a loop over far same-component pairs."""
    lam = np.full(space.n, np.inf)
    E = f.image_distances()
    for comp in graph.components():
        pairs = [(w, z) for a, w in enumerate(comp) for z in comp[a + 1:]
                 if space.dist[w, z] >= tau]
        for x in comp:
            if pairs:
                lam[x] = C * min(max(E[x, w], E[x, z]) for w, z in pairs)
    return lam


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2**32 - 1), st.sampled_from([1 << 20, 3]))
def test_level_function_matches_scalar_reference(n, seed, block):
    rng = np.random.default_rng(seed)
    space = space_from_points(rng.standard_normal((n, 2)))
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2)
    graph = ThresholdedGraph(space, edges)
    f = EuclideanMap(rng.standard_normal((n, 3)))
    tau = float(rng.choice(space.dist[np.triu_indices(n, 1)]))
    C = float(rng.uniform(0.5, 4.0))
    saved = randomzero._BLOCK
    randomzero._BLOCK = block  # a tiny block splits the pairs into many blocks
    try:
        got = build_level_function(space, graph, f, C, tau).values
    finally:
        randomzero._BLOCK = saved
    assert np.array_equal(got, _scalar_level_function(space, graph, f, C, tau))


def test_good_graph_names_first_under_separated_pair(monkeypatch, cube3, uniform_measure):
    space = cube3.space
    tau = 2.0
    real = randomzero.universal_compression

    def two_component_compression(*args, **kwargs):
        # points 0-3 and 4-7 as two path components, with zero edge labels
        edges = ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7))
        out = real(*args, **kwargs)
        graph = ThresholdedGraph(space, edges, sigma={e: 0.0 for e in edges})
        return dataclasses.replace(out, graph=graph)

    # a level far above the image distances on the second component only
    lam = np.where(np.arange(space.n) < 4, 1e-9, 1e9)
    monkeypatch.setattr(randomzero, "universal_compression", two_component_compression)
    monkeypatch.setattr(randomzero, "build_level_function",
                        lambda *args: LevelFunction(lam))
    first = next((x, y) for x in range(4, 8) for y in range(x + 1, 8)
                 if space.dist[x, y] >= tau)
    with pytest.raises(ConclusionViolated, match=rf"pair \({first[0]},{first[1]}\) under"):
        good_graph_builder(
            space, uniform_measure(space), snowflake_embed(space, 0.5),
            QuasiParams(0.25, 0.5), tau, 2.0, r=4.0, beta=0.5, enforce_beta_bound=False,
        )


# -------------------------------------------------------------------------
# separated-pair pipeline
# -------------------------------------------------------------------------


def _pipeline(space, tau, C=1.0, seed=0):
    mu = PointMeasure(np.ones(space.n))
    phi = snowflake_embed(space, 0.5)
    params = QuasiParams(0.25, 0.5)
    omega = _uniform_far_weighting(space, tau)
    return separated_pipeline(
        space, mu, phi, params, tau, C, 2.0, omega, RandomnessSpec(seed, ("pl",))
    )


def test_pipeline_draws_are_metrically_separated(cube4):
    space = cube4.space
    sampler = _pipeline(space, tau=1.0, C=2.0)
    floor = sampler.beta * sampler.tau
    rho = sampler.rho
    for k in range(100):
        A, B = sampler.draw(k)
        assert A and B and not (A & B)
        for x in A:
            for y in B:
                assert space.d(x, y) > floor / min(rho[x], rho[y])


def test_pipeline_psi_formula(cube3):
    sampler = _pipeline(cube3.space, tau=1.0)
    assert np.allclose(sampler.psi, sampler.beta * sampler.tau / sampler.rho)


def test_pipeline_fallback_is_first_far_pair(grid4):
    space = grid4.space
    sampler = _pipeline(space, tau=3.0)
    first = next((i, j) for i in range(space.n) for j in range(i + 1, space.n)
                 if space.dist[i, j] >= 3.0)
    assert sampler._fallback == first


def test_pipeline_separation_check_names_first_pair(cube4):
    space = cube4.space
    sampler = _pipeline(space, tau=1.0, C=2.0)
    # widen the radius so that the pairs at distance 1 fall inside it
    sampler.good = dataclasses.replace(sampler.good, beta=1.5 * sampler.rho.max())
    A, B = frozenset({14, 9, 3}), frozenset({12, 1, 2})
    radius = sampler.beta * sampler.tau
    first = next((x, y) for x in sorted(A) for y in sorted(B)
                 if not space.dist[x, y] > radius / min(sampler.rho[x], sampler.rho[y]))
    with pytest.raises(ConclusionViolated, match=rf"pair \({first[0]},{first[1]}\) inside"):
        sampler._assert_separation(A, B)


def test_pipeline_draw_takes_weightings_inside_its_support(grid4):
    space = grid4.space
    sampler = separated_pipeline(
        space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
        QuasiParams(0.25, 0.5), 2.0, 1.0, 2.0, _uniform_far_weighting(space, 3.0),
        RandomnessSpec(0, ("pl",)),
    )
    inside = _uniform_far_weighting(space, 4.0)
    for k in range(10):
        A, B = sampler.draw(k, inside)
        assert A and B and not (A & B)
    with pytest.raises(BadParams):
        sampler.draw(0, _uniform_far_weighting(space, 2.0))


def test_pipeline_rejects_tau_beyond_diameter(cube3):
    space = cube3.space
    omega = _uniform_far_weighting(space, 1.0)
    with pytest.raises(TauExceedsDiameter):
        separated_pipeline(
            space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
            QuasiParams(0.25, 0.5), 10.0, 1.0, 2.0, omega, RandomnessSpec(0),
        )


# -------------------------------------------------------------------------
# duality and gluing
# -------------------------------------------------------------------------


def test_duality_lp_dominates_mw(grid4):
    space = grid4.space
    tau = 2.0
    mu = PointMeasure(np.ones(space.n))
    phi = snowflake_embed(space, 0.5)
    params = QuasiParams(0.25, 0.5)
    sampler = separated_pipeline(
        space, mu, phi, params, tau, 1.0, 2.0, _uniform_far_weighting(space, tau),
        RandomnessSpec(0, ("dual",)),
    )
    mw = duality_solve(space, tau, sampler, mode="mw", rounds=24,
                       randomness=RandomnessSpec(1))
    lp = duality_solve(space, tau, sampler, mode="exact_lp", rounds=24,
                       randomness=RandomnessSpec(1))
    # both modes share the same column pool; the LP mixture is maximin-optimal
    assert 0.0 <= mw.value <= lp.value + 1e-9
    assert lp.value <= 1.0
    assert np.isclose(mw.mixture.sum(), 1.0) and np.isclose(lp.mixture.sum(), 1.0)
    for k in range(20):
        Z = mw.draw(k)
        assert Z and Z <= frozenset(range(space.n))


def test_duality_exact_lp_failure_is_a_solver_error(monkeypatch, grid4):
    space = grid4.space
    sampler = _pipeline(space, tau=2.0)
    monkeypatch.setattr(
        randomzero, "linprog",
        lambda *a, **k: OptimizeResult(success=False, status=2, message="forced failure"),
    )
    with pytest.raises(LPSolveFailed, match="column game LP failed: forced failure"):
        duality_solve(space, 2.0, sampler, mode="exact_lp", rounds=2)


def _scalar_column_coverage(D, pairs, A, B, psi):
    """Reference: the coverage as a loop over far pairs."""
    cov = np.zeros(len(pairs))
    Aidx = np.asarray(sorted(A), dtype=int)
    Bidx = np.asarray(sorted(B), dtype=int)
    for idx, (x, y) in enumerate(pairs):
        c = 0.0
        if x in A and float(D[y, Aidx].min()) >= psi[y]:
            c += 0.5
        if x in B and float(D[y, Bidx].min()) >= psi[y]:
            c += 0.5
        cov[idx] = c
    return cov


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.booleans())
def test_column_coverage_matches_scalar_reference(n, seed, empty_b):
    rng = np.random.default_rng(seed)
    space = space_from_points(rng.standard_normal((n, int(rng.integers(1, 4)))))
    D = space.dist
    side = rng.integers(0, 3, size=n)  # 0: neither, 1: A, 2: B
    if empty_b:
        side[side == 2] = 0
    A = frozenset(int(x) for x in np.flatnonzero(side == 1))
    B = frozenset(int(x) for x in np.flatnonzero(side == 2))
    # half the radii sit exactly on a distance, to exercise the >= boundary
    psi = np.where(rng.random(n) < 0.5, D[np.arange(n), rng.integers(0, n, size=n)],
                   rng.uniform(0.0, 1.2 * space.diam, size=n))
    tau = float(rng.choice(D[np.triu_indices(n, 1)]))
    I, J = np.nonzero((D >= tau) & ~np.eye(n, dtype=bool))
    pairs = list(zip(I.tolist(), J.tolist()))
    got = _column_coverage(D, I, J, A, B, psi)
    assert np.array_equal(got, _scalar_column_coverage(D, pairs, A, B, psi))


def test_duality_rejects_unsupported_tau(cube3):
    with pytest.raises(EmptySupport):
        duality_solve(cube3.space, 10.0, None)


def test_glue_scales_mixture_weights():
    base = [
        ZeroSetDistribution("a", {}, lambda i: frozenset({0})),
        ZeroSetDistribution("b", {}, lambda i: frozenset({1})),
    ]
    glued = glue_scales(base, RandomnessSpec(5))
    assert np.allclose(glued.weights, [2.0 / 3.0, 1.0 / 3.0])
    draws = [glued.draw(i) for i in range(600)]
    frac0 = sum(Z == frozenset({0}) for Z in draws) / len(draws)
    assert abs(frac0 - 2.0 / 3.0) < 0.07  # ~3.5 sigma


def test_glue_scales_needs_input():
    with pytest.raises(BadParams):
        glue_scales([], RandomnessSpec(0))


# -------------------------------------------------------------------------
# general-metric sampler
# -------------------------------------------------------------------------


def test_general_sampler_nonempty_and_deterministic(cube3, uniform_measure):
    space = cube3.space
    d1 = general_zeroset_sampler(space, uniform_measure(space), 2.0, RandomnessSpec(9))
    d2 = general_zeroset_sampler(space, uniform_measure(space), 2.0, RandomnessSpec(9))
    for k in range(50):
        Z = d1.draw(k)
        assert Z and Z <= frozenset(range(space.n))
        assert Z == d2.draw(k)


def test_general_sampler_two_point_probability():
    space = _line_space(2)
    mu = PointMeasure(np.ones(2))
    dist = general_zeroset_sampler(space, mu, 1.0, RandomnessSpec(3))
    hits = 0
    n = 4000
    for k in range(n):
        Z = dist.draw_raw(k)
        if 0 in Z and 1 not in Z:
            hits += 1
    # analytic value 1/4; 4000 draws put 3 sigma at ~0.02
    assert abs(hits / n - 0.25) < 0.03


def test_spreading_estimate_rejects_close_pair(cube3, uniform_measure):
    space = cube3.space
    dist = general_zeroset_sampler(space, uniform_measure(space), 2.0, RandomnessSpec(0))
    with pytest.raises(PairTooClose):
        spreading_estimate(dist, 4.0, 2.0, [(0, 1)], 10, space)


def test_spreading_estimate_reports_ci(cube3, uniform_measure):
    space = cube3.space
    dist = general_zeroset_sampler(space, uniform_measure(space), 2.0, RandomnessSpec(0))
    out = spreading_estimate(dist, 4.0, 2.0, [(0, 7)], 200, space)
    rec = out[0]
    assert rec["pair"] == (0, 7)
    assert 0.0 <= rec["ci95"][0] <= rec["estimate"] <= rec["ci95"][1] <= 1.0
