import dataclasses
import functools
import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from zerosetkit import applications, compression, descent, metric, randomzero, verify
from zerosetkit._rng import RandomnessSpec, StreamOpener, substream
from zerosetkit.errors import (
    BadParams,
    ConclusionViolated,
    IterationCapExceeded,
    LPSolveFailed,
    MinDistanceViolated,
    ModerationViolated,
    PairTooClose,
    QuasisymmetryViolated,
    RejectionCapExceeded,
    TauExceedsDiameter,
    ZerosetkitError,
)
from zerosetkit.graphs import (
    CompatibilityCertificate,
    ThresholdedGraph,
    VertexWeights,
    empirical_matching_bound,
    extract_unsaturated_pair,
)
from zerosetkit.metric import (
    EuclideanMap,
    FiniteMetricSpace,
    PointMeasure,
    QuasiParams,
    generate_instance,
    quasisym_check,
    snowflake_embed,
)
from zerosetkit.randomzero import (
    DRAWS_PER_ROUND,
    LAYER_ALPHA,
    ComponentSeparatedSampler,
    GluedDistribution,
    LevelFunction,
    _best_response,
    _cdf,
    _column_coverage,
    _Layering,
    _picks,
    build_level_function,
    column_game,
    duality_solve,
    general_zeroset_sampler,
    good_graph_builder,
    layered_pair_sets,
    pipeline_scales,
    separated_pipeline,
    spreading_estimate,
    tent,
)

from conftest import ConstantDistribution, limit_lp_runs, space_from_points
from test_golden import GOLDEN_PAIR_DRAWS


def _line_space(n):
    return space_from_points(np.arange(n, dtype=float)[:, None])


# -------------------------------------------------------------------------
# the scalar layered sampler: the reference for the vectorized draw
# -------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SlabMembership:
    in_L: bool
    in_R: bool


def slab_membership(a, theta):
    """Shifted quarter-period slabs: L collects fractional parts in [0, 1/4),
    R in [1/2, 3/4); a point of L and a point of R always differ by > 1/4."""
    s = (a - theta) % 1.0
    return SlabMembership(in_L=s < 0.25, in_R=0.5 <= s < 0.75)


def _layer_index(lam, r, alpha):
    """The unique i with e^{3a(i+r)-2a} <= lam < e^{3a(i+r)}, if any."""
    u = math.log(lam) / (3.0 * alpha)
    i = math.floor(u - r + 2.0 / 3.0)
    return i if u - r < i else None


def _scalar_layered_pair_sets(points, fcoords, lam, alpha, C, v, rng):
    """One component's layered (E, F) pair, reading r, the thetas of its
    layers in ascending order and the branch value u from ``rng``."""
    r = float(rng.random())
    finite = [x for x in points if math.isfinite(lam[x])]
    infinite = [x for x in points if not math.isfinite(lam[x])]
    layer_of = {}
    for x in finite:
        i = _layer_index(float(lam[x]), r, alpha)
        if i is not None:
            layer_of[x] = i
    thetas = {}
    for i in sorted(set(layer_of.values())):
        thetas[i] = float(rng.random())
    u = float(rng.random())
    k = 1 if u < 2.0 / 3.0 else (2 if u < 5.0 / 6.0 else 3)

    proj = fcoords @ v
    E, F = set(), set()
    for x, i in sorted(layer_of.items()):
        scale = 4.0 * C * math.exp(3.0 * alpha * (i + r))
        mem = slab_membership(proj[x] / scale, thetas[i])
        if mem.in_L:
            E.add(x)
        elif mem.in_R:
            F.add(x)
    if k == 2:
        E.update(infinite)
    elif k == 3:
        F.update(infinite)
    return E, F


def _scalar_sampler_draw(sampler, index, directions):
    """A component-sampler draw with one generator per component, its
    direction from ``directions.stream("direction", index)``, and the
    separation check as a loop over edges."""
    v = directions.stream("direction", index).standard_normal(sampler.f.dim)
    A, B = set(), set()
    for ci, compi in enumerate(sampler.graph.components):
        rng = sampler.randomness.stream("component", index, ci)
        E, F = _scalar_layered_pair_sets(
            compi, sampler.f.coords, sampler.level.values, LAYER_ALPHA, sampler.C, v, rng
        )
        A.update(E)
        B.update(F)
    _scalar_assert_separation(sampler, sampler.f.coords @ v, A, B)
    return frozenset(A), frozenset(B)


def _scalar_assert_separation(sampler, proj, A, B):
    lam = sampler.level.values
    for i, j in sampler.graph.edges:
        if (i in A and j in B) or (i in B and j in A):
            gap = abs(proj[i] - proj[j])
            need = sampler.C * max(lam[i], lam[j])
            if not gap > need:
                raise ConclusionViolated(
                    f"edge ({i},{j}) violates directional separation: {gap} <= {need}"
                )


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
    layering = _Layering(np.zeros(n, dtype=int), lam, 0.7, 1.0)
    counts = {"E": 0, "F": 0}
    for k in range(200):
        v = rng.standard_normal(3)
        slabs = layering.decode(rng.bit_generator.random_raw((1, 1, layering.n_words)))
        E, F = layered_pair_sets((coords @ v)[None], slabs)
        E, F = set(np.flatnonzero(E)), set(np.flatnonzero(F))
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
        _Layering(np.zeros(1, dtype=int), np.ones(1), 0.0, 1.0)
    with pytest.raises(BadParams):
        _Layering(np.zeros(1, dtype=int), np.ones(1), LAYER_ALPHA, 0.0)


def _nan_entry(name, cube3):
    """A call of the entry point ``name`` with NaN for one parameter and valid
    values for the others."""
    nan, space = math.nan, cube3.space
    line = ThresholdedGraph(_line_space(3), ((0, 1), (1, 2)))
    calls = {
        "LevelFunction": lambda: LevelFunction(np.array([nan, 1.0])),
        "growth_ratio_rho": lambda: compression.growth_ratio_rho([2.0, 3.0], nan),
        "_Layering.alpha": lambda: _Layering(np.zeros(1, dtype=int), np.ones(1), nan, 1.0),
        "_Layering.C": lambda: _Layering(np.zeros(1, dtype=int), np.ones(1), LAYER_ALPHA, nan),
        "ComponentSeparatedSampler": lambda: ComponentSeparatedSampler(
            line, EuclideanMap(np.arange(3, dtype=float)[:, None]), LevelFunction(np.ones(3)),
            None, nan, RandomnessSpec(0)),
        "CompatibilityCertificate": lambda: CompatibilityCertificate(
            nan, np.zeros(3), np.ones(3, dtype=int)),
        "empirical_matching_bound": lambda: empirical_matching_bound(
            line, EuclideanMap(np.arange(3, dtype=float)[:, None]), nan, 10),
        "separated_pipeline": lambda: separated_pipeline(
            space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
            QuasiParams(0.25, 0.5), 1.0, nan, RandomnessSpec(0)),
    }
    return calls[name]


@pytest.mark.parametrize("entry, message", [
    ("LevelFunction", "level function must be strictly positive"),
    ("growth_ratio_rho", "C must be positive"),
    ("_Layering.alpha", "alpha and C must be positive"),
    ("_Layering.C", "alpha and C must be positive"),
    ("ComponentSeparatedSampler", "alpha and C must be positive"),
    ("CompatibilityCertificate", "C must be positive"),
    ("empirical_matching_bound", "C must be >= 1"),
    ("separated_pipeline", "C must be >= 1"),
])
def test_nan_parameter_is_bad_params(cube3, entry, message):
    call = _nan_entry(entry, cube3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NaN reaches a cast before the check
        with pytest.raises(BadParams, match=f"^{message}$"):
            call()


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


def _scalar_moderation_edge(graph, lam):
    """The first loopless edge along which the level more than doubles, by
    the per-edge loop the sampler's array test replaced."""
    for i, j in graph.loopless_edges():
        if lam[j] > 2.0 * lam[i] * (1 + 1e-9) or lam[i] > 2.0 * lam[j] * (1 + 1e-9):
            return (i, j)
    return None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_moderation_check_matches_scalar_loop(seed, n):
    rng = np.random.default_rng(seed)
    space = _line_space(n)
    pairs = rng.integers(0, n, (int(rng.integers(0, 2 * n)), 2))
    graph = ThresholdedGraph(space, tuple(map(tuple, pairs.tolist())))
    # levels on a doubling ladder, some exactly twice a neighbour, some infinite
    lam = 2.0 ** rng.integers(0, 4, n)
    lam[rng.random(n) < 0.15] = math.inf
    want = _scalar_moderation_edge(graph, lam)
    args = (graph, EuclideanMap(np.arange(n, dtype=float)[:, None]), LevelFunction(lam),
            None, 1.0, RandomnessSpec(0))
    if want is None:
        ComponentSeparatedSampler(*args)
    else:
        with pytest.raises(ModerationViolated) as info:
            ComponentSeparatedSampler(*args)
        assert info.value.edge == want


def test_sampler_rejects_close_weighted_pair():
    space = _line_space(3)
    g = ThresholdedGraph(space, ((0, 1), (1, 2)))
    f = EuclideanMap(np.zeros((3, 1)))  # image collapses: min-distance fails
    # only (0, 2) and (2, 0) lie at distance >= 2
    with pytest.raises(MinDistanceViolated) as info:
        ComponentSeparatedSampler(
            g, f, LevelFunction(np.ones(3)), 2.0, 1.0, RandomnessSpec(0)
        )
    assert info.value.pair == (0, 2)  # the first of (0, 2) and (2, 0)


def _full_matrix_close_pair(graph, f, lam, tau):
    """The sampler's min-distance check read off the whole image-distance
    matrix, as it was made before it gathered the tested pairs: the first
    same-component pair at distance >= tau, in row-major order, closer in the
    image than the smaller of its levels, or None."""
    comp = graph.component_of
    close = ((graph.space.dist >= tau) & (comp[:, None] == comp[None, :])
             & (f.image_distances() < np.minimum(lam[:, None], lam[None, :]) * (1 - 1e-9)))
    return tuple(map(int, np.argwhere(close)[0])) if close.any() else None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 128), st.integers(1, 12),
       st.sampled_from([1, 5, 64, 1 << 16]))
def test_min_distance_check_names_the_full_matrix_pair(seed, n, d, block):
    rng = np.random.default_rng(seed)
    space = space_from_points(rng.standard_normal((n, 2)))
    # components: runs of points joined by path edges, some with infinite levels
    label = np.sort(rng.integers(0, int(rng.integers(1, n + 1)), n))
    graph = ThresholdedGraph(space, [(i, i + 1) for i in range(n - 1) if label[i] == label[i + 1]])
    scale = float(rng.uniform(0.5, 5.0))
    lam = rng.uniform(1.0, 2.0, n) * scale  # never doubles along an edge
    lam[np.isin(graph.component_of, np.flatnonzero(rng.random(n) < 0.2))] = np.inf
    f = EuclideanMap(rng.standard_normal((n, d)) * scale)
    tau = float(rng.choice(space.dist[space.dist > 0]))
    want = _full_matrix_close_pair(graph, f, lam, tau)
    args = (graph, f, LevelFunction(lam), tau, 1.0, RandomnessSpec(0))
    with mock.patch.object(metric, "_PAIR_BLOCK", block):
        if want is None:
            ComponentSeparatedSampler(*args)
        else:
            with pytest.raises(MinDistanceViolated) as info:
                ComponentSeparatedSampler(*args)
            assert info.value.pair == want


def test_min_distance_check_reads_no_distance_across_components(grid4):
    # every point its own component: no pair is tested, so no image distance
    # is read, at any level
    space = grid4.space
    graph = ThresholdedGraph(space, [(i, i) for i in range(space.n)])
    f = EuclideanMap(np.zeros((space.n, 3)))
    with mock.patch.object(EuclideanMap, "image_distances", side_effect=AssertionError):
        ComponentSeparatedSampler(graph, f, LevelFunction(np.ones(space.n)), 2.0, 1.0,
                                  RandomnessSpec(0))


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


def _random_layered_sampler(rng, n_comps, directions=None):
    """Components of 1-8 points with tree edges and self-loops: finite levels
    that change by a factor in [1/2, 2] along each edge (so a long component
    spans several layers), or infinite levels; coordinates at a random scale."""
    edges, lam, size = [], [], 0
    for _c in range(n_comps):
        k = int(rng.integers(1, 9))
        finite = rng.random() < 0.6
        level = [math.exp(rng.uniform(-4.0, 4.0))]
        for x in range(1, k):
            parent = int(rng.integers(0, x))
            edges.append((size + parent, size + x))
            level.append(level[parent] * 2.0 ** rng.uniform(-1.0, 1.0))
        edges += [(size + x, size + x) for x in range(k) if rng.random() < 0.3]
        lam += level if finite else [math.inf] * k
        size += k
    # shuffle the point labels so components interleave
    perm = rng.permutation(size)
    edges = tuple((int(perm[i]), int(perm[j])) for i, j in edges)
    lam = np.asarray(lam)[np.argsort(perm)]
    dim = int(rng.integers(1, 4))
    coords = rng.standard_normal((size, dim)) * math.exp(rng.uniform(-3.0, 4.0))
    graph = ThresholdedGraph(space_from_points(coords), edges)
    C = float(rng.choice([0.5, 1.0, 3.0]))
    spec = RandomnessSpec(int(rng.integers(2**40)), ("oracle", int(rng.integers(-3, 3))))
    return ComponentSeparatedSampler(graph, EuclideanMap(coords), LevelFunction(lam), None, C,
                                     spec, directions=directions)


def _draw_outcome(draw, *args):
    """The draw's pair, or the message of the ConclusionViolated it raised."""
    try:
        return draw(*args)
    except ConclusionViolated as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([0, 60, 125, 250]),
       st.booleans())
def test_sampler_draw_matches_scalar_reference(seed, n_comps, first, other_directions):
    rng = np.random.default_rng(seed)
    # the directions come from the sampler's own streams or, as in the
    # separated-pair sampler, from another spec's
    directions = RandomnessSpec(int(rng.integers(2**40)), ("dirs",)) if other_directions else None
    sampler = _random_layered_sampler(rng, n_comps, directions)
    # eight draws from each start, then the start again
    for index in [*range(first, first + 8), first]:
        assert _draw_outcome(sampler.draw, index) == _draw_outcome(
            _scalar_sampler_draw, sampler, index, directions or sampler.randomness)


def test_sampler_separation_check_names_first_edge():
    # moderate levels keep a crossing edge inside one layer, where the slabs
    # separate it, so a violation needs sides that no draw produces
    rng = np.random.default_rng(5)
    raised = 0
    for _trial in range(60):
        sampler = _random_layered_sampler(rng, 4)
        side = rng.integers(0, 3, size=sampler.f.n)
        A, B = side == 1, side == 2
        proj = sampler.f.coords @ rng.standard_normal(sampler.f.dim)

        # the block check, on a block of one draw
        got = sampler._faults(proj[None], sampler._crosses(A, B)[None])[0]
        want = _draw_outcome(_scalar_assert_separation, sampler, proj,
                             set(np.flatnonzero(A).tolist()), set(np.flatnonzero(B).tolist()))
        assert got == want
        raised += got is not None
    assert raised > 0


# -------------------------------------------------------------------------
# good graphs
# -------------------------------------------------------------------------


def test_good_graph_builder_enforces_beta(cube4, uniform_measure):
    space = cube4.space
    mu = uniform_measure(space)
    phi = snowflake_embed(space, 0.5)
    params = QuasiParams(0.25, 0.5)
    # the builder takes the beta it is given, with no a-priori cap, and self-certifies
    good = good_graph_builder(space, mu, phi, params, 1.0, 2.0, r=4.0, beta=0.5)
    assert good.beta == 0.5
    assert np.all(good.level.values > 0)


def test_good_graph_builder_rejects_bad_quasisymmetry(cube3, uniform_measure):
    space = cube3.space
    phi = snowflake_embed(space, 0.5)
    with pytest.raises(QuasisymmetryViolated):
        good_graph_builder(
            space, uniform_measure(space), phi, QuasiParams(0.5, 0.5),
            1.0, 2.0, r=4.0, beta=1e-6,
        )


def test_checked_params_vouch_only_for_their_space_and_map(cube3, grid4, uniform_measure):
    # params that passed one (space, map) still scan another map or space
    space = grid4.space
    phi = snowflake_embed(space, 0.5)
    checked = randomzero._quasisymmetric(space, phi, QuasiParams(0.25, 0.5))
    assert randomzero._quasisymmetric(space, phi, checked) is checked
    scrambled = EuclideanMap(np.random.default_rng(0).standard_normal((space.n, 3)))
    with pytest.raises(QuasisymmetryViolated) as info:
        good_graph_builder(space, uniform_measure(space), scrambled, checked,
                           1.0, 2.0, r=4.0, beta=1e-6)
    assert info.value.triple == quasisym_check(space, scrambled, checked)[1]
    other = cube3.space
    with mock.patch.object(randomzero, "quasisym_check", wraps=quasisym_check) as scan:
        randomzero._quasisymmetric(other, snowflake_embed(other, 0.5), checked)
    assert scan.call_count == 1


def test_level_function_infinite_on_small_components():
    space = _line_space(4)
    # two components of diameter 1 < tau = 2
    g = ThresholdedGraph(space, ((0, 1), (2, 3)))
    f = EuclideanMap(np.arange(4, dtype=float)[:, None])
    level = build_level_function(space, g, f.image_distances(), C=1.0, tau=2.0)
    assert np.all(np.isinf(level.values))
    # one component spanning distance >= tau gets finite levels
    g2 = ThresholdedGraph(space, ((0, 1), (1, 2), (2, 3)))
    level2 = build_level_function(space, g2, f.image_distances(), C=1.0, tau=2.0)
    assert np.all(np.isfinite(level2.values))


def _scalar_level_function(space, graph, f, C, tau):
    """Reference: the level function as a loop over far same-component pairs."""
    lam = np.full(space.n, np.inf)
    E = f.image_distances()
    for comp in graph.components:
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
        got = build_level_function(space, graph, f.image_distances(), C, tau).values
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
        graph = ThresholdedGraph(space, edges, sigma=np.zeros(len(edges)))
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
            QuasiParams(0.25, 0.5), tau, 2.0, r=4.0, beta=0.5,
        )


def _good_graph_on(monkeypatch, space, edges, sigma, lam):
    """good_graph_builder on ``space`` with the compression's graph and the
    level function replaced by the given ones."""
    real = randomzero.universal_compression

    def stub_compression(*args, **kwargs):
        graph = ThresholdedGraph(space, edges, sigma=sigma)
        return dataclasses.replace(real(*args, **kwargs), graph=graph)

    monkeypatch.setattr(randomzero, "universal_compression", stub_compression)
    monkeypatch.setattr(randomzero, "build_level_function",
                        lambda *args: LevelFunction(np.asarray(lam, dtype=float)))
    return good_graph_builder(
        space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
        QuasiParams(0.25, 0.5), 2.0, 2.0, r=4.0, beta=0.5,
    )


def test_good_graph_names_first_doubling_edge(monkeypatch, cube3):
    # the level triples on (1,2) and again on (2,3); (1,2) comes first
    edges = ((0, 1), (1, 2), (2, 3))
    lam = [1.0, 1.0, 3.0, 9.0, 9.0, 9.0, 9.0, 9.0]
    with pytest.raises(ConclusionViolated, match=r"more than doubles on edge \(1,2\)$"):
        _good_graph_on(monkeypatch, cube3.space, edges, [0.0] * 3, lam)


def test_good_graph_names_first_edge_over_four_sigma(monkeypatch, cube3):
    # 4 sigma exceeds the unit level on the loop (1, 1) and on (2, 2), not on (0, 1)
    edges = ((0, 0), (0, 1), (1, 1), (2, 2))
    with pytest.raises(ConclusionViolated, match=r"level function on edge \(1, 1\)$"):
        _good_graph_on(monkeypatch, cube3.space, edges, [0.0, 0.1, 0.3, 0.5], np.ones(8))


@pytest.mark.xfail(strict=True, raises=ConclusionViolated,
                   reason="4 sigma exceeds the level function on the self-loop (5, 5)")
def test_good_graph_on_path300_reaches_finite_levels():
    # the first input known to reach the finite-level branch: a path, an l1
    # subset, at the pipeline's scales with tau at the diameter
    space = generate_instance("grid", {"rows": 1, "cols": 300}).space
    r, beta = pipeline_scales(QuasiParams(0.25, 0.5))
    good = good_graph_builder(
        space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
        QuasiParams(0.25, 0.5), 299.0, math.e**2, r=r, beta=beta,
    )
    assert np.isfinite(good.level.values).any()


def test_separation_check_needs_crossable_edges_on_the_path(monkeypatch):
    # verify's check 3 runs path300 with its isometric map at tau = diam for
    # its loopless edges and finite levels; without edges it does not pass
    rec = verify.check_deterministic_separation(0, "fast")
    assert rec["passed"] and rec["measured"]["loopless_edges"]["path300"] == 299
    assert rec["measured"]["finite_levels"]["path300"] == 300
    monkeypatch.setattr(ThresholdedGraph, "loopless_edges", lambda self: np.empty((0, 2), int))
    assert not verify.check_deterministic_separation(0, "fast")["passed"]


def test_separation_check_counts_faults_over_the_block_it_drew(monkeypatch):
    # a planted fault on every seventh row of each case's block: the check
    # counts the faulty rows of that block and makes no draw again
    block = ComponentSeparatedSampler.block
    made = []

    def planted(self, indices):
        made.append(len(indices))
        drawn = block(self, indices)
        return drawn._replace(faults=["planted" if row % 7 == 0 else fault
                                      for row, fault in enumerate(drawn.faults)])

    monkeypatch.setattr(ComponentSeparatedSampler, "block", planted)
    rec = verify.check_deterministic_separation(0, "fast")
    assert not rec["passed"]
    assert rec["measured"]["violations"] == dict.fromkeys(
        ["cube4", "grid4", "diamond2", "path300"], 143)
    assert made == [1000] * 4


# -------------------------------------------------------------------------
# separated-pair pipeline
# -------------------------------------------------------------------------


def _pipeline(space, tau, C=1.0, seed=0):
    mu = PointMeasure(np.ones(space.n))
    phi = snowflake_embed(space, 0.5)
    params = QuasiParams(0.25, 0.5)
    return separated_pipeline(space, mu, phi, params, tau, C, RandomnessSpec(seed, ("pl",)))


def _uniform_far_marginals(space, tau):
    """The vertex weights of the uniform weighting on the pairs at distance
    >= tau, by the float operations of the (n, n) pair weighting they were
    read from before the sampler took vertex weights: 1.0 on the pairs,
    divided by the sum, and the row sums."""
    sup = (space.dist >= tau) & ~np.eye(space.n, dtype=bool)
    W = np.where(sup, 1.0, 0.0)
    return VertexWeights((W / W.sum()).sum(axis=1))


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
    assert [side.nonzero()[0].tolist() for side in sampler._fallback] == [[i] for i in first]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["grid", "lp_cloud"]), st.integers(2, 96), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_pipeline_fallback_is_the_lexicographically_first_far_pair(family, n, at_diam, seed):
    # the pair a trace counts as a fallback: the first (i, j), i < j, at
    # distance >= tau, which a draw under zero weights returns
    space, tau, C = _embed_scale_case(family, n, np.random.default_rng(seed))
    tau = space.diam if at_diam else tau
    sampler = separated_pipeline(
        space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
        QuasiParams(0.25, 0.5), tau, C, RandomnessSpec(seed, ("fallback",)))
    i, j = np.argwhere(np.triu(space.dist >= tau, k=1))[0].tolist()
    assert [side.nonzero()[0].tolist() for side in sampler._fallback] == [[i], [j]]
    assert sampler.draw(0, VertexWeights(np.zeros(space.n))) == (frozenset([i]), frozenset([j]))


def test_pipeline_separation_check_names_first_pair(cube4):
    space = cube4.space
    sampler = _pipeline(space, tau=1.0, C=2.0)
    # widen the radius so that the pairs at distance 1 fall inside it
    good = dataclasses.replace(sampler.good, beta=1.5 * sampler.rho.max())
    sampler = randomzero.SeparatedPairSampler(good, RandomnessSpec(0))
    A, B = {14, 9, 3}, {12, 1, 2}
    radius = sampler.beta * sampler.tau
    first = next((x, y) for x in sorted(A) for y in sorted(B)
                 if not space.dist[x, y] > radius / min(sampler.rho[x], sampler.rho[y]))
    with pytest.raises(ConclusionViolated, match=rf"pair \({first[0]},{first[1]}\) inside"):
        sampler._assert_separation(np.array(sorted(A)), np.array(sorted(B)))


def test_pipeline_crossing_edges_match_scalar_reference(monkeypatch, grid4):
    # the rows of the grid as path components with a small finite level, so
    # that draws cut edges and the extractor sees a crossing list
    space = grid4.space
    sampler = _pipeline(space, tau=2.0)
    rows = tuple((4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3))
    graph = ThresholdedGraph(space, rows + ((5, 5),), sigma=np.zeros(len(rows) + 1))
    good = dataclasses.replace(
        sampler.good, level=LevelFunction(np.full(space.n, 1e-3)),
        compression=dataclasses.replace(sampler.good.compression, graph=graph,
                                        f=snowflake_embed(space, 0.5)),
    )
    sampler = randomzero.SeparatedPairSampler(good, RandomnessSpec(3))
    seen = []
    real = randomzero.extract_unsaturated_pair

    def record(A, B, crossing, weights):
        seen.append((A, B, crossing))
        return real(A, B, crossing, weights)

    monkeypatch.setattr(randomzero, "extract_unsaturated_pair", record)
    for k in range(100):
        sampler.draw(k)
    assert sum(len(crossing) for _A, _B, crossing in seen) > 0
    for A, B, crossing in seen:
        assert list(map(tuple, crossing.tolist())) == [
            (i, j) for (i, j) in graph.loopless_edges() if (A[i] and B[j]) or (B[i] and A[j])]


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["grid", "lp_cloud"]), st.integers(2, 128), st.integers(0, 2**32 - 1))
def test_default_weights_are_the_uniform_far_pair_marginals(family, n, seed):
    space, tau, C = _embed_scale_case(family, n, np.random.default_rng(seed))
    sampler = separated_pipeline(
        space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
        QuasiParams(0.25, 0.5), tau, C, RandomnessSpec(seed, ("weights",)))
    assert sampler.weights.Q.tobytes() == _uniform_far_marginals(space, tau).Q.tobytes()


def test_pipeline_draw_takes_any_vertex_weights(grid4):
    space = grid4.space
    sampler = _pipeline(space, tau=2.0)
    # the marginals of a weighting on farther pairs, and no weight at all:
    # every point saturated, so every draw falls back to the first far pair
    for weights in (_uniform_far_marginals(space, 4.0), VertexWeights(np.zeros(space.n))):
        for k in range(10):
            A, B = sampler.draw(k, weights)
            assert A and B and not (A & B)
    assert sampler.draw(0, VertexWeights(np.zeros(space.n))) == tuple(
        frozenset(side.nonzero()[0].tolist()) for side in sampler._fallback)
    for size in (space.n - 1, space.n + 1):
        with pytest.raises(BadParams, match="one value per point"):
            sampler.draw_masks([0, 1], VertexWeights(np.ones(size)))


def _scalar_pair_draw(sampler, index, weights):
    """A separated-pair draw made one draw at a time: the scalar component
    draw with the sampler's directions, the unsaturated-pair extractor on
    every draw with two sides (an LP only when an edge crosses), the first
    far pair as the fallback, and the metric separation as a loop."""
    inner, space = sampler._inner, sampler.space
    n, D, rho = space.n, space.dist, sampler.rho
    A, B = _scalar_sampler_draw(inner, index, sampler.randomness)
    if A and B:
        crossing = [(i, j) for i, j in inner.graph.loopless_edges()
                    if (i in A and j in B) or (i in B and j in A)]
        L, R = extract_unsaturated_pair(np.isin(np.arange(n), sorted(A)),
                                        np.isin(np.arange(n), sorted(B)), crossing, weights)
        A, B = set(np.flatnonzero(L).tolist()), set(np.flatnonzero(R).tolist())
    if not A or not B:
        x, y = next((x, y) for x in range(n) for y in range(x + 1, n) if D[x, y] >= sampler.tau)
        A, B = {x}, {y}
    for x in sorted(A):
        for y in sorted(B):
            if not D[x, y] > sampler.beta * sampler.tau / min(rho[x], rho[y]):
                raise ConclusionViolated(f"pair ({x},{y}) inside the separation radius")
    return frozenset(A), frozenset(B)


def _assert_pair_draws_match_reference(make_sampler, other, rng):
    """Draws 0 .. 79 for the vertex weights of
    their index's parity (the sampler's default or ``other``), made in order,
    in a shuffled order with repeats on a second sampler, and one at a time
    by the scalar reference, all agree.  So do the batched draws of the
    indices of each weights on fresh samplers, every row with nonempty sides
    that no pair joins inside the separation radius, twice in a row."""
    indices = list(range(80))
    in_order, shuffled = make_sampler(), make_sampler()
    weights = (in_order.weights, other)
    expected = {k: _draw_outcome(in_order.draw, k, weights[k % 2]) for k in indices}
    for k in rng.permutation(indices + indices[::7]).tolist():
        assert _draw_outcome(shuffled.draw, k, weights[k % 2]) == expected[k]
    for k in indices:
        assert expected[k] == _draw_outcome(_scalar_pair_draw, in_order, k, weights[k % 2])
    space = in_order.space
    radius = in_order.beta * in_order.tau / np.minimum.outer(in_order.rho, in_order.rho)
    for parity, chosen in enumerate(weights):
        batch = indices[parity::2]
        want = [expected[k] for k in batch]
        failures = [w for w in want if isinstance(w, str)]
        for sampler in (make_sampler(), make_sampler()):
            got = _draw_outcome(sampler.draw_masks, batch, chosen)
            if failures:
                assert isinstance(got, str) and got == failures[0]
                continue
            assert [tuple(frozenset(side.nonzero()[0].tolist()) for side in row)
                    for row in got] == want
            for A, B in got:
                assert A.any() and B.any()
                assert (space.dist[np.ix_(A, B)] > radius[np.ix_(A, B)]).all()


def _embed_scale_case(family, n, rng):
    """A grid or lp_cloud space of about ``n`` points, a tau at a scale the
    embedding pipeline solves at, and a C of one of its levels."""
    if family == "grid":
        rows = int(rng.integers(1, math.isqrt(n) + 1))
        space = generate_instance("grid", {"rows": rows, "cols": max(2, n // rows)}).space
    else:
        space = generate_instance("lp_cloud", {"n": n, "p": 2.0, "dim": 3},
                                  seed=int(rng.integers(2**31))).space
    scale = int(rng.integers(math.floor(math.log2(space.min_positive_distance)) - 1,
                             math.ceil(math.log2(space.diam)) + 1))
    tau = min(float(rng.choice([1.0, 2.0])) * 2.0**scale, space.diam)
    return space, tau, float(rng.choice([1.0, math.e]))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["grid", "lp_cloud"]), st.integers(2, 128), st.integers(0, 2**32 - 1))
def test_pair_draw_block_cache_matches_scalar_reference(family, n, seed):
    rng = np.random.default_rng(seed)
    space, tau, C = _embed_scale_case(family, n, rng)
    # the marginals of a second weighting, on the pairs at least as far as a larger distance
    other = _uniform_far_marginals(space, float(rng.choice(space.dist[space.dist >= tau])))
    spec = RandomnessSpec(seed, ("cache",))
    _assert_pair_draws_match_reference(lambda: separated_pipeline(
        space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
        QuasiParams(0.25, 0.5), tau, C, spec), other, rng)


def _golden_pair_sampler(space):
    """The separated-pair sampler of the golden pair draws on grid4: its rows
    as path components at the finite level 1e-3."""
    base = _pipeline(space, tau=2.0)
    rows = tuple((4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3))
    good = dataclasses.replace(
        base.good, level=LevelFunction(np.full(space.n, 1e-3)),
        compression=dataclasses.replace(
            base.good.compression,
            graph=ThresholdedGraph(space, rows, sigma=np.zeros(len(rows)))),
    )
    return randomzero.SeparatedPairSampler(good, RandomnessSpec(0, ("golden-pairs",)))


def test_finite_level_block_cache_matches_scalar_reference(grid4):
    # the finite-level graph of the golden pair draws: crossing edges reach
    # the unsaturated-pair LP and the directional separation check
    sampler = _golden_pair_sampler(grid4.space)
    crossing = sampler._inner.block(range(80)).cross.any(axis=1)
    assert crossing.sum() > 10
    _assert_pair_draws_match_reference(
        lambda: _golden_pair_sampler(grid4.space),
        _uniform_far_marginals(grid4.space, 4.0), np.random.default_rng(1))


def test_directions_are_read_only_with_finite_levels(monkeypatch, grid4):
    opened = []
    call = StreamOpener.__call__

    def spy(self, *key):
        opened.append(self.name)
        return call(self, *key)

    monkeypatch.setattr(StreamOpener, "__call__", spy)
    # grid8 at an embed scale: every level is infinite, so no slab reads a
    # projection and no draw opens a direction
    space = generate_instance("grid", {"rows": 8, "cols": 8}).space
    sampler = _pipeline(space, tau=2.0, C=math.e)
    assert sampler._inner._layering.finite.size == 0
    indices = range(72)
    draws = [_draw_outcome(sampler.draw, k, sampler.weights) for k in indices]
    assert "direction" not in opened
    assert draws == [_draw_outcome(_scalar_pair_draw, sampler, k, sampler.weights) for k in indices]
    # the finite-level golden graph opens one direction per draw it makes
    sampler = _golden_pair_sampler(grid4.space)
    draws = [(sorted(A), sorted(B)) for A, B in map(sampler.draw, range(100))]
    assert opened.count("direction") == 100
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == GOLDEN_PAIR_DRAWS


def test_pipeline_rejects_tau_beyond_diameter(cube3):
    space = cube3.space
    with pytest.raises(TauExceedsDiameter):
        separated_pipeline(
            space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
            QuasiParams(0.25, 0.5), 10.0, 1.0, RandomnessSpec(0),
        )


def test_pipeline_rejects_nonpositive_tau(cube3):
    space = cube3.space
    for tau in (0.0, -1.0, math.nan):
        with pytest.raises(BadParams, match="tau must be positive"):
            separated_pipeline(
                space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
                QuasiParams(0.25, 0.5), tau, 1.0, RandomnessSpec(0),
            )
    # a good graph of another tau reaches the sampler's own check
    good = dataclasses.replace(_pipeline(space, tau=1.0).good, tau=0.0)
    with pytest.raises(BadParams, match="tau must be positive"):
        randomzero.SeparatedPairSampler(good, RandomnessSpec(0))


def test_pipeline_rejects_a_good_graph_of_another_tau_or_c(grid4):
    space = grid4.space
    mu, phi = PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5)
    params = QuasiParams(0.25, 0.5)
    good = _pipeline(space, tau=4.0).good
    assert (good.tau, good.C) == (4.0, 1.0)
    with pytest.raises(BadParams, match="tau 2 and C 1 differ from the good graph's tau 4 and C 1"):
        separated_pipeline(space, mu, phi, params, 2.0, 1.0, RandomnessSpec(0), good=good)
    with pytest.raises(BadParams, match="tau 4 and C 2 differ from the good graph's tau 4 and C 1"):
        separated_pipeline(space, mu, phi, params, 4.0, 2.0, RandomnessSpec(0), good=good)
    sampler = separated_pipeline(space, mu, phi, params, 4.0, 1.0, RandomnessSpec(0), good=good)
    assert sampler.good is good


# -------------------------------------------------------------------------
# duality and gluing
# -------------------------------------------------------------------------


def test_duality_lp_dominates_mw(grid4):
    space = grid4.space
    tau = 2.0
    mu = PointMeasure(np.ones(space.n))
    phi = snowflake_embed(space, 0.5)
    params = QuasiParams(0.25, 0.5)
    sampler = separated_pipeline(space, mu, phi, params, tau, 1.0, RandomnessSpec(0, ("dual",)))
    mw = duality_solve(sampler, rounds=24, randomness=RandomnessSpec(1))
    assert mw.space is space
    lp_mixture, lp_value = column_game(mw)
    # the LP mixture over MW's column pool is maximin-optimal
    assert lp_mixture.shape == mw.mixture.shape == (len(mw.columns),)
    assert 0.0 <= mw.value <= lp_value + 1e-9
    assert lp_value <= 1.0
    assert np.isclose(mw.mixture.sum(), 1.0) and np.isclose(lp_mixture.sum(), 1.0)
    for k in range(20):
        Z = mw.draw(k)
        assert Z and Z <= frozenset(range(space.n))


def _linprog_column_game(cov):
    """The column game by ``scipy.optimize.linprog``: the maximin mixture and
    its worst coverage, as ``column_game`` reports them."""
    k, pairs = cov.shape
    bounds = [(0, None)] * k + [(None, None)]
    res = scipy.optimize.linprog(
        np.append(np.zeros(k), -1.0), A_ub=np.hstack([-cov.T, np.ones((pairs, 1))]),
        b_ub=np.zeros(pairs), A_eq=np.append(np.ones(k), 0.0)[None], b_eq=[1.0], bounds=bounds,
        method="highs")
    assert res.success
    mu = np.clip(res.x[:k], 0.0, None)
    mu /= mu.sum()
    return mu, float(np.min(mu @ cov))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 120))
def test_column_game_is_linprogs(seed, k, pairs):
    # random pools: coverage values are sums of two halves, as _column_coverage's
    cov = np.random.default_rng(seed).choice([0.0, 0.5, 1.0], size=(k, pairs))
    mu = randomzero._solve_column_game(cov)
    want_mu, want_value = _linprog_column_game(cov)
    assert np.array_equal(mu, want_mu) and float(np.min(mu @ cov)) == want_value


def test_duality_exact_lp_failure_is_a_solver_error(monkeypatch, grid4):
    space = grid4.space
    sampler = _pipeline(space, tau=2.0)
    limit_lp_runs(monkeypatch, randomzero)
    dist = duality_solve(sampler, rounds=2)
    with pytest.raises(LPSolveFailed, match="^column game LP failed: Iteration limit reached"):
        column_game(dist)


def _reference_duality_solve(sampler, rounds):
    """The duality solve one draw at a time: ``sampler.draw`` per draw for
    the row sums of the round's MW weights, which are kept as an (n, n)
    matrix, and the pool kept as pairs of member sets.  Returns the pool's
    side masks, the mixture and its value."""
    space = sampler.space
    pairs, near = randomzero._far_pairs(space, sampler.tau, sampler)
    n = space.n
    lr = math.sqrt(math.log(pairs.size) / rounds)
    decay = np.array([1.0, math.exp(-lr / 2.0), math.exp(-lr)])
    weights = np.zeros((n, n))
    flat = weights.reshape(-1)
    flat[pairs] = 1.0
    pool, counts = [], []
    cov = np.empty((0, pairs.size))
    for t in range(rounds):
        W = (weights + weights.T) / 2.0
        W = W / W.sum()
        for d in range(DRAWS_PER_ROUND):
            column = sampler.draw(t * DRAWS_PER_ROUND + d, VertexWeights(W.sum(axis=1)))
            if column not in pool:
                pool.append(column)
                counts.append(0)
                mask = [[np.isin(np.arange(n), sorted(side)) for side in column]]
                cov = np.vstack([cov, _column_coverage(near, pairs, np.array(mask))])
        pair_w = flat[pairs]
        pair_w /= pair_w.sum()
        best = _best_response(cov, pair_w)
        counts[best] += 1
        flat[pairs] *= decay[(2 * cov[best]).astype(int)]
    mu = np.array(counts) / sum(counts)
    masks = np.array([[np.isin(np.arange(n), sorted(side)) for side in column] for column in pool])
    return masks, mu, float(np.min(mu @ cov))


def _solve_outcome(solve, *args):
    """A solve's (columns, mixture, value), or its error's type and message."""
    try:
        return solve(*args)
    except ZerosetkitError as exc:
        return type(exc), str(exc)


def _finishing_spy():
    """A patch of ``SeparatedPairSampler._finish`` and the list it appends
    each call's kind to: "run" for rows finished ahead for the 0/1
    far-point vector, "round" for a round's exact marginals, which sum to 1
    over two or more points and so are never all 0 or 1."""
    kinds = []
    finish = randomzero.SeparatedPairSampler._finish

    def spy(self, block, rows, Q):
        kinds.append("run" if np.isin(Q, (0.0, 1.0)).all() else "round")
        return finish(self, block, rows, Q)

    return mock.patch.object(randomzero.SeparatedPairSampler, "_finish", spy), kinds


def _assert_solve_matches_reference(make_sampler, rounds):
    """The solve's columns, mixture bytes and value, or its error, are the
    reference's; returns the kinds of the solve's finishing calls, in order."""
    want = _solve_outcome(_reference_duality_solve, make_sampler(), rounds)
    patch, kinds = _finishing_spy()
    with patch:
        got = _solve_outcome(lambda: duality_solve(make_sampler(), rounds=rounds))
    if isinstance(want[0], type):
        assert got == want
        return kinds
    assert isinstance(got, randomzero.DualityDistribution)
    columns, mixture, value = want
    assert np.array_equal(got.columns, columns)
    assert got.mixture.tobytes() == mixture.tobytes()
    assert got.value == value
    return kinds


def _singleton_sampler(base):
    """``base`` on the all-singleton good graph (a self-loop at every point)
    with infinite levels, as the embedding pipeline builds at small scales."""
    n = base.space.n
    graph = ThresholdedGraph(base.space, [(x, x) for x in range(n)], sigma=np.zeros(n))
    good = dataclasses.replace(
        base.good, level=LevelFunction(np.full(n, np.inf)),
        compression=dataclasses.replace(base.good.compression, graph=graph))
    return randomzero.SeparatedPairSampler(good, base.randomness)


@settings(max_examples=18, deadline=None)
@given(st.sampled_from(["grid", "lp_cloud"]), st.integers(2, 128), st.sampled_from([1, 5, 12, 16]),
       st.sampled_from(["scale", "diameter", "singletons"]), st.integers(0, 2**32 - 1))
def test_duality_solve_matches_per_draw_reference(family, n, rounds, case, seed):
    # rounds of 1, 5, 12 and 16 end a solve at 8, 40, 96 and 128 draws;
    # tau at an embed scale, at the diameter (the fewest far pairs), or at an
    # embed scale on the all-singleton good graph
    space, tau, C = _embed_scale_case(family, n, np.random.default_rng(seed))
    if case == "diameter":
        tau = space.diam

    def make_sampler():
        sampler = separated_pipeline(
            space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
            QuasiParams(0.25, 0.5), tau, C, RandomnessSpec(seed, ("dual",)))
        return _singleton_sampler(sampler) if case == "singletons" else sampler

    _assert_solve_matches_reference(make_sampler, rounds)


@pytest.mark.parametrize("rounds", [1, 5, 12, 16])
def test_finite_level_duality_solve_matches_per_draw_reference(grid4, rounds):
    # crossing edges reach the unsaturated-pair LP under every round's
    # weights; the rows between them finish ahead in runs
    kinds = _assert_solve_matches_reference(lambda: _golden_pair_sampler(grid4.space), rounds)
    assert "round" in kinds and ("run" in kinds) == (rounds > 1)


@pytest.mark.parametrize("n, seed", [(3, 0), (5, 0), (7, 1), (8, 1)])
def test_certified_runs_end_mid_solve_in_check_12s_regime(n, seed):
    # check 12's solves: lp_cloud of 3-8 points at tau = diam / 2, 128
    # rounds.  The first run's certificate ends before the solve does
    # (except at n = 3), and the next round certifies the rest.
    space = generate_instance("lp_cloud", {"n": n, "p": 2.0, "dim": 3}, seed=seed).space
    kinds = _assert_solve_matches_reference(lambda: separated_pipeline(
        space, PointMeasure(np.ones(n)), snowflake_embed(space, 0.5), QuasiParams(0.25, 0.5),
        space.diam / 2.0, 1.0, RandomnessSpec(seed, ("dual",))), 128)
    assert kinds == ["run"] * (1 if n == 3 else 2)


def test_rounds_past_the_certificate_read_exact_marginals(monkeypatch, grid4):
    # MW factors exp(-40 lr): the weights of covered pairs fall below the
    # certificate within a few rounds, so with no crossing edge at all the
    # later rounds finish for their exact marginals
    make_sampler = functools.partial(_singleton_sampler, _pipeline(grid4.space, tau=4.0))
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda x: exp(40.0 * x))
    kinds = _assert_solve_matches_reference(make_sampler, 12)
    assert kinds[0] == "run" and "round" in kinds


def test_duality_solve_whose_pair_weights_underflow_raises_the_reference_error(
        monkeypatch, grid4):
    # with every MW factor 0, each pair a best response covers drops to
    # weight 0; once all have, the marginals are NaN, which the reference's
    # vertex weights reject.  The singleton graph's draws read no exp.
    make_sampler = functools.partial(_singleton_sampler, _pipeline(grid4.space, tau=6.0))
    monkeypatch.setattr(math, "exp", lambda x: 0.0)
    with np.errstate(invalid="ignore"):  # the reference divides 0 by 0
        want = _solve_outcome(_reference_duality_solve, make_sampler(), 16)
        assert want == (BadParams, "vertex weights must be finite and nonnegative")
        kinds = _assert_solve_matches_reference(make_sampler, 16)
    # round 0 is certified; no later round is, once a factor is 0
    assert kinds[0] == "run" and set(kinds[1:]) == {"round"}


def _fault_sampler(space, radius=None, need=1.0):
    """The golden pair sampler with its separation radius widened to
    ``radius``, so that some draws put close points on the two sides, and its
    directional separation threshold times ``need``, so that some crossing
    edges fail it."""
    base = _golden_pair_sampler(space)
    good = base.good if radius is None else dataclasses.replace(
        base.good, beta=radius * base.rho.min() / base.tau)
    sampler = randomzero.SeparatedPairSampler(good, base.randomness)
    sampler._inner._need = need * sampler._inner._need
    return sampler


@pytest.mark.parametrize("radius, need", [(1.0, 1.0), (None, 10.0)], ids=["metric", "directional"])
def test_duality_solve_raises_the_first_fault_of_the_reference(grid4, radius, need):
    rounds = 12
    sampler = _fault_sampler(grid4.space, radius, need)
    outcomes = [_draw_outcome(sampler.draw, k) for k in range(rounds * DRAWS_PER_ROUND)]
    first = next(k for k, outcome in enumerate(outcomes) if isinstance(outcome, str))
    # the draws before the fault in its round succeed: the block holds them
    assert first % DRAWS_PER_ROUND > 0
    want = _solve_outcome(_reference_duality_solve, _fault_sampler(grid4.space, radius, need),
                          rounds)
    assert want[0] is ConclusionViolated
    _assert_solve_matches_reference(lambda: _fault_sampler(grid4.space, radius, need), rounds)


def test_pair_draw_masks_raise_the_first_failure_of_a_draw_loop(grid4):
    sampler = _fault_sampler(grid4.space, radius=1.0, need=30.0)
    outcomes = [_draw_outcome(sampler.draw, k) for k in range(96)]
    # a metric fault listed before a directional one: the directional fault
    # is known before any weights are applied, the metric one only after
    assert "separation radius" in outcomes[1] and "directional" in outcomes[10]
    batches = [[1, 10], [10, 1], [0, 2, 3, 10, 1]]
    rng = np.random.default_rng(0)
    batches += [rng.choice(96, size=int(rng.integers(1, 12)), replace=False).tolist()
                for _ in range(40)]
    for batch in batches:
        got = _draw_outcome(_fault_sampler(grid4.space, 1.0, 30.0).draw_masks, batch)
        failed = [outcomes[k] for k in batch if isinstance(outcomes[k], str)]
        if failed:
            assert got == failed[0]
        else:
            assert [tuple(frozenset(side.nonzero()[0].tolist()) for side in row)
                    for row in got] == [outcomes[k] for k in batch]


def test_embed_pipeline_finishes_each_solve_in_one_run_and_builds_no_pool_coverage(monkeypatch):
    # cube6 at the EmbedConfig defaults: every solve's rows finish in one certified
    # run, with no (n, n) marginals, and coverage is built only for each
    # round's new columns; the pipeline never reads a solve's value
    space = generate_instance("hamming_cube", {"dim": 6}).space
    patch, kinds = _finishing_spy()
    solves, widths = [], []
    solve, coverage = descent.duality_solve, randomzero._column_coverage

    def spy_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    def spy_coverage(near, pairs, columns):
        widths.append(len(columns))
        return coverage(near, pairs, columns)

    monkeypatch.setattr(descent, "duality_solve", spy_solve)
    monkeypatch.setattr(randomzero, "_column_coverage", spy_coverage)
    with patch:
        descent.euclidean_embed_pipeline(space, PointMeasure(np.ones(space.n)),
                                         negative_type=True, config=descent.EmbedConfig())
    assert solves and kinds == ["run"] * len(solves)
    assert widths and max(widths) <= DRAWS_PER_ROUND


def test_duality_solve_reads_one_block_of_component_rows(monkeypatch):
    # cube6 at the CLI's default 12 rounds: 96 draws of 64 singleton components
    space = generate_instance("hamming_cube", {"dim": 6}).space
    sampler = _pipeline(space, tau=2.0)
    assert sampler._inner._layering.n_components == space.n == 64
    reads, layered = [], []
    raw_words = StreamOpener.raw_words
    layered_pair_sets = randomzero.layered_pair_sets

    def spy_words(self, keys, k):
        reads.append((self.name, len(keys)))
        return raw_words(self, keys, k)

    def spy_layered(proj, slabs):
        layered.append(len(slabs.E))
        return layered_pair_sets(proj, slabs)

    monkeypatch.setattr(StreamOpener, "raw_words", spy_words)
    monkeypatch.setattr(randomzero, "layered_pair_sets", spy_layered)
    duality_solve(sampler, rounds=12)
    assert reads == [("component", 12 * DRAWS_PER_ROUND * 64)]
    assert layered == [12 * DRAWS_PER_ROUND]


def test_pair_draws_read_only_the_indices_asked_for(monkeypatch):
    # cube6: 64 singleton components, so a draw reads 64 component rows
    space = generate_instance("hamming_cube", {"dim": 6}).space
    sampler = _pipeline(space, tau=2.0)
    singles = [sampler.draw(k) for k in (10**6, 0)]
    reads = []
    raw_words = StreamOpener.raw_words

    def spy_words(self, keys, k):
        reads.append((self.name, len(keys)))
        return raw_words(self, keys, k)

    monkeypatch.setattr(StreamOpener, "raw_words", spy_words)
    masks = sampler.draw_masks([10**6, 0])
    assert reads == [("component", 2 * 64)]
    assert [tuple(frozenset(side.nonzero()[0].tolist()) for side in row)
            for row in masks] == singles


@pytest.mark.parametrize("finite", [False, True], ids=["infinite-levels", "finite-levels"])
def test_empty_index_lists_make_empty_blocks(grid4, finite):
    sampler = _golden_pair_sampler(grid4.space) if finite else _pipeline(grid4.space, tau=2.0)
    assert bool(sampler._inner._layering.finite.size) is finite
    for indices in ([], np.array([], dtype=np.int64), range(0)):
        assert sampler.draw_masks(indices).shape == (0, 2, grid4.space.n)
        block = sampler._inner.block(indices)
        assert block.sides.shape == (0, 2, grid4.space.n)
        assert block.cross.shape == (0, len(sampler._inner._edges))
        assert block.faults == []


def test_component_blocks_take_any_index_order(grid4):
    # the finite-level golden graph: rows of a block in any order, with
    # repeats and negative indices, are the one-row draws of their indices
    inner = _golden_pair_sampler(grid4.space)._inner
    indices = [5, -3, 70, 5, 0, 2**40]
    block = inner.block(indices)
    for row, index in enumerate(indices):
        single = inner.block([index])
        assert np.array_equal(block.sides[row], single.sides[0])
        assert np.array_equal(block.cross[row], single.cross[0])
        assert block.faults[row] == single.faults[0]
        assert _draw_outcome(inner.draw, index) == _draw_outcome(
            _scalar_sampler_draw, inner, index, RandomnessSpec(0, ("golden-pairs",)))


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
@given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 4))
def test_column_coverage_matches_scalar_reference(n, seed, empty_b, n_columns):
    rng = np.random.default_rng(seed)
    space = space_from_points(rng.standard_normal((n, int(rng.integers(1, 4)))))
    D = space.dist
    columns = []
    for _c in range(n_columns):
        side = rng.integers(0, 3, size=n)  # 0: neither, 1: A, 2: B
        if empty_b:
            side[side == 2] = 0
        columns.append(tuple(frozenset(int(x) for x in np.flatnonzero(side == s))
                             for s in (1, 2)))
    # half the radii sit exactly on a distance, to exercise the >= boundary
    psi = np.where(rng.random(n) < 0.5, D[np.arange(n), rng.integers(0, n, size=n)],
                   rng.uniform(0.0, 1.2 * space.diam, size=n))
    tau = float(rng.choice(D[np.triu_indices(n, 1)]))
    support = (D >= tau) & ~np.eye(n, dtype=bool)
    pairs = list(zip(*np.nonzero(support)))
    # the near-point matrix as duality_solve builds it
    near = (D < psi[:, None]).T.astype(float)
    masks = np.array([[np.isin(np.arange(n), list(members)) for members in column]
                      for column in columns])
    got = _column_coverage(near, np.flatnonzero(support), masks)
    assert got.shape == (n_columns, len(pairs))
    for row, (A, B) in zip(got, columns):
        assert np.array_equal(row, _scalar_column_coverage(D, pairs, A, B, psi))


def _near_tie_case(rng):
    """Coverage rows in {0, 1/2, 1} with duplicate and all-zero rows, and
    pair weights summing to 1 that are equal up to the last bits, so that
    rows covering as many pairs tie up to rounding."""
    n_cols, n_pairs = int(rng.integers(1, 40)), int(rng.integers(1, 400))
    cov = 0.5 * rng.integers(0, 3, size=(n_cols, n_pairs))
    cov[rng.random(n_cols) < 0.2] = 0.0
    if n_cols > 1:
        cov[rng.integers(0, n_cols, size=n_cols // 3)] = cov[rng.integers(0, n_cols)]
    if rng.random() < 0.5:  # rows of equal counts: ties in exact arithmetic
        cov = np.sort(cov, axis=1)
        for row in cov:
            rng.shuffle(row)
    w = np.full(n_pairs, 1.0) + rng.integers(-4, 5, size=n_pairs) * 2.0**-50
    if rng.random() < 0.3:
        w = rng.random(n_pairs) ** 8
    return cov, w / w.sum()


def test_best_response_matches_per_column_scores():
    near_ties = exact_ties = 0
    for seed in range(400):
        cov, w = _near_tie_case(np.random.default_rng(seed))
        scores = [float(w @ c) for c in cov]
        assert _best_response(cov, w) == int(np.argmax(scores))
        top = max(scores)
        rivals = [s for s, c in zip(scores, cov)
                  if s != top and abs(s - top) <= 4 * len(w) * np.finfo(float).eps]
        near_ties += bool(rivals)
        exact_ties += sum(s == top for s in scores) > 1
    # the cases include maxima that differ only in the last bits, and ties
    assert near_ties > 0 and exact_ties > 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 300),
       st.sampled_from(["random", "tied", "dominant"]), st.sampled_from(["uniform", "mw"]))
@example(0, 5, 40, "tied", "uniform")
@example(0, 5, 40, "dominant", "mw")
def test_best_response_is_the_first_maximum_of_contiguous_row_scores(seed, m, n_pairs, pool,
                                                                     weighting):
    # half-integer coverage rows as in a solve's pool: "tied" rows share
    # their counts, so under uniform weights every row is within the screen's
    # margin and exact ties are decided by rounded scores; "dominant" has one
    # full row, the only one within the margin
    rng = np.random.default_rng(seed)
    cov = np.zeros((m + 3, n_pairs))  # the pool's rows are a prefix of the buffer
    cov[:m] = rng.integers(0, 3, size=(m, n_pairs)) / 2.0
    if pool == "tied":
        cov[:m] = [rng.permutation(cov[0]) for _row in range(m)]
    elif pool == "dominant":
        cov[:m, 0] = 0.0
        cov[rng.integers(m)] = 1.0
    if weighting == "uniform":
        w = np.full(n_pairs, 1.0 / n_pairs)
    else:  # MW weights after a few rounds of best responses
        lr = math.sqrt(math.log(n_pairs + 1) / 16)
        decay = np.array([1.0, math.exp(-lr / 2.0), math.exp(-lr)])
        pair_w = np.ones(n_pairs)
        for _round in range(int(rng.integers(0, 17))):
            pair_w *= decay[(2 * cov[rng.integers(m)]).astype(int)]
        w = pair_w / pair_w.sum()
    scores = [float(w @ np.ascontiguousarray(c)) for c in cov[:m]]
    assert _best_response(cov[:m], w) == int(np.argmax(scores))
    screen = cov[:m] @ w
    close = int((screen >= screen.max() - 4 * n_pairs * np.finfo(float).eps).sum())
    if pool == "dominant":
        assert close == 1
    elif pool == "tied" and weighting == "uniform":
        assert close == m


def test_cdf_decode_matches_generator_choice():
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 3, size=40).astype(float)
    counts[[0, -1]] = 0.0  # MW mixtures leave columns with count 0
    lp = np.clip(rng.normal(size=25), 0.0, None)
    glue = [GluedDistribution([ConstantDistribution({0}, 1)] * k, RandomnessSpec(0)).weights
            for k in (1, 2, 5)]
    for p in [counts / counts.sum(), lp / lp.sum(), np.eye(6)[4], *glue]:
        cdf = _cdf(p)
        words = np.array([substream(seed, "pick").bit_generator.random_raw(1)[0]
                          for seed in range(300)])
        picks = _picks(words, cdf)
        for seed in range(300):
            theirs = substream(seed, "pick")
            assert picks[seed] == int(theirs.choice(len(p), p=p))
            # choice reads one word, the one decoded: the stream goes on at the next
            assert theirs.bit_generator.random_raw() == substream(
                seed, "pick").bit_generator.random_raw(2)[1]


@pytest.mark.parametrize("rounds", [0, -1])
def test_duality_rejects_rounds_below_one(cube3, rounds):
    with pytest.raises(BadParams, match="rounds must be >= 1"):
        duality_solve(None, rounds=rounds)


def test_glue_scales_mixture_weights():
    base = [ConstantDistribution({0}, 2), ConstantDistribution({1}, 2)]
    glued = GluedDistribution(base, RandomnessSpec(5))
    assert np.allclose(glued.weights, [2.0 / 3.0, 1.0 / 3.0])
    draws = [glued.draw(i) for i in range(600)]
    frac0 = sum(Z == frozenset({0}) for Z in draws) / len(draws)
    assert abs(frac0 - 2.0 / 3.0) < 0.07  # ~3.5 sigma


def test_glue_scales_needs_input():
    with pytest.raises(BadParams):
        GluedDistribution([], RandomnessSpec(0))


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


def test_general_sampler_iteration_cap(monkeypatch, uniform_measure):
    # one centre's ball has radius below tau/2 = 1, so it cannot reach both
    # ends of a line of 8 points
    space = _line_space(8)
    dist = general_zeroset_sampler(space, uniform_measure(space), 2.0, RandomnessSpec(0))
    monkeypatch.setattr(randomzero, "ITERATION_CAP", 1)
    with pytest.raises(IterationCapExceeded, match="after 1 samples"):
        dist.draw_raw(0)


def _scalar_draw_raw(dist, index, attempt=0):
    """Reference: the stopping-time draw one centre at a time, with the
    generator's own ``choice`` and ``integers`` calls."""
    rng = dist.randomness.stream("general", index, attempt)
    R = dist.tau / 4.0 + float(rng.random()) * dist.tau / 4.0
    D = dist.space.dist
    probs = dist.measure.weights / dist.measure.total
    selected = np.zeros(dist.space.n, dtype=bool)
    undecided = np.ones(dist.space.n, dtype=bool)
    for _t in range(randomzero.ITERATION_CAP):
        z = int(rng.choice(dist.space.n, p=probs))
        bit = int(rng.integers(2))
        hit = undecided & (D[z] <= R)
        if bit:
            selected |= hit
        undecided &= ~hit
        if not undecided.any():
            return frozenset(int(i) for i in np.flatnonzero(selected))
    raise IterationCapExceeded(
        f"stopping times undetermined after {randomzero.ITERATION_CAP} samples"
    )


def _outcome(draw, index):
    """The draw's set, or the message of the IterationCapExceeded it raised."""
    try:
        return draw(index)
    except IterationCapExceeded as exc:
        return str(exc)


def _random_space(rng, n, graph):
    """A Gaussian cloud, or the shortest-path metric of a random connected
    graph (a random tree plus chords) with integer edge lengths."""
    if not graph:
        return space_from_points(rng.standard_normal((n, int(rng.integers(1, 4)))))
    W = np.zeros((n, n))
    for v in range(1, n):
        u = int(rng.integers(0, v))
        W[u, v] = W[v, u] = rng.integers(1, 4)
    for u, v in rng.integers(0, n, size=(n // 2, 2)):
        if u != v:
            W[u, v] = W[v, u] = rng.integers(1, 4)
    return FiniteMetricSpace(tuple(range(n)), shortest_path(W, directed=False))


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 128), st.integers(0, 2**32 - 1), st.booleans(),
       st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_general_draw_matches_scalar_reference(n, seed, graph, draw_seed, attempt):
    rng = np.random.default_rng(seed)
    space = _random_space(rng, n, graph)
    mu = PointMeasure(rng.uniform(0.2, 1.0, size=n))
    lo, hi = math.log(space.min_positive_distance), math.log(2.0 * space.diam)
    tau = math.exp(rng.uniform(lo, hi))  # from the closest pair to twice the diameter
    dist = general_zeroset_sampler(space, mu, tau, RandomnessSpec(draw_seed, ("oracle",)))
    for index in range(3):
        assert dist.draw_raw(index, attempt) == _scalar_draw_raw(dist, index, attempt)


@pytest.mark.parametrize("cap", [1, 2, 3, 13])
def test_general_iteration_cap_matches_scalar_reference(monkeypatch, cap):
    # on 8 points the first block holds 8 centres and the second 16, so a cap
    # of 13 ends mid-way through the second block
    space = _line_space(8)
    dist = general_zeroset_sampler(space, PointMeasure(np.ones(8)), 3.0, RandomnessSpec(4))
    monkeypatch.setattr(randomzero, "ITERATION_CAP", cap)
    got = [_outcome(dist.draw_raw, k) for k in range(40)]
    assert got == [_outcome(lambda k: _scalar_draw_raw(dist, k), k) for k in range(40)]
    capped = [Z for Z in got if isinstance(Z, str)]
    assert capped and set(capped) == {f"stopping times undetermined after {cap} samples"}
    if cap == 13:
        assert len(capped) < len(got)  # some draws finish inside the second block


def test_general_stream_word_layout():
    # The block decoder reads the words of a fresh stream in the order the
    # generator's own calls consume them: R from word 0, then per pair of
    # centres a choice word, a word whose low and high 32-bit halves give the
    # two bits (top bit of each), and the second choice word.
    spec = RandomnessSpec(7, ("layout",))
    p = np.array([0.05, 0.4, 0.1, 0.3, 0.15])
    cdf = p.cumsum()
    cdf /= cdf[-1]
    pairs = 40
    rng = spec.stream("general", 3, 1)
    words = [int(w) for w in spec.stream("general", 3, 1).bit_generator.random_raw(1 + 3 * pairs)]

    def unit(w):
        return (w >> 11) * 2.0**-53

    assert rng.random() == unit(words[0])
    for t in range(2 * pairs):
        pair, second = divmod(t, 2)
        u = unit(words[1 + 3 * pair + 2 * second])
        assert rng.choice(len(p), p=p) == int(cdf.searchsorted(u, side="right"))
        assert rng.integers(2) == (words[2 + 3 * pair] >> (63 if second else 31)) & 1


def test_general_sampler_rejection_cap(monkeypatch, cube3, uniform_measure):
    space = cube3.space
    dist = general_zeroset_sampler(space, uniform_measure(space), 2.0, RandomnessSpec(0))
    attempts = []

    def empty(index, attempt=0):
        attempts.append(attempt)
        return frozenset()

    monkeypatch.setattr(dist, "draw_raw", empty)
    with pytest.raises(RejectionCapExceeded):
        dist.draw(0)
    assert attempts == list(range(randomzero.REJECTION_CAP))


def test_spreading_estimate_rejects_close_pair(cube3, uniform_measure):
    space = cube3.space
    dist = general_zeroset_sampler(space, uniform_measure(space), 2.0, RandomnessSpec(0))
    with pytest.raises(PairTooClose):
        spreading_estimate(dist, 4.0, 2.0, [(0, 1)], 10, space)


@pytest.mark.parametrize("pair", [(-1, 7), (0, 8), (8, 0)])
def test_spreading_estimate_rejects_a_pair_outside_the_space(cube3, uniform_measure, pair):
    # a negative index would wrap to the last point's distances and mask column
    space = cube3.space
    dist = general_zeroset_sampler(space, uniform_measure(space), 2.0, RandomnessSpec(0))
    with pytest.raises(BadParams, match=r"is not a pair of the space's points"):
        spreading_estimate(dist, 4.0, 2.0, [(0, 7), pair], 10, space)


def test_spreading_estimate_needs_a_sample(cube3, uniform_measure):
    space = cube3.space
    dist = general_zeroset_sampler(space, uniform_measure(space), 2.0, RandomnessSpec(0))
    with pytest.raises(BadParams, match="n_samples must be >= 1"):
        spreading_estimate(dist, 4.0, 2.0, [(0, 7)], 0, space)


def test_spreading_estimate_reports_ci(cube3, uniform_measure):
    space = cube3.space
    dist = general_zeroset_sampler(space, uniform_measure(space), 2.0, RandomnessSpec(0))
    out = spreading_estimate(dist, 4.0, 2.0, [(0, 7)], 200, space)
    rec = out[0]
    assert rec["pair"] == (0, 7)
    assert 0.0 <= rec["ci95"][0] <= rec["estimate"] <= rec["ci95"][1] <= 1.0


def test_general_masks_have_the_space_width():
    # the distribution knows its width: a (4, 9) block on a 9-point space
    space = generate_instance("grid", {"rows": 3, "cols": 3}).space
    dist = general_zeroset_sampler(space, PointMeasure(np.ones(9)), 2.0, RandomnessSpec(0))
    assert dist.n == 9
    assert dist.draw_masks(range(4)).shape == (4, 9)


def _grid_sampler(rows, tau=2.0):
    space = generate_instance("grid", {"rows": rows, "cols": rows}).space
    return general_zeroset_sampler(space, PointMeasure(np.ones(space.n)), tau, RandomnessSpec(0))


def test_glue_rejects_inputs_of_different_sizes():
    # a 9-point and a 16-point input: draws would mix widths
    with pytest.raises(BadParams, match=r"differ in size: \[9, 16\]"):
        GluedDistribution([_grid_sampler(3), _grid_sampler(4)], RandomnessSpec(0))
    glue = GluedDistribution([_grid_sampler(3), _grid_sampler(3, 1.0)], RandomnessSpec(0))
    assert glue.n == 9 and glue.draw(3) <= frozenset(range(9))


def test_consumers_reject_a_distribution_of_another_size(uniform_measure):
    small = generate_instance("grid", {"rows": 3, "cols": 3}).space
    dist = _grid_sampler(4)
    with pytest.raises(BadParams, match="a distribution on 16 points for a space of 9"):
        spreading_estimate(dist, 4.0, 2.0, [(0, 8)], 4, small)
    with pytest.raises(BadParams, match="a distribution on 16 points for a space of 9"):
        applications.iso_certificate(small, uniform_measure(small), dist, 1.0, 4)


def _spreading_loop(dist, zeta, tau, pairs, n_samples, space):
    """Reference: ``spreading_estimate`` as it was written before it read
    masks, one draw and one pair at a time."""
    pairs = [(int(x), int(y)) for x, y in pairs]
    counts = np.zeros(len(pairs))
    for k in range(n_samples):
        Z = dist.draw(k)
        Zidx = np.asarray(sorted(Z), dtype=int)
        for idx, (x, y) in enumerate(pairs):
            if x in Z and float(space.dist[y, Zidx].min()) >= tau / zeta:
                counts[idx] += 1
    out = []
    for idx, (x, y) in enumerate(pairs):
        p = counts[idx] / n_samples
        half = 1.96 * math.sqrt(max(p * (1 - p), 1e-12) / n_samples)
        out.append({"pair": (x, y), "estimate": p, "ci95": (max(0.0, p - half), min(1.0, p + half))})
    return out


def _iso_loop(space, measure, dist, t, n_samples):
    """Reference: ``iso_certificate`` as it was written before it read
    masks, one draw at a time."""
    w = measure.weights / measure.total
    best = 0.0
    witness = None
    for k in range(n_samples):
        Z = dist.draw(k)
        idx = np.asarray(sorted(Z), dtype=int)
        far = space.dist[:, idx].min(axis=1) >= 2.0 * t
        val = min(float(w[far].sum()), float(w[idx].sum()))
        if val > best or witness is None:
            best = max(best, val)
            if val >= best:
                witness = Z
    return {"bound": best, "witness": witness}


def _random_general(rng, n, graph, seed, singletons=False):
    """A general sampler on a random space of ``n`` points with random
    masses, at a tau from the closest pair to twice the diameter, or at the
    closest pair's distance, where every ball holds its centre alone and
    each point takes its own fair bit."""
    space = _random_space(rng, n, graph)
    mu = PointMeasure(rng.uniform(0.2, 1.0, size=n))
    lo, hi = math.log(space.min_positive_distance), math.log(2.0 * space.diam)
    tau = space.min_positive_distance if singletons else math.exp(rng.uniform(lo, hi))
    return general_zeroset_sampler(space, mu, tau, RandomnessSpec(seed, ("consumers",)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 128), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from([1, 2, 17, 64]), st.sampled_from([1.0, 2.0, 2.5, 16.0]),
       st.integers(0, 6))
def test_mask_consumers_match_the_per_draw_loops(n, seed, graph, n_samples, zeta, n_pairs):
    # empty pair lists, repeated pairs and a single sample included; the
    # records must be equal bit for bit.  Half the time, tau / zeta is the
    # distance from a point y to its nearest neighbour, y is in two pairs
    # and the points take independent bits; and half the time 2t is a
    # distance of the space: where "far" must still mean >=
    rng = np.random.default_rng(seed)
    exact = rng.random() < 0.5
    dist = _random_general(rng, n, graph, seed, singletons=exact)
    space, tau = dist.space, dist.tau
    y = int(rng.integers(n))
    if exact:
        tau = zeta * float(np.partition(space.dist[y], 1)[1])
    far = np.argwhere(space.dist >= tau)
    pairs = [tuple(p) for p in far[rng.integers(0, len(far), n_pairs)].tolist()] if len(far) else []
    pairs += pairs[:1] + [(x, y) for x in np.flatnonzero(space.dist[y] >= tau)[:2].tolist()]
    got = spreading_estimate(dist, zeta, tau, pairs, n_samples, space)
    assert got == _spreading_loop(dist, zeta, tau, pairs, n_samples, space)
    t = tau * float(rng.uniform(0.05, 1.0))
    if rng.random() < 0.5:
        t = float(rng.choice(space.dist[space.dist > 0])) / 2.0
    got = applications.iso_certificate(space, dist.measure, dist, t, n_samples)
    assert got == _iso_loop(space, dist.measure, dist, t, n_samples)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 128), st.integers(0, 2**32 - 1), st.booleans(),
       st.lists(st.integers(0, 2**40), min_size=1, max_size=6))
def test_general_draw_masks_match_single_draws_in_any_order(n, seed, graph, indices):
    # each row is the first nonempty raw attempt of its index, whatever the
    # order of the block, repeats included
    rng = np.random.default_rng(seed)
    dist = _random_general(rng, n, graph, seed)
    order = indices + indices[::-1]
    expected = [next(Z for a in range(randomzero.REJECTION_CAP) if (Z := dist.draw_raw(i, a)))
                for i in order]
    masks = dist.draw_masks(order)
    assert masks.shape == (len(order), n) and masks.any(axis=1).all()
    assert [frozenset(np.flatnonzero(row).tolist()) for row in masks] == expected
    assert [dist.draw(i) for i in order] == expected
