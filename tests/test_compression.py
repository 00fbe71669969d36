import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosetkit import descent, randomzero
from zerosetkit.compression import (
    ZETA,
    _ball_ratio,
    growth_ratio_rho,
    nested_sublevel_nets,
    rounding_map,
    universal_compression,
)
from zerosetkit.graphs import ThresholdedGraph, check_compatibility
from zerosetkit.metric import EuclideanMap, PointMeasure, generate_instance, snowflake_embed

from conftest import compression_instance, space_from_points


def _line_space(n):
    return space_from_points(np.arange(n, dtype=float)[:, None])


def _path_graph(space):
    """The space as one component."""
    return ThresholdedGraph(space, tuple((i, i + 1) for i in range(space.n - 1)))


# -------------------------------------------------------------------------
# nets
# -------------------------------------------------------------------------


def test_nets_are_nested_separated_and_dense():
    space = _line_space(12)
    theta = np.array([float(i % 4) for i in range(12)])
    tau = 1.0
    nets = nested_sublevel_nets(_path_graph(space), theta, tau)
    # each level's net: the points that joined at or below it
    levels = np.unique(theta).tolist()
    per_level = [np.flatnonzero(nets.joined & (theta <= lvl)).tolist() for lvl in levels]
    for a, b in zip(per_level, per_level[1:]):
        assert set(a) <= set(b)
    for net in per_level:
        for i in net:
            for j in net:
                if i != j:
                    assert space.dist[i, j] > 2.0 * tau
    # maximality: every point of each sublevel set is within 2 tau of its net
    for lvl, net in zip(levels, per_level):
        sub = [i for i in range(12) if theta[i] <= lvl]
        for w in sub:
            assert min(space.dist[w, z] for z in net) <= 2.0 * tau


def test_rounding_map_displacement_bound():
    space = _line_space(15)
    theta = np.array([float((i * 7) % 5) for i in range(15)])
    tau = 1.0
    nets = nested_sublevel_nets(_path_graph(space), theta, tau)
    q = rounding_map(nets)
    for w, rep in enumerate(q):
        assert space.dist[w, rep] <= 7.0 * tau + 1e-12


def _scalar_rounding(space, theta, tau, components):
    """Reference: per-component greedy nets, level by level, and the rounding
    map, one point at a time; returns q and the union of the final nets."""
    D = space.dist
    q = np.empty(space.n, dtype=int)
    joined = []
    for pool in components:
        levels = sorted({float(theta[i]) for i in pool})
        nets, net = [], []
        for xi in levels:
            for w in pool:
                if theta[w] <= xi and all(D[w, z] > 2.0 * tau for z in net):
                    net.append(w)
            nets.append(sorted(net))
        joined += net
        for w in pool:
            w_min = min((z for z in pool if D[w, z] <= 5.0 * tau), key=lambda z: (theta[z], z))
            reps = nets[levels.index(float(theta[w_min]))]
            q[w] = next(z for z in reps if D[w_min, z] <= 2.0 * tau)
    return q, sorted(joined)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nets_and_rounding_match_the_per_component_loop(seed):
    # distinct integer points and integer levels give ties at the 2*tau and
    # 5*tau radii and between levels; random labels split the points into
    # components that interleave in id order
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    cells = rng.choice(144, n, replace=False)
    space = space_from_points(np.stack([cells // 12, cells % 12], axis=1))
    label = rng.integers(0, int(rng.integers(1, 4)), n)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if label[a] == label[b]]
    graph = ThresholdedGraph(space, tuple(edges))
    theta = rng.integers(0, 4, n).astype(float)
    tau = float(rng.choice([0.5, 1.0, 2.5]))
    nets = nested_sublevel_nets(graph, theta, tau)
    q, joined = _scalar_rounding(space, theta, tau, graph.components)
    assert np.flatnonzero(nets.joined).tolist() == joined
    assert np.array_equal(rounding_map(nets), q)


# -------------------------------------------------------------------------
# growth ratios
# -------------------------------------------------------------------------


def _ball_ratio_loop(space, measure, tau):
    """theta summed ball by ball: the reference for ``_ball_ratio``."""
    return np.array([measure.ball_mass(space, x, 19.0 * tau) / measure.ball_mass(space, x, tau)
                     for x in range(space.n)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 96), st.booleans())
def test_ball_ratio_is_the_ball_by_ball_ratio(seed, n, integral):
    # integer-valued masses sum exactly in any order; float ones within the
    # rounding of two n-term sums
    rng = np.random.default_rng(seed)
    space = space_from_points(rng.normal(size=(n, 2)) * rng.uniform(0.5, 20.0))
    weights = rng.integers(1, 1000, n).astype(float) if integral else rng.uniform(0.5, 2.0, n)
    tau = float(rng.uniform(0.05, 2.0))
    got = _ball_ratio(space, PointMeasure(weights), tau)
    want = _ball_ratio_loop(space, PointMeasure(weights), tau)
    if integral:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=4 * n * np.finfo(float).eps, atol=0)


def test_growth_ratio_formula_and_floor():
    space = _line_space(8)
    mu = PointMeasure(np.ones(8))
    tau, C = 1.0, 2.0
    rho = growth_ratio_rho(_ball_ratio(space, mu, tau), C)
    assert np.all(rho >= 1.0)
    for x in range(8):
        small = mu.ball_mass(space, x, tau)
        big = mu.ball_mass(space, x, 19.0 * tau)
        expect = 1.0 + (ZETA / C) * math.sqrt(math.log(big / small))
        assert math.isclose(rho[x], expect, rel_tol=1e-12)


# -------------------------------------------------------------------------
# the full compression
# -------------------------------------------------------------------------


@pytest.mark.parametrize("label", ["grid8", "two_grids", "path64"])
def test_universal_compression_certificate_holds(label):
    space, weights, tau, C, phi = compression_instance(label)
    out = universal_compression(space, PointMeasure(weights), tau=tau, C=C, emap=phi)
    # grid8's and two_grids' labels Delta are all 0; path64's are not, so
    # conditions 1-3 see nonzero labels there
    if label == "path64":
        assert np.count_nonzero(out.cert.Delta) > 0
    # loopless edges, so sigma and conditions 1-2 see more than self-loops
    assert len(out.graph.loopless_edges()) > 0
    assert out.q.shape == (space.n,)
    # q preserves components of the proximity graph
    comp = out.graph.component_of
    for x in range(space.n):
        assert comp[out.q[x]] == comp[x]
    # K is the ceiling of the component-local minimum growth ratio
    assert np.array_equal(out.cert.K, np.ceil(out.rho_tilde).astype(int))
    assert np.all(out.rho_tilde <= out.rho + 1e-12)
    report = check_compatibility(out.graph, out.f, out.cert, seed=0)
    assert report.cond1_ok and report.cond3_ok
    assert report.cond2_all_verified
    assert report.ok



def _assert_labels_bound_image_gaps(out):
    # y lies in the 2*tau-ball that x and y share, so sigma(x, y) >= Delta(y)
    # >= C |f(x) - f(y)|: an edge survives a Gaussian direction only when
    # |N(0, 1)| > 4C, which is why check 5's sparsified graphs keep no edge
    i, j = out.graph.edges.T
    assert np.all(out.graph.sigma >= out.cert.C * out.f.image_distances()[i, j])


@pytest.mark.parametrize("label", ["cube4", "grid8", "grid8_weighted", "two_grids", "path300",
                                   "path64"])
def test_edge_labels_bound_the_image_gap(label):
    space, weights, tau, C, phi = compression_instance(label)
    _assert_labels_bound_image_gaps(universal_compression(space, PointMeasure(weights), tau, C,
                                                          phi))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_edge_labels_bound_the_image_gap_of_any_map(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 48))
    space = space_from_points(rng.normal(size=(n, 2)) * rng.uniform(0.5, 20.0))
    emap = EuclideanMap(rng.normal(size=(n, int(rng.integers(1, 5)))))
    weights = rng.integers(1, 4, n).astype(float)
    tau, C = float(rng.uniform(0.05, 5.0)), float(rng.uniform(1.0, 8.0))
    _assert_labels_bound_image_gaps(universal_compression(space, PointMeasure(weights), tau, C,
                                                          emap))

def test_compression_labels_components_once(monkeypatch):
    """The output graph shares the proximity graph's component labels, so
    one compression labels the components once."""
    from zerosetkit import graphs
    calls = []
    label_components = graphs._component_labels
    monkeypatch.setattr(graphs, "_component_labels",
                        lambda *a: calls.append(1) or label_components(*a))
    space, weights, tau, C, phi = compression_instance("two_grids")
    out = universal_compression(space, PointMeasure(weights), tau=tau, C=C, emap=phi)
    assert len(out.graph.components) == 2
    assert len(calls) == 1
    fresh = ThresholdedGraph(space, out.graph.edges, out.graph.sigma)
    assert np.array_equal(out.graph.edges, fresh.edges)
    assert np.array_equal(out.graph.sigma, fresh.sigma)
    assert np.array_equal(out.graph.component_of, fresh.component_of)
    assert len(calls) == 2


def _spy_same_component(monkeypatch) -> list:
    """Record the graph of every ``ThresholdedGraph.same_component`` build."""
    builds = []
    build = ThresholdedGraph.same_component.func
    spy = functools.cached_property(lambda graph: builds.append(graph) or build(graph))
    spy.__set_name__(ThresholdedGraph, "same_component")
    monkeypatch.setattr(ThresholdedGraph, "same_component", spy)
    return builds


def test_compression_builds_one_same_component_mask(monkeypatch):
    builds = _spy_same_component(monkeypatch)
    space, weights, tau, C, phi = compression_instance("two_grids")
    out = universal_compression(space, PointMeasure(weights), tau=tau, C=C, emap=phi)
    assert len(builds) == 1
    # the labelled output graph holds the proximity graph's mask
    assert out.graph.same_component is builds[0].same_component


def test_embed_pipeline_builds_one_same_component_mask_per_compression(monkeypatch):
    # every good graph and pair sampler on a compression reads its one mask
    builds = _spy_same_component(monkeypatch)
    compressions = []
    compress = randomzero.universal_compression
    monkeypatch.setattr(randomzero, "universal_compression",
                        lambda *a: compressions.append(1) or compress(*a))
    space = generate_instance("grid", {"rows": 4, "cols": 4}).space
    descent.euclidean_embed_pipeline(space, PointMeasure(np.ones(space.n)), negative_type=True,
                                     config=descent.EmbedConfig(n_samples=16, rounds=2))
    assert len(compressions) > 1
    assert len(builds) == len(compressions)


def test_compression_rounding_stays_close(cube3, uniform_measure):
    space = cube3.space
    mu = uniform_measure(space)
    phi = snowflake_embed(space, 0.5)
    tau = 0.5
    out = universal_compression(space, mu, tau=tau, C=2.0, emap=phi)
    for x in range(space.n):
        assert space.dist[x, int(out.q[x])] <= 7.0 * tau + 1e-12
