import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from zerosetkit import graphs, verify
from zerosetkit._rng import substream
from zerosetkit.compression import universal_compression
from zerosetkit.errors import BadParams, LPSolveFailed, RhoBelowOne, SolverError
from zerosetkit.graphs import (
    MC_SAMPLES,
    CompatibilityCertificate,
    CompatibilityReport,
    ThresholdedGraph,
    VertexWeights,
    build_proximity_graph,
    check_compatibility,
    empirical_matching_bound,
    extract_unsaturated_pair,
    fractional_matching,
    max_matching,
    max_matching_bruteforce,
    sparsify_directional,
)
from zerosetkit.metric import (
    EuclideanMap,
    PointMeasure,
    generate_instance,
    snowflake_embed,
    validate_metric,
)

from conftest import compression_instance, limit_lp_runs, space_from_points


def edge_set(graph):
    return set(map(tuple, graph.edges.tolist()))


def has_self_loop(graph, x):
    return (x, x) in edge_set(graph)


def graph_ball(graph, x, radius):
    """Combinatorial ball: vertices within hop distance radius of x."""
    if radius < 0:
        return np.array([], dtype=int)
    return np.flatnonzero(graph.hops[x] <= radius)


def m_sigma(graph, x, R):
    """Minimum sigma over edges with an endpoint within hop distance R-1 of x.

    Zero for R < 1; +inf when no edge qualifies.  Monotone nonincreasing in R.
    """
    if graph.sigma is None:
        raise BadParams("graph needs sigma on all edges")
    if R < 1:
        return 0.0
    hop = graph.hops[x]
    best = math.inf
    for (i, j), s in zip(graph.edges.tolist(), graph.sigma):
        if hop[i] <= R - 1 or hop[j] <= R - 1:
            best = min(best, s)
    return best


def _line_space(n):
    pts = np.arange(n, dtype=float)[:, None]
    return space_from_points(pts)


def _adjacency(graph):
    """One csr entry per edge, for the csgraph references."""
    i, j = graph.edges.T
    return coo_matrix((np.ones(i.size), (i, j)), shape=(graph.n, graph.n)).tocsr()


# -------------------------------------------------------------------------
# thresholded graphs
# -------------------------------------------------------------------------


def test_graph_components_and_balls():
    space = _line_space(5)
    g = ThresholdedGraph(space, ((0, 1), (1, 2), (3, 4), (2, 2)))
    assert g.components == ((0, 1, 2), (3, 4))
    assert g.loopless_edges().tolist() == [[0, 1], [1, 2], [3, 4]]
    assert has_self_loop(g, 2)
    assert list(graph_ball(g, 0, 1)) == [0, 1]
    assert list(graph_ball(g, 0, 2)) == [0, 1, 2]
    assert g.component_of[3] == g.component_of[4]
    # computed once per graph; the shared labels are read-only
    assert g.components is g.components and g.component_of is g.component_of
    assert not g.component_of.flags.writeable


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 256), st.floats(0.0, 2.0))
def test_component_labels_are_csgraphs(seed, n, density):
    # random edge lists with self-loops, duplicate and reversed edges, and
    # (at low density) isolated vertices
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(int(density * n), 2))
    pairs = np.vstack([pairs, pairs[::3, ::-1], np.repeat(pairs[:2, :1], 2, axis=1)])
    graph = ThresholdedGraph(_line_space(n), pairs)
    want = connected_components(_adjacency(graph), directed=False)[1]
    assert graph.component_of.tolist() == want.tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 128), st.floats(0.0, 2.0))
def test_hops_are_csgraphs(seed, n, density):
    # the same edge lists: unreachable pairs (inf) at low density, self-loops
    # and repeated edges, which add no path
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(int(density * n), 2))
    pairs = np.vstack([pairs, pairs[::3, ::-1], np.repeat(pairs[:2, :1], 2, axis=1)])
    graph = ThresholdedGraph(_line_space(n), pairs)
    want = shortest_path(_adjacency(graph), directed=False, unweighted=True)
    assert graph.hops.tobytes() == want.tobytes()
    assert not graph.hops.flags.writeable


def test_component_labels_of_a_long_path_take_few_rounds(monkeypatch):
    # a path met in shuffled id order: hooking vertex by vertex would need
    # about as many rounds as the path is long, hooking roots about log2 n
    n = 4096
    order = np.random.default_rng(5).permutation(n)
    rounds = []
    hook = graphs._hook
    monkeypatch.setattr(graphs, "_hook", lambda *a: rounds.append(1) or hook(*a))
    label = graphs._component_labels(n, np.column_stack((order[:-1], order[1:])))
    assert label.tolist() == [0] * n
    assert len(rounds) <= math.ceil(math.log2(n)) + 4


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 128), st.integers(0, 300), st.integers(0, 2))
def test_graph_rows_are_sorted_pairs_carrying_their_sigma(seed, n, m, container):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(m, 2))  # reversed, unsorted, repeated, self-loops
    sigma = rng.permutation(m) / 4.0  # distinct labels, so each names its pair
    given_pairs = (pairs, pairs.tolist(), tuple(map(tuple, pairs.tolist())))[container]
    g = ThresholdedGraph(_line_space(n), given_pairs, sigma=sigma.tolist())
    # the normalisation the tuple format made: (min, max) pairs, sorted stably
    want = sorted((((min(a, b), max(a, b)), s) for (a, b), s in zip(pairs.tolist(), sigma)),
                  key=lambda row: row[0])
    assert g.edges.shape == (m, 2) and g.sigma.shape == (m,)
    assert list(map(tuple, g.edges.tolist())) == [e for e, _s in want]
    assert g.sigma.tolist() == [s for _e, s in want]
    old_edges = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs.tolist()))
    assert list(map(tuple, g.loopless_edges().tolist())) == [e for e in old_edges if e[0] != e[1]]
    assert not g.edges.flags.writeable and not g.sigma.flags.writeable


def test_graph_rejects_nan_and_misaligned_sigma():
    space = _line_space(4)
    edges = ((0, 1), (1, 2), (2, 3))
    with pytest.raises(BadParams, match="sigma must be nonnegative"):
        ThresholdedGraph(space, edges, sigma=[0.0, np.nan, 1.0])
    with pytest.raises(BadParams, match="sigma must be nonnegative"):
        ThresholdedGraph(space, edges, sigma=[0.0, -1.0, 1.0])
    with pytest.raises(BadParams, match="one value per edge"):
        ThresholdedGraph(space, edges, sigma=[0.0, 1.0])


def test_certificate_rejects_nan_delta():
    with pytest.raises(BadParams, match="Delta must be nonnegative"):
        CompatibilityCertificate(1.0, np.array([0.0, np.nan, 0.0, 0.0]), np.ones(4, dtype=int))


def test_graph_rejects_out_of_range_edge():
    space = _line_space(3)
    with pytest.raises(BadParams):
        ThresholdedGraph(space, ((0, 5),))


def test_proximity_graph_complete_at_diam():
    space = _line_space(4)
    g = build_proximity_graph(space, np.ones(4), tau=space.diam)
    # every pair including self-loops
    assert len(g.edges) == 4 * 5 // 2
    with pytest.raises(RhoBelowOne):
        build_proximity_graph(space, np.full(4, 0.5), tau=1.0)


def test_proximity_graph_threshold_uses_min_rho():
    space = _line_space(3)
    # threshold on {x,y} is tau / min(rho(x), rho(y))
    g = build_proximity_graph(space, np.array([2.0, 2.0, 1.0]), tau=1.0)
    assert (0, 1) not in edge_set(g)  # needs d <= 1/2
    assert (1, 2) in edge_set(g)  # needs d <= 1/1
    assert (0, 2) not in edge_set(g)


# -------------------------------------------------------------------------
# directional sparsification
# -------------------------------------------------------------------------


def test_sparsify_keeps_only_wide_projections():
    space = _line_space(3)
    coords = np.array([[0.0], [1.0], [10.0]])
    g = ThresholdedGraph(space, ((0, 1), (1, 2), (0, 0)), sigma=[1.0, 1.0, 0.0])
    kept = sparsify_directional(g, EuclideanMap(coords), np.array([1.0]))
    # |proj gap| must exceed 4 sigma: edge (0,1) gap 1 <= 4, edge (1,2) gap 9 > 4
    assert kept.tolist() == [[1, 2]]


def _sparsify_loop(graph, emap, v):
    """The per-edge loop sparsify_directional replaced: the reference."""
    proj = emap.coords @ np.asarray(v, dtype=float)
    kept = []
    for (i, j), s in zip(graph.edges.tolist(), graph.sigma):
        if abs(proj[i] - proj[j]) > 4.0 * s:
            kept.append([i, j])
    return kept


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(1, 4))
def test_sparsify_matches_the_edge_loop(seed, n, dim):
    rng = np.random.default_rng(seed)
    space = _line_space(n)
    pairs = rng.integers(0, n, size=(3 * n, 2))
    # sigma on a coarse grid, so projections tie with 4 sigma now and then
    g = ThresholdedGraph(space, pairs, sigma=rng.integers(0, 4, len(pairs)) / 4.0)
    emap = EuclideanMap(rng.integers(-4, 5, size=(n, dim)).astype(float))
    for v in (rng.standard_normal(dim), np.ones(dim)):
        assert sparsify_directional(g, emap, v).tolist() == _sparsify_loop(g, emap, v)


def test_sparsify_never_keeps_self_loops():
    space = _line_space(2)
    g = ThresholdedGraph(space, ((0, 0), (0, 1)), sigma=[0.0, 0.0])
    kept = sparsify_directional(g, EuclideanMap(np.array([[0.0], [5.0]])), np.array([1.0]))
    assert kept.tolist() == [[0, 1]]


# -------------------------------------------------------------------------
# matchings
# -------------------------------------------------------------------------


def test_max_matching_matches_bruteforce_on_random_graphs():
    rng = substream(0, "test", "matching")
    for _ in range(60):
        n = int(rng.integers(2, 11))
        p = float(rng.random())
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        assert max_matching(n, edges) == max_matching_bruteforce(n, edges)



def _networkx_matching(n, edges):
    """The maximum matching size by networkx's blossom algorithm (Edmonds)."""
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(graphs._simple_edges(n, edges))
    return len(nx.max_weight_matching(G, maxcardinality=True))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.floats(0.0, 1.0))
def test_max_matching_is_networkxs(seed, n, density):
    # any density, self-loops and repeated pairs included
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(n) if rng.random() < density / 2]
    assert max_matching(n, edges) == _networkx_matching(n, edges)


@pytest.mark.parametrize("k", [3, 5, 7, 9, 11])
def test_max_matching_of_an_odd_cycle(k):
    # the cycle's fractional matching is k/2, its matching one half less
    edges = [(i, (i + 1) % k) for i in range(k)]
    assert max_matching(k, edges) == max_matching_bruteforce(k, edges) == k // 2
    assert max_matching(k, edges) == _networkx_matching(k, edges)


def test_max_matching_failure_is_a_solver_error(monkeypatch):
    # presolve alone solves a small matching, so a zero time limit stops it
    build = graphs._highs_model

    def without_time(*args):
        model = build(*args)
        model.setOptionValue("time_limit", 0.0)
        return model

    monkeypatch.setattr(graphs, "_highs_model", without_time)
    with pytest.raises(LPSolveFailed, match="^maximum matching MIP failed: Time limit reached"):
        max_matching(5, [(i, (i + 1) % 5) for i in range(5)])


def test_matching_bound_check_fails_when_the_sparsifier_keeps_every_edge(monkeypatch):
    # check 5's grid keeps 24 loopless edges, with a perfect matching of 8
    # against the bound 6 e^-4 16 = 1.76
    monkeypatch.setattr(graphs, "sparsify_directional", lambda graph, emap, v: graph.edges)
    rec = verify.check_matching_bound(0, "fast")
    assert rec["measured"]["loopless_edges"] == 24
    assert rec["measured"]["mean"] == 8.0
    assert rec["measured"]["compatible"]
    assert not rec["passed"]

def test_fractional_matching_triangle_is_three_halves():
    val, phi = fractional_matching(3, [(0, 1), (1, 2), (0, 2)], VertexWeights(np.ones(3)))
    assert math.isclose(val, 1.5, abs_tol=1e-9)
    assert all(v >= -1e-12 for v in phi.values())


def test_fractional_matching_respects_capacities():
    # star: all edges share the hub, so the total is the hub capacity
    val, _ = fractional_matching(
        4, [(0, 1), (0, 2), (0, 3)], VertexWeights(np.array([0.5, 1, 1, 1]))
    )
    assert math.isclose(val, 0.5, abs_tol=1e-9)


def test_fractional_matching_lp_failure_is_a_solver_error(monkeypatch):
    limit_lp_runs(monkeypatch, graphs)
    with pytest.raises(LPSolveFailed,
                       match="^fractional matching LP failed: Iteration limit reached") as info:
        fractional_matching(3, [(0, 1), (1, 2), (0, 2)], VertexWeights(np.ones(3)))
    assert isinstance(info.value, SolverError)


def _linprog_fractional_matching(n, edges, Q):
    """The fractional matching by ``scipy.optimize.linprog``: its value and
    per-edge solution, over ``_simple_edges`` in their order."""
    simple = graphs._simple_edges(n, edges)
    i, j = np.array(simple).T
    A = np.zeros((n, len(simple)))
    A[i, np.arange(len(simple))] = A[j, np.arange(len(simple))] = 1.0
    res = scipy.optimize.linprog(c=-np.ones(len(simple)), A_ub=A, b_ub=Q, bounds=(0, None),
                                 method="highs")
    assert res.success
    return -res.fun, res.x


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.floats(0.05, 1.0))
def test_fractional_matching_is_linprogs(seed, n, density):
    # random capacitated graphs, integral and fractional capacities, some zero
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    if not edges:
        edges = [(0, 1)]
    Q = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], n) if seed % 2 else rng.uniform(0.0, 2.0, n)
    value, phi = fractional_matching(n, edges, VertexWeights(Q))
    want_value, want_x = _linprog_fractional_matching(n, edges, Q)
    assert value == want_value
    assert np.array_equal(np.array(list(phi.values())), want_x)


def test_fractional_dominates_integral():
    rng = substream(1, "test", "frac")
    for _ in range(30):
        n = int(rng.integers(2, 9))
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        nu = max_matching_bruteforce(n, edges)
        nustar, _ = fractional_matching(n, edges, VertexWeights(np.ones(n)))
        assert nu - 1e-9 <= nustar <= 1.5 * nu + 1e-9


def test_matching_edges_are_the_distinct_loopless_pairs():
    edges = [(2, 1), (1, 2), (3, 3), (0, 3), (3, 0), (1, 2)]
    assert graphs._simple_edges(4, edges) == [(0, 3), (1, 2)]
    assert graphs._simple_edges(4, []) == []


@pytest.mark.parametrize("call", [
    lambda: fractional_matching(3, [(0, 5)], VertexWeights(np.ones(3))),  # was numpy's IndexError
    lambda: fractional_matching(3, [(-1, 2)], VertexWeights(np.ones(3))),  # was vertex 2's capacity
    lambda: max_matching(2, [(0, 5)]),  # was 1, through a vertex 5 the graph lacks
    lambda: max_matching_bruteforce(2, [(0, 1), (3, 3)]),
    lambda: extract_unsaturated_pair(np.array([True, False, False]), np.array([False, True, True]),
                                     [(0, 5)], VertexWeights(np.ones(3))),  # was IndexError
], ids=["fractional-over", "fractional-negative", "max-over", "bruteforce-self-loop",
        "extract-over"])
def test_matchings_reject_endpoints_outside_the_graph(call):
    with pytest.raises(BadParams, match="outside 0.."):
        call()


def test_empirical_matching_bound_needs_a_sample():
    graph = ThresholdedGraph(space_from_points(np.arange(3.0)[:, None]), ((0, 1), (1, 2)))
    emap = EuclideanMap(np.arange(3, dtype=float)[:, None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no empty-mean warning before the check
        with pytest.raises(BadParams, match="^n_samples must be >= 1$"):
            empirical_matching_bound(graph, emap, 2.0, 0)


def test_empirical_matching_bound_needs_an_integer_seed():
    graph = ThresholdedGraph(space_from_points(np.arange(3.0)[:, None]), ((0, 1), (1, 2)),
                             sigma=(0.1, 0.1))
    emap = EuclideanMap(np.arange(3, dtype=float)[:, None])
    with pytest.raises(BadParams, match="^seed must be an integer"):
        empirical_matching_bound(graph, emap, 2.0, 4, seed=1.5)
    # an integral numpy seed draws what the int draws
    want = empirical_matching_bound(graph, emap, 2.0, 4, seed=1)
    assert empirical_matching_bound(graph, emap, 2.0, 4, seed=np.int64(1)) == want


# -------------------------------------------------------------------------
# unsaturated pair extraction
# -------------------------------------------------------------------------


def _uniform_weighting(space, tau):
    """The uniform pair weighting omega on the pairs at distance >= tau, as
    an (n, n) matrix."""
    sup = (space.dist >= tau) & ~np.eye(space.n, dtype=bool)
    W = np.where(sup, 1.0, 0.0)
    return W / W.sum()


def _marginals(W):
    return VertexWeights(W.sum(axis=1))


def _mass(W, A, B):
    """omega(A x B) for the pair weighting W."""
    return float(W[np.ix_(np.asarray(A, dtype=int), np.asarray(B, dtype=int))].sum())


def _mask(n, members):
    return np.isin(np.arange(n), list(members))


def test_extract_unsaturated_pair_clears_crossing_edges():
    rng = substream(2, "test", "extract")
    for _ in range(20):
        n = int(rng.integers(4, 10))
        space = _line_space(n)
        W = _uniform_weighting(space, 1.0)
        idx = list(rng.permutation(n))
        half = n // 2
        L, R = idx[:half], idx[half:]
        edges = [
            (i, j) for i in L for j in R if rng.random() < 0.4
        ]
        L0, R0 = extract_unsaturated_pair(_mask(n, L), _mask(n, R), edges, _marginals(W))
        L0, R0 = np.flatnonzero(L0), np.flatnonzero(R0)
        eset = {(min(i, j), max(i, j)) for i, j in edges}
        for x in L0:
            for y in R0:
                assert (min(x, y), max(x, y)) not in eset
        # mass retention: omega(L0 x R0) >= omega(L x R) - 2 nu*
        nustar, _ = fractional_matching(n, edges, _marginals(W))
        assert _mass(W, L0, R0) >= _mass(W, L, R) - 2.0 * nustar - 1e-9


def _extract_by_index(L, R, bipartite_edges, W):
    """The index-set extractor the mask version replaced, for the pair
    weighting W: the reference."""
    L = sorted(int(x) for x in L)
    R = sorted(int(x) for x in R)
    edges = sorted({(min(i, j), max(i, j)) for i, j in bipartite_edges if i != j})
    n = len(W)
    Q = W.sum(axis=1)
    _value, phi = fractional_matching(n, edges, VertexWeights(Q))
    Qstar = np.zeros(n)
    for (i, j), val in phi.items():
        Qstar[i] += val
        Qstar[j] += val
    return ([x for x in L if Qstar[x] < Q[x] - graphs.UNSATURATION_TOL],
            [x for x in R if Qstar[x] < Q[x] - graphs.UNSATURATION_TOL])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.floats(0.0, 1.0))
def test_extract_matches_the_index_reference(seed, n, density):
    rng = np.random.default_rng(seed)
    space = _line_space(n)
    W = rng.random((n, n)) * (space.dist >= 1.0)
    W = (W + W.T) / (W + W.T).sum()
    side = rng.integers(0, 3, size=n)  # 0: L, 1: R, 2: neither
    L, R = np.flatnonzero(side == 0), np.flatnonzero(side == 1)
    # crossing edges in either orientation, some repeated, and self-loops, which are skipped
    edges = [(i, j) if rng.random() < 0.5 else (j, i)
             for i in L for j in R for _ in range(2) if rng.random() < density]
    edges += [(x, x) for x in range(n) if rng.random() < density / 4]
    L0, R0 = extract_unsaturated_pair(side == 0, side == 1, edges, _marginals(W))
    assert (np.flatnonzero(L0).tolist(), np.flatnonzero(R0).tolist()) == (
        _extract_by_index(L, R, edges, W))


def test_extract_rejects_overlapping_sides():
    weights = _marginals(_uniform_weighting(_line_space(4), 1.0))
    with pytest.raises(BadParams, match="disjoint"):
        extract_unsaturated_pair(_mask(4, [0, 1]), _mask(4, [1, 2]), [], weights)


def test_extract_rejects_noncrossing_edge():
    weights = _marginals(_uniform_weighting(_line_space(4), 1.0))
    with pytest.raises(BadParams, match=r"edge \(0,1\) does not cross L-R"):
        extract_unsaturated_pair(_mask(4, [0, 1]), _mask(4, [2, 3]), [(2, 0), (1, 0)], weights)
    with pytest.raises(BadParams, match="boolean point masks"):
        extract_unsaturated_pair([0, 1], [2, 3], [], weights)
    # sides over another number of points than the weights
    with pytest.raises(BadParams, match="boolean point masks"):
        extract_unsaturated_pair(_mask(5, [0]), _mask(5, [1]), [], weights)


# -------------------------------------------------------------------------
# vertex weights
# -------------------------------------------------------------------------


def test_vertex_weights_take_finite_nonnegative_values():
    Q = VertexWeights([0.0, 0.5, 2])
    assert Q.Q.dtype == float and Q.Q.tolist() == [0.0, 0.5, 2.0]


@pytest.mark.parametrize("Q", [[0.5, np.nan], [0.5, np.inf], [0.5, -np.inf], [0.5, -1e-300],
                               np.ones((2, 2)), 0.5, np.ones((1, 0))],
                         ids=["nan", "inf", "-inf", "negative", "matrix", "scalar", "empty-matrix"])
def test_vertex_weights_reject_bad_values(Q):
    with pytest.raises(BadParams, match="vertex weights must be"):
        VertexWeights(Q)


def test_m_sigma_monotone_and_edge_cases():
    space = _line_space(4)
    g = ThresholdedGraph(space, ((0, 1), (1, 2), (2, 3)), sigma=[3.0, 1.0, 2.0])
    assert m_sigma(g, 0, 0.5) == 0.0
    vals = [m_sigma(g, 0, R) for R in (1, 2, 3, 4)]
    assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
    assert vals[-1] == 1.0  # eventually the global minimum sigma


# -------------------------------------------------------------------------
# compatibility check
# -------------------------------------------------------------------------


def _check_compatibility_loop(graph, emap, cert, seed=0):
    """The compatibility check as it was made edge by edge, with one hop
    search per vertex: the reference for check_compatibility."""
    Delta, K, C = cert.Delta, cert.K, cert.C
    coords = emap.coords
    adjacency = _adjacency(graph)
    hops = [shortest_path(adjacency, directed=False, unweighted=True, indices=x)
            for x in range(graph.n)]
    slack = graphs._CHECK_SLACK
    cond1_ok, cond1_witness = True, None
    for x in range(graph.n):
        for (i, j), s in zip(graph.edges.tolist(), graph.sigma.tolist()):
            if hops[x][i] <= K[x] - 1 or hops[x][j] <= K[x] - 1:
                if Delta[x] > s * (1.0 + slack) + 1e-15:
                    cond1_ok, cond1_witness = False, (x, (i, j))
                    break
        if not cond1_ok:
            break
    cond3_ok, cond3_witness = True, None
    for x in range(graph.n):
        ball = np.flatnonzero(hops[x] <= K[x])
        radii = np.linalg.norm(coords[ball] - coords[x], axis=1)
        worst = int(np.argmax(radii))
        if radii[worst] > (Delta[x] / C) * (1.0 + slack) + 1e-15:
            cond3_ok, cond3_witness = False, (x, int(ball[worst]))
            break
    neighbors = [[] for _ in range(graph.n)]
    for i, j in graph.edges.tolist():
        neighbors[i].append(j)
        neighbors[j].append(i)
    verified, undetermined = [], []
    rng = substream(seed, "compat", "cond2")
    for x in range(graph.n):
        for y in sorted(set(neighbors[x])):
            ball = np.flatnonzero(hops[y] <= K[y])
            diffs = coords[ball] - coords[y]
            m = len(ball)
            budget = K[x] * Delta[y]
            if m <= 1:
                verified.append((x, y))
                continue
            maxrad = float(np.max(np.linalg.norm(diffs, axis=1)))
            if math.sqrt(2.0 * math.log(m)) * maxrad <= budget * (1.0 + slack):
                verified.append((x, y))
                continue
            V = rng.standard_normal((MC_SAMPLES, emap.dim))
            maxima = (V @ diffs.T).max(axis=1)
            mean = float(maxima.mean())
            stderr = float(maxima.std(ddof=1) / math.sqrt(MC_SAMPLES))
            if mean + 3.0 * stderr <= budget:
                verified.append((x, y))
            else:
                undetermined.append((x, y))
    return CompatibilityReport(cond1_ok, cond1_witness, tuple(verified), tuple(undetermined),
                               cond3_ok, cond3_witness)


def test_compatibility_witness_is_the_first_vertex_then_its_first_edge():
    # vertex 1 fails on its only edge (1, 3); vertex 2 fails on (0, 2), which
    # comes first in edge order although the pairs list it second
    graph = ThresholdedGraph(_line_space(4), ((3, 1), (2, 0)), sigma=[0.0, 0.0])
    cert = CompatibilityCertificate(1.0, np.array([0.0, 1.0, 1.0, 0.0]), np.ones(4, dtype=int))
    emap = EuclideanMap(np.zeros((4, 1)))
    report = check_compatibility(graph, emap, cert)
    assert (report.cond1_ok, report.cond1_witness) == (False, (1, (1, 3)))
    assert report == _check_compatibility_loop(graph, emap, cert)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 128), st.sampled_from([1, 97, 1 << 20]))
def test_compatibility_check_matches_the_edge_loop(seed, n, block):
    # sigma, Delta and the coordinates on coarse grids, so that Delta ties
    # sigma and the ball radii tie Delta / C
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2))
    graph = ThresholdedGraph(_line_space(n), pairs, sigma=rng.integers(0, 4, len(pairs)) / 4.0)
    emap = EuclideanMap(rng.integers(-2, 3, size=(n, int(rng.integers(1, 3)))) / 2.0)
    Delta = rng.integers(0, 4, n) / 4.0 * float(rng.choice([0.0, 0.25, 1.0, 4.0]))
    cert = CompatibilityCertificate(float(rng.choice([0.5, 1.0])), Delta, rng.integers(1, 4, n))
    with mock.patch.object(graphs, "_BLOCK", block):  # a small block splits the vertex rows
        got = check_compatibility(graph, emap, cert, seed=seed % 7)
    assert got == _check_compatibility_loop(graph, emap, cert, seed=seed % 7)


def _certificates(out, rng):
    """A compression's certificate, and one with Delta raised above every
    edge label at one random point, whose first near edge condition 1 names."""
    Delta = out.cert.Delta.copy()
    Delta[rng.integers(out.graph.n)] = 2.0 * (float(out.graph.sigma.max()) or 1.0)
    return out.cert, CompatibilityCertificate(out.cert.C, Delta, out.cert.K)


@pytest.mark.parametrize("label", ["cube4", "grid8", "two_grids", "path300"])
def test_compatibility_check_matches_the_edge_loop_on_compressions(label):
    space, weights, tau, C, emap = compression_instance(label)
    out = universal_compression(space, PointMeasure(weights), tau, C, emap)
    for cert in _certificates(out, np.random.default_rng(0)):
        got = check_compatibility(out.graph, out.f, cert, seed=1)
        assert got == _check_compatibility_loop(out.graph, out.f, cert, seed=1)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 64), st.sampled_from([0.5, 1.0, 3.0]),
       st.sampled_from([1.0, 2.0, 4.0]))
def test_compatibility_check_matches_the_edge_loop_on_random_compressions(seed, n, tau, C):
    space = generate_instance("lp_cloud", {"n": n, "p": 1.0, "dim": 2}, seed=seed).space
    emap = snowflake_embed(space, 0.5)
    out = universal_compression(space, PointMeasure(np.ones(n)), tau, C, emap)
    for cert in _certificates(out, np.random.default_rng(seed)):
        got = check_compatibility(out.graph, out.f, cert, seed=2)
        assert got == _check_compatibility_loop(out.graph, out.f, cert, seed=2)
