import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

from zerosetkit import graphs
from zerosetkit._rng import substream
from zerosetkit.errors import BadParams, LPSolveFailed, RhoBelowOne, SolverError
from zerosetkit.graphs import (
    PairWeighting,
    ThresholdedGraph,
    VertexWeights,
    build_proximity_graph,
    extract_unsaturated_pair,
    fractional_matching,
    max_matching,
    max_matching_bruteforce,
    sparsify_directional,
)
from zerosetkit.metric import EuclideanMap, validate_metric

from conftest import space_from_points


def has_self_loop(graph, x):
    return (x, x) in set(graph.edges)


def graph_ball(graph, x, radius):
    """Combinatorial ball: vertices within hop distance radius of x."""
    if radius < 0:
        return np.array([], dtype=int)
    return np.flatnonzero(graph.graph_distances(x) <= radius)


def m_sigma(graph, x, R):
    """Minimum sigma over edges with an endpoint within hop distance R-1 of x.

    Zero for R < 1; +inf when no edge qualifies.  Monotone nonincreasing in R.
    """
    if graph.sigma is None:
        raise BadParams("graph needs sigma on all edges")
    if R < 1:
        return 0.0
    hop = graph.graph_distances(x)
    best = math.inf
    for (i, j), s in graph.sigma.items():
        if hop[i] <= R - 1 or hop[j] <= R - 1:
            best = min(best, s)
    return best


def _line_space(n):
    pts = np.arange(n, dtype=float)[:, None]
    return space_from_points(pts)


# -------------------------------------------------------------------------
# thresholded graphs
# -------------------------------------------------------------------------


def test_graph_components_and_balls():
    space = _line_space(5)
    g = ThresholdedGraph(space, ((0, 1), (1, 2), (3, 4), (2, 2)))
    assert g.components == ((0, 1, 2), (3, 4))
    assert g.loopless_edges() == ((0, 1), (1, 2), (3, 4))
    assert has_self_loop(g, 2)
    assert list(graph_ball(g, 0, 1)) == [0, 1]
    assert list(graph_ball(g, 0, 2)) == [0, 1, 2]
    assert g.component_of[3] == g.component_of[4]
    # computed once per graph; the shared labels are read-only
    assert g.components is g.components and g.component_of is g.component_of
    assert not g.component_of.flags.writeable


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
    assert (0, 1) not in g.edges  # needs d <= 1/2
    assert (1, 2) in g.edges  # needs d <= 1/1
    assert (0, 2) not in g.edges


# -------------------------------------------------------------------------
# directional sparsification
# -------------------------------------------------------------------------


def test_sparsify_keeps_only_wide_projections():
    space = _line_space(3)
    coords = np.array([[0.0], [1.0], [10.0]])
    sigma = {(0, 1): 1.0, (1, 2): 1.0, (0, 0): 0.0}
    g = ThresholdedGraph(space, tuple(sigma), sigma=sigma)
    kept = sparsify_directional(g, EuclideanMap(coords), np.array([1.0]))
    # |proj gap| must exceed 4 sigma: edge (0,1) gap 1 <= 4, edge (1,2) gap 9 > 4
    assert kept == ((1, 2),)


def _sparsify_loop(graph, emap, v):
    """The per-edge loop sparsify_directional replaced: the reference."""
    proj = emap.coords @ np.asarray(v, dtype=float)
    kept = []
    for i, j in graph.edges:
        if abs(proj[i] - proj[j]) > 4.0 * graph.sigma[(i, j)]:
            kept.append((i, j))
    return tuple(kept)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(1, 4))
def test_sparsify_matches_the_edge_loop(seed, n, dim):
    rng = np.random.default_rng(seed)
    space = _line_space(n)
    pairs = {tuple(sorted(p)) for p in rng.integers(0, n, size=(3 * n, 2)).tolist()}
    # sigma on a coarse grid, so projections tie with 4 sigma now and then
    sigma = {p: float(rng.integers(0, 4)) / 4.0 for p in pairs}
    g = ThresholdedGraph(space, tuple(sigma), sigma=sigma)
    emap = EuclideanMap(rng.integers(-4, 5, size=(n, dim)).astype(float))
    for v in (rng.standard_normal(dim), np.ones(dim)):
        assert sparsify_directional(g, emap, v) == _sparsify_loop(g, emap, v)


def test_sparsify_never_keeps_self_loops():
    space = _line_space(2)
    sigma = {(0, 0): 0.0, (0, 1): 0.0}
    g = ThresholdedGraph(space, tuple(sigma), sigma=sigma)
    kept = sparsify_directional(g, EuclideanMap(np.array([[0.0], [5.0]])), np.array([1.0]))
    assert kept == ((0, 1),)


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
    monkeypatch.setattr(
        graphs, "linprog",
        lambda *a, **k: OptimizeResult(success=False, status=2, message="forced failure"),
    )
    with pytest.raises(LPSolveFailed, match="forced failure") as info:
        fractional_matching(3, [(0, 1), (1, 2), (0, 2)], VertexWeights(np.ones(3)))
    assert isinstance(info.value, SolverError)


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


# -------------------------------------------------------------------------
# unsaturated pair extraction
# -------------------------------------------------------------------------


def _uniform_weighting(space, tau):
    D = space.dist
    sup = (D >= tau) & ~np.eye(space.n, dtype=bool)
    W = np.where(sup, 1.0, 0.0)
    return PairWeighting(W / W.sum(), tau, space)


def _mask(n, members):
    return np.isin(np.arange(n), list(members))


def test_extract_unsaturated_pair_clears_crossing_edges():
    rng = substream(2, "test", "extract")
    for _ in range(20):
        n = int(rng.integers(4, 10))
        space = _line_space(n)
        omega = _uniform_weighting(space, 1.0)
        idx = list(rng.permutation(n))
        half = n // 2
        L, R = idx[:half], idx[half:]
        edges = [
            (i, j) for i in L for j in R if rng.random() < 0.4
        ]
        L0, R0 = extract_unsaturated_pair(_mask(n, L), _mask(n, R), edges, omega)
        L0, R0 = np.flatnonzero(L0), np.flatnonzero(R0)
        eset = {(min(i, j), max(i, j)) for i, j in edges}
        for x in L0:
            for y in R0:
                assert (min(x, y), max(x, y)) not in eset
        # mass retention: omega(L0 x R0) >= omega(L x R) - 2 nu*
        Q = omega.marginals()
        nustar, _ = fractional_matching(n, edges, VertexWeights(Q))
        assert omega.mass(L0, R0) >= omega.mass(L, R) - 2.0 * nustar - 1e-9


def _extract_by_index(L, R, bipartite_edges, omega):
    """The index-set extractor the mask version replaced: the reference."""
    L = sorted(int(x) for x in L)
    R = sorted(int(x) for x in R)
    edges = sorted({(min(i, j), max(i, j)) for i, j in bipartite_edges if i != j})
    n = omega.space.n
    Q = omega.omega.sum(axis=1)
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
    omega = PairWeighting((W + W.T) / (W + W.T).sum(), 1.0, space)
    side = rng.integers(0, 3, size=n)  # 0: L, 1: R, 2: neither
    L, R = np.flatnonzero(side == 0), np.flatnonzero(side == 1)
    # crossing edges in either orientation, some repeated
    edges = [(i, j) if rng.random() < 0.5 else (j, i)
             for i in L for j in R for _ in range(2) if rng.random() < density]
    L0, R0 = extract_unsaturated_pair(side == 0, side == 1, edges, omega)
    assert (np.flatnonzero(L0).tolist(), np.flatnonzero(R0).tolist()) == (
        _extract_by_index(L, R, edges, omega))


def test_extract_rejects_overlapping_sides():
    space = _line_space(4)
    omega = _uniform_weighting(space, 1.0)
    with pytest.raises(BadParams, match="disjoint"):
        extract_unsaturated_pair(_mask(4, [0, 1]), _mask(4, [1, 2]), [], omega)


def test_extract_rejects_noncrossing_edge():
    space = _line_space(4)
    omega = _uniform_weighting(space, 1.0)
    with pytest.raises(BadParams, match=r"edge \(0,1\) does not cross L-R"):
        extract_unsaturated_pair(_mask(4, [0, 1]), _mask(4, [2, 3]), [(2, 0), (1, 0)], omega)
    with pytest.raises(BadParams, match="boolean point masks"):
        extract_unsaturated_pair([0, 1], [2, 3], [], omega)


# -------------------------------------------------------------------------
# pair weightings and m_sigma
# -------------------------------------------------------------------------


def test_pair_weighting_validation():
    space = _line_space(3)
    W = np.zeros((3, 3))
    W[0, 2] = W[2, 0] = 0.5
    omega = PairWeighting(W, 2.0, space)
    assert math.isclose(omega.marginals().sum(), 1.0)
    with pytest.raises(BadParams):
        PairWeighting(W, 3.0, space)  # support closer than tau


def test_pair_weighting_rejects_asymmetry_nan_and_negative_entries():
    space = _line_space(3)
    W = np.zeros((3, 3))
    W[0, 2] = W[2, 0] = 0.5

    def changed(entries, value):
        V = W.copy()
        for i, j in entries:
            V[i, j] = value
        return V

    # an asymmetry within the 1e-12 tolerance passes, one beyond it does not
    PairWeighting(changed([(0, 2)], 0.5 + 5e-13), 2.0, space)
    with pytest.raises(BadParams, match="symmetric"):
        PairWeighting(changed([(0, 2)], 0.5 + 2e-12), 2.0, space)
    # NaN fails the symmetry test even where the matrix equals its transpose
    with pytest.raises(BadParams, match="symmetric"):
        PairWeighting(changed([(0, 2), (2, 0)], np.nan), 2.0, space)
    negative = changed([(0, 2), (2, 0)], 0.75)
    negative[1, 1] = -0.5
    with pytest.raises(BadParams, match="nonnegative"):
        PairWeighting(negative, 2.0, space)


def test_m_sigma_monotone_and_edge_cases():
    space = _line_space(4)
    sigma = {(0, 1): 3.0, (1, 2): 1.0, (2, 3): 2.0}
    g = ThresholdedGraph(space, tuple(sigma), sigma=sigma)
    assert m_sigma(g, 0, 0.5) == 0.0
    vals = [m_sigma(g, 0, R) for R in (1, 2, 3, 4)]
    assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
    assert vals[-1] == 1.0  # eventually the global minimum sigma
