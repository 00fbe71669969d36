import math

import numpy as np
import pytest
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
    m_sigma,
    max_matching,
    max_matching_bruteforce,
    sparsify_directional,
)
from zerosetkit.metric import EuclideanMap, validate_metric

from conftest import space_from_points


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
    assert g.has_self_loop(2)
    assert list(g.graph_ball(0, 1)) == [0, 1]
    assert list(g.graph_ball(0, 2)) == [0, 1, 2]
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
        L0, R0 = extract_unsaturated_pair(L, R, edges, omega)
        eset = {(min(i, j), max(i, j)) for i, j in edges}
        for x in L0:
            for y in R0:
                assert (min(x, y), max(x, y)) not in eset
        # mass retention: omega(L0 x R0) >= omega(L x R) - 2 nu*
        Q = omega.marginals()
        nustar, _ = fractional_matching(n, edges, VertexWeights(Q))
        assert omega.mass(L0, R0) >= omega.mass(L, R) - 2.0 * nustar - 1e-9


def test_extract_rejects_overlapping_sides():
    space = _line_space(4)
    omega = _uniform_weighting(space, 1.0)
    with pytest.raises(BadParams):
        extract_unsaturated_pair([0, 1], [1, 2], [], omega)


def test_extract_rejects_noncrossing_edge():
    space = _line_space(4)
    omega = _uniform_weighting(space, 1.0)
    with pytest.raises(BadParams):
        extract_unsaturated_pair([0, 1], [2, 3], [(0, 1)], omega)


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


def test_m_sigma_monotone_and_edge_cases():
    space = _line_space(4)
    sigma = {(0, 1): 3.0, (1, 2): 1.0, (2, 3): 2.0}
    g = ThresholdedGraph(space, tuple(sigma), sigma=sigma)
    assert m_sigma(g, 0, 0.5) == 0.0
    vals = [m_sigma(g, 0, R) for R in (1, 2, 3, 4)]
    assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
    assert vals[-1] == 1.0  # eventually the global minimum sigma
