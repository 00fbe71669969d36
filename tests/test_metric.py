import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zerosetkit import metric
from zerosetkit.errors import (
    AsymmetricMatrix,
    BadParams,
    DisconnectedGraph,
    NegativeEntry,
    NonInjectiveMap,
    NotNegativeType,
    TooSmall,
    TriangleViolation,
)
from zerosetkit.graphs import ThresholdedGraph
from zerosetkit.metric import (
    EuclideanMap,
    FiniteMetricSpace,
    PointMeasure,
    QuasiParams,
    distortion,
    generate_instance,
    instance_from_json,
    instance_to_json,
    p_average_distortion,
    quasisym_check,
    snowflake_embed,
    validate_metric,
)

from conftest import space_from_points


# -------------------------------------------------------------------------
# validation
# -------------------------------------------------------------------------


def test_validate_metric_accepts_valid():
    D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    space = validate_metric(D)
    assert space.n == 3
    assert space.d(0, 2) == 2.0


def test_validate_metric_rejects_asymmetric():
    D = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(AsymmetricMatrix):
        validate_metric(D)


def test_validate_metric_rejects_negative():
    D = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(NegativeEntry):
        validate_metric(D)


def test_validate_metric_rejects_triangle_violation():
    D = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(TriangleViolation):
        validate_metric(D)


def _first_violation(D):
    """Reference: the first violated triple from the whole n^3 slack array,
    or None."""
    slack = D[:, :, None] - (D[:, None, :] + D[None, :, :])
    bad = np.argwhere(slack > metric.TRIANGLE_TOL)
    return tuple(map(int, bad[0])) if bad.size else None


@pytest.mark.parametrize("block", [None, 64 * 64 - 1, 3 * 64 * 64])
@pytest.mark.parametrize("stretched", [[(20, 45)], [(15, 17), (16, 18)], [(40, 63), (33, 35)]])
def test_triangle_violation_is_first_across_row_blocks(monkeypatch, block, stretched):
    # 64 points on a line, with some pairs pushed further apart than the
    # path through the points between them; the default block holds 16 rows
    if block is not None:
        monkeypatch.setattr(metric, "_TRIANGLE_BLOCK", block)
    x = np.arange(64, dtype=float)
    D = np.abs(x[:, None] - x[None, :])
    for a, b in stretched:
        D[a, b] = D[b, a] = D[a, b] + 0.5
    with pytest.raises(TriangleViolation) as info:
        validate_metric(D)
    a, b = min(stretched)
    assert info.value.triple == _first_violation(D) == (a, b, a + 1)


def _pushed(x, pushes):
    """The line metric on the points x, with each pair (a, b) of ``pushes``
    pushed ``push`` further apart."""
    D = np.abs(x[:, None] - x[None, :])
    for a, b, push in pushes:
        if a != b:
            D[a, b] = D[b, a] = D[a, b] + push
    return D


@st.composite
def _pushed_lines(draw):
    """Line metrics with up to three pairs pushed apart or pulled together, by
    half of TRIANGLE_TOL, exactly it, just above it, twice it or by fractions
    of a unit (three pulls leave every distance positive), and a block cap
    from one row to every row.  A pair pushed apart is the long side of the
    triples it violates, a pair pulled together a short side."""
    n = draw(st.integers(3, 40))
    x = np.cumsum(draw(arrays(float, n, elements=st.sampled_from([1.0, 2.0, 3.0]))))
    tol = metric.TRIANGLE_TOL
    pushes = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                     st.sampled_from([0.5 * tol, tol, 1.01 * tol, 2 * tol,
                                                      0.25, 5.0, -0.5 * tol, -tol,
                                                      -1.01 * tol, -0.25])),
                           max_size=3))
    return _pushed(x, pushes), draw(st.sampled_from([1, n * n - 1, n * n, 3 * n * n + 1,
                                                     1 << 16]))


@settings(max_examples=120, deadline=None)
@given(_pushed_lines())
# only in the last block of four rows; only just above the tolerance
@example((_pushed(np.arange(40.0), [(37, 39, 0.5)]), 4 * 40 * 40))
@example((_pushed(np.arange(12.0), [(3, 9, 1.01e-9)]), 1))
# pulled together: the moved pair is a short side of the first violated triple
@example((_pushed(np.arange(6.0), [(1, 2, -0.5)]), 1))
# the first violated triple is (0, 1, 2): j is the first column a block scans
@example((_pushed(np.array([0.0, 2.0, 1.0]), [(0, 1, 0.5)]), 1))
@example((_pushed(np.array([0.0, 2.0, 1.0]), [(0, 1, 0.5)]), 1 << 16))
def test_triangle_scan_names_the_exhaustive_first_triple(case):
    D, block = case
    first = _first_violation(D)
    with mock.patch.object(metric, "_TRIANGLE_BLOCK", block):
        if first is None:
            validate_metric(D)
            return
        with pytest.raises(TriangleViolation) as info:
            validate_metric(D)
    assert info.value.triple == first
    assert first[0] < first[1]  # the scan covers the pairs i < j only
    assert str(info.value) == f"triangle inequality fails on triple {first}"


def test_triangle_check_memory_is_bounded():
    D = generate_instance("lp_cloud", {"n": 256, "p": 2.0, "dim": 3}, seed=1).space.dist
    tracemalloc.start()
    try:
        validate_metric(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # the whole 256^3 slack array alone is 128 MB


@settings(max_examples=60, deadline=None)
@given(
    arrays(float, st.tuples(st.integers(1, 24), st.integers(1, 16)),
           elements=st.floats(-1e3, 1e3)),
    st.integers(1, 400),
    st.sampled_from([1.0, 2.0, 3.0, math.inf]),
)
@example(np.linspace(-5.0, 5.0, 20 * 12).reshape(20, 12), 12 * 20 * 3 - 1, 1.0)
@example(np.linspace(-5.0, 5.0, 40 * 9).reshape(40, 9), metric._PAIR_BLOCK, 2.0)
def test_pairwise_row_blocks_match_the_full_expression(points, block, p):
    # the n x n x d differences at once, against row blocks of at most
    # ``block`` differences; d >= 8 reaches the unrolled summation
    diff = points[:, None, :] - points[None, :, :]
    full_l2 = np.sqrt((diff**2).sum(axis=2))
    full_lp = np.abs(diff).max(axis=2) if math.isinf(p) else (
        (np.abs(diff) ** p).sum(axis=2) ** (1.0 / p))
    with mock.patch.object(metric, "_PAIR_BLOCK", block):
        assert np.array_equal(EuclideanMap(points).image_distances(), full_l2)
        assert np.array_equal(metric._lp_distances(points, p), full_lp)


def test_image_distances_memory_is_bounded():
    coords = np.random.default_rng(0).normal(size=(300, 299))
    tracemalloc.start()
    try:
        EuclideanMap(coords).image_distances()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # the whole 300 x 300 x 299 difference array is 215 MB


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 128), st.integers(1, 16),
       st.sampled_from([1, 7, 200, 1 << 16]))
def test_composed_and_pair_distances_are_the_full_matrix_bits(seed, n, d, block):
    # the compressed map's distances read from phi's at [q][:, q], and the
    # pair-only distances, against the full matrix of freshly built maps
    rng = np.random.default_rng(seed)
    phi = EuclideanMap(rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0))
    q = rng.integers(0, n, n)
    x, y = rng.integers(0, n, (2, int(rng.integers(0, 3 * n))))
    with mock.patch.object(metric, "_PAIR_BLOCK", block):
        composed = phi.composed(q).image_distances()
        fresh = EuclideanMap(phi.coords[q]).image_distances()
        assert composed.tobytes() == fresh.tobytes()
        assert not composed.flags.writeable
        assert phi.pair_distances(x, y).tobytes() == phi.image_distances()[x, y].tobytes()


def test_pair_distances_memory_is_bounded():
    coords = np.random.default_rng(0).normal(size=(300, 299))
    x, y = np.nonzero(np.ones((300, 300), dtype=bool))
    tracemalloc.start()
    try:
        EuclideanMap(coords).pair_distances(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # the 90000 x 299 differences at once are 215 MB


def test_validate_metric_rejects_single_point():
    with pytest.raises(TooSmall):
        validate_metric(np.zeros((1, 1)))


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        float,
        st.tuples(st.integers(2, 8), st.integers(1, 4)),
        elements=st.floats(-10, 10),
    )
)
def test_euclidean_point_clouds_always_validate(points):
    from hypothesis import assume

    diff = points[:, None, :] - points[None, :, :]
    D = np.sqrt((diff**2).sum(axis=2))
    n = len(points)
    assume(np.min(D[~np.eye(n, dtype=bool)]) > 0)
    validate_metric((D + D.T) / 2.0)


# -------------------------------------------------------------------------
# generators
# -------------------------------------------------------------------------


def test_hamming_cube_metric(cube3):
    space = cube3.space
    assert space.n == 8
    # opposite corners differ in every coordinate
    assert space.d(0, 7) == 3.0
    assert space.diam == 3.0
    assert cube3.emap is not None and cube3.emap.dim == 3


def test_grid_metric():
    inst = generate_instance("grid", {"rows": 3, "cols": 2})
    assert inst.space.n == 6
    validate_metric(inst.space.dist)


def test_lp_cloud_deterministic():
    a = generate_instance("lp_cloud", {"n": 6, "p": 2.0, "dim": 3}, seed=5)
    b = generate_instance("lp_cloud", {"n": 6, "p": 2.0, "dim": 3}, seed=5)
    assert np.array_equal(a.space.dist, b.space.dist)


def test_diamond_and_expander_are_metrics():
    d = generate_instance("diamond", {"level": 1})
    validate_metric(d.space.dist)
    e = generate_instance("expander_path_metric", {"n": 8, "degree": 3}, seed=0)
    assert e.space.n == 8
    validate_metric(e.space.dist)
    assert np.all(np.isfinite(e.space.dist))  # connected


def _nx_hops(G) -> np.ndarray:
    """Hop distances of a networkx graph on 0..n-1 by networkx's own BFS."""
    nx = pytest.importorskip("networkx")  # a test oracle, not a dependency
    D = np.full((G.number_of_nodes(),) * 2, np.inf)
    for u, lengths in nx.all_pairs_shortest_path_length(G):
        for v, hops in lengths.items():
            D[u, v] = hops
    return D


def _nx_diamond(level: int) -> np.ndarray:
    nx = pytest.importorskip("networkx")  # a test oracle, not a dependency
    G = nx.Graph([(0, 1)])
    for _ in range(level):
        H = nx.Graph()
        H.add_nodes_from(G.nodes)
        for u, v in sorted(G.edges()):
            m = H.number_of_nodes()
            H.add_edges_from([(u, m), (m, v), (u, m + 1), (m + 1, v)])
        G = H
    return _nx_hops(G)


def _nx_expander(n: int, degree: int, seed, retries: int = 100):
    """The expander's draws built as networkx graphs: the hop distances of
    the first simple connected draw (None if there is none), and how many
    draws were rejected for a repeated edge and for being disconnected."""
    nx = pytest.importorskip("networkx")  # a test oracle, not a dependency
    rng = np.random.default_rng(seed)
    rejected = {"repeated": 0, "disconnected": 0}
    for _ in range(retries):
        G = nx.Graph()
        for _m in range(degree):
            perm = rng.permutation(n)
            pairs = [(int(perm[a]), int(perm[a + 1])) for a in range(0, n, 2)]
            repeated = any(G.has_edge(*e) for e in pairs)
            if repeated:
                break
            G.add_edges_from(pairs)
        if repeated:
            rejected["repeated"] += 1
        elif not nx.is_connected(G):
            rejected["disconnected"] += 1
        else:
            return _nx_hops(G), rejected
    return None, rejected


@pytest.mark.parametrize("level", range(5))
def test_diamond_matches_networkx(level):
    D = generate_instance("diamond", {"level": level}).space.dist
    assert D.tobytes() == _nx_diamond(level).tobytes()


# seed 111 at n = 10 draws two components (a K4 and a prism) first
_EXPANDER_CASES = [(n, seed) for n in (6, 16, 18, 24, 32, 40, 64, 128, 256)
                   for seed in range(6)] + [(10, 111)]


def test_expander_matches_networkx_through_its_retries():
    rejected = {"repeated": 0, "disconnected": 0}
    for n, seed in _EXPANDER_CASES:
        D = generate_instance("expander_path_metric", {"n": n, "degree": 3}, seed=seed).space.dist
        ref, why = _nx_expander(n, 3, seed)
        assert D.tobytes() == ref.tobytes(), (n, seed)
        for reason, count in why.items():
            rejected[reason] += count
    assert rejected["repeated"] > 0 and rejected["disconnected"] > 0


@pytest.mark.parametrize("n, seed, retries", [(10, 111, 1), (6, 3, 5)])
def test_expander_raises_when_its_retries_run_out(n, seed, retries):
    # the first draws are disconnected (10, 111) or repeat an edge (6, 3)
    assert _nx_expander(n, 3, seed, retries)[0] is None
    with pytest.raises(DisconnectedGraph):
        metric._expander(n, 3, seed, retries)


@pytest.mark.parametrize("label", ["path256", "cube10", "split", "loops"])
def test_hop_distances_match_csgraph(label):
    # a path's BFS runs 255 levels, the cube's frontiers reach 252 * 1024
    # pairs, split has two components and a lone point with a loop, and
    # loops has a loop at every point, reversed and repeated edges and
    # three components
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    if label in ("split", "loops"):
        space = FiniteMetricSpace(tuple(range(6)), np.zeros((6, 6)))
        edges = np.array([(0, 1), (1, 2), (4, 5), (3, 3)] if label == "split" else
                         [(x, x) for x in range(6)] + [(1, 0), (0, 1), (0, 1), (4, 2)])
    else:
        if label == "path256":
            space = space_from_points(np.arange(256.0)[:, None])
        else:
            space = generate_instance("hamming_cube", {"dim": 10}).space
        edges = np.argwhere(np.triu(space.dist == 1.0))
    i, j = edges.T
    adjacency = coo_matrix((np.ones(i.size), (i, j)), shape=(space.n, space.n)).tocsr()
    want = shortest_path(adjacency, directed=False, unweighted=True)
    hops = metric._hop_distances(space.n, edges)
    assert hops.tobytes() == want.tobytes()
    assert ThresholdedGraph(space, edges).hops.tobytes() == want.tobytes()
    if label == "split":
        assert np.isinf(hops[0, 3]) and np.isinf(hops[2, 5]) and hops[3, 3] == 0
    elif label == "loops":
        assert np.isinf(hops[0, 3]) and np.isinf(hops[1, 4]) and hops[2, 4] == 1
    else:  # the graph metric is the hop metric
        assert np.array_equal(hops, space.dist)


def test_unknown_family_rejected():
    with pytest.raises(BadParams):
        generate_instance("nope", {})


# -------------------------------------------------------------------------
# snowflakes, distortion, quasisymmetry
# -------------------------------------------------------------------------


def test_snowflake_two_point_space():
    D = np.array([[0.0, 4.0], [4.0, 0.0]])
    space = validate_metric(D)
    emap = snowflake_embed(space, 0.5)
    assert math.isclose(float(np.linalg.norm(emap.coords[0] - emap.coords[1])), 2.0)


def test_snowflake_preserves_metric_axioms(cube3):
    emap = snowflake_embed(cube3.space, 0.5)
    E = emap.image_distances()
    validate_metric((E + E.T) / 2.0)


def test_distortion_identity_is_one():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
    space = space_from_points(pts)
    rep = distortion(space, EuclideanMap(pts))
    assert math.isclose(rep.distortion, 1.0)
    assert math.isclose(rep.lipschitz, 1.0)


def test_cube2_identity_distortion_sqrt2():
    inst = generate_instance("hamming_cube", {"dim": 2})
    rep = distortion(inst.space, inst.emap)
    assert math.isclose(rep.distortion, math.sqrt(2.0))


def test_distortion_requires_injective():
    D = np.array([[0.0, 1.0], [1.0, 0.0]])
    space = validate_metric(D)
    with pytest.raises(NonInjectiveMap):
        distortion(space, EuclideanMap(np.zeros((2, 2))))


def test_quasisym_check_pass_and_witness(cube3):
    emap = snowflake_embed(cube3.space, 0.5)
    ok, witness = quasisym_check(cube3.space, emap, QuasiParams(0.25, 0.5))
    assert ok and witness is None
    # at s = 1/2 the half-snowflake contracts comparisons only by sqrt(1/2),
    # which loses to a gap of eps = 1/2
    ok2, witness2 = quasisym_check(cube3.space, emap, QuasiParams(0.5, 0.5))
    assert not ok2 and witness2 is not None


def _quasisym_by_x(space, emap, params):
    """The one-x-at-a-time loop quasisym_check replaced: the reference."""
    E = emap.image_distances()
    D = space.dist
    for x in range(space.n):
        antecedent = D[x][:, None] <= params.s * D[x][None, :]
        allowed = (1.0 - params.eps) * E[x][None, :]
        bad = antecedent & (E[x][:, None] > allowed * (1.0 + metric._QS_SLACK) + 1e-15)
        hits = np.argwhere(bad)
        if hits.size:
            y, z = map(int, hits[0])
            return False, (x, y, z)
    return True, None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.sampled_from([1, 3, 200, 1 << 16]))
def test_quasisym_check_blocks_match_the_per_x_loop(seed, n, block):
    rng = np.random.default_rng(seed)
    space = space_from_points(rng.standard_normal((n, 2)))
    # a snowflake passes, a map of unrelated points fails at some (x, y, z)
    theta = float(rng.uniform(0.2, 1.0))
    emap = snowflake_embed(space, theta) if rng.random() < 0.5 else EuclideanMap(
        rng.standard_normal((n, 3)))
    params = QuasiParams(float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.05, 0.5)))
    with mock.patch.object(metric, "_QS_BLOCK", block):
        assert quasisym_check(space, emap, params) == _quasisym_by_x(space, emap, params)


def test_negative_type_cube_yes_diamond2_no(cube3):
    # the half-snowflake exists exactly when d itself is of negative type
    assert snowflake_embed(cube3.space, 0.5).n == cube3.space.n
    d2 = generate_instance("diamond", {"level": 2})
    with pytest.raises(NotNegativeType, match=r"d\^1 is not of negative type"):
        snowflake_embed(d2.space, 0.5)


def test_p_average_distortion_identity():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
    space = space_from_points(pts)
    mu = PointMeasure(np.ones(4))
    d = p_average_distortion(space, EuclideanMap(pts), mu, p=2.0)
    assert math.isclose(d, 1.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 1.0))
def test_snowflake_scaling_law(theta):
    D = np.array([[0.0, 4.0], [4.0, 0.0]])
    space = validate_metric(D)
    emap = snowflake_embed(space, theta)
    gap = float(np.linalg.norm(emap.coords[0] - emap.coords[1]))
    assert math.isclose(gap, 4.0**theta, rel_tol=1e-12)


# -------------------------------------------------------------------------
# JSON round trip
# -------------------------------------------------------------------------


def test_instance_json_roundtrip(cube3):
    mu = PointMeasure(np.arange(1.0, 9.0))
    obj = instance_to_json(cube3.space, cube3.emap, mu)
    space, emap, measure = instance_from_json(obj)
    assert np.array_equal(space.dist, cube3.space.dist)
    assert np.array_equal(emap.coords, cube3.emap.coords)
    assert np.array_equal(measure.weights, mu.weights)


def test_instance_from_json_names_missing_dist():
    with pytest.raises(BadParams, match="'dist'"):
        instance_from_json({"ids": [0, 1]})


# -------------------------------------------------------------------------
# constructors copy before freezing
# -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, read, array",
    [
        (validate_metric, lambda s: s.dist, np.array([[0.0, 1.0], [1.0, 0.0]])),
        (PointMeasure, lambda m: m.weights, np.array([1.0, 2.0, 3.0])),
        (EuclideanMap, lambda e: e.coords, np.array([[0.0, 1.0], [2.0, 3.0]])),
    ],
    ids=["validate_metric", "PointMeasure", "EuclideanMap"],
)
def test_constructors_leave_callers_array_writable(build, read, array):
    built = build(array)
    assert array.flags.writeable
    assert not read(built).flags.writeable
    before = read(built).copy()
    array *= 2.0
    assert np.array_equal(read(built), before)
