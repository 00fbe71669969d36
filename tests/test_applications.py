import hashlib
import json
import math
import tracemalloc
import zlib

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse
from scipy.sparse.csgraph import shortest_path
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zerosetkit import applications, verify
from zerosetkit._rng import RandomnessSpec, substream
from zerosetkit.applications import (
    LineFunctional,
    SparsestCutInstance,
    brute_isoperimetric,
    brute_sparsest_cut,
    iso_certificate,
    line_functional_embed,
    lq_space,
    sdp_gl_solve,
    sweep_round_cut,
)
from zerosetkit.cli import run_command
from zerosetkit.errors import BadParams, CapExceeded, SolverStalled
from zerosetkit.metric import (
    EuclideanMap,
    FiniteMetricSpace,
    PointMeasure,
    _schoenberg_matrix,
    generate_instance,
)
from zerosetkit.randomzero import general_zeroset_sampler

from conftest import limit_lp_runs


def _cycle_instance(n):
    C = np.zeros((n, n))
    for i in range(n):
        C[i, (i + 1) % n] = C[(i + 1) % n, i] = 1.0
    D = np.ones((n, n)) - np.eye(n)
    return SparsestCutInstance(C, D)


def _random_instance(rng, n):
    Cm = rng.random((n, n))
    Cm = (Cm + Cm.T) / 2.0
    np.fill_diagonal(Cm, 0.0)
    Dm = rng.random((n, n))
    Dm = (Dm + Dm.T) / 2.0
    np.fill_diagonal(Dm, 0.0)
    return SparsestCutInstance(Cm, Dm)


# -------------------------------------------------------------------------
# instances
# -------------------------------------------------------------------------


def test_instance_validation():
    with pytest.raises(BadParams):
        SparsestCutInstance(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(BadParams):
        SparsestCutInstance(np.array([[0, 1], [2, 0]]), np.ones((2, 2)) - np.eye(2))
    with pytest.raises(BadParams):
        SparsestCutInstance(np.zeros((2, 2)), np.zeros((2, 2)))  # no demand


def test_cut_ratio_by_hand():
    # path 0-1-2, unit edge capacities, all-pairs unit demands
    C = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    D = np.ones((3, 3)) - np.eye(3)
    inst = SparsestCutInstance(C, D)
    assert math.isclose(inst.cut_ratio([0]), 0.5)
    assert math.isclose(inst.cut_ratio([1]), 1.0)
    brute = brute_sparsest_cut(inst)
    assert math.isclose(brute["value"], 0.5)


def test_instance_json_roundtrip():
    inst = _cycle_instance(4)
    again = SparsestCutInstance.from_json(inst.to_json())
    assert np.array_equal(inst.capacities, again.capacities)
    assert np.array_equal(inst.demands, again.demands)


def test_instance_from_json_names_missing_key():
    with pytest.raises(BadParams, match="'demands'"):
        SparsestCutInstance.from_json({"capacities": [[0, 1], [1, 0]]})


def test_constructors_leave_callers_arrays_writable():
    C, D = _cycle_instance(4).capacities.copy(), np.ones((4, 4)) - np.eye(4)
    inst = SparsestCutInstance(C, D)
    u = np.array([3.0, 4.0, 0.0])
    func = LineFunctional(q=2.0, n=3, u=u, scale=1.0)
    assert C.flags.writeable and D.flags.writeable and u.flags.writeable
    C *= 2.0
    D *= 2.0
    u *= 2.0
    assert np.array_equal(inst.capacities, _cycle_instance(4).capacities)
    assert np.array_equal(inst.demands, np.ones((4, 4)) - np.eye(4))
    assert np.array_equal(func.u, [3.0, 4.0, 0.0])


def test_brute_cap():
    with pytest.raises(CapExceeded):
        brute_sparsest_cut(_cycle_instance(21))


# The loops the block-screened oracles replaced: they must agree bit for bit.
def _scalar_brute_sparsest_cut(instance):
    n = instance.n
    best = math.inf
    best_S = None
    full = (1 << n) - 1
    for mask in range(1, full, 2):
        S = [i for i in range(n) if mask >> i & 1]
        ratio = instance.cut_ratio(S)
        if ratio < best:
            best = ratio
            best_S = S
    return {"value": best, "S": best_S}


def _scalar_sweep_round_cut(instance, embedding):
    best = math.inf
    best_S = None
    for j in range(embedding.dim):
        order = np.argsort(embedding.coords[:, j], kind="stable")
        for cut in range(1, instance.n):
            S = [int(i) for i in order[:cut]]
            ratio = instance.cut_ratio(S)
            if ratio < best:
                best = ratio
                best_S = S
    return {"S": best_S, "ratio": best}


def _scalar_brute_isoperimetric(space, measure, t):
    n = space.n
    w = measure.weights / measure.total
    best = 0.0
    for mask in range(1, 1 << n):
        S = [i for i in range(n) if mask >> i & 1]
        if float(w[S].sum()) < 0.5:
            continue
        far = space.dist[:, S].min(axis=1) >= t
        best = max(best, float(w[far].sum()))
    return best


def _assert_same_cut(got, want):
    assert got["value"].hex() == want["value"].hex()
    assert got["S"] == want["S"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 11),
       st.sampled_from(["dense", "integer", "cycle"]))
def test_brute_sparsest_cut_matches_scalar_loop(seed, n, kind):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        inst = _random_instance(rng, n)
    elif kind == "cycle":  # many exactly tied cuts
        inst = _cycle_instance(max(n, 3))
    else:  # small integers: exact ties and zero-demand cuts
        C = np.triu(rng.integers(0, 3, (n, n)), 1).astype(float)
        D = np.triu(rng.integers(0, 2, (n, n)), 1).astype(float)
        D[0, n - 1] = 1.0
        inst = SparsestCutInstance(C + C.T, D + D.T)
    _assert_same_cut(brute_sparsest_cut(inst), _scalar_brute_sparsest_cut(inst))


def test_brute_sparsest_cut_matches_scalar_loop_on_cube4():
    inst = _graph_instance(generate_instance("hamming_cube", {"dim": 4}).space)
    _assert_same_cut(brute_sparsest_cut(inst), _scalar_brute_sparsest_cut(inst))


def _integer_space(rng, n):
    """l1 distances of points on a small integer grid: many tied distances."""
    pts = rng.integers(0, 4, (n, 2))
    D = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).astype(float)
    keep = np.unique(pts, axis=0, return_index=True)[1]  # distinct points only
    keep.sort()
    return FiniteMetricSpace(tuple(range(keep.size)), D[np.ix_(keep, keep)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 11),
       st.sampled_from(["uniform", "integer", "random"]), st.integers(0, 7))
def test_brute_isoperimetric_matches_scalar_loop(seed, n, weights, t_pick):
    rng = np.random.default_rng(seed)
    space = _integer_space(rng, n)
    m = space.n
    if weights == "uniform":
        mu = PointMeasure(np.ones(m))
    elif weights == "integer":  # inexact shares whose halves sit on 0.5
        mu = PointMeasure(rng.integers(1, 4, m).astype(float))
    else:
        mu = PointMeasure(rng.random(m) + 0.01)
    levels = np.unique(space.dist)
    t = float(levels[t_pick % levels.size]) or 0.5  # t on a distance: ties at >= t
    want = _scalar_brute_isoperimetric(space, mu, t)
    assert brute_isoperimetric(space, mu, t).hex() == want.hex()


@settings(max_examples=2, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.0, 3.0]))
def test_brute_isoperimetric_matches_scalar_loop_at_n18(seed, t):
    # 1/18 is inexact, and the 48620 nine-point sets sit on the 0.5 boundary
    space = generate_instance("expander_path_metric", {"n": 18, "degree": 3}, seed=seed).space
    mu = PointMeasure(np.ones(18))
    want = _scalar_brute_isoperimetric(space, mu, t)
    assert brute_isoperimetric(space, mu, t).hex() == want.hex()


# -------------------------------------------------------------------------
# SDP relaxation
# -------------------------------------------------------------------------


def test_sdp_cycle5_value():
    # C5 with uniform demands: the relaxation is tight at 1/3
    sol = sdp_gl_solve(_cycle_instance(5))
    assert abs(sol["value"] - 1.0 / 3.0) < 1e-5
    brute = brute_sparsest_cut(_cycle_instance(5))
    assert sol["value"] <= brute["value"] + 1e-6


def test_sdp_solution_is_feasible():
    rng = substream(0, "test", "sdp-feas")
    for _ in range(5):
        n = int(rng.integers(3, 8))
        inst = _random_instance(rng, n)
        sol = sdp_gl_solve(inst)
        sq = sol["squared_distances"]
        # unit demand normalization (the elementwise sum counts each pair twice)
        assert abs(float((inst.demands * sq).sum()) / 2.0 - 1.0) < 1e-6
        # squared-distance triangle inequalities
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert sq[i, j] <= sq[i, k] + sq[k, j] + 1e-7
        # the squared distances are a metric of negative type (Schoenberg
        # PSD), and so are the l2 distances of the vectors
        for M in (sq, np.sqrt(sq)):
            assert float(np.linalg.eigvalsh(_schoenberg_matrix(M)).min()) >= -1e-7
        # the factored vectors realize the squared distances
        E2 = sol["vectors"].image_distances() ** 2
        assert np.allclose(E2, sq, atol=1e-6)


def _cut_expander(n):
    """The cut benchmark's expander on n points: graph seed 3, seeded as its
    ``derive_seed(3, f"cut/expander{n}")``."""
    key = zlib.crc32(f"cut/expander{n}".encode())
    seed = int(np.random.SeedSequence([3, key]).generate_state(1)[0])
    return _graph_instance(generate_instance(
        "expander_path_metric", {"n": n, "degree": 3}, seed=seed).space)


def _triangle_slack(sq):
    """sq[i, k] + sq[k, j] - sq[i, j] at [i, k, j]."""
    return sq[:, :, None] + sq[None, :, :] - sq[:, None, :]


def test_sdp_with_several_cuts_per_round_is_feasible():
    inst = _cut_expander(16)
    n = inst.n
    tol = 1e-6
    sol = sdp_gl_solve(inst, tol=tol)
    assert sol["cuts"] > sol["lp_solves"] - 1  # some round added several cuts
    sq = sol["squared_distances"]
    assert abs(float((inst.demands * sq).sum()) / 2.0 - 1.0) < 1e-6
    assert float(_triangle_slack(sq).min()) >= -1e-7
    # Schoenberg PSD within the solver's relative tolerance
    w = np.linalg.eigvalsh(_schoenberg_matrix(sq))
    assert w[0] >= -tol * max(1.0, float(w[-1]))
    # the vectors drop only the negative part of that spectrum, which moves
    # a squared distance by at most twice its total
    E2 = sol["vectors"].image_distances() ** 2
    assert E2.shape == (n, n)
    assert float(np.abs(E2 - sq).max()) <= 2.0 * float(-w[w < 0].sum()) + 1e-12


def test_sdp_matches_cvxpy_oracle():
    cvxpy = pytest.importorskip("cvxpy")
    rng = substream(1, "test", "sdp-oracle")
    for _ in range(5):
        n = int(rng.integers(3, 7))
        inst = _random_instance(rng, n)
        got = sdp_gl_solve(inst)["value"]

        X = cvxpy.Variable((n, n), PSD=True)
        sq = {}
        for i in range(n):
            for j in range(n):
                sq[(i, j)] = X[i, i] + X[j, j] - 2 * X[i, j]
        cons = [
            sum(
                inst.demands[i, j] * sq[(i, j)]
                for i in range(n)
                for j in range(i + 1, n)
            )
            == 1
        ]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) == 3:
                        cons.append(sq[(i, j)] <= sq[(i, k)] + sq[(k, j)])
        obj = cvxpy.Minimize(
            sum(
                inst.capacities[i, j] * sq[(i, j)]
                for i in range(n)
                for j in range(i + 1, n)
            )
        )
        prob = cvxpy.Problem(obj, cons)
        prob.solve()
        assert abs(got - float(prob.value)) < 1e-4


def test_sweep_round_never_beats_brute():
    rng = substream(2, "test", "sweep")
    for _ in range(10):
        n = int(rng.integers(3, 8))
        inst = _random_instance(rng, n)
        sol = sdp_gl_solve(inst)
        sweep = sweep_round_cut(inst, sol["vectors"])
        brute = brute_sparsest_cut(inst)
        assert sweep["ratio"] >= brute["value"] - 1e-9
        assert sol["value"] <= brute["value"] + 1e-4


def _assert_same_sweep(got, want):
    assert got["ratio"].hex() == want["ratio"].hex()
    assert got["S"] == want["S"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 64),
       st.sampled_from(["dense", "tenths", "sparse"]), st.sampled_from(["integer", "normal"]))
def test_sweep_round_cut_matches_scalar_loop(seed, n, dim, kind, coords):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        inst = _random_instance(rng, n)
    elif kind == "tenths":  # cuts of equal ratio whose sums round apart
        C = np.triu(rng.integers(1, 4, (n, n)), 1) / 10.0
        D = np.triu(rng.integers(1, 4, (n, n)), 1) / 10.0
        inst = SparsestCutInstance(C + C.T, D + D.T)
    else:  # zero capacities give ratio-0 prefixes, sparse demands inf ones
        C = np.triu(rng.integers(0, 3, (n, n)) * (rng.random((n, n)) < 0.2), 1).astype(float)
        D = np.triu(rng.random((n, n)) < 2.0 / n, 1).astype(float)
        D[0, n - 1] = 1.0
        inst = SparsestCutInstance(C + C.T, D + D.T)
    if coords == "integer":  # tied coordinates: the stable order and first minimum decide
        X = rng.integers(0, 3, (n, dim)).astype(float)
    else:
        X = rng.standard_normal((n, dim))
    emb = EuclideanMap(X)
    _assert_same_sweep(sweep_round_cut(inst, emb), _scalar_sweep_round_cut(inst, emb))


@pytest.mark.parametrize("n", [16, 24])
def test_sweep_round_cut_matches_scalar_loop_on_sdp_vectors(n):
    inst = _cut_expander(n)
    emb = sdp_gl_solve(inst)["vectors"]
    _assert_same_sweep(sweep_round_cut(inst, emb), _scalar_sweep_round_cut(inst, emb))


def test_sweep_round_cut_at_n128_with_512_coordinates():
    rng = np.random.default_rng(26)
    n = 128
    inst = _random_instance(rng, n)
    coords = rng.standard_normal((n, 512))
    part = EuclideanMap(coords[:, :64])
    got = sweep_round_cut(inst, part)
    _assert_same_sweep(got, _scalar_sweep_round_cut(inst, part))
    emb = EuclideanMap(coords)
    tracemalloc.start()
    try:
        full = sweep_round_cut(inst, emb)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a block of _MASK_BLOCK prefix rows over n points is 1 MB; the screen
    # holds four such arrays at once, where all 65,024 rows would be 64 MB
    block = applications._MASK_BLOCK * n * 8
    assert peak < 6 * block
    assert full["ratio"] <= got["ratio"]


def test_sweep_round_cut_rejects_an_embedding_without_coordinates():
    inst = _cycle_instance(4)
    with pytest.raises(BadParams, match="no coordinates"):
        sweep_round_cut(inst, EuclideanMap(np.zeros((4, 0))))
    with pytest.raises(BadParams, match="size"):
        sweep_round_cut(inst, EuclideanMap(np.zeros((3, 1))))


def test_sdp_two_points():
    C = np.array([[0.0, 2.0], [2.0, 0.0]])
    D = np.array([[0.0, 1.0], [1.0, 0.0]])
    sol = sdp_gl_solve(SparsestCutInstance(C, D))
    assert abs(sol["value"] - 2.0) < 1e-8


def _graph_instance(space):
    """Unit capacities on the graph's edges and uniform demands."""
    return SparsestCutInstance((space.dist == 1.0).astype(float), 1.0 - np.eye(space.n))


def _check11_instance(k):
    """The k-th random dense instance of the sparsest-cut check at seed 0."""
    rng = substream(0, "verify", "cut")
    for _ in range(k + 1):
        inst = _random_instance(rng, int(rng.integers(3, 9)))
    return inst


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# Per instance: value.hex(), sha256 of vectors.coords and of squared_distances,
# LP solves.  check11_dense1 needs no cut and was recorded from the solver that
# kept its triangle rows as dense float rows.  expander14 takes one cut in each
# of its 14 rounds.  It was re-pinned when the cut rows became products
# x_i x_j of one vector (2.2e-15 from 0x1.951925f850908p-4), and again when the
# rounds after the first re-solved from the last basis instead of from scratch,
# which moved it by -7.6e-9 from 0x1.951925f85086cp-4.  c5 and expander14 were
# re-pinned when the model began with only the triangle rows whose middle point
# has an edge to an end: c5's value kept its bits and its vectors moved;
# expander14 moved by -2.9e-16 from 0x1.951923eafc6d1p-4.  They were re-pinned
# again when the seed kept only the rows whose middle point has an edge to the
# larger end: c5's value kept its bits and its vectors moved; expander14 moved
# by +2.8e-16 from 0x1.951923eafc6bcp-4.  All three were re-pinned when the
# seed also required the middle point to be no more hops from the smaller end
# than the larger end is: c5 moved by -1 ulp from 0x1.5555555555556p-2,
# expander14 by -2.8e-16 back to 0x1.951923eafc6bcp-4, and expander16 by
# +2.0e-7 from 0x1.7451d71644d6fp-4 (46 -> 49 LP solves, 132 -> 139 cuts),
# within the PSD tolerance's gap bound of the cold start (4.7e-5).  expander16
# is the cut benchmark's (graph seed 3): the only pin whose solve adds
# violated triangle rows between rounds, beside its cuts.
GOLDEN_SDP = {
    "c5": (
        lambda: _cycle_instance(5),
        "0x1.5555555555555p-2",
        "2bffe3e682afa9ae8fb4e018c01f640aab926b714edcee2039df2a18283a8dc4",
        "8ef5a4ff21efa04cf656e907953c9c3074dfa8ab518d123f0f2c9d3c1b164a78",
        1,
    ),
    "check11_dense1": (
        lambda: _check11_instance(1),
        "0x1.929f8c0836263p-1",
        "8bad543ecb8e4324595943530037bd0ee941e03906bdc502ffc47c3b0e6d691e",
        "4a014ba44438da7b480dfba8ac559f9dcd5e741dd2914167a30a0e6e26b6235c",
        1,
    ),
    "expander14": (
        lambda: _graph_instance(generate_instance(
            "expander_path_metric", {"n": 14, "degree": 3}, seed=14).space),
        "0x1.951923eafc6bcp-4",
        "11b7a7321b7313e4c3632a087bbcfe71fef560d9c3c00de2747ad4884ad54f78",
        "cd8e9f946b0de4ac86184933e1980e8ae67a25d7cbab5eea22dec527828a84a5",
        15,
    ),
    "expander16": (
        lambda: _graph_instance(generate_instance(
            "expander_path_metric", {"n": 16, "degree": 3}, seed=3023236695).space),
        "0x1.74520dc27ba3ap-4",
        "93a8fd534befb01c69e422be9cee983ace34a53e45df1ded205a68d67402a644",
        "eae4b9a602d259fccf78252a4dffbb91289b20aeca148414ada60fdb510e8033",
        49,
    ),
}


@pytest.mark.parametrize("label", sorted(GOLDEN_SDP))
def test_sdp_is_bit_identical(label):
    build, value_hex, coords_sha, sq_sha, lp_solves = GOLDEN_SDP[label]
    sol = sdp_gl_solve(build())
    assert sol["value"].hex() == value_hex
    assert _sha(sol["vectors"].coords) == coords_sha
    assert _sha(sol["squared_distances"]) == sq_sha
    assert sol["lp_solves"] == lp_solves
    if label == "expander16":  # 212 seeded rows, then two violated rows
        assert (sol["cuts"], sol["triangle_rows"]) == (139, 214)
    if label == "expander14":  # the value pinned when every round started cold
        assert abs(sol["value"] - float.fromhex("0x1.951925f85086cp-4")) <= 1e-7


def _cold_sdp_gl_solve(instance, tol=1e-6):
    """Reference: the cutting-plane loop with every round solved from scratch
    by linprog over every triangle row, its matrix built here with
    scipy.sparse, each cut appended to the inequality rows."""
    n = instance.n
    I, J = np.triu_indices(n, 1)
    at = np.zeros((n, n), dtype=np.intp)
    at[I, J] = at[J, I] = np.arange(I.size)
    c = instance.capacities[I, J]
    i, j, k = np.nonzero(applications._triangles(n))
    A_ub = sparse.csr_array((np.tile([1.0, -1.0, -1.0], i.size),
                             (np.repeat(np.arange(i.size), 3),
                              np.stack([at[i, j], at[i, k], at[k, j]], axis=1).ravel())),
                            shape=(i.size, I.size))
    A_eq = instance.demands[I, J][None, :]
    sq = np.zeros((n, n))
    for rounds in range(applications.MAX_CUTS):
        res = scipy.optimize.linprog(
            c, A_ub=A_ub, b_ub=np.zeros(A_ub.shape[0]), A_eq=A_eq, b_eq=np.array([1.0]),
            bounds=[(0, None)] * I.size, method="highs",
        )
        assert res.success
        sq[I, J] = sq[J, I] = res.x
        w, V = np.linalg.eigh(_schoenberg_matrix(sq))
        negative = int(np.count_nonzero(w < -tol * max(1.0, float(w[-1]))))
        if negative == 0:
            break
        U = V[:, : min(negative, applications.ROUND_CUTS)]
        X = np.vstack([-U.sum(axis=0), U])
        A_ub = sparse.vstack([A_ub, (X[I] * X[J]).T], format="csr")
    sq[I, J] = sq[J, I] = np.clip(res.x, 0.0, None)
    w, V = np.linalg.eigh(_schoenberg_matrix(sq))
    coords = np.zeros((n, n - 1))
    coords[1:] = V * np.sqrt(np.clip(w, 0.0, None))
    return {"value": float(res.fun), "coords": coords, "squared_distances": sq,
            "lp_solves": rounds + 1}


# the projection reference: violation tolerance, bisection gap on the value,
# and projection rounds per bisection step
PROJECTION_TOL = 1e-6
PROJECTION_VALUE_GAP = 5e-5
PROJECTION_ITER_CAP = 3000


def _laplacian(M):
    return np.diag(M.sum(axis=1)) - M


def _triangle_rows(n):
    """One constraint <A,X> >= 0 per triple (i,j,k) of ``_triangles(n)``:
    X_ij - X_ik - X_jk + X_kk >= 0, i.e. d_ik + d_kj >= d_ij."""
    rows = []
    for i, j, k in zip(*np.nonzero(applications._triangles(n))):
        A = np.zeros((n, n))
        A[i, j] += 0.5
        A[j, i] += 0.5
        A[i, k] -= 0.5
        A[k, i] -= 0.5
        A[j, k] -= 0.5
        A[k, j] -= 0.5
        A[k, k] += 1.0
        rows.append(A)
    return rows


def _psd_project(X):
    w, V = np.linalg.eigh((X + X.T) / 2.0)
    w = np.clip(w, 0.0, None)
    return (V * w) @ V.T


def _sdp_gl_solve_projection(instance):
    """Reference: the value of the same program by an independent method,
    bisection on the objective with alternating projections onto the
    constraint sets; slow and coarse, for small instances."""
    n = instance.n
    LC = _laplacian(instance.capacities)
    LD = _laplacian(instance.demands)
    rows = _triangle_rows(n)
    row_norms = [float((A * A).sum()) for A in rows]
    center = np.eye(n) - np.ones((n, n)) / n
    nLD = float((LD * LD).sum())
    nLC = float((LC * LC).sum())

    def feasible(v, X0):
        X = X0.copy()
        for _ in range(PROJECTION_ITER_CAP):
            X = center @ _psd_project(X) @ center
            X = X - ((float((LD * X).sum()) - 1.0) / nLD) * LD
            excess = float((LC * X).sum()) - v
            if excess > 0:
                X = X - (excess / nLC) * LC
            for A, nrm in zip(rows, row_norms):
                u = float((A * X).sum())
                if u < 0:
                    X = X - (u / nrm) * A
            wmin = float(np.linalg.eigvalsh((X + X.T) / 2.0).min())
            viol = max(
                0.0,
                -min((float((A * X).sum()) for A in rows), default=0.0),
                abs(float((LD * X).sum()) - 1.0),
                float((LC * X).sum()) - v,
                -wmin,
            )
            if viol <= PROJECTION_TOL:
                return True, X
        return False, X

    X = center @ np.eye(n) @ center
    X = X / float((LD * X).sum())
    hi = float((LC * X).sum())
    lo = 0.0
    best_X = X
    while hi - lo > PROJECTION_VALUE_GAP:
        v = (hi + lo) / 2.0
        ok, Xf = feasible(v, best_X)
        if ok:
            hi = float((LC * Xf).sum())
            best_X = Xf
        else:
            lo = v
    return hi


def test_projection_solver_cross_checks_cutting_planes():
    inst = _cycle_instance(5)
    a = sdp_gl_solve(inst)["value"]
    b = _sdp_gl_solve_projection(inst)
    assert abs(a - b) < 1e-3


def _value_gap_bound(instance, sq):
    """How far below the SDP optimum a cutting-plane value may lie: adding
    delta = 2 eps to every squared distance, where -eps is the least
    Schoenberg eigenvalue, gives a PSD point that still meets the triangle
    rows, and rescaling it to unit demand costs at most delta * sum(C)."""
    eps = max(0.0, -float(np.linalg.eigvalsh(_schoenberg_matrix(sq))[0]))
    return 2.0 * eps * float(np.triu(instance.capacities, 1).sum())


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["dense", "expander"]), st.integers(2, 8), st.integers(0, 2**32 - 1))
@example("expander", 8, 3023236695)  # the cut benchmark's expander16: 45 cold rounds
@example("expander", 8, 29)  # 3 cold rounds, 8 warm ones
@example("expander", 3, 16)  # n = 6: 120 cold rounds, 107 warm ones
def test_sdp_matches_cold_start_reference(kind, k, seed):
    if kind == "dense":
        inst = _random_instance(np.random.default_rng(seed), k + 1)
    else:
        inst = _graph_instance(generate_instance(
            "expander_path_metric", {"n": 2 * k, "degree": 3}, seed=seed).space)
    tol = 1e-6
    sol = sdp_gl_solve(inst, tol=tol)
    want = _cold_sdp_gl_solve(inst, tol=tol)
    sq = sol["squared_distances"]
    # both values are LP relaxations, so at most the SDP optimum, and each is
    # within its own gap bound of it
    gap = max(_value_gap_bound(inst, sq), _value_gap_bound(inst, want["squared_distances"]))
    assert abs(sol["value"] - want["value"]) <= gap + 1e-9 * max(1.0, abs(want["value"]))
    if want["lp_solves"] == 1 and np.all(inst.capacities + np.eye(inst.n) > 0):
        # full support: the model holds every triangle row from the start
        assert sol["lp_solves"] == 1
        assert sol["value"].hex() == want["value"].hex()
        assert _sha(sol["vectors"].coords) == _sha(want["coords"])
        assert _sha(sq) == _sha(want["squared_distances"])
    elif want["lp_solves"] == 1:
        # both reach the LP optimum over every triangle row, which is PSD; its
        # optimal face need not be one point, so only the values compare
        assert abs(sol["value"] - want["value"]) <= 1e-10 * max(1.0, abs(want["value"]))
    assert float(_triangle_slack(sq).min()) >= -1e-7
    w = np.linalg.eigvalsh(_schoenberg_matrix(sq))
    assert w[0] >= -tol * max(1.0, float(w[-1]))


def test_sdp_at_the_size_cap_seeds_few_triangle_rows():
    inst = _cut_expander(applications.SDP_CAP)
    sol = sdp_gl_solve(inst)
    want = _cold_sdp_gl_solve(inst)
    assert want["lp_solves"] == 1
    # the seed holds the rows (i, j, k), i < j, whose middle point k has an
    # edge to j and is no more hops from i than j is, counted here from
    # csgraph's hop distances: 1369 of 29,640 rows; the first LP optimum
    # violates 27 more, and the optimum with them meets the rest
    hops = shortest_path(inst.capacities, directed=False, unweighted=True)
    i, j, k = np.nonzero(applications._triangles(inst.n))
    assert int(((inst.capacities[j, k] > 0) & (hops[i, k] <= hops[i, j])).sum()) == 1369
    assert (sol["lp_solves"], sol["triangle_rows"]) == (2, 1396)
    assert abs(sol["value"] - want["value"]) <= 1e-10 * abs(want["value"])
    assert float(_triangle_slack(sol["squared_distances"]).min()) >= -1e-7


# the SDP value of each of check 11's hypermetric gap instances (their
# capacities form a complete bipartite graph)
HYPERMETRIC_VALUE = {"b5": 0.81818, "b6": 0.87495, "b7": 0.84210, "b9": 0.86207}


@pytest.mark.parametrize("label", sorted(verify.HYPERMETRIC))
def test_sdp_has_a_gap_on_hypermetric_instances(label):
    inst = verify.hypermetric_instance(verify.HYPERMETRIC[label])
    sol = sdp_gl_solve(inst)
    assert abs(sol["value"] - HYPERMETRIC_VALUE[label]) <= 1e-5
    opt = brute_sparsest_cut(inst)["value"]
    assert opt == 1.0
    # the measured gaps are 1.14 to 1.22
    assert verify.HYPERMETRIC_MIN_GAP < opt / sol["value"] <= verify.HYPERMETRIC_MAX_GAP
    assert verify.HYPERMETRIC_MAX_GAP <= verify.GOLDEN_SDP_GAP
    if inst.n <= 7:
        want = _cold_sdp_gl_solve(inst)
        gap = max(_value_gap_bound(inst, sol["squared_distances"]),
                  _value_gap_bound(inst, want["squared_distances"]))
        assert abs(sol["value"] - want["value"]) <= gap + 1e-9 * abs(want["value"])


def _supported_instance(support, n, seed):
    """Uniform demands, and capacities 1 to 3 on a support of the given kind:
    none, one edge, a star, two parts with no edge between them, a sparse
    random graph, or all pairs."""
    rng = np.random.default_rng(seed)
    on = np.zeros((n, n), dtype=bool)
    if support == "edge":
        i, j = rng.choice(n, 2, replace=False)
        on[i, j] = True
    elif support == "star":
        on[rng.integers(n)] = True
    elif support == "split":
        side = rng.permutation(n) < n // 2
        on = (side[:, None] == side[None, :]) & (rng.random((n, n)) < 0.6)
    elif support == "sparse":
        on = rng.random((n, n)) < 0.2
    elif support == "full":
        on[:] = True
    on = (on | on.T) & ~np.eye(n, dtype=bool)
    W = rng.integers(1, 4, (n, n)).astype(float)
    return SparsestCutInstance(np.where(on, np.minimum(W, W.T), 0.0), 1.0 - np.eye(n))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["none", "edge", "star", "split", "sparse", "full"]),
       st.integers(2, 12), st.integers(0, 2**32 - 1))
@example("none", 12, 0)
@example("edge", 12, 0)
@example("star", 12, 0)
@example("split", 12, 0)
@example("sparse", 12, 0)
@example("full", 12, 0)
def test_sdp_meets_every_triangle_row_on_any_capacity_support(support, n, seed):
    inst = _supported_instance(support, n, seed)
    tol = 1e-6
    sol = sdp_gl_solve(inst, tol=tol)
    want = _cold_sdp_gl_solve(inst, tol=tol)
    sq = sol["squared_distances"]
    assert float(_triangle_slack(sq).min()) >= -1e-7
    w = np.linalg.eigvalsh(_schoenberg_matrix(sq))
    assert w[0] >= -tol * max(1.0, float(w[-1]))
    gap = max(_value_gap_bound(inst, sq), _value_gap_bound(inst, want["squared_distances"]))
    assert abs(sol["value"] - want["value"]) <= gap + 1e-9 * max(1.0, abs(want["value"]))
    assert sol["triangle_rows"] <= n * (n - 1) * (n - 2) // 2
    # with no PSD cut (tol = inf) both solve the LP over the triangle rows:
    # the seed plus separation must reach the optimum over every row
    sol = sdp_gl_solve(inst, tol=math.inf)
    want = _cold_sdp_gl_solve(inst, tol=math.inf)
    assert want["lp_solves"] == 1 and sol["cuts"] == 0
    assert abs(sol["value"] - want["value"]) <= 1e-10 * abs(want["value"])
    assert float(_triangle_slack(sol["squared_distances"]).min()) >= -1e-7


@pytest.mark.parametrize("n", [3, 8, 13])
def test_sdp_seeds_every_triangle_row_when_every_capacity_is_positive(n, monkeypatch):
    seeds = []
    real = applications._highs_model

    def model(c, entries, row_upper, **eq):
        seeds.append(row_upper.size)
        return real(c, entries, row_upper, **eq)

    monkeypatch.setattr(applications, "_highs_model", model)
    inst = _random_instance(np.random.default_rng(n), n)
    assert np.all(inst.capacities + np.eye(n) > 0)
    sol = sdp_gl_solve(inst)
    assert seeds == [n * (n - 1) * (n - 2) // 2] == [sol["triangle_rows"]]


def test_highs_private_api_has_what_the_sdp_uses():
    # sdp_gl_solve drives scipy's private HiGHS binding directly, as loaded by
    # applications._highs; a scipy release that moves it must fail here by name
    highs = applications._highs()
    _Highs = highs._Highs
    for name in ("HighsLp", "MatrixFormat", "kHighsInf", "simplex_constants",
                 "HighsModelStatus"):
        assert hasattr(highs, name), name
    for method in ("passModel", "addRows", "run", "getSolution", "getModelStatus",
                   "getInfo", "setOptionValue", "getOptionValue", "modelStatusToString"):
        assert callable(getattr(_Highs, method, None)), method


def test_sdp_non_optimal_status_stalls(monkeypatch, tmp_path, capsys):
    inst = GOLDEN_SDP["expander14"][0]()
    limit_lp_runs(monkeypatch, applications, free=1)
    with pytest.raises(SolverStalled) as info:
        sdp_gl_solve(inst)
    # the first round cut once; the re-solve stopped at the iteration limit
    assert info.value.diagnostics == {"rounds": 1, "cuts": 1, "triangle_rows": 161,
                                      "message": "Iteration limit reached"}
    path = tmp_path / "expander14.json"
    path.write_text(json.dumps(inst.to_json()))
    assert run_command(["sparsest-cut", "--in", str(path)]) == 3
    assert "Iteration limit reached" in capsys.readouterr().err


def test_sdp_stall_reports_its_rounds(monkeypatch, tmp_path):
    inst = GOLDEN_SDP["expander14"][0]()
    monkeypatch.setattr(applications, "MAX_CUTS", 2)  # it needs 15 LP solves
    with pytest.raises(SolverStalled) as info:
        sdp_gl_solve(inst)
    diag = info.value.diagnostics
    assert diag["rounds"] == 2 and diag["cuts"] == 2 and diag["triangle_rows"] == 161
    assert diag["min_eig"] < 0
    path = tmp_path / "expander14.json"
    path.write_text(json.dumps(inst.to_json()))
    assert run_command(["sparsest-cut", "--in", str(path)]) == 3


def test_sdp_memory_at_the_size_cap():
    # n = 40 has 29,640 triangle rows over 780 pairs, about 185 MB as dense
    # float rows; built sparse, and only those the capacities touch, the
    # whole solve stays far below that
    inst = _graph_instance(generate_instance("grid", {"rows": 5, "cols": 8}).space)
    tracemalloc.start()
    try:
        sol = sdp_gl_solve(inst)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    n = inst.n
    assert sol["triangle_rows"] < n * (n - 1) * (n - 2) // 2


# -------------------------------------------------------------------------
# line functionals
# -------------------------------------------------------------------------


def test_line_functional_dual_norms():
    f2 = LineFunctional(q=2.0, n=3, u=np.array([3.0, 4.0, 0.0]), scale=1.0)
    assert math.isclose(f2.dual_norm(f2.u), 5.0)
    f1 = LineFunctional(q=1.0, n=3, u=np.array([3.0, -4.0, 0.0]), scale=1.0)
    assert math.isclose(f1.dual_norm(f1.u), 4.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_line_functional_is_lipschitz_in_lq(seed):
    rng = np.random.default_rng(seed)
    n = 5
    q = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
    u = rng.standard_normal(n)
    if np.max(np.abs(u)) == 0:
        return
    f = LineFunctional(q=q, n=n, u=u, scale=1.0)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    gap = abs(float(f(x)[0] - f(y)[0]))
    if q == 1.0:
        dq = float(np.abs(x - y).sum())
    else:
        dq = float((np.abs(x - y) ** q).sum() ** (1.0 / q))
    # Hoelder: |<x-y, u>| <= |x-y|_q |u|_{q*}
    assert gap <= dq * (1.0 + 1e-9) + 1e-12


def test_lq_space_distances():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert math.isclose(lq_space(pts, 2.0).d(0, 1), 5.0)
    assert math.isclose(lq_space(pts, 1.0).d(0, 1), 7.0)
    assert math.isclose(lq_space(pts, math.inf).d(0, 1), 4.0)


def test_line_functional_embed_scale_and_band():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((32, 16))
    mu = PointMeasure(np.ones(32))
    f, d = line_functional_embed(pts, mu, p=2.0, q=2.0, n_candidates=20,
                                 randomness=RandomnessSpec(0))
    assert math.isclose(f.scale, (16.0 / 2.0) ** 0.5)
    assert d >= 1.0


def _per_candidate_line_embed(points, measure, p, q, n_candidates, randomness):
    """The loop line_functional_embed replaced: each candidate scored with the
    whole p-average distortion formula, its map-free parts included."""
    m, n = points.shape
    space = lq_space(points, q)
    D = space.dist
    mask = ~np.eye(m, dtype=bool)
    scale = (max(1.0, n / p)) ** (1.0 - 1.0 / max(2.0, q))
    best, best_dist = None, math.inf
    for c in range(n_candidates):
        u = applications._sample_dual_direction(n, q, randomness.stream("line", c))
        func = LineFunctional(q=q, n=n, u=u, scale=scale)
        E = EuclideanMap(func(points)[:, None]).image_distances()
        with np.errstate(divide="ignore", invalid="ignore"):
            lip = float(np.max(np.where(mask, E / np.where(mask, D, 1.0), 0.0)))
        w = np.outer(measure.weights, measure.weights)
        num = float((w * D**p).sum()) ** (1.0 / p)
        den_pow = float((w * E**p).sum())
        dist = math.inf if den_pow <= 0.0 else lip * num / den_pow ** (1.0 / p)
        if dist < best_dist:
            best, best_dist = func, dist
    return best, best_dist


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       st.sampled_from([1.0, 2.0, 2.5]), st.integers(2, 24), st.integers(1, 6))
def test_line_functional_embed_matches_per_candidate_loop(seed, q, p, m, dim):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, dim))
    mu = PointMeasure(rng.random(m) + 0.05)
    randomness = RandomnessSpec(seed)
    func, dist = line_functional_embed(pts, mu, p, q, 9, randomness)
    want_func, want_dist = _per_candidate_line_embed(pts, mu, p, q, 9, randomness)
    assert dist.hex() == want_dist.hex()
    assert np.array_equal(func.u, want_func.u)


def test_line_functional_embed_rejects_bad_exponents():
    mu = PointMeasure(np.ones(4))
    with pytest.raises(BadParams):
        line_functional_embed(np.eye(4), mu, p=0.5, q=2.0, n_candidates=1,
                              randomness=RandomnessSpec(0))


# -------------------------------------------------------------------------
# isoperimetry
# -------------------------------------------------------------------------


def test_iso_certificate_never_exceeds_brute(cube3, uniform_measure):
    space = cube3.space
    mu = uniform_measure(space)
    dist = general_zeroset_sampler(space, mu, 2.0, RandomnessSpec(6))
    cert = iso_certificate(space, mu, dist, t=0.5, n_samples=40)
    brute = brute_isoperimetric(space, mu, t=0.5)
    assert cert["bound"] <= brute + 1e-12
    assert cert["witness"] is not None


def _cap_space(n):
    """n = 19 or 20 Gaussian points in the plane: every distance differs."""
    return generate_instance("lp_cloud", {"n": n, "p": 2.0, "dim": 2}, seed=n).space


@pytest.mark.parametrize("n, lightest_half", [(19, list(range(10))),
                                              (20, list(range(9)) + [19])])
@pytest.mark.parametrize("t_share", [1.0, 0.5])
def test_brute_isoperimetric_at_the_cap_in_closed_form(n, lightest_half, t_share):
    # With t at or below the least distance, the points t-far from S are the
    # rest, so the value is the mass of the complement of the lightest S of
    # mass at least one half.  Point i weighs 2^n + 2^i: a set of more points
    # is heavier, and of sets of equal size the one with the smaller code is
    # lighter, so S is the least code of the fewest points reaching half.
    # Distinct set masses lie at least 1 / sum(W) > 2^-25 apart, far above
    # the screen's margin and the rounding of the sums.
    space = _cap_space(n)
    W = [(1 << n) + (1 << i) for i in range(n)]
    assert 2 * sum(W[i] for i in lightest_half) >= sum(W)
    mu = PointMeasure(np.array(W, dtype=float))
    w = mu.weights / mu.total
    far = np.ones(n, dtype=bool)
    far[lightest_half] = False
    t = t_share * space.min_positive_distance
    assert brute_isoperimetric(space, mu, t).hex() == float(w[far].sum()).hex()


def test_brute_isoperimetric_builds_no_array_over_every_set():
    # one float per set at n = 20 would be 8 MB
    space = _cap_space(20)
    mu = PointMeasure(np.random.default_rng(0).random(20) + 0.1)
    tracemalloc.start()
    try:
        brute_isoperimetric(space, mu, 2.0 * space.min_positive_distance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_brute_isoperimetric_two_points():
    space = generate_instance("hamming_cube", {"dim": 1}).space
    mu = PointMeasure(np.ones(2))
    assert math.isclose(brute_isoperimetric(space, mu, t=0.5), 0.5)


def test_iso_rejects_bad_inputs(cube3, uniform_measure):
    space = cube3.space
    mu = uniform_measure(space)
    dist = general_zeroset_sampler(space, mu, 2.0, RandomnessSpec(0))
    with pytest.raises(BadParams):
        iso_certificate(space, mu, dist, t=0.0, n_samples=1)
    with pytest.raises(BadParams, match="n_samples must be >= 1"):
        iso_certificate(space, mu, dist, t=0.5, n_samples=0)
    with pytest.raises(BadParams):
        brute_isoperimetric(space, mu, t=-1.0)
    with pytest.raises(CapExceeded):
        big = generate_instance("grid", {"rows": 5, "cols": 5}).space
        brute_isoperimetric(big, PointMeasure(np.ones(25)), t=1.0)
