import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

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
    sdp_gl_solve_projection,
    sweep_round_cut,
)
from zerosetkit.errors import BadParams, CapExceeded
from zerosetkit.metric import PointMeasure, _schoenberg_matrix, generate_instance
from zerosetkit.randomzero import general_zeroset_sampler


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
        # the induced metric is of negative type (Schoenberg PSD)
        S = _schoenberg_matrix(sol["neg_type_metric"])
        assert float(np.linalg.eigvalsh(S).min()) >= -1e-7
        # the factored vectors realize the squared distances
        E2 = sol["vectors"].image_distances() ** 2
        assert np.allclose(E2, sq, atol=1e-6)


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


def test_projection_solver_cross_checks_cutting_planes():
    inst = _cycle_instance(5)
    a = sdp_gl_solve(inst)["value"]
    b = sdp_gl_solve_projection(inst)["value"]
    assert abs(a - b) < 1e-3


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


# Recorded from the solver that kept its triangle rows as dense float rows: any
# change that keeps its arithmetic reproduces them exactly.  Per instance:
# value.hex(), sha256 of vectors.coords and of squared_distances, LP solves.
GOLDEN_SDP = {
    "c5": (
        lambda: _cycle_instance(5),
        "0x1.5555555555556p-2",
        "08ba135c857d3c15f3aa6547316fcf5626ae929994729ee2cbe7190d5a0df9fb",
        "f3a80bbb5e386ebdae42268e1abcd9b6a6e6bbe8542741c97d6f213e974e42ff",
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
        "0x1.951925f850908p-4",
        "bec6f049a6884256f9ce0227a068f1bb47895a4367f727ce81824fcdef748c0f",
        "da1fddc0c575aab2736f3960b61af92ab75c989ae66fb2af3e7ebec74c8bf498",
        15,
    ),
}


@pytest.mark.parametrize("label", sorted(GOLDEN_SDP))
def test_sdp_is_bit_identical(monkeypatch, label):
    build, value_hex, coords_sha, sq_sha, lp_solves = GOLDEN_SDP[label]
    inst = build()
    calls = []
    linprog = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    sol = sdp_gl_solve(inst)
    assert sol["value"].hex() == value_hex
    assert _sha(sol["vectors"].coords) == coords_sha
    assert _sha(sol["squared_distances"]) == sq_sha
    assert len(calls) == lp_solves


def test_sdp_memory_at_the_size_cap():
    # n = 40 has 29,640 triangle rows over 780 pairs, about 185 MB as dense
    # float rows; built sparse, the whole solve stays far below that
    inst = _graph_instance(generate_instance("grid", {"rows": 5, "cols": 8}).space)
    tracemalloc.start()
    try:
        sdp_gl_solve(inst)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


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
    with pytest.raises(BadParams):
        brute_isoperimetric(space, mu, t=-1.0)
    with pytest.raises(CapExceeded):
        big = generate_instance("grid", {"rows": 5, "cols": 5}).space
        brute_isoperimetric(big, PointMeasure(np.ones(25)), t=1.0)
