"""The verification suite: one callable check per acceptance gate, each
returning a machine-readable pass/fail record with measured constants."""

from __future__ import annotations

import math
import time
from typing import Callable, List

import numpy as np

from ._rng import RandomnessSpec, substream
from .applications import (
    SparsestCutInstance,
    brute_isoperimetric,
    brute_sparsest_cut,
    iso_certificate,
    line_functional_embed,
    sdp_gl_solve,
    sweep_round_cut,
)
from .compression import universal_compression
from .descent import (
    EmbedConfig,
    _selectors,
    euclidean_embed_pipeline,
)
from .errors import BadParams, ConclusionViolated
from .graphs import (
    ThresholdedGraph,
    check_compatibility,
    empirical_matching_bound,
    fractional_matching,
    max_matching_bruteforce,
    VertexWeights,
)
from .metric import (
    EuclideanMap,
    FiniteMetricSpace,
    PointMeasure,
    QuasiParams,
    generate_instance,
    snowflake_embed,
)
from .randomzero import (
    ComponentSeparatedSampler,
    LevelFunction,
    column_game,
    duality_solve,
    general_zeroset_sampler,
    separated_pipeline,
    tent,
)

SCHEMA_VERSION = 1

# Recorded calibration constants (golden values from seeded reference runs).
GOLDEN_DISTORTION_RATIO = 6.0  # max distortion / sqrt(ln n) across the corpus
GOLDEN_SDP_GAP = 2.5  # max brute OPT / SDP value on the random corpus

# Check 11's hypermetric instances (Deza-Laurent, "Geometry of Cuts and
# Metrics", 1997): for a vector b, capacity -b_i b_j on the pairs of opposite
# sign and demand b_i b_j on the pairs of one sign.  Brute OPT is 1 on each
# and the SDP value 0.82-0.87, so each gap, 1.14-1.22, must lie in
# (HYPERMETRIC_MIN_GAP, HYPERMETRIC_MAX_GAP]: an SDP at the integral optimum
# fails the check, and so does the LP over the triangle rows alone, without
# PSD cuts, whose gaps are 1.33-1.60.
HYPERMETRIC = {
    "b5": (1, 1, 1, -1, -1),
    "b6": (2, 1, 1, -1, -1, -1),
    "b7": (1, 1, 1, 1, -1, -1, -1),
    "b9": (1, 1, 1, 1, 1, -1, -1, -1, -1),
}
HYPERMETRIC_MIN_GAP = 1.1
HYPERMETRIC_MAX_GAP = 1.3


def _count(level: str, full: int, fast: int) -> int:
    return full if level == "full" else fast


# -------------------------------------------------------------------------
# the 13 checks; acceptance criteria 9 and 10 both read the embedding check
# -------------------------------------------------------------------------


def check_slab_marginal(seed: int, level: str) -> dict:
    """Membership in the quarter slab has probability exactly 1/4."""
    n = _count(level, 10**5, 10**4)
    rng = substream(seed, "verify", "slab")
    worst = 0.0
    estimates = []
    for _ in range(10):
        a = float(rng.random() * 20.0 - 10.0)
        thetas = rng.random(n)
        est = float(np.mean((a - thetas) % 1.0 < 0.25))
        estimates.append(est)
        worst = max(worst, abs(est - 0.25))
    # 0.01 is ~7 sigma at the full sample count; keep the same sigma margin
    # when the fast level cuts the sample count
    tol = max(0.01, 4.0 * math.sqrt(0.25 * 0.75 / n))
    return {
        "name": "slab_marginal",
        "passed": worst <= tol,
        "measured": {"estimates": estimates, "worst_abs_error": worst},
    }


def check_tent_closed_form(seed: int, level: str) -> dict:
    """tent(1/2) = 1/4 and the integral over one period is 1/16, exactly."""
    peak = tent(0.5)
    # tent is piecewise linear with breakpoints at quarters, so the
    # trapezoid rule on those breakpoints is an exact integral
    xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    ys = np.array([tent(x) for x in xs])
    integral = float(np.trapezoid(ys, xs))
    passed = peak == 0.25 and integral == 1.0 / 16.0
    return {
        "name": "tent_closed_form",
        "passed": passed,
        "measured": {"tent_half": peak, "integral": integral},
    }


def _pipeline_for(space, phi, params, tau, C, seed, label):
    measure = PointMeasure(np.ones(space.n))
    return separated_pipeline(space, measure, phi, params, tau, C, RandomnessSpec(seed, (label,)))


def check_deterministic_separation(seed: int, level: str) -> dict:
    """Every pipeline draw satisfies both directional and metric separation;
    violations raise inside the sampler, so a clean run is the certificate.
    A case's draws are made in one block, and only a block that raises has
    its rows finished again one at a time to count its violations.  The path with
    its isometric map at tau = diam keeps loopless edges and finite levels,
    so its draws cross edges; the check fails if it has none."""
    n_draws = _count(level, 10**4, 10**3)
    cases = [  # (label, family, its parameters, snowflake exponent, (s, eps), tau, C)
        ("cube4", "hamming_cube", {"dim": 4}, 0.5, (0.25, 0.5), 1.0, 2.0),
        ("grid4", "grid", {"rows": 4, "cols": 4}, 0.5, (0.25, 0.5), 1.0, 2.0),
        ("diamond2", "diamond", {"level": 2}, 0.25, (0.25, 0.28), 1.0, 2.0),
        ("path300", "grid", {"rows": 1, "cols": 300}, 1.0, (0.25, 0.5), 299.0, math.e**2),
    ]
    per_case, loopless, finite = {}, {}, {}
    for label, family, params, theta, quasi, tau, C in cases:
        space = generate_instance(family, params).space
        sampler = _pipeline_for(space, snowflake_embed(space, theta), QuasiParams(*quasi),
                                tau, C, seed, label)
        loopless[label] = len(sampler.good.graph.loopless_edges())
        finite[label] = int(np.isfinite(sampler.good.level.values).sum())
        block = sampler._inner.block(range(n_draws))
        bad = 0
        try:
            sampler._finish(block, slice(None), sampler.weights.Q)
        except ConclusionViolated:
            for row in range(n_draws):
                try:
                    sampler._finish(block, slice(row, row + 1), sampler.weights.Q)
                except ConclusionViolated:
                    bad += 1
        per_case[label] = bad
    return {
        "name": "deterministic_separation",
        "passed": (not any(per_case.values()) and loopless["path300"] > 0
                   and finite["path300"] > 0),
        "measured": {"violations": per_case, "draws_per_case": n_draws,
                     "loopless_edges": loopless, "finite_levels": finite},
    }


def _two_component_sampler(seed: int) -> ComponentSeparatedSampler:
    """Two unit squares 100 apart, clique edges inside each square."""
    pts = np.array(
        [[0, 0], [0, 1], [1, 0], [1, 1], [100, 0], [100, 1], [101, 0], [101, 1]],
        dtype=float,
    )
    D = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    space = FiniteMetricSpace(ids=tuple(map(str, range(8))), dist=D)
    edges = [(b + i, b + j) for b in (0, 4) for i in range(4) for j in range(i + 1, 4)]
    graph = ThresholdedGraph(space=space, edges=edges)
    lam = LevelFunction(np.where(np.arange(8) < 4, 1.0, 2.0))
    f = EuclideanMap(pts)
    return ComponentSeparatedSampler(
        graph, f, lam, None, 1.0, RandomnessSpec(seed, ("layered",))
    )


def check_layered_membership(seed: int, level: str) -> dict:
    """P[x in A] = 1/6 per point; cross-component joint = 1/36, counted
    over the side masks of one block of draws."""
    n_draws = _count(level, 10**5, 2 * 10**4)
    block = _two_component_sampler(seed).block(range(n_draws))
    faults = [fault for fault in block.faults if fault is not None]
    if faults:
        raise ConclusionViolated(faults[0])
    in_A = block.sides[:, 0, 0]
    p_single = int(in_A.sum()) / n_draws
    p_joint = int((in_A & block.sides[:, 1, 4]).sum()) / n_draws
    passed = abs(p_single - 1.0 / 6.0) <= 0.01 and abs(p_joint - 1.0 / 36.0) <= 0.005
    return {
        "name": "layered_membership",
        "passed": passed,
        "measured": {"p_in_A": p_single, "p_cross_joint": p_joint},
    }


def check_matching_bound(seed: int, level: str) -> dict:
    """Expected sparsified matching number is below 6 exp(-C^2/4) |V|, on
    the 4x4 grid at tau = 2, whose compression has 24 loopless edges with a
    perfect matching: a sparsifier that kept them would fail."""
    n_draws = _count(level, 10**4, 2 * 10**3)
    inst = generate_instance("grid", {"rows": 4, "cols": 4})
    space, emap = inst.space, inst.emap
    measure = PointMeasure(np.ones(space.n))
    C = 4.0
    out = universal_compression(space, measure, 2.0, C, emap)
    report = check_compatibility(out.graph, out.f, out.cert, seed=seed)
    res = empirical_matching_bound(out.graph, out.f, C, n_draws, seed=seed)
    passed = report.ok and res["pass"]
    return {
        "name": "matching_bound",
        "passed": passed,
        "measured": {
            "mean": res["mean"],
            "stderr": res["stderr"],
            "bound": res["bound"],
            "compatible": report.ok,
            "loopless_edges": len(out.graph.loopless_edges()),
        },
    }


def check_fractional_matching(seed: int, level: str) -> dict:
    """Triangle value 1.5 exactly; nu <= nu* <= 1.5 nu against brute force."""
    tri_edges = [(0, 1), (1, 2), (0, 2)]
    Q = VertexWeights(np.ones(3))
    nu_star_tri, _ = fractional_matching(3, tri_edges, Q)
    ok = abs(nu_star_tri - 1.5) <= 1e-9
    rng = substream(seed, "verify", "frac-matching")
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        p = 0.3
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        nu = max_matching_bruteforce(n, edges)
        nu_star, _ = fractional_matching(n, edges, VertexWeights(np.ones(n)))
        if not (nu - 1e-9 <= nu_star <= 1.5 * nu + 1e-9):
            ok = False
        if nu > 0:
            worst = max(worst, nu_star / nu)
    return {
        "name": "fractional_matching",
        "passed": ok,
        "measured": {"triangle_nu_star": nu_star_tri, "max_ratio": worst},
    }


def check_general_zeroset(seed: int, level: str) -> dict:
    """2-point spreading probability is exactly 1/4 (pre-conditioning), and
    the growth-ratio envelope holds on the 4x4 grid."""
    n_draws = _count(level, 10**4, 2 * 10**3)
    two = generate_instance("hamming_cube", {"dim": 1}).space
    mu2 = PointMeasure(np.ones(2))
    dist2 = general_zeroset_sampler(two, mu2, 1.0, RandomnessSpec(seed, ("gz2",)))
    hits = 0
    for k in range(n_draws):
        Z = dist2.draw_raw(k)
        if 0 in Z and (1 not in Z):
            hits += 1
    p2 = hits / n_draws
    ok = abs(p2 - 0.25) <= 0.02

    grid = generate_instance("grid", {"rows": 4, "cols": 4}).space
    mug = PointMeasure(np.ones(16))
    tau = 2.0
    distg = general_zeroset_sampler(grid, mug, tau, RandomnessSpec(seed, ("gzg",)))
    x, y = 0, 15
    lams = (1.0 / 16.0, 1.0 / 8.0)
    # one draw per k scores every lambda: the hit tests read the same draws
    hits = dict.fromkeys(lams, 0)
    for k in range(n_draws):
        Z = distg.draw_raw(k)
        if not Z or x not in Z:
            continue
        idx = np.asarray(sorted(Z), dtype=int)
        gap = float(grid.dist[y, idx].min())
        for lam in lams:
            hits[lam] += gap >= lam * tau
    small = mug.ball_mass(grid, y, tau / 8.0)
    big = mug.ball_mass(grid, y, 5.0 * tau / 8.0)
    envelope = {}
    for lam in lams:
        bound = 0.25 * (big / small) ** (-8.0 * lam)
        p = hits[lam] / n_draws
        stderr = math.sqrt(max(p * (1 - p), 1e-12) / n_draws)
        envelope[lam] = {"empirical": p, "bound": bound}
        if p < bound - 2.0 * stderr:
            ok = False
    return {
        "name": "general_zeroset",
        "passed": ok,
        "measured": {"two_point": p2, "envelope": envelope},
    }


def check_mixer_constants(seed: int, level: str) -> dict:
    """Selector-bit cylinder probability 1/216 and marginals 1/2, 1/3, read
    by the mixer's own decode at three finite scale indices."""
    n_draws = _count(level, 10**5, 2 * 10**4)
    keys = np.arange(n_draws)[:, None]
    streams = RandomnessSpec(seed, ("verify",)).opener("mixer-bits")
    # one shift and one t: the three (sigma, eta) pairs start the stream
    _shift, _t, sigma, eta = _selectors(lambda k: streams.raw_words(keys, k), 1, 1,
                                        np.array([3]))
    target = ((0, 0, 0), (2, 1, 0))  # (sigma, eta) over indices (0, 1, 2)
    p_cyl = float(np.mean((sigma == target[0]).all(axis=1) & (eta == target[1]).all(axis=1)))
    sigma_marginals = sigma.mean(axis=0)
    eta_marginals = (eta[:, :, None] == np.arange(3)).mean(axis=0)
    ok = bool(abs(p_cyl - 1.0 / 216.0) <= 0.003
              and np.all(np.abs(sigma_marginals - 0.5) <= 0.01)
              and np.all(np.abs(eta_marginals - 1.0 / 3.0) <= 0.01))
    return {
        "name": "mixer_constants",
        "passed": ok,
        "measured": {"cylinder": p_cyl, "sigma_marginals": sigma_marginals.tolist()},
    }


_LIP_SLACK = 1e-12  # floating-point roundoff allowance on an exact inequality


def _lipschitz_violations(space: FiniteMetricSpace, emap: EuclideanMap) -> int:
    E = emap.image_distances()
    D = space.dist
    mask = ~np.eye(space.n, dtype=bool)
    return int(np.sum(E[mask] > D[mask] * (1.0 + _LIP_SLACK)))


def check_embedding_pipeline(seed: int, level: str) -> dict:
    """Distortion at least the known optimum on cubes, bounded distortion
    over sqrt(log n) across the corpus, and exact 1-Lipschitz-ness of every
    Fréchet map produced."""
    n_samples = _count(level, 256, 96)
    config = EmbedConfig(n_samples=n_samples, rounds=12)
    corpus = [
        ("cube2", generate_instance("hamming_cube", {"dim": 2}).space, None, None),
        ("cube3", generate_instance("hamming_cube", {"dim": 3}).space, None, None),
        ("cube4", generate_instance("hamming_cube", {"dim": 4}).space, None, None),
        ("cube6", generate_instance("hamming_cube", {"dim": 6}).space, None, None),
        ("grid4", generate_instance("grid", {"rows": 4, "cols": 4}).space, None, None),
        ("grid8", generate_instance("grid", {"rows": 8, "cols": 8}).space, None, None),
        ("diamond1", generate_instance("diamond", {"level": 1}).space, 0.25, QuasiParams(0.25, 0.28)),
        ("diamond2", generate_instance("diamond", {"level": 2}).space, 0.25, QuasiParams(0.25, 0.28)),
    ]
    ok = True
    ratios = {}
    lip_bad = 0
    cube_dist = {}
    for label, space, theta, params in corpus:
        measure = PointMeasure(np.ones(space.n))
        phi = None if theta is None else snowflake_embed(space, theta)
        emap, report = euclidean_embed_pipeline(
            space, measure, phi=phi, params=params, negative_type=theta is None,
            config=config, randomness=RandomnessSpec(seed, ("embed", label)),
        )
        lip_bad += _lipschitz_violations(space, emap)
        ratio = report.distortion / math.sqrt(math.log(space.n))
        ratios[label] = ratio
        if ratio > GOLDEN_DISTORTION_RATIO:
            ok = False
        if label in ("cube2", "cube3"):
            dim = int(label[-1])
            cube_dist[label] = report.distortion
            if report.distortion < math.sqrt(dim) - 1e-6:
                ok = False
    if lip_bad:
        ok = False
    return {
        "name": "embedding_pipeline",
        "passed": ok,
        "measured": {
            "ratios": ratios,
            "golden": GOLDEN_DISTORTION_RATIO,
            "cube_distortions": cube_dist,
            "lipschitz_violations": lip_bad,
        },
    }


def hypermetric_instance(b) -> SparsestCutInstance:
    """The hypermetric sparsest-cut instance of the integer vector b."""
    P = np.outer(b, b).astype(float)
    np.fill_diagonal(P, 0.0)
    return SparsestCutInstance(np.maximum(-P, 0.0), np.maximum(P, 0.0))


def check_sparsest_cut(seed: int, level: str) -> dict:
    """SDP value below brute OPT, sweep ratio above it, gap bounded; on the
    hypermetric instances the gap lies in (``HYPERMETRIC_MIN_GAP``,
    ``HYPERMETRIC_MAX_GAP``]."""
    n_inst = _count(level, 50, 15)
    rng = substream(seed, "verify", "cut")
    ok = True
    worst_gap = 1.0
    for _ in range(n_inst):
        n = int(rng.integers(3, 9))
        Cm = rng.random((n, n))
        Cm = (Cm + Cm.T) / 2.0
        np.fill_diagonal(Cm, 0.0)
        Dm = rng.random((n, n))
        Dm = (Dm + Dm.T) / 2.0
        np.fill_diagonal(Dm, 0.0)
        inst = SparsestCutInstance(Cm, Dm)
        sdp = sdp_gl_solve(inst)
        brute = brute_sparsest_cut(inst)
        sweep = sweep_round_cut(inst, sdp["vectors"])
        if sdp["value"] > brute["value"] + 1e-4:
            ok = False
        if sweep["ratio"] < brute["value"] - 1e-9:
            ok = False
        if sdp["value"] > 1e-12:
            gap = brute["value"] / sdp["value"]
            worst_gap = max(worst_gap, gap)
    if worst_gap > GOLDEN_SDP_GAP:
        ok = False
    hypermetric_gaps = {}
    for label, b in HYPERMETRIC.items():
        inst = hypermetric_instance(b)
        value = sdp_gl_solve(inst)["value"]
        brute = brute_sparsest_cut(inst)["value"]
        gap = brute / value if value > 0 else math.inf
        hypermetric_gaps[label] = gap
        if not HYPERMETRIC_MIN_GAP < gap <= HYPERMETRIC_MAX_GAP:
            ok = False
    return {
        "name": "sparsest_cut",
        "passed": ok,
        "measured": {"worst_gap": worst_gap, "golden_gap": GOLDEN_SDP_GAP,
                     "hypermetric_min_gap": HYPERMETRIC_MIN_GAP,
                     "hypermetric_max_gap": HYPERMETRIC_MAX_GAP, "instances": n_inst,
                     "hypermetric_gaps": hypermetric_gaps},
    }


def check_duality_modes(seed: int, level: str) -> dict:
    """The multiplicative-weights game value tracks the exact LP value over
    the same solve's column pool (one MW solve, then ``column_game``)."""
    n_inst = _count(level, 20, 6)
    rng = substream(seed, "verify", "duality")
    params = QuasiParams(0.25, 0.5)
    worst = 0.0
    ok = True
    for trial in range(n_inst):
        n = int(rng.integers(3, 9))
        inst = generate_instance(
            "lp_cloud", {"n": n, "p": 2.0, "dim": 3}, seed=int(rng.integers(2**31))
        )
        space = inst.space
        measure = PointMeasure(np.ones(n))
        phi = snowflake_embed(space, 0.5)
        tau = space.diam / 2.0
        sampler = separated_pipeline(space, measure, phi, params, tau, 1.0,
                                     RandomnessSpec(seed, ("dual", trial)))
        rounds = _count(level, 256, 128)
        mw = duality_solve(sampler, rounds=rounds,
                           randomness=RandomnessSpec(seed, ("dual-mw", trial)))
        _mixture, lp_value = column_game(mw)
        diff = abs(lp_value - mw.value)
        worst = max(worst, diff)
        if diff > 0.05:
            ok = False
    return {
        "name": "duality_modes",
        "passed": ok,
        "measured": {"worst_value_diff": worst, "instances": n_inst},
    }


def check_line_functional(seed: int, level: str) -> dict:
    """Best-of-50 measured 2-average distortion lands in the expected band."""
    target = math.sqrt(8.0)
    lo, hi = target / 4.0, 4.0 * target
    ok = True
    measured = []
    for cloud_seed in (1, 2, 3):
        rng = np.random.default_rng(cloud_seed)
        pts = rng.standard_normal((64, 16))
        mu = PointMeasure(np.ones(64))
        _f, d = line_functional_embed(
            pts, mu, p=2.0, q=2.0, n_candidates=50,
            randomness=RandomnessSpec(seed, ("line", cloud_seed)),
        )
        measured.append(d)
        if not lo <= d <= hi:
            ok = False
    return {
        "name": "line_functional",
        "passed": ok,
        "measured": {"distortions": measured, "band": (lo, hi)},
    }


def check_isoperimetric(seed: int, level: str) -> dict:
    """Certificates never exceed the exhaustive bound; the 2-point case is
    tight at one half."""
    n_samples = _count(level, 50, 20)
    ok = True
    records = {}
    cases = [
        ("two", generate_instance("hamming_cube", {"dim": 1}).space, 1.0, 0.5),
        ("grid2", generate_instance("grid", {"rows": 2, "cols": 2}).space, 2.0, 0.5),
        ("cube3", generate_instance("hamming_cube", {"dim": 3}).space, 2.0, 0.5),
        ("diamond1", generate_instance("diamond", {"level": 1}).space, 2.0, 0.5),
    ]
    for label, space, tau, t in cases:
        mu = PointMeasure(np.ones(space.n))
        dist = general_zeroset_sampler(space, mu, tau, RandomnessSpec(seed, ("iso", label)))
        cert = iso_certificate(space, mu, dist, t, n_samples)
        brute = brute_isoperimetric(space, mu, t)
        records[label] = {"certificate": cert["bound"], "brute": brute}
        if cert["bound"] > brute + 1e-12:
            ok = False
        if label == "two" and not (
            abs(cert["bound"] - 0.5) <= 1e-12 and abs(brute - 0.5) <= 1e-12
        ):
            ok = False
    return {
        "name": "isoperimetric",
        "passed": ok,
        "measured": records,
    }


CHECKS: List[Callable[[int, str], dict]] = [
    check_slab_marginal,
    check_tent_closed_form,
    check_deterministic_separation,
    check_layered_membership,
    check_matching_bound,
    check_fractional_matching,
    check_general_zeroset,
    check_mixer_constants,
    check_embedding_pipeline,
    check_sparsest_cut,
    check_duality_modes,
    check_line_functional,
    check_isoperimetric,
]


def verify_suite(level: str = "fast", seed: int = 0) -> dict:
    """Run every check and collect a machine-readable summary."""
    if level not in ("fast", "full"):
        raise BadParams("level must be 'fast' or 'full'")
    results = []
    for fn in CHECKS:
        t0 = time.perf_counter()
        rec = fn(seed, level)
        rec["runtime_s"] = round(time.perf_counter() - t0, 3)
        results.append(rec)
    return {
        "schema_version": SCHEMA_VERSION,
        "level": level,
        "seed": seed,
        "checks": results,
        "all_passed": all(r["passed"] for r in results),
    }
