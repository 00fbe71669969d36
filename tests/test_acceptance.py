"""Acceptance gate: one test per criterion, each emitting a single
"CRITERION <k>: PASS/FAIL" line.  All checks run at the full sample level with
a fixed seed; stochastic margins are at least three sigma."""

import math
import time

import numpy as np
import pytest

from zerosetkit import verify
from zerosetkit.errors import BadParams
from zerosetkit.graphs import VertexWeights, fractional_matching
from zerosetkit.randomzero import tent

SEED = 0
_cache = {}


def _run(check):
    """Run a verification check once (full level), caching result and runtime."""
    name = check.__name__
    if name not in _cache:
        t0 = time.perf_counter()
        rec = check(SEED, "full")
        rec["_elapsed"] = time.perf_counter() - t0
        _cache[name] = rec
    return _cache[name]


def _report(k, ok):
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_slab_marginal():
    rec = _run(verify.check_slab_marginal)
    ok = rec["passed"] and rec["measured"]["worst_abs_error"] <= 0.01
    ok = ok and rec["_elapsed"] < 5.0
    _report(1, ok)


def test_criterion_02_tent_closed_form():
    rec = _run(verify.check_tent_closed_form)
    xs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    exact = tent(0.5) == 0.25 and float(
        np.trapezoid([tent(x) for x in xs], xs)
    ) == 1.0 / 16.0
    _report(2, rec["passed"] and exact)


def test_criterion_03_deterministic_separation():
    rec = _run(verify.check_deterministic_separation)
    ok = rec["passed"] and rec["_elapsed"] < 60.0
    # the finite-level case crosses edges: its graph has loopless edges and finite levels
    ok = ok and rec["measured"]["loopless_edges"]["path300"] > 0
    ok = ok and rec["measured"]["finite_levels"]["path300"] > 0
    _report(3, ok)


def test_criterion_04_layered_membership():
    rec = _run(verify.check_layered_membership)
    _report(4, rec["passed"])


def test_criterion_05_matching_bound():
    rec = _run(verify.check_matching_bound)
    m = rec["measured"]
    ok = rec["passed"]
    ok = ok and m["mean"] + 2.0 * m["stderr"] < m["bound"]
    ok = ok and math.isclose(m["bound"], 6.0 * math.exp(-4.0) * 16.0)
    ok = ok and rec["_elapsed"] < 30.0
    _report(5, ok)


def test_criterion_06_fractional_matching():
    rec = _run(verify.check_fractional_matching)
    val, _ = fractional_matching(
        3, [(0, 1), (1, 2), (0, 2)], VertexWeights(np.ones(3))
    )
    _report(6, rec["passed"] and abs(val - 1.5) < 1e-9)


def test_criterion_07_general_zeroset():
    rec = _run(verify.check_general_zeroset)
    _report(7, rec["passed"])


def test_criterion_08_mixer_constants():
    rec = _run(verify.check_mixer_constants)
    _report(8, rec["passed"])


def test_criterion_09_frechet_lipschitz():
    # exact 1-Lipschitz property on every embedding the suite produces
    rec = _run(verify.check_embedding_pipeline)
    _report(9, rec["measured"]["lipschitz_violations"] == 0)


def test_criterion_10_end_to_end_embedding():
    rec = _run(verify.check_embedding_pipeline)
    m = rec["measured"]
    ok = rec["passed"]
    for dim in (2, 3):
        ok = ok and m["cube_distortions"][f"cube{dim}"] >= math.sqrt(dim) - 1e-6
    ok = ok and max(m["ratios"].values()) <= verify.GOLDEN_DISTORTION_RATIO
    ok = ok and rec["_elapsed"] < 240.0
    _report(10, ok)


def test_criterion_11_sparsest_cut():
    rec = _run(verify.check_sparsest_cut)
    ok = rec["passed"]
    ok = ok and rec["measured"]["worst_gap"] <= verify.GOLDEN_SDP_GAP
    # the record names the bounds each hypermetric gap is held to
    ok = ok and rec["measured"]["hypermetric_min_gap"] == verify.HYPERMETRIC_MIN_GAP
    ok = ok and rec["measured"]["hypermetric_max_gap"] == verify.HYPERMETRIC_MAX_GAP
    ok = ok and rec["_elapsed"] < 120.0
    _report(11, ok)


def test_criterion_12_duality_game_value():
    rec = _run(verify.check_duality_modes)
    ok = rec["passed"] and rec["measured"]["worst_value_diff"] <= 0.05
    _report(12, ok)


def test_criterion_13_line_functional():
    rec = _run(verify.check_line_functional)
    lo, hi = rec["measured"]["band"]
    ok = rec["passed"]
    ok = ok and math.isclose(lo, math.sqrt(8.0) / 4.0)
    ok = ok and math.isclose(hi, 4.0 * math.sqrt(8.0))
    _report(13, ok)


def test_criterion_14_isoperimetric_soundness():
    rec = _run(verify.check_isoperimetric)
    m = rec["measured"]
    ok = rec["passed"]
    ok = ok and all(r["certificate"] <= r["brute"] + 1e-12 for r in m.values())
    ok = ok and m["two"]["certificate"] == 0.5 == m["two"]["brute"]
    _report(14, ok)


def test_verify_suite_rejects_an_unknown_level():
    with pytest.raises(BadParams, match="^level must be 'fast' or 'full'$"):
        verify.verify_suite("bogus")
