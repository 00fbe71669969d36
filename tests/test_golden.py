"""Bit-identity pins at seed 0.

The embedding and duality values were recorded from the scalar duality
engine, which rebuilt the separated-pair sampler every multiplicative-weights
round and looped over far pairs in Python; the stopping-time draws from the
sampler that drew one centre per generator call; the compressions from the
construction that built nets and the rounding map one component at a time and
sigma by a triple loop over edges and 2*tau-balls; the diamond2 and
grid4_blocks embeddings and the finite-level pair draws from the pipeline that
opened one SeedSequence per Gaussian direction and per first mixer attempt.
Any change that keeps the random streams must reproduce them exactly: the
coordinates are compared by a hash of their bytes, every float by its hex form
and the draws by a hash of their sorted members.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from zerosetkit import verify
from zerosetkit._rng import RandomnessSpec
from zerosetkit.compression import universal_compression
from zerosetkit.descent import EmbedConfig, euclidean_embed_pipeline
from zerosetkit.metric import PointMeasure, QuasiParams, generate_instance, snowflake_embed
from zerosetkit.graphs import ThresholdedGraph
from zerosetkit.randomzero import (
    GeneralZeroSetDistribution,
    LevelFunction,
    SeparatedPairSampler,
    _column_coverage,
    _far_pairs,
    column_game,
    duality_solve,
    separated_pipeline,
)

from conftest import compression_instance

GOLDEN_EMBED = {
    # label: (family, params (instance seed 0), snowflake exponent (0: negative type), QuasiParams
    #         or None, (n_samples, rounds), sha256 of coords.tobytes(), distortion.hex())
    "cube3": (
        "hamming_cube", {"dim": 3}, 0.0, None, (64, 6),
        "a2beb6681a3a3caa71ee94a27f44bb15500c5ba892711a17d2de8f2c4ea97538",
        "0x1.9ec474a261265p+1",
    ),
    "grid4": (
        "grid", {"rows": 4, "cols": 4}, 0.0, None, (64, 6),
        "83318ff12193a5d788854f2ef8fbaaa526bd7dd0243878e4635da9e345abbd5d",
        "0x1.52a7fa9d2f8eap+2",
    ),
    # the benchmark's diamond2: a supplied quarter snowflake, not negative type
    "diamond2": (
        "diamond", {"level": 2}, 0.25, (0.25, 0.28), (64, 6),
        "c0ea3e797d6ef05c6deafdbda8dbafed6d9d0d5e256a052b71c762d3bb94a7ab",
        "0x1.261f21ab573f3p+2",
    ),
    # 12 rounds make 96 pair draws per sampler and 96 mixer draws, so both
    # cross a block of 64 streams
    "grid4_blocks": (
        "grid", {"rows": 4, "cols": 4}, 0.0, None, (96, 12),
        "e668beacd04d7b1e0a07eb757f5280d08a57fe447202c0ddd6fef4bd47620622",
        "0x1.0816a3d346ba4p+2",
    ),
    # the benchmark's sizes at the CLI embed defaults, recorded from the
    # pipeline that scanned quasisymmetry in every good graph, computed the
    # compressed map's distances and the sampler's image distances in full,
    # and walked the scales once per (t, point) for the mixer
    "cube6": (
        "hamming_cube", {"dim": 6}, 0.0, None, (256, 12),
        "18ce59e1cee6da65c6927be914159f314a85ccd48443666807ff19907010415d",
        "0x1.b5d3ce13c16b5p+2",
    ),
    "grid8": (
        "grid", {"rows": 8, "cols": 8}, 0.0, None, (256, 12),
        "3db1d3e777c743e7e13cb522acb30e2c857cf1de3a06c035cead595402de8394",
        "0x1.c94bb75cb658ap+2",
    ),
    # smallest distance 0.13, so the pipeline embeds D * 2^3 (smallest
    # distance 1.04) and scales the coordinates back; scale -1 is negative:
    # its label takes two entropy words, and the glue and duality streams
    # keyed by it have longer prefixes than the rest.  Re-pinned when the
    # scales became relative to the smallest distance (distortion
    # 0x1.c209dc2b76cb6p+1 = 3.516 before, on scales -4..2 of D, now -1..5)
    "lp_cloud16": (
        "lp_cloud", {"n": 16, "p": 2.0, "dim": 2}, 0.0, None, (64, 6),
        "26facd0b61287596b871e719815c041a84ab8e4f50c5948339fd496b34d89041",
        "0x1.041b98793b870p+2",
    ),
}

GOLDEN_DUALITY = {
    "n_columns": 175,
    "value": "0x1.5555555555555p-4",
    "columns_sha": "125063ecd573bcbc574d1f21aa7ca13394c6b6e7fba849cb4cfe44541d30e99a",
    "mixture_sha": "299fa3a2da35d4936efe85bddafc4c6ee21c5ae6abfc128b1424695f8a2081ba",
    "coverage_sha": "b01f1ad5eaa10dc4386c66e4b1742561480d97821605d527fd64f988c1c8d656",
    # column_game over the same pool, recorded from the solve's former exact-LP mode
    "lp_value": "0x1.526d6fc7ba372p-3",
    "lp_mixture_sha": "f305d054d2fd4848c183603689997552ed9e2937d5ed26a9aca45960d5a3e901",
    "draws": [[2, 10, 11], [2, 10, 11], [1, 5, 6, 13], [9, 10, 12], [0, 1, 4, 6, 9, 11]],
}

# check 12's worst |LP value - MW value| over its instances at seed 0, per level
GOLDEN_CHECK12_DIFF = {"fast": "0x1.5340ae1e5d8c8p-5", "full": "0x1.44d1bc2503158p-5"}

# checks 3 and 4's measured records at the fast level, seed 0, recorded from
# the checks that made their draws one ``draw`` call at a time
GOLDEN_CHECK3 = {
    "violations": {"cube4": 0, "grid4": 0, "diamond2": 0, "path300": 0},
    "draws_per_case": 1000,
    "loopless_edges": {"cube4": 0, "grid4": 0, "diamond2": 0, "path300": 299},
    "finite_levels": {"cube4": 0, "grid4": 0, "diamond2": 0, "path300": 300},
    # no draw crosses an edge, so the extractor and the fault path stay idle
    "crossing_rows": {"cube4": 0, "grid4": 0, "diamond2": 0, "path300": 0},
}
GOLDEN_CHECK4 = {"p_in_A": "0x1.4cccccccccccdp-3", "p_cross_joint": "0x1.b8bac710cb296p-6"}

# sha256 of the sorted sides of separated-pair draws 0-99 on grid4 with its
# rows as path components at level 1e-3: the Gaussian directions decide these
# draws, and their crossing edges reach the unsaturated-pair LP
GOLDEN_PAIR_DRAWS = "350b67320a51936fd76a3d14b96bdbe5209f931a9caad8b46c93a51255f29275"

GOLDEN_GENERAL = {
    # label: (family, params, instance seed, tau, sha256 of the sorted members of draws 0-63)
    "grid12": (
        "grid", {"rows": 12, "cols": 12}, None, 4.0,
        "3aa48bacbf63d1de41ce7246850b9e139cc203e8a3d6a3f45f8018f2a031bd59",
    ),
    "lp_cloud128": (
        "lp_cloud", {"n": 128, "p": 2.0, "dim": 3}, 0, 1.0,
        "6449f49417209f939ee81320ac21e6d6a1f157d42ba45fa34a4122e4f2f54488",
    ),
}

GOLDEN_COMPRESSION = {
    # label: (edges, loopless edges, sha256 of q, edges, sigma in edge order,
    #         rho, rho_tilde, Delta, K and f.coords)
    "cube4": (16, 0, "1416ce74aa61f029bad7b5452b7fb61f5a50cb72b2161f473e8f7db13ac6f3f6"),
    "grid8": (250, 186, "5d25c97ad6643eb864ab63d9a29b8d99dce9ff84673a9b601ebb8af116f89af6"),
    # re-pinned when the ball masses became masked row sums: on these float
    # weights theta, rho and rho_tilde moved by a few ulps; q, edges, sigma,
    # Delta, K and f kept their bits
    "grid8_weighted": (
        176, 112, "50a974584fff118c5c5a1aed2482de2e6b4a920b2605609b02f199cadb7180c5",
    ),
    "two_grids": (382, 310, "777d948e3f65653b9c52e1db018a11261319c722d6ac6a55463dffa1ad17ac8b"),
    # at one BLAS thread (tests/conftest.py): its 300x300 eigh differs in the last bits at two
    "path300": (599, 299, "5be0ecd229978c588d0781014da62710244c5c48875cf1dedefa1a50e07e5566"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("label", sorted(GOLDEN_EMBED))
def test_embed_pipeline_is_bit_identical(label):
    family, params, theta, quasi, (n_samples, rounds), coords_sha, distortion_hex = (
        GOLDEN_EMBED[label])
    space = generate_instance(family, params, seed=0).space
    emap, report = euclidean_embed_pipeline(
        space, PointMeasure(np.ones(space.n)),
        phi=snowflake_embed(space, theta) if theta else None,
        params=QuasiParams(*quasi) if quasi else None, negative_type=not theta,
        config=EmbedConfig(n_samples=n_samples, rounds=rounds),
        randomness=RandomnessSpec(0, ("golden", label)),
    )
    assert emap.coords.shape == (space.n, n_samples)
    assert _sha(np.ascontiguousarray(emap.coords).tobytes()) == coords_sha
    assert report.distortion.hex() == distortion_hex


def test_duality_solve_is_bit_identical(grid4):
    space = grid4.space
    tau = 2.0
    sampler = separated_pipeline(
        space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
        QuasiParams(0.25, 0.5), tau, 1.0, RandomnessSpec(0, ("golden-dual",)),
    )
    dist = duality_solve(sampler, rounds=24, randomness=RandomnessSpec(0, ("golden-dual-mix",)))
    # the pool's columns as the pairs of sorted member lists they were pinned as
    columns = [(A.nonzero()[0].tolist(), B.nonzero()[0].tolist()) for A, B in dist.columns]
    assert dist.params["n_columns"] == len(columns) == GOLDEN_DUALITY["n_columns"]
    assert dist.value.hex() == GOLDEN_DUALITY["value"]
    assert _sha(repr(columns).encode()) == GOLDEN_DUALITY["columns_sha"]
    assert _sha(dist.mixture.tobytes()) == GOLDEN_DUALITY["mixture_sha"]
    # the solve drops its coverage matrix; rebuilt in one call, it has the same bytes
    pairs, near = _far_pairs(space, dist.tau, dist)
    coverage = _column_coverage(near, pairs, dist.columns)
    assert _sha(coverage.tobytes()) == GOLDEN_DUALITY["coverage_sha"]
    assert [sorted(dist.draw(k)) for k in range(5)] == GOLDEN_DUALITY["draws"]
    lp_mixture, lp_value = column_game(dist)
    assert lp_value.hex() == GOLDEN_DUALITY["lp_value"]
    assert _sha(lp_mixture.tobytes()) == GOLDEN_DUALITY["lp_mixture_sha"]


@pytest.mark.parametrize("level", sorted(GOLDEN_CHECK12_DIFF))
def test_duality_check_is_bit_identical(level):
    rec = verify.check_duality_modes(0, level)
    assert rec["measured"]["worst_value_diff"].hex() == GOLDEN_CHECK12_DIFF[level]


def test_separation_and_membership_checks_are_bit_identical():
    assert verify.check_deterministic_separation(0, "fast")["measured"] == GOLDEN_CHECK3
    measured = verify.check_layered_membership(0, "fast")["measured"]
    assert {key: value.hex() for key, value in measured.items()} == GOLDEN_CHECK4


def test_finite_level_pair_draws_are_bit_identical(grid4):
    space = grid4.space
    spec = RandomnessSpec(0, ("golden-pairs",))
    base = separated_pipeline(
        space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
        QuasiParams(0.25, 0.5), 2.0, 1.0, spec,
    )
    rows = tuple((4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3))
    good = dataclasses.replace(
        base.good, level=LevelFunction(np.full(space.n, 1e-3)),
        compression=dataclasses.replace(
            base.good.compression,
            graph=ThresholdedGraph(space, rows, sigma=np.zeros(len(rows)))),
    )
    sampler = SeparatedPairSampler(good, spec)
    draws = [(sorted(A), sorted(B)) for A, B in map(sampler.draw, range(100))]
    assert _sha(repr(draws).encode()) == GOLDEN_PAIR_DRAWS


@pytest.mark.parametrize("label", sorted(GOLDEN_GENERAL))
def test_general_zeroset_draws_are_bit_identical(label):
    family, params, seed, tau, draws_sha = GOLDEN_GENERAL[label]
    space = generate_instance(family, params, seed=seed).space
    dist = GeneralZeroSetDistribution(space, PointMeasure(np.ones(space.n)), tau,
                                      RandomnessSpec(0, ("golden-general", label)))
    draws = [sorted(dist.draw(k)) for k in range(64)]
    assert _sha(repr(draws).encode()) == draws_sha


@pytest.mark.parametrize("label", sorted(GOLDEN_COMPRESSION))
def test_universal_compression_is_bit_identical(label):
    n_edges, n_loopless, out_sha = GOLDEN_COMPRESSION[label]
    space, weights, tau, C, emap = compression_instance(label)
    out = universal_compression(space, PointMeasure(weights), tau, C, emap)
    assert len(out.graph.edges) == n_edges
    assert len(out.graph.loopless_edges()) == n_loopless
    h = hashlib.sha256()
    h.update(np.asarray(out.q, dtype=np.int64).tobytes())
    # the edges rendered as the tuple of int pairs the pins were recorded on
    h.update(repr(tuple(map(tuple, out.graph.edges.tolist()))).encode())
    h.update(out.graph.sigma.tobytes())
    for values in (out.rho, out.rho_tilde, out.cert.Delta):
        h.update(np.ascontiguousarray(values, dtype=float).tobytes())
    h.update(np.asarray(out.cert.K, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(out.f.coords).tobytes())
    assert h.hexdigest() == out_sha
