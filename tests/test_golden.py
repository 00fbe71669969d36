"""Bit-identity pins at seed 0.

The expected values were recorded from the scalar duality engine, which
rebuilt the separated-pair sampler every multiplicative-weights round and
looped over far pairs in Python.  Any change that keeps the random streams
must reproduce them exactly: the coordinates are compared by a hash of their
bytes and every float by its hex form.
"""

import hashlib

import numpy as np
import pytest

from zerosetkit._rng import RandomnessSpec
from zerosetkit.descent import EmbedConfig, _uniform_far_weighting, euclidean_embed_pipeline
from zerosetkit.metric import PointMeasure, QuasiParams, generate_instance, snowflake_embed
from zerosetkit.randomzero import duality_solve, separated_pipeline

GOLDEN_EMBED = {
    # label: (family, params, sha256 of coords.tobytes(), distortion.hex())
    "cube3": (
        "hamming_cube", {"dim": 3},
        "a2beb6681a3a3caa71ee94a27f44bb15500c5ba892711a17d2de8f2c4ea97538",
        "0x1.9ec474a261265p+1",
    ),
    "grid4": (
        "grid", {"rows": 4, "cols": 4},
        "83318ff12193a5d788854f2ef8fbaaa526bd7dd0243878e4635da9e345abbd5d",
        "0x1.52a7fa9d2f8eap+2",
    ),
}

GOLDEN_DUALITY = {
    "n_columns": 175,
    "value": "0x1.5555555555555p-4",
    "columns_sha": "125063ecd573bcbc574d1f21aa7ca13394c6b6e7fba849cb4cfe44541d30e99a",
    "mixture_sha": "299fa3a2da35d4936efe85bddafc4c6ee21c5ae6abfc128b1424695f8a2081ba",
    "coverage_sha": "b01f1ad5eaa10dc4386c66e4b1742561480d97821605d527fd64f988c1c8d656",
    "draws": [[2, 10, 11], [2, 10, 11], [1, 5, 6, 13], [9, 10, 12], [0, 1, 4, 6, 9, 11]],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("label", sorted(GOLDEN_EMBED))
def test_embed_pipeline_is_bit_identical(label):
    family, params, coords_sha, distortion_hex = GOLDEN_EMBED[label]
    space = generate_instance(family, params).space
    emap, report = euclidean_embed_pipeline(
        space, PointMeasure(np.ones(space.n)), negative_type=True,
        config=EmbedConfig(n_samples=64, rounds=6),
        randomness=RandomnessSpec(0, ("golden", label)),
    )
    assert emap.coords.shape == (space.n, 64)
    assert _sha(np.ascontiguousarray(emap.coords).tobytes()) == coords_sha
    assert report.distortion.hex() == distortion_hex


def test_duality_solve_is_bit_identical(grid4):
    space = grid4.space
    tau = 2.0
    sampler = separated_pipeline(
        space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
        QuasiParams(0.25, 0.5), tau, 1.0, 2.0, _uniform_far_weighting(space, tau),
        RandomnessSpec(0, ("golden-dual",)),
    )
    dist = duality_solve(space, tau, sampler, mode="mw", rounds=24,
                         randomness=RandomnessSpec(0, ("golden-dual-mix",)))
    columns = [(sorted(A), sorted(B)) for A, B in dist.columns]
    assert dist.params["n_columns"] == len(columns) == GOLDEN_DUALITY["n_columns"]
    assert dist.value.hex() == GOLDEN_DUALITY["value"]
    assert _sha(repr(columns).encode()) == GOLDEN_DUALITY["columns_sha"]
    assert _sha(dist.mixture.tobytes()) == GOLDEN_DUALITY["mixture_sha"]
    assert _sha(dist.coverage.tobytes()) == GOLDEN_DUALITY["coverage_sha"]
    assert [sorted(dist.draw(k)) for k in range(5)] == GOLDEN_DUALITY["draws"]
