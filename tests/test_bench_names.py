"""The benchmark under perfbench/ looks zerosetkit names up by attribute and
calls a few by keyword; a rename or deletion there must fail here, not only
when the benchmark next runs."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layertrace  # noqa: E402
from conftest import compression_instance  # noqa: E402
from test_golden import GOLDEN_COMPRESSION  # noqa: E402
from zerosetkit import applications, descent, randomzero  # noqa: E402
from zerosetkit._rng import RandomnessSpec  # noqa: E402
from zerosetkit.compression import universal_compression  # noqa: E402
from zerosetkit.metric import (  # noqa: E402
    PointMeasure,
    QuasiParams,
    generate_instance,
    snowflake_embed,
)


def test_benchmark_names_resolve():
    space = generate_instance("grid", {"rows": 3, "cols": 3}).space
    # installed() looks up every traced name and restores it on exit
    with layertrace.Tracer().installed() as tracer:
        dist = randomzero.general_zeroset_sampler(
            space, PointMeasure(np.ones(space.n)), 2.0, RandomnessSpec(0)
        )
        assert dist.draw(0)
        # the keyword call perfbench/workloads.py makes
        emap, _ = descent.euclidean_embed_pipeline(
            space, PointMeasure(np.ones(space.n)), phi=None, params=None,
            negative_type=True, config=descent.EmbedConfig(n_samples=16, rounds=2),
            randomness=RandomnessSpec(0),
        )
        sol = applications.sdp_gl_solve(applications.SparsestCutInstance(
            (space.dist == 1.0).astype(float), 1.0 - np.eye(space.n)))
    assert emap.image_distances().shape == (space.n, space.n)
    layers = tracer.per_layer()
    # the embed's pair draws pass through the traced layered_pair_sets name
    assert layers["randomzero.layered_calls"][0] >= 1
    # the embed's duality solves draw their pairs in blocks (draw_masks); a
    # single pair draw passes through the traced SeparatedPairSampler.draw,
    # opening its streams in blocks, not one substream per draw
    sampler = randomzero.separated_pipeline(
        space, PointMeasure(np.ones(space.n)), snowflake_embed(space, 0.5),
        QuasiParams(0.25, 0.5), 2.0, 1.0, RandomnessSpec(0),
    )
    with layertrace.Tracer().installed() as draws:
        for k in range(16):
            sampler.draw(k)
    drawn = draws.per_layer()
    assert drawn["randomzero.pair_draws"][0] == 16
    assert drawn["rng.substream_calls"][0] == 0
    # the SDP solve passes through the traced sdp_gl_solve name, and reports
    # its own LP solves
    assert tracer.count("applications.sdp") >= 1
    assert sol["lp_solves"] >= 1


def test_loopless_edge_counter_reads_the_edge_format():
    # the benchmark counts len(out.graph.loopless_edges()), so a change of
    # the edge format that miscounts grid8's loopless edges fails here
    space, weights, tau, C, emap = compression_instance("grid8")
    out = universal_compression(space, PointMeasure(weights), tau, C, emap)
    assert layertrace._loopless_edges(None, out) == GOLDEN_COMPRESSION["grid8"][1] > 0
