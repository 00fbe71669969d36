"""The benchmark under perfbench/ looks zerosetkit names up by attribute and
calls a few by keyword; a rename or deletion there must fail here, not only
when the benchmark next runs."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layertrace  # noqa: E402
from zerosetkit import applications, descent, randomzero  # noqa: E402
from zerosetkit._rng import RandomnessSpec  # noqa: E402
from zerosetkit.metric import PointMeasure, generate_instance  # noqa: E402


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
        applications.sdp_gl_solve(applications.SparsestCutInstance(
            (space.dist == 1.0).astype(float), 1.0 - np.eye(space.n)))
    assert emap.image_distances().shape == (space.n, space.n)
    # the LP-solve count patches scipy.optimize.linprog, which sdp_gl_solve
    # must look up per call for the count to see its solves
    assert tracer.per_layer()["applications.sdp_lp_solves"][0] >= 1
