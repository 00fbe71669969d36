import math
import os

# One BLAS and OpenMP thread, set before numpy loads, as the benchmark runs:
# the bits of a large eigendecomposition depend on the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from zerosetkit.metric import (
    FiniteMetricSpace,
    PointMeasure,
    QuasiParams,
    _lp_distances,
    generate_instance,
    snowflake_embed,
)
from zerosetkit.randomzero import ZeroSetDistribution, pipeline_scales


class ConstantDistribution(ZeroSetDistribution):
    """Every draw returns the same set ``points`` of ``n`` points."""

    def __init__(self, points, n: int):
        self.points = frozenset(points)
        self.n = n

    @classmethod
    def _masks_for(cls, requests) -> list:
        out = []
        for dist, indices in requests:
            masks = np.zeros((len(indices), dist.n), dtype=bool)
            masks[:, sorted(dist.points)] = True
            out.append(masks)
        return out


class LimitAfterRuns:
    """A HiGHS model from ``graphs._highs_model`` whose runs after the first
    ``free`` get a zero simplex iteration limit, so they stop short of an
    optimum."""

    def __init__(self, model, free: int):
        self.model = model
        self.free = free

    def run(self):
        if self.free == 0:
            self.model.setOptionValue("simplex_iteration_limit", 0)
        self.free -= 1
        return self.model.run()

    def __getattr__(self, name):
        return getattr(self.model, name)


def limit_lp_runs(monkeypatch, module, free: int = 0):
    """Build every HiGHS model of ``module`` as a ``LimitAfterRuns``."""
    real = module._highs_model
    monkeypatch.setattr(module, "_highs_model",
                        lambda *args, **kwargs: LimitAfterRuns(real(*args, **kwargs), free))


def space_from_points(points: np.ndarray) -> FiniteMetricSpace:
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    D = np.sqrt((diff**2).sum(axis=2))
    D = (D + D.T) / 2.0
    return FiniteMetricSpace(tuple(range(len(points))), D)


def two_grids():
    """Two l1 6x6 grids 100 apart: two components at any tau below 100."""
    pts = np.array([(i, j) for i in range(6) for j in range(6)], dtype=float)
    pts = np.vstack([pts, pts + [100.0, 0.0]])
    return FiniteMetricSpace(tuple(range(len(pts))), _lp_distances(pts, 1.0))


def compression_instance(label):
    """(space, point masses, tau, C, map) of a GOLDEN_COMPRESSION instance,
    or of path64, a 64-point path at tau 2 whose labels Delta are not all 0."""
    if label == "cube4":
        inst = generate_instance("hamming_cube", {"dim": 4})
        return inst.space, np.ones(16), 1.0, 4.0, inst.emap
    if label == "two_grids":
        space = two_grids()
        weights = np.random.default_rng(0).integers(1, 4, space.n).astype(float)
        return space, weights, 3.0, 4.0, snowflake_embed(space, 0.5)
    if label == "path300":
        space = generate_instance("grid", {"rows": 1, "cols": 300}).space
        r, beta = pipeline_scales(QuasiParams(0.25, 0.5))
        return space, np.ones(300), 299 * beta, r * math.e**2, snowflake_embed(space, 0.5)
    if label == "path64":
        space = generate_instance("grid", {"rows": 1, "cols": 64}).space
        return space, np.ones(64), 2.0, 4.0, snowflake_embed(space, 0.5)
    space = generate_instance("grid", {"rows": 8, "cols": 8}).space
    if label == "grid8":
        return space, np.ones(64), 3.0, 4.0, snowflake_embed(space, 0.5)
    weights = np.random.default_rng(0).uniform(0.5, 2.0, space.n)
    return space, weights, 3.0, 2.0, snowflake_embed(space, 0.5)


@pytest.fixture(scope="session")
def cube3():
    return generate_instance("hamming_cube", {"dim": 3})


@pytest.fixture(scope="session")
def cube4():
    return generate_instance("hamming_cube", {"dim": 4})


@pytest.fixture(scope="session")
def grid4():
    return generate_instance("grid", {"rows": 4, "cols": 4})


@pytest.fixture
def uniform_measure():
    def make(space):
        return PointMeasure(np.ones(space.n))

    return make
