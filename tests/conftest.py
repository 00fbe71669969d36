import numpy as np
import pytest

from zerosetkit.metric import (
    FiniteMetricSpace,
    PointMeasure,
    generate_instance,
)
from zerosetkit.randomzero import ZeroSetDistribution


class ConstantDistribution(ZeroSetDistribution):
    """Every draw returns the same set."""

    def __init__(self, points):
        self.points = frozenset(points)

    def _draw(self, index: int) -> frozenset:
        return self.points


def space_from_points(points: np.ndarray) -> FiniteMetricSpace:
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    D = np.sqrt((diff**2).sum(axis=2))
    D = (D + D.T) / 2.0
    return FiniteMetricSpace(tuple(range(len(points))), D)


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
