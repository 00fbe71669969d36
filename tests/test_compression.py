import math

import numpy as np
import pytest

from zerosetkit.compression import (
    ZETA,
    growth_ratio_rho,
    nested_sublevel_nets,
    rounding_map,
    universal_compression,
)
from zerosetkit.errors import BadParams
from zerosetkit.graphs import check_compatibility
from zerosetkit.metric import PointMeasure, snowflake_embed

from conftest import space_from_points


def _line_space(n):
    return space_from_points(np.arange(n, dtype=float)[:, None])


# -------------------------------------------------------------------------
# nets
# -------------------------------------------------------------------------


def test_nets_are_nested_separated_and_dense():
    space = _line_space(12)
    theta = np.array([float(i % 4) for i in range(12)])
    tau = 1.0
    nets = nested_sublevel_nets(space, theta, tau)
    for a, b in zip(nets.nets, nets.nets[1:]):
        assert set(a) <= set(b)
    for net in nets.nets:
        for i in net:
            for j in net:
                if i != j:
                    assert space.d(i, j) > 2.0 * tau
    # maximality: every point of each sublevel set is within 2 tau of its net
    for lvl, net in zip(nets.levels, nets.nets):
        sub = [i for i in range(12) if theta[i] <= lvl]
        for w in sub:
            assert min(space.d(w, z) for z in net) <= 2.0 * tau


def test_net_at_picks_largest_level():
    space = _line_space(6)
    theta = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    nets = nested_sublevel_nets(space, theta, 0.4)
    assert nets.net_at(0.5) == nets.nets[0]
    assert nets.net_at(1.5) == nets.nets[1]
    with pytest.raises(BadParams):
        nets.net_at(-1.0)


def test_rounding_map_displacement_bound():
    space = _line_space(15)
    theta = np.array([float((i * 7) % 5) for i in range(15)])
    tau = 1.0
    nets = nested_sublevel_nets(space, theta, tau)
    q = rounding_map(space, nets, tau)
    for w, rep in q.items():
        assert space.d(w, rep) <= 7.0 * tau + 1e-12


# -------------------------------------------------------------------------
# growth ratios
# -------------------------------------------------------------------------


def test_growth_ratio_formula_and_floor():
    space = _line_space(8)
    mu = PointMeasure(np.ones(8))
    tau, C = 1.0, 2.0
    rho = growth_ratio_rho(space, mu, tau, C)
    assert np.all(rho >= 1.0)
    for x in range(8):
        small = mu.ball_mass(space, x, tau)
        big = mu.ball_mass(space, x, 19.0 * tau)
        expect = 1.0 + (ZETA / C) * math.sqrt(math.log(big / small))
        assert math.isclose(rho[x], expect, rel_tol=1e-12)


# -------------------------------------------------------------------------
# the full compression
# -------------------------------------------------------------------------


def test_universal_compression_certificate_holds(cube4, uniform_measure):
    space = cube4.space
    mu = uniform_measure(space)
    phi = snowflake_embed(space, 0.5)
    out = universal_compression(space, mu, tau=1.0, C=4.0, emap=phi)
    assert out.q.shape == (space.n,)
    # q preserves components of the proximity graph
    comp = out.graph.component_of
    for x in range(space.n):
        assert comp[out.q[x]] == comp[x]
    # K is the ceiling of the component-local minimum growth ratio
    assert np.array_equal(out.cert.K, np.ceil(out.rho_tilde).astype(int))
    assert np.all(out.rho_tilde <= out.rho + 1e-12)
    report = check_compatibility(out.graph, out.f, out.cert, seed=0)
    assert report.cond1_ok and report.cond3_ok
    assert report.cond2_all_verified
    assert report.ok


def test_compression_rounding_stays_close(cube3, uniform_measure):
    space = cube3.space
    mu = uniform_measure(space)
    phi = snowflake_embed(space, 0.5)
    tau = 0.5
    out = universal_compression(space, mu, tau=tau, C=2.0, emap=phi)
    for x in range(space.n):
        assert space.d(x, int(out.q[x])) <= 7.0 * tau + 1e-12
