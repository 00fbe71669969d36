"""Nested-net compression: sublevel nets, the rounding map q, the local
growth function rho, and the universally compatible certificate."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BadParams
from .graphs import (
    CompatibilityCertificate,
    ThresholdedGraph,
    build_proximity_graph,
)
from .metric import EuclideanMap, FiniteMetricSpace, PointMeasure

ZETA = 2.0  # the compression constant zeta in the growth ratio rho


@dataclass(frozen=True)
class SublevelNets:
    """Greedy maximal 2*tau-separated nets of the sublevel sets of an
    ordering function, nested across increasing levels."""

    theta: np.ndarray
    levels: tuple
    nets: tuple  # one sorted tuple of point indices per level, nested
    tau: float

    def net_at(self, xi: float) -> tuple:
        """Net of the largest level <= xi (the sublevel set containing xi)."""
        chosen = None
        for lvl, net in zip(self.levels, self.nets):
            if lvl <= xi:
                chosen = net
            else:
                break
        if chosen is None:
            raise BadParams(f"no net level at or below {xi}")
        return chosen


def nested_sublevel_nets(
    space: FiniteMetricSpace,
    theta,
    tau: float,
    subset: Optional[Sequence[int]] = None,
) -> SublevelNets:
    """Build nets level by level in increasing theta order.

    Each level extends the previous net greedily, scanning candidate points in
    id order, keeping pairwise separation > 2*tau.  Maximality makes every net
    2*tau-dense in its sublevel set.  Restricting to ``subset`` builds the nets
    inside one connected component.
    """
    if tau <= 0:
        raise BadParams("tau must be positive")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (space.n,):
        raise BadParams("theta must provide one value per point")
    pool = sorted(range(space.n)) if subset is None else sorted(int(i) for i in subset)
    levels = sorted({float(theta[i]) for i in pool})
    D = space.dist
    nets = []
    net: list = []
    for xi in levels:
        for w in pool:
            if theta[w] <= xi and all(D[w, z] > 2.0 * tau for z in net):
                net.append(w)
        nets.append(tuple(sorted(net)))
    return SublevelNets(theta=theta, levels=tuple(levels), nets=tuple(nets), tau=tau)


def rounding_map(
    space: FiniteMetricSpace,
    nets: SublevelNets,
    tau: float,
    subset: Optional[Sequence[int]] = None,
) -> dict:
    """The rounding map q: each point w goes to a net representative of the
    level of the theta-minimizer near w.

    w_min is the lowest-id minimizer of theta on B(w, 5*tau); q(w) is the
    lowest-id point of the net at level theta(w_min) within 2*tau of w_min.
    Guarantees d(q(w), w) <= 7*tau.
    """
    if abs(tau - nets.tau) > 0:
        raise BadParams("nets were built with a different tau")
    pool = sorted(range(space.n)) if subset is None else sorted(int(i) for i in subset)
    pool_set = set(pool)
    D = space.dist
    theta = nets.theta
    q = {}
    for w in pool:
        candidates = [z for z in pool if D[w, z] <= 5.0 * tau]
        w_min = min(candidates, key=lambda z: (theta[z], z))
        net = nets.net_at(float(theta[w_min]))
        reps = [z for z in net if D[w_min, z] <= 2.0 * tau and z in pool_set]
        if not reps:
            raise BadParams("net is not 2*tau-dense near a point; inconsistent inputs")
        q[w] = reps[0]
    return q


def growth_ratio_rho(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    tau: float,
    C: float,
) -> np.ndarray:
    """rho(x) = 1 + (ZETA/C) sqrt(log mu(B(x,19 tau)) / mu(B(x,tau)))."""
    if C <= 0 or tau <= 0:
        raise BadParams("tau and C must be positive")
    if len(measure.weights) != space.n:
        raise BadParams("measure size does not match the space")
    rho = np.empty(space.n)
    for x in range(space.n):
        small = measure.ball_mass(space, x, tau)
        big = measure.ball_mass(space, x, 19.0 * tau)
        rho[x] = 1.0 + (ZETA / C) * math.sqrt(math.log(big / small))
    return rho


@dataclass(frozen=True)
class CompressionOutput:
    """The rounding map together with the proximity graph, its edge labels,
    and the compatibility certificate they witness."""

    q: np.ndarray  # q[x] = index of the representative of x
    graph: ThresholdedGraph
    cert: CompatibilityCertificate
    rho: np.ndarray
    rho_tilde: np.ndarray
    tau: float
    f: EuclideanMap  # the composed realization (input map after q)

    def component_of(self) -> np.ndarray:
        return self.graph.component_of()


def universal_compression(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    tau: float,
    C: float,
    emap: EuclideanMap,
) -> CompressionOutput:
    """Build the compatible compression (q, G, sigma, Delta, K) for any map.

    The ordering function is the ball-mass ratio n/d with d(x) = mu(B(x,tau))
    and n(x) = mu(B(x,19 tau)); nets and q are built per connected component
    of the proximity graph, so q preserves components.
    """
    if emap.n != space.n:
        raise BadParams("map size does not match the space")
    D = space.dist
    d_small = np.array([measure.ball_mass(space, x, tau) for x in range(space.n)])
    d_big = np.array([measure.ball_mass(space, x, 19.0 * tau) for x in range(space.n)])
    theta = d_big / d_small

    rho = growth_ratio_rho(space, measure, tau, C)
    graph = build_proximity_graph(space, rho, tau)
    comp_label = graph.component_of()
    comps = graph.components()

    q = np.empty(space.n, dtype=int)
    for comp in comps:
        nets = nested_sublevel_nets(space, theta, tau, subset=comp)
        qc = rounding_map(space, nets, tau, subset=comp)
        for w, rep in qc.items():
            q[w] = rep

    f_coords = emap.coords[q]
    f = EuclideanMap(f_coords)

    # rho_tilde(x) = min rho over the metric 2*tau-ball intersected with x's component
    rho_tilde = np.empty(space.n)
    for x in range(space.n):
        near = np.flatnonzero((D[x] <= 2.0 * tau) & (comp_label == comp_label[x]))
        rho_tilde[x] = rho[near].min()
    K = np.ceil(rho_tilde).astype(int)

    # Delta(x) = C * max image displacement over the metric 2*tau-ball in the component
    Delta = np.empty(space.n)
    for x in range(space.n):
        near = np.flatnonzero((D[x] <= 2.0 * tau) & (comp_label == comp_label[x]))
        Delta[x] = C * float(np.max(np.linalg.norm(f_coords[near] - f_coords[x], axis=1)))

    sigma = {}
    for i, j in graph.edges:
        comp = comp_label[i]
        a_pool = np.flatnonzero(
            (D[i] <= 2.0 * tau) & (D[j] <= 2.0 * tau) & (comp_label == comp)
        )
        best = 0.0
        for a in a_pool:
            b_pool = np.flatnonzero((D[a] <= 2.0 * tau) & (comp_label == comp))
            gap = float(np.max(np.linalg.norm(f_coords[b_pool] - f_coords[a], axis=1)))
            best = max(best, gap)
        sigma[(i, j)] = C * best

    graph = ThresholdedGraph(space=space, edges=graph.edges, sigma=sigma)
    cert = CompatibilityCertificate(C=C, Delta=Delta, K=K)
    return CompressionOutput(
        q=q,
        graph=graph,
        cert=cert,
        rho=rho,
        rho_tilde=rho_tilde,
        tau=tau,
        f=f,
    )
