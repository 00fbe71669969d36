"""Nested-net compression: sublevel nets, the rounding map q, the local
growth function rho, and the universally compatible certificate."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadParams
from .graphs import _BLOCK, CompatibilityCertificate, ThresholdedGraph, build_proximity_graph
from .metric import EuclideanMap, FiniteMetricSpace, PointMeasure

ZETA = 2.0  # the compression constant zeta in the growth ratio rho


@dataclass(frozen=True)
class SublevelNets:
    """Greedy maximal 2*tau-separated nets of the sublevel sets of an
    ordering function theta inside each component of a graph, nested across
    increasing levels: the net of level xi is ``joined & (theta <= xi)``."""

    graph: ThresholdedGraph
    theta: np.ndarray
    tau: float

    @cached_property
    def near(self) -> np.ndarray:
        """near[x, z]: z lies within 2*tau of x, in x's component."""
        comp = self.graph.component_of
        return (self.graph.space.dist <= 2.0 * self.tau) & (comp[:, None] == comp[None, :])

    @cached_property
    def joined(self) -> np.ndarray:
        """Whether each point is in the nets from its own level theta on.

        Each level extends the previous net by scanning its sublevel set in id
        order and adding every point more than 2*tau from the net in its
        component.  A point first scanned at its own level joins there or is
        blocked for good, so one scan in (theta, id) order builds every level.
        """
        joined = np.zeros(self.graph.n, dtype=bool)
        blocked = np.zeros(self.graph.n, dtype=bool)
        for w in np.argsort(self.theta, kind="stable"):
            if not blocked[w]:
                joined[w] = True
                blocked |= self.near[w]
        return joined


def nested_sublevel_nets(graph: ThresholdedGraph, theta, tau: float) -> SublevelNets:
    """Nets of the sublevel sets of theta, built inside each connected
    component of ``graph``.  Maximality makes every net 2*tau-dense in its
    sublevel set."""
    if not tau > 0:
        raise BadParams("tau must be positive")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (graph.n,):
        raise BadParams("theta must provide one value per point")
    return SublevelNets(graph=graph, theta=theta, tau=tau)


def rounding_map(nets: SublevelNets) -> np.ndarray:
    """The rounding map q: each point w goes to a net representative of the
    level of the theta-minimizer near w, inside w's component.

    w_min is the lowest-id minimizer of theta on B(w, 5*tau); q(w) is the
    lowest-id point of the net at level theta(w_min) within 2*tau of w_min.
    Guarantees d(q(w), w) <= 7*tau.
    """
    D, theta = nets.graph.space.dist, nets.theta
    comp = nets.graph.component_of
    ball = (D <= 5.0 * nets.tau) & (comp[:, None] == comp[None, :])
    key = np.where(ball, theta, np.inf)
    w_min = (ball & (key == key.min(axis=1, keepdims=True))).argmax(axis=1)
    reps = nets.near[w_min] & nets.joined & (theta <= theta[w_min][:, None])
    if not reps.any(axis=1).all():
        raise BadParams("net is not 2*tau-dense near a point; inconsistent inputs")
    return reps.argmax(axis=1)


def _ball_ratio(space: FiniteMetricSpace, measure: PointMeasure, tau: float) -> np.ndarray:
    """theta(x) = mu(B(x,19 tau)) / mu(B(x,tau)), each radius's masses one
    masked row sum (exact, so order-free, for integer-valued weights)."""
    if not tau > 0:
        raise BadParams("tau must be positive")
    if len(measure.weights) != space.n:
        raise BadParams("measure size does not match the space")
    D, w = space.dist, measure.weights
    return np.where(D <= 19.0 * tau, w, 0.0).sum(axis=1) / np.where(D <= tau, w, 0.0).sum(axis=1)


def growth_ratio_rho(theta, C: float) -> np.ndarray:
    """rho(x) = 1 + (ZETA/C) sqrt(log theta(x)) for the ball-mass ratio
    theta(x) = mu(B(x,19 tau)) / mu(B(x,tau))."""
    if not C > 0:
        raise BadParams("C must be positive")
    return 1.0 + (ZETA / C) * np.array([math.sqrt(math.log(t)) for t in theta])


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


def universal_compression(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    tau: float,
    C: float,
    emap: EuclideanMap,
) -> CompressionOutput:
    """Build the compatible compression (q, G, sigma, Delta, K) for any map.

    The ordering function is the ball-mass ratio theta; nets and q are built
    inside each connected component of the proximity graph, so q preserves
    components.  rho_tilde, Delta and sigma are taken over the same-component
    2*tau-balls ``near``.
    """
    if emap.n != space.n:
        raise BadParams("map size does not match the space")
    theta = _ball_ratio(space, measure, tau)
    rho = growth_ratio_rho(theta, C)
    graph = build_proximity_graph(space, rho, tau)
    nets = nested_sublevel_nets(graph, theta, tau)
    q = rounding_map(nets)
    f = emap.composed(q)
    E = f.image_distances()

    near = nets.near
    rho_tilde = np.where(near, rho, np.inf).min(axis=1)
    # Delta(x) = C * max image displacement over the ball
    Delta = C * np.where(near, E, 0.0).max(axis=1)
    # sigma(i, j) = max of Delta over the shared ball (C * max = max of C * x),
    # in blocks of edges
    i, j = graph.edges.T
    sigma = np.empty(len(i))
    step = max(1, _BLOCK // max(1, space.n))
    for s in range(0, len(i), step):
        shared = near[i[s:s + step]] & near[j[s:s + step]]
        sigma[s:s + step] = np.where(shared, Delta, -np.inf).max(axis=1)

    return CompressionOutput(
        q=q,
        graph=graph.with_sigma(sigma),
        cert=CompatibilityCertificate(C=C, Delta=Delta, K=np.ceil(rho_tilde).astype(int)),
        rho=rho,
        rho_tilde=rho_tilde,
        tau=tau,
        f=f,
    )
