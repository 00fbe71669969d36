"""Thresholded graphs, directional sparsification, matchings, and compatibility checks."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy.optimize import linprog

from ._rng import substream
from .errors import BadParams, DimensionMismatch, LPSolveFailed, RhoBelowOne
from .metric import EuclideanMap, FiniteMetricSpace

Edge = Tuple[int, int]

LP_TOL = 1e-9
UNSATURATION_TOL = 1e-9
_CHECK_SLACK = 1e-9  # relative slack absorbing float noise in exact comparisons


def _norm_edge(e) -> Edge:
    i, j = int(e[0]), int(e[1])
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class ThresholdedGraph:
    """Vertex set of a metric space, an edge set (self-loops allowed), and
    optional nonnegative edge labels sigma."""

    space: FiniteMetricSpace
    edges: tuple
    sigma: Optional[dict] = None

    def __post_init__(self):
        n = self.space.n
        edges = tuple(sorted(_norm_edge(e) for e in self.edges))
        object.__setattr__(self, "edges", edges)
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise BadParams(f"edge ({i},{j}) endpoint outside the space")
        if self.sigma is not None:
            sig = {_norm_edge(e): float(v) for e, v in self.sigma.items()}
            missing = [e for e in edges if e not in sig]
            if missing:
                raise BadParams(f"sigma missing on edges {missing[:3]}")
            if any(v < 0 for v in sig.values()):
                raise BadParams("sigma must be nonnegative")
            object.__setattr__(self, "sigma", sig)

    @property
    def n(self) -> int:
        return self.space.n

    def loopless_edges(self) -> tuple:
        return tuple(e for e in self.edges if e[0] != e[1])

    def has_self_loop(self, x: int) -> bool:
        return (x, x) in set(self.edges)

    def adjacency(self) -> list:
        """Neighbor lists ignoring self-loops (for BFS distances)."""
        adj = [[] for _ in range(self.n)]
        for i, j in self.edges:
            if i != j:
                adj[i].append(j)
                adj[j].append(i)
        return adj

    def neighbors(self, x: int) -> list:
        """Neighbors of x including x itself when a self-loop is present."""
        out = []
        for i, j in self.edges:
            if i == x and j == x:
                out.append(x)
            elif i == x:
                out.append(j)
            elif j == x:
                out.append(i)
        return sorted(set(out))

    def graph_distances(self, x: int) -> np.ndarray:
        """Hop distances from x (inf when unreachable)."""
        adj = self.adjacency()
        dist = np.full(self.n, np.inf)
        dist[x] = 0
        q = deque([x])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if not np.isfinite(dist[v]):
                    dist[v] = dist[u] + 1
                    q.append(v)
        return dist

    def graph_ball(self, x: int, radius: float) -> np.ndarray:
        """Combinatorial ball: vertices within hop distance radius of x."""
        if radius < 0:
            return np.array([], dtype=int)
        return np.flatnonzero(self.graph_distances(x) <= radius)

    def components(self) -> list:
        """Connected components as sorted index lists, ordered by minimum id.

        Every vertex is a component member even if isolated.
        """
        adj = self.adjacency()
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = []
            q = deque([s])
            seen[s] = True
            while q:
                u = q.popleft()
                comp.append(u)
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        q.append(v)
            comps.append(sorted(comp))
        return comps

    def component_of(self) -> np.ndarray:
        label = np.full(self.n, -1, dtype=int)
        for ci, comp in enumerate(self.components()):
            for x in comp:
                label[x] = ci
        return label


@dataclass(frozen=True)
class CompatibilityCertificate:
    """Per-vertex scales (Delta, K) witnessing C-compatibility."""

    C: float
    Delta: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        D = np.asarray(self.Delta, dtype=float)
        K = np.asarray(self.K, dtype=int)
        if self.C <= 0:
            raise BadParams("C must be positive")
        if np.any(D < 0):
            raise BadParams("Delta must be nonnegative")
        if np.any(K < 1):
            raise BadParams("K must be a positive integer per vertex")
        object.__setattr__(self, "Delta", D)
        object.__setattr__(self, "K", K)


@dataclass(frozen=True)
class PairWeighting:
    """Symmetric probability measure on ordered point pairs supported on
    pairs at distance >= tau."""

    omega: np.ndarray
    tau: float
    space: FiniteMetricSpace

    def __post_init__(self):
        W = np.asarray(self.omega, dtype=float)
        if W.shape != (self.space.n, self.space.n):
            raise BadParams("omega must be a square matrix over the space")
        if np.any(W < 0):
            raise BadParams("omega must be nonnegative")
        if not np.allclose(W, W.T, rtol=0, atol=1e-12):
            raise BadParams("omega must be symmetric")
        if abs(W.sum() - 1.0) > 1e-9:
            raise BadParams("omega must have total mass 1")
        if self.tau <= 0:
            raise BadParams("tau must be positive")
        support = W > 0
        if np.any(support & (self.space.dist < self.tau)):
            raise BadParams("omega support must lie on pairs at distance >= tau")
        object.__setattr__(self, "omega", W)

    def marginals(self) -> np.ndarray:
        """Canonical vertex weights Q(x) = sum_y omega(x, y)."""
        return self.omega.sum(axis=1)

    def mass(self, A: Iterable[int], B: Iterable[int]) -> float:
        A = np.asarray(sorted(A), dtype=int)
        B = np.asarray(sorted(B), dtype=int)
        if A.size == 0 or B.size == 0:
            return 0.0
        return float(self.omega[np.ix_(A, B)].sum())


@dataclass(frozen=True)
class VertexWeights:
    Q: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if np.any(Q < 0):
            raise BadParams("vertex weights must be nonnegative")
        object.__setattr__(self, "Q", Q)


# -------------------------------------------------------------------------
# graph construction and sparsification
# -------------------------------------------------------------------------


def build_proximity_graph(space: FiniteMetricSpace, rho, tau: float) -> ThresholdedGraph:
    """Edges {x,y} iff d(x,y) <= tau / min(rho(x), rho(y)); self-loops at
    every vertex since d(x,x) = 0 always qualifies."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (space.n,):
        raise BadParams("rho must provide one value per point")
    if np.any(rho < 1):
        raise RhoBelowOne("rho must be >= 1 everywhere")
    if tau <= 0:
        raise BadParams("tau must be positive")
    thresh = tau / np.minimum(rho[:, None], rho[None, :])
    edges = [
        (i, j)
        for i in range(space.n)
        for j in range(i, space.n)
        if space.dist[i, j] <= thresh[i, j]
    ]
    return ThresholdedGraph(space=space, edges=tuple(edges))


def sparsify_directional(graph: ThresholdedGraph, emap: EuclideanMap, v) -> tuple:
    """Edges whose image difference projects onto v beyond 4*sigma.

    The strict inequality means self-loops never survive.
    """
    if graph.sigma is None:
        raise BadParams("graph needs sigma on all edges")
    v = np.asarray(v, dtype=float)
    if v.shape != (emap.dim,):
        raise DimensionMismatch("direction dimension does not match the map")
    proj = emap.coords @ v
    kept = []
    for i, j in graph.edges:
        if abs(proj[i] - proj[j]) > 4.0 * graph.sigma[(i, j)]:
            kept.append((i, j))
    return tuple(kept)


# -------------------------------------------------------------------------
# matchings
# -------------------------------------------------------------------------


def max_matching(n_vertices: int, edges: Iterable[Edge]) -> int:
    """Exact maximum matching size of a general graph; self-loops ignored."""
    simple = {(min(i, j), max(i, j)) for i, j in edges if i != j}
    if not simple:
        return 0
    G = nx.Graph()
    G.add_nodes_from(range(n_vertices))
    G.add_edges_from(simple)
    return len(nx.max_weight_matching(G, maxcardinality=True))


def max_matching_bruteforce(n_vertices: int, edges: Iterable[Edge]) -> int:
    """Independent branch-and-bound oracle for cross-checking max_matching."""
    simple = sorted({(min(i, j), max(i, j)) for i, j in edges if i != j})

    def rec(idx: int, used: int) -> int:
        best = 0
        for k in range(idx, len(simple)):
            i, j = simple[k]
            if used & (1 << i) or used & (1 << j):
                continue
            best = max(best, 1 + rec(k + 1, used | (1 << i) | (1 << j)))
        return best

    return rec(0, 0)


def fractional_matching(n_vertices: int, edges: Iterable[Edge], weights: VertexWeights):
    """Exact LP value of the vertex-capacitated fractional matching.

    Maximize sum phi(e) subject to sum_{e incident to x} phi(e) <= Q(x),
    phi >= 0; self-loops are skipped.  Returns (value, {edge: phi*}).
    """
    Q = np.asarray(weights.Q, dtype=float)
    if Q.shape != (n_vertices,):
        raise BadParams("weights must provide one value per vertex")
    simple = sorted({(min(i, j), max(i, j)) for i, j in edges if i != j})
    if not simple:
        return 0.0, {}
    m = len(simple)
    A = np.zeros((n_vertices, m))
    for col, (i, j) in enumerate(simple):
        A[i, col] = 1.0
        A[j, col] = 1.0
    res = linprog(
        c=-np.ones(m),
        A_ub=A,
        b_ub=Q,
        bounds=[(0, None)] * m,
        method="highs",
    )
    if not res.success:
        raise LPSolveFailed(f"fractional matching LP failed: {res.message}")
    phi = {e: float(res.x[k]) for k, e in enumerate(simple)}
    return float(-res.fun), phi


def extract_unsaturated_pair(
    L: Iterable[int],
    R: Iterable[int],
    bipartite_edges: Iterable[Edge],
    omega: PairWeighting,
):
    """Drop fractionally saturated vertices, leaving no crossing edges.

    Uses vertex weights Q(x) = sum_y omega(x,y); returns (L0, R0) where
    Q*(x) < Q(x) - tol, guaranteeing omega(L0 x R0) >= omega(L x R) - 2 nu*.
    """
    L = sorted(int(x) for x in L)
    R = sorted(int(x) for x in R)
    if set(L) & set(R):
        raise BadParams("L and R must be disjoint")
    Lset, Rset = set(L), set(R)
    edges = sorted({(min(i, j), max(i, j)) for i, j in bipartite_edges if i != j})
    for i, j in edges:
        cross = (i in Lset and j in Rset) or (i in Rset and j in Lset)
        if not cross:
            raise BadParams(f"edge ({i},{j}) does not cross L-R")
    n = omega.space.n
    Q = omega.marginals()
    value, phi = fractional_matching(n, edges, VertexWeights(Q))
    Qstar = np.zeros(n)
    for (i, j), val in phi.items():
        Qstar[i] += val
        Qstar[j] += val
    L0 = [x for x in L if Qstar[x] < Q[x] - UNSATURATION_TOL]
    R0 = [x for x in R if Qstar[x] < Q[x] - UNSATURATION_TOL]
    return tuple(L0), tuple(R0)


# -------------------------------------------------------------------------
# compatibility
# -------------------------------------------------------------------------


def m_sigma(graph: ThresholdedGraph, x: int, R: float) -> float:
    """Minimum sigma over edges with an endpoint within hop distance R-1 of x.

    Zero for R < 1; +inf when no edge qualifies.  Monotone nonincreasing in R.
    """
    if graph.sigma is None:
        raise BadParams("graph needs sigma on all edges")
    if R < 1:
        return 0.0
    hop = graph.graph_distances(x)
    best = math.inf
    for (i, j), s in graph.sigma.items():
        if hop[i] <= R - 1 or hop[j] <= R - 1:
            best = min(best, s)
    return best


@dataclass(frozen=True)
class CompatibilityReport:
    cond1_ok: bool
    cond1_witness: Optional[tuple]
    cond2_verified: tuple
    cond2_undetermined: tuple
    cond3_ok: bool
    cond3_witness: Optional[tuple]

    @property
    def cond2_all_verified(self) -> bool:
        return not self.cond2_undetermined

    @property
    def ok(self) -> bool:
        return self.cond1_ok and self.cond3_ok and self.cond2_all_verified


def check_compatibility(
    graph: ThresholdedGraph,
    emap: EuclideanMap,
    cert: CompatibilityCertificate,
    mc_samples: int = 2000,
    seed: int = 0,
) -> CompatibilityReport:
    """Check the three conditions a certificate (C, Delta, K) must satisfy.

    Conditions 1 and 3 are exact (BFS over combinatorial balls).  Condition 2
    involves a Gaussian expectation; it is reported per (vertex, neighbor)
    pair as "verified" only when either the sqrt(2 ln m) sufficient bound or
    a Monte Carlo estimate plus three standard errors passes, and
    "undetermined" otherwise -- never a false "verified".
    """
    if graph.sigma is None:
        raise BadParams("graph needs sigma on all edges")
    if emap.n != graph.n:
        raise DimensionMismatch("map size does not match the graph")
    Delta, K, C = cert.Delta, cert.K, cert.C
    if len(Delta) != graph.n or len(K) != graph.n:
        raise DimensionMismatch("certificate size does not match the graph")

    coords = emap.coords
    hops = [graph.graph_distances(x) for x in range(graph.n)]

    # condition 1: Delta(x) <= sigma on every edge near x
    cond1_ok, cond1_witness = True, None
    for x in range(graph.n):
        for (i, j), s in graph.sigma.items():
            if hops[x][i] <= K[x] - 1 or hops[x][j] <= K[x] - 1:
                if Delta[x] > s * (1.0 + _CHECK_SLACK) + 1e-15:
                    cond1_ok, cond1_witness = False, (x, (i, j))
                    break
        if not cond1_ok:
            break

    # condition 3: image of the K(x)-ball inside B(f(x), Delta(x)/C)
    cond3_ok, cond3_witness = True, None
    for x in range(graph.n):
        ball = np.flatnonzero(hops[x] <= K[x])
        radii = np.linalg.norm(coords[ball] - coords[x], axis=1)
        worst = int(np.argmax(radii))
        if radii[worst] > (Delta[x] / C) * (1.0 + _CHECK_SLACK) + 1e-15:
            cond3_ok, cond3_witness = False, (x, int(ball[worst]))
            break

    # condition 2: Gaussian expected maximum over the K(y)-ball around y
    verified, undetermined = [], []
    rng = substream(seed, "compat", "cond2")
    for x in range(graph.n):
        for y in graph.neighbors(x):
            ball = np.flatnonzero(hops[y] <= K[y])
            diffs = coords[ball] - coords[y]
            m = len(ball)
            budget = K[x] * Delta[y]
            if m <= 1:
                verified.append((x, y))
                continue
            maxrad = float(np.max(np.linalg.norm(diffs, axis=1)))
            if math.sqrt(2.0 * math.log(m)) * maxrad <= budget * (1.0 + _CHECK_SLACK):
                verified.append((x, y))
                continue
            V = rng.standard_normal((mc_samples, emap.dim))
            maxima = (V @ diffs.T).max(axis=1)
            mean = float(maxima.mean())
            stderr = float(maxima.std(ddof=1) / math.sqrt(mc_samples))
            if mean + 3.0 * stderr <= budget:
                verified.append((x, y))
            else:
                undetermined.append((x, y))

    return CompatibilityReport(
        cond1_ok=cond1_ok,
        cond1_witness=cond1_witness,
        cond2_verified=tuple(verified),
        cond2_undetermined=tuple(undetermined),
        cond3_ok=cond3_ok,
        cond3_witness=cond3_witness,
    )


def empirical_matching_bound(
    graph: ThresholdedGraph,
    emap: EuclideanMap,
    C: float,
    n_samples: int,
    seed: int = 0,
) -> dict:
    """Monte Carlo estimate of the expected matching number after sparsification.

    Samples standard Gaussian directions, computes the matching number of each
    sparsified graph, and compares mean + 2 stderr with 6 e^{-C^2/4} |V|.
    """
    if C < 1:
        raise BadParams("C must be >= 1")
    rng = substream(seed, "matching-bound")
    values = np.empty(n_samples)
    cache: Dict[tuple, int] = {}
    for k in range(n_samples):
        v = rng.standard_normal(emap.dim)
        kept = sparsify_directional(graph, emap, v)
        nu = cache.get(kept)
        if nu is None:
            nu = max_matching(graph.n, kept)
            cache[kept] = nu
        values[k] = nu
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    bound = 6.0 * math.exp(-0.25 * C * C) * graph.n
    return {
        "mean": mean,
        "stderr": stderr,
        "bound": bound,
        "pass": mean + 2.0 * stderr < bound,
        "n_samples": n_samples,
    }


# -------------------------------------------------------------------------
# JSON
# -------------------------------------------------------------------------


def graph_to_json(graph: ThresholdedGraph, cert: Optional[CompatibilityCertificate] = None) -> dict:
    obj = {"edges": [list(e) for e in graph.edges]}
    if graph.sigma is not None:
        obj["sigma"] = [graph.sigma[e] for e in graph.edges]
    if cert is not None:
        obj["cert"] = {
            "C": cert.C,
            "Delta": cert.Delta.tolist(),
            "K": cert.K.tolist(),
        }
    return obj
