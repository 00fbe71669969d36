"""Thresholded graphs, directional sparsification, matchings, and compatibility checks."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ._rng import _require_count, substream
from .errors import BadParams, DimensionMismatch, LPSolveFailed, RhoBelowOne
from .metric import EuclideanMap, FiniteMetricSpace, _hop_distances

Edge = Tuple[int, int]

UNSATURATION_TOL = 1e-9
MC_SAMPLES = 2000  # Gaussian draws per Monte Carlo estimate in check_compatibility
_CHECK_SLACK = 1e-9  # relative slack absorbing float noise in exact comparisons
_BLOCK = 1 << 20  # element cap on blocked intermediates (graphs, compression, randomzero)


@dataclass(frozen=True)
class ThresholdedGraph:
    """Vertex set of a metric space, an edge set (self-loops allowed), and
    optional nonnegative edge labels sigma, given as any sequence of pairs and
    values aligned with them.  Both are kept read-only: ``edges`` as an (E, 2)
    int array of rows i <= j in lexicographic order, ``sigma`` in row order."""

    space: FiniteMetricSpace
    edges: np.ndarray
    sigma: Optional[np.ndarray] = None

    def __post_init__(self):
        pairs = np.sort(np.asarray(self.edges, dtype=int).reshape(-1, 2))
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        edges = pairs[order]
        outside = (edges < 0) | (edges >= self.space.n)
        if outside.any():
            i, j = edges[outside.any(axis=1).argmax()].tolist()
            raise BadParams(f"edge ({i},{j}) endpoint outside the space")
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        if self.sigma is not None:
            sigma = np.asarray(self.sigma, dtype=float)
            if sigma.shape != (len(pairs),):
                raise BadParams("sigma must provide one value per edge")
            if not (sigma >= 0).all():  # NaN fails it
                raise BadParams("sigma must be nonnegative")
            sigma = sigma[order]
            sigma.setflags(write=False)
            object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return self.space.n

    def with_sigma(self, sigma) -> "ThresholdedGraph":
        """This graph labelled by sigma (aligned with ``edges``), sharing its
        caches: hops and components read the edges alone."""
        g = ThresholdedGraph(space=self.space, edges=self.edges, sigma=sigma)
        g.__dict__.update({**vars(self), "sigma": g.sigma})
        return g

    def loopless_edges(self) -> np.ndarray:
        """The rows of ``edges`` that are not self-loops."""
        return self.edges[self.edges[:, 0] != self.edges[:, 1]]

    @cached_property
    def hops(self) -> np.ndarray:
        """Read-only (n, n) hop distances (inf when unreachable), by one BFS
        from every source at once (``_hop_distances``)."""
        hops = _hop_distances(self.n, self.edges)
        hops.setflags(write=False)
        return hops

    @cached_property
    def components(self) -> tuple:
        """Connected components as sorted index tuples, ordered by minimum id.

        Every vertex is a component member even if isolated.  Computed once
        per graph (the edges are frozen).
        """
        label = self.component_of
        members = np.argsort(label, kind="stable")
        return tuple(tuple(c.tolist())
                     for c in np.split(members, np.cumsum(np.bincount(label))[:-1]))

    @cached_property
    def component_of(self) -> np.ndarray:
        """Read-only label per vertex: its index in ``components``, which are
        numbered in the order of their first vertex."""
        label = _component_labels(self.n, self.edges)
        label.setflags(write=False)
        return label

    @cached_property
    def same_component(self) -> np.ndarray:
        """Read-only (n, n) mask of the vertex pairs in one component."""
        label = self.component_of
        same = label[:, None] == label[None, :]
        same.setflags(write=False)
        return same


def _component_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Connected-component labels of the vertices 0..n-1 under the (E, 2)
    ``edges``, numbered in the order of each component's first vertex.

    Every vertex points at a root with an id no larger than its own, so a
    component's last root is its first vertex.  Each round hooks the larger
    root of every edge that joins two trees under the smaller one
    (``_hook``).  A tree that neither hooks nor is hooked under lies next to
    a smaller root afterwards and hooks in the next round, so a component's
    trees at least halve every two rounds.
    """
    root = np.arange(n)
    i, j = edges[edges[:, 0] != edges[:, 1]].T
    while i.size:
        a, b = root[i], root[j]
        # an edge inside one tree stays inside it
        joins = a != b
        i, j, a, b = i[joins], j[joins], a[joins], b[joins]
        if i.size:
            root = _hook(root, np.maximum(a, b), np.minimum(a, b))
    # each root is its component's first vertex: number the roots in order
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def _hook(root: np.ndarray, high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """One hooking round: each root of ``high`` points at the least of its
    ``low`` partners, and pointers jump until every vertex points at a root."""
    np.minimum.at(root, high, low)
    while True:
        up = root[root]
        if np.array_equal(up, root):
            return root
        root = up


@dataclass(frozen=True)
class CompatibilityCertificate:
    """Per-vertex scales (Delta, K) witnessing C-compatibility."""

    C: float
    Delta: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        D = np.asarray(self.Delta, dtype=float)
        K = np.asarray(self.K, dtype=int)
        if not self.C > 0:
            raise BadParams("C must be positive")
        if not (D >= 0).all():  # NaN fails it
            raise BadParams("Delta must be nonnegative")
        if np.any(K < 1):
            raise BadParams("K must be a positive integer per vertex")
        object.__setattr__(self, "Delta", D)
        object.__setattr__(self, "K", K)


@dataclass(frozen=True)
class VertexWeights:
    """A finite nonnegative weight Q(x) per vertex: for the unsaturated-pair
    extractor, the marginals Q(x) = sum_y omega(x, y) of a pair weighting
    omega."""

    Q: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if Q.ndim != 1:
            raise BadParams("vertex weights must be one value per vertex")
        if not (np.isfinite(Q) & (Q >= 0)).all():
            raise BadParams("vertex weights must be finite and nonnegative")
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
    if not tau > 0:
        raise BadParams("tau must be positive")
    close = space.dist <= tau / np.minimum(rho[:, None], rho[None, :])
    return ThresholdedGraph(space=space, edges=np.argwhere(np.triu(close)))


def sparsify_directional(graph: ThresholdedGraph, emap: EuclideanMap, v) -> np.ndarray:
    """The rows of ``graph.edges`` whose image difference projects onto v
    beyond 4*sigma.

    The strict inequality means self-loops never survive.
    """
    if graph.sigma is None:
        raise BadParams("graph needs sigma on all edges")
    v = np.asarray(v, dtype=float)
    if v.shape != (emap.dim,):
        raise DimensionMismatch("direction dimension does not match the map")
    proj = emap.coords @ v
    i, j = graph.edges.T
    return graph.edges[np.abs(proj[i] - proj[j]) > 4.0 * graph.sigma]


# -------------------------------------------------------------------------
# matchings
# -------------------------------------------------------------------------


def _simple_edges(n_vertices: int, edges: Iterable[Edge]) -> list:
    """The distinct loopless edges as pairs (i, j) with i < j, in increasing
    order; an endpoint outside 0..n_vertices-1 is ``BadParams``."""
    pairs = [(min(i, j), max(i, j)) for i, j in edges]
    for i, j in pairs:
        if i < 0 or j >= n_vertices:
            raise BadParams(f"edge ({i},{j}) has an endpoint outside 0..{n_vertices - 1}")
    return sorted({(i, j) for i, j in pairs if i != j})


def max_matching(n_vertices: int, edges: Iterable[Edge]) -> int:
    """Exact maximum matching size of a general graph; self-loops ignored.

    The matching model of ``fractional_matching`` at capacity 1 with integer
    columns, solved by HiGHS's branch and bound.  Its stop is the optimum:
    the relative gap is set to 0, and the absolute gap (1e-6 by default) is
    below the step 1 between the integral objective's values.
    """
    simple = _simple_edges(n_vertices, edges)
    if not simple:
        return 0
    value, _phi = _matching_lp("maximum matching MIP", simple, np.ones(n_vertices), integral=True)
    return round(value)


def max_matching_bruteforce(n_vertices: int, edges: Iterable[Edge]) -> int:
    """Independent branch-and-bound oracle for cross-checking max_matching."""
    simple = _simple_edges(n_vertices, edges)

    def rec(idx: int, used: int) -> int:
        best = 0
        for k in range(idx, len(simple)):
            i, j = simple[k]
            if used & (1 << i) or used & (1 << j):
                continue
            best = max(best, 1 + rec(k + 1, used | (1 << i) | (1 << j)))
        return best

    return rec(0, 0)


_HIGHS = "scipy.optimize._highspy._core"


@cache
def _highs():
    """scipy's pybind11 binding of HiGHS, the module ``_HIGHS``, which every
    LP of the package solves through.  It is the loaded module when there
    is one; otherwise its extension file is loaded from scipy's directory
    under its own name, without importing scipy.optimize, and registered,
    so a later import of scipy.optimize finds it."""
    if _HIGHS in sys.modules:
        return sys.modules[_HIGHS]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    path = os.path.join(os.path.dirname(spec.origin), "optimize", "_highspy",
                        "_core" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy's HiGHS binding {_HIGHS} is not at {path}", name=_HIGHS,
                          path=path)
    loader = importlib.machinery.ExtensionFileLoader(_HIGHS, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_HIGHS, loader))
    loader.exec_module(module)
    sys.modules[_HIGHS] = module
    return module


def _highs_model(c: np.ndarray, entries, row_upper: np.ndarray, col_lower=None, a_eq=None):
    """HiGHS model of min c.y over y >= ``col_lower`` (0 by default) with
    A y <= ``row_upper``, for A's entries (row, col, value) with rows ascending
    in each column, and a_eq.y = 1 as a last row without its zero entries if
    ``a_eq`` is given: column-wise, presolve on, dual simplex, no output."""
    highs = _highs()
    row, col, value = entries
    row_lower = np.full(row_upper.size, -highs.kHighsInf)
    if a_eq is not None:
        eq = np.flatnonzero(a_eq)
        row, col = np.append(row, np.full(eq.size, row_upper.size)), np.append(col, eq)
        value = np.append(value, a_eq[eq])
        row_lower, row_upper = np.append(row_lower, 1.0), np.append(row_upper, 1.0)
    order = np.argsort(col, kind="stable")  # rows stay ascending within a column
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = row_upper.size
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.append(0, np.cumsum(np.bincount(col, minlength=c.size)))
    lp.a_matrix_.index_ = row[order]
    lp.a_matrix_.value_ = value[order]
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(c.size) if col_lower is None else col_lower
    lp.col_upper_ = np.full(c.size, highs.kHighsInf)
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    model = highs._Highs()
    dual = int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    for option, setting in (("output_flag", False), ("log_to_console", False),
                            ("presolve", "on"), ("simplex_strategy", dual)):
        model.setOptionValue(option, setting)
    model.passModel(lp)
    return model


def _solve_lp(what: str, model) -> Tuple[float, np.ndarray]:
    """Run ``model``: its optimal value and solution, or ``LPSolveFailed`` naming ``what``."""
    model.run()
    status = model.getModelStatus()
    if status != _highs().HighsModelStatus.kOptimal:
        raise LPSolveFailed(f"{what} failed: {model.modelStatusToString(status)}")
    return model.getInfo().objective_function_value, np.array(model.getSolution().col_value)


def _matching_lp(what: str, simple: list, capacity: np.ndarray, integral: bool = False):
    """Maximize sum phi(e) over the ``simple`` edges subject to
    sum_{e incident to x} phi(e) <= capacity(x) and phi >= 0, integral if
    ``integral``: the optimal value and phi in edge order."""
    k = len(simple)
    # the vertex-edge incidence matrix: column e has rows i < j of edge e = (i, j)
    col = np.repeat(np.arange(k), 2)
    model = _highs_model(-np.ones(k), (np.ravel(simple), col, np.ones(2 * k)), capacity)
    if integral:
        model.changeColsIntegrality(k, np.arange(k), np.full(k, _highs().HighsVarType.kInteger))
        model.setOptionValue("mip_rel_gap", 0.0)
    value, phi = _solve_lp(what, model)
    return -value, phi


def fractional_matching(n_vertices: int, edges: Iterable[Edge], weights: VertexWeights):
    """Exact LP value of the vertex-capacitated fractional matching.

    Maximize sum phi(e) subject to sum_{e incident to x} phi(e) <= Q(x),
    phi >= 0; self-loops are skipped.  Returns (value, {edge: phi*}).
    """
    Q = np.asarray(weights.Q, dtype=float)
    if Q.shape != (n_vertices,):
        raise BadParams("weights must provide one value per vertex")
    simple = _simple_edges(n_vertices, edges)
    if not simple:
        return 0.0, {}
    value, phi = _matching_lp("fractional matching LP", simple, Q)
    return value, dict(zip(simple, phi.tolist()))


def extract_unsaturated_pair(
    L: np.ndarray,
    R: np.ndarray,
    bipartite_edges,
    weights: VertexWeights,
) -> Tuple[np.ndarray, np.ndarray]:
    """Drop fractionally saturated vertices, leaving no crossing edges.

    ``L`` and ``R`` are disjoint point masks and every edge (a pair of
    points, in any order) must join them.  For ``weights`` the marginals
    Q(x) = sum_y omega(x, y) of a pair weighting omega, returns the masks
    (L0, R0) of the points of L and R with Q*(x) < Q(x) - tol, guaranteeing
    omega(L0 x R0) >= omega(L x R) - 2 nu*.
    """
    Q = weights.Q
    n = len(Q)
    L = np.asarray(L)
    R = np.asarray(R)
    if L.shape != (n,) or R.shape != (n,) or L.dtype != bool or R.dtype != bool:
        raise BadParams("L and R must be boolean point masks, one entry per weight")
    if (L & R).any():
        raise BadParams("L and R must be disjoint")
    edges = _simple_edges(n, np.asarray(bipartite_edges, dtype=int).reshape(-1, 2).tolist())
    i, j = np.array(edges, dtype=int).reshape(-1, 2).T
    stray = ~((L[i] & R[j]) | (R[i] & L[j]))
    if stray.any():
        k = stray.argmax()
        raise BadParams(f"edge ({i[k]},{j[k]}) does not cross L-R")
    Qstar = 0.0
    if edges:
        _value, phi = _matching_lp("fractional matching LP", edges, Q)
        # each edge's value added to its two ends, in edge order
        Qstar = np.bincount(np.ravel(edges), np.repeat(phi, 2), minlength=n)
    free = unsaturated(Q, Qstar)
    return L & free, R & free


def unsaturated(Q: np.ndarray, Qstar=0.0) -> np.ndarray:
    """Points whose matched weight ``Qstar`` (none by default) falls short of
    their vertex weight ``Q`` by more than the tolerance."""
    return Qstar < Q - UNSATURATION_TOL


# -------------------------------------------------------------------------
# compatibility
# -------------------------------------------------------------------------


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
    seed: int = 0,
) -> CompatibilityReport:
    """Check the three conditions a certificate (C, Delta, K) must satisfy.

    Conditions 1 and 3 are exact (combinatorial balls read off the graph's
    hop matrix).  Condition 2 involves a Gaussian expectation; it is reported
    per (vertex, neighbor) pair as "verified" only when either the
    sqrt(2 ln m) sufficient bound or a Monte Carlo estimate plus three
    standard errors passes, and "undetermined" otherwise -- never a false
    "verified".
    """
    if graph.sigma is None:
        raise BadParams("graph needs sigma on all edges")
    if emap.n != graph.n:
        raise DimensionMismatch("map size does not match the graph")
    Delta, K, C = cert.Delta, cert.K, cert.C
    if len(Delta) != graph.n or len(K) != graph.n:
        raise DimensionMismatch("certificate size does not match the graph")

    coords = emap.coords
    hops = graph.hops

    # condition 1: Delta(x) <= sigma on every edge near x; the first x, then
    # the first edge in edge order, in blocks of vertex rows
    cond1_ok, cond1_witness = True, None
    i, j = graph.edges.T
    cap = graph.sigma * (1.0 + _CHECK_SLACK) + 1e-15
    step = max(1, _BLOCK // max(graph.n, len(cap)))
    for lo in range(0, graph.n, step):
        near = hops[lo:lo + step] <= K[lo:lo + step, None] - 1
        bad = (near[:, i] | near[:, j]) & (Delta[lo:lo + step, None] > cap)
        if bad.any():
            x, e = np.argwhere(bad)[0]
            cond1_ok, cond1_witness = False, (lo + int(x), (int(i[e]), int(j[e])))
            break

    # per point v, the image radii |f(z) - f(v)| over its K(v)-ball, one ball
    # at a time, kept as what the checks read: the farthest ball point
    # (condition 3 at v = x) and the sqrt(2 ln m) bound (condition 2 at v = y,
    # 0 when the ball holds v only)
    far = np.empty(graph.n, dtype=int)
    maxrad = np.empty(graph.n)
    bound = np.empty(graph.n)
    for v in range(graph.n):
        ball = np.flatnonzero(hops[v] <= K[v])
        radii = np.linalg.norm(coords[ball] - coords[v], axis=1)
        worst = int(np.argmax(radii))
        far[v], maxrad[v] = ball[worst], radii[worst]
        bound[v] = math.sqrt(2.0 * math.log(len(ball))) * float(radii[worst])

    # condition 3: image of the K(x)-ball inside B(f(x), Delta(x)/C); the first x
    bad = np.flatnonzero(maxrad > (Delta / C) * (1.0 + _CHECK_SLACK) + 1e-15)
    cond3_ok = bad.size == 0
    cond3_witness = None if cond3_ok else (int(bad[0]), int(far[bad[0]]))

    # condition 2: Gaussian expected maximum over the K(y)-ball around y, for
    # every neighbor y of x (x itself when it carries a self-loop), in sorted
    # order; the bound depends on y alone, the budget K(x) Delta(y) on the
    # pair, and the Monte Carlo branch rebuilds y's ball
    adjacent = np.zeros((graph.n, graph.n), dtype=bool)
    adjacent[i, j] = adjacent[j, i] = True
    xs, ys = np.nonzero(adjacent)
    budget = K[xs] * Delta[ys]
    easy = bound[ys] <= budget * (1.0 + _CHECK_SLACK)
    verified, undetermined = [], []
    rng = substream(seed, "compat", "cond2")
    for x, y, b, ok in zip(xs.tolist(), ys.tolist(), budget.tolist(), easy.tolist()):
        if not ok:
            V = rng.standard_normal((MC_SAMPLES, emap.dim))
            ball = np.flatnonzero(hops[y] <= K[y])
            maxima = (V @ (coords[ball] - coords[y]).T).max(axis=1)
            mean = float(maxima.mean())
            stderr = float(maxima.std(ddof=1) / math.sqrt(MC_SAMPLES))
            ok = mean + 3.0 * stderr <= b
        (verified if ok else undetermined).append((x, y))

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

    On a compression's graph the bound holds with room to spare: an edge
    (x, y) has y in the same-component 2*tau-balls of both ends, so
    sigma(x, y) >= Delta(y) >= C |f(x) - f(y)|, and the edge survives a
    direction v only when |<u, v>| > 4C for a unit vector u, a Gaussian tail
    of about 1e-57 at C = 4.
    """
    if not C >= 1:
        raise BadParams("C must be >= 1")
    _require_count(n_samples, "n_samples")
    rng = substream(seed, "matching-bound")
    values = np.empty(n_samples)
    cache: Dict[bytes, int] = {}  # matching number per set of kept rows
    for k in range(n_samples):
        v = rng.standard_normal(emap.dim)
        kept = sparsify_directional(graph, emap, v)
        key = kept.tobytes()
        if key not in cache:
            cache[key] = max_matching(graph.n, kept.tolist())
        values[k] = cache[key]
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
