"""Finite metric spaces, point measures, instance generators, and embedding diagnostics."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import networkx as nx
import numpy as np

from .errors import (
    AsymmetricMatrix,
    BadParams,
    DisconnectedGraph,
    NegativeEntry,
    NonInjectiveMap,
    NotNegativeType,
    TooSmall,
    TriangleViolation,
)

TRIANGLE_TOL = 1e-9
PSD_REL_TOL = 1e-9
INJECTIVITY_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only float copy: freezing the caller's own array would leave
    it unwritable, and writing to it would change the built object."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def require_floats(obj, key: str) -> np.ndarray:
    """``obj[key]`` from a JSON input as a float array, or BadParams naming
    the key when it is missing or holds something other than numbers."""
    if not isinstance(obj, dict) or key not in obj:
        raise BadParams(f"JSON input has no {key!r} key")
    try:
        return np.asarray(obj[key], dtype=float)
    except (TypeError, ValueError):
        raise BadParams(f"JSON key {key!r} must hold numbers") from None


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Point labels plus a validated square distance matrix."""

    ids: tuple
    dist: np.ndarray

    @property
    def n(self) -> int:
        return len(self.ids)

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

    @property
    def diam(self) -> float:
        return float(self.dist.max())

    @property
    def min_positive_distance(self) -> float:
        n = self.n
        off = self.dist[~np.eye(n, dtype=bool)]
        return float(off.min())


@dataclass(frozen=True)
class PointMeasure:
    """One strictly positive mass per point."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen(self.weights)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise BadParams("measure must be a nonempty vector")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise BadParams("every point mass must be strictly positive and finite")

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def ball_mass(self, space: FiniteMetricSpace, i: int, r: float) -> float:
        return float(self.weights[space.dist[i] <= r].sum())


@dataclass(frozen=True)
class EuclideanMap:
    """A coordinate vector per point of an attached space."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 2:
            raise BadParams("coords must be a 2-D array (points x dim)")
        if not np.all(np.isfinite(c)):
            raise BadParams("coordinates must be finite")
        object.__setattr__(self, "coords", _frozen(c))

    @property
    def dim(self) -> int:
        return int(self.coords.shape[1])

    @property
    def n(self) -> int:
        return int(self.coords.shape[0])

    def image_distances(self) -> np.ndarray:
        diff = self.coords[:, None, :] - self.coords[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))


@dataclass(frozen=True)
class QuasiParams:
    """Comparison ratio s and contraction gap eps, both in (0, 1)."""

    s: float
    eps: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0 and 0.0 < self.eps < 1.0):
            raise BadParams("require 0 < s < 1 and 0 < eps < 1")


@dataclass(frozen=True)
class EmbeddingReport:
    lipschitz: float
    inverse_lipschitz: float
    distortion: float
    worst_expansion_pair: Optional[tuple] = None
    worst_contraction_pair: Optional[tuple] = None


@dataclass(frozen=True)
class GeneratedInstance:
    space: FiniteMetricSpace
    emap: Optional[EuclideanMap] = None


# -------------------------------------------------------------------------
# validation
# -------------------------------------------------------------------------


def validate_metric(dist, ids=None) -> FiniteMetricSpace:
    """Validate a square matrix as a metric and wrap it.

    Reports the first violated triple (in lexicographic order) on failure.
    """
    D = np.asarray(dist, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise BadParams("distance matrix must be square")
    n = D.shape[0]
    if n < 2:
        raise TooSmall("a metric space here contains at least two points")
    if not np.all(np.isfinite(D)):
        raise NegativeEntry("distances must be finite reals")
    if np.any(D < 0):
        raise NegativeEntry("distances must be nonnegative")
    if not np.array_equal(D, D.T):
        raise AsymmetricMatrix("distance matrix must be exactly symmetric")
    if np.any(np.diag(D) != 0):
        raise NegativeEntry("diagonal must be exactly zero")
    zero_off = np.argwhere((D == 0) & ~np.eye(n, dtype=bool))
    if zero_off.size:
        i, j = map(int, zero_off[0])
        raise NegativeEntry(f"distinct points {i},{j} at distance 0")
    # triangle inequality, first violating (i, j, k) in lexicographic order
    slack = D[:, :, None] - (D[:, None, :] + D[None, :, :])  # d(i,j) - d(i,k) - d(k,j)
    bad = np.argwhere(slack > TRIANGLE_TOL)
    if bad.size:
        i, j, k = map(int, bad[0])
        raise TriangleViolation(i, j, k)
    if ids is None:
        ids = tuple(range(n))
    else:
        ids = tuple(ids)
        if len(ids) != n:
            raise BadParams("ids length must match matrix size")
    return FiniteMetricSpace(ids=ids, dist=_frozen(D))


# -------------------------------------------------------------------------
# instance generators
# -------------------------------------------------------------------------


def _lp_distances(points: np.ndarray, p: float) -> np.ndarray:
    diff = np.abs(points[:, None, :] - points[None, :, :])
    if math.isinf(p):
        return diff.max(axis=2)
    return (diff**p).sum(axis=2) ** (1.0 / p)


def _hamming_cube(dim: int) -> GeneratedInstance:
    if dim < 1:
        raise BadParams("cube dim must be >= 1")
    pts = np.array(list(itertools.product((0, 1), repeat=dim)), dtype=float)
    D = _lp_distances(pts, 1.0)
    ids = tuple("".join(str(int(b)) for b in row) for row in pts)
    return GeneratedInstance(FiniteMetricSpace(ids, _frozen(D)), EuclideanMap(pts))


def _grid(rows: int, cols: Optional[int] = None) -> GeneratedInstance:
    cols = rows if cols is None else cols
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise BadParams("grid needs at least 2 points")
    pts = np.array([(i, j) for i in range(rows) for j in range(cols)], dtype=float)
    D = _lp_distances(pts, 1.0)
    ids = tuple(f"{int(i)},{int(j)}" for i, j in pts)
    return GeneratedInstance(FiniteMetricSpace(ids, _frozen(D)), EuclideanMap(pts))


def _lp_cloud(n: int, p: float, dim: int, seed) -> GeneratedInstance:
    if n < 2 or p < 1 or dim < 1:
        raise BadParams("cloud needs n >= 2, p >= 1, dim >= 1")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, dim))
    D = _lp_distances(pts, float(p))
    # distinct with probability one; guard against degenerate draws anyway
    if np.min(D[~np.eye(n, dtype=bool)]) <= 0:
        raise BadParams("degenerate cloud draw produced coincident points")
    return GeneratedInstance(
        FiniteMetricSpace(tuple(range(n)), _frozen(D)), EuclideanMap(pts)
    )


def _diamond(level: int) -> GeneratedInstance:
    """Level-k diamond graph: start from one unit edge and replace every edge
    by two parallel two-edge paths, k times; shortest-path metric."""
    if level < 0:
        raise BadParams("diamond level must be >= 0")
    G = nx.Graph()
    G.add_edge(0, 1)
    nxt = 2
    for _ in range(level):
        H = nx.Graph()
        H.add_nodes_from(G.nodes)
        for u, v in sorted(G.edges()):
            m1, m2 = nxt, nxt + 1
            nxt += 2
            H.add_edges_from([(u, m1), (m1, v), (u, m2), (m2, v)])
        G = H
    nodes = sorted(G.nodes)
    D = _shortest_path_matrix(G, nodes)
    return GeneratedInstance(FiniteMetricSpace(tuple(nodes), _frozen(D)))


def _shortest_path_matrix(G: nx.Graph, nodes) -> np.ndarray:
    n = len(nodes)
    index = {u: i for i, u in enumerate(nodes)}
    D = np.full((n, n), np.inf)
    for u, lengths in nx.all_pairs_shortest_path_length(G):
        for v, l in lengths.items():
            D[index[u], index[v]] = l
    if not np.all(np.isfinite(D)):
        raise DisconnectedGraph("graph is not connected")
    return D


def _expander(n: int, degree: int, seed, retries: int = 100) -> GeneratedInstance:
    """Random regular graph via a union of perfect matchings; shortest-path metric.

    Rejects draws with repeated edges (matchings cannot create self-loops) and
    disconnected results, retrying up to the cap.
    """
    if degree < 3:
        raise BadParams("expander degree must be >= 3")
    if n % 2 != 0:
        raise BadParams("expander needs an even number of vertices")
    if n <= degree:
        raise BadParams("expander needs n > degree")
    rng = np.random.default_rng(seed)
    for _ in range(retries):
        edges = set()
        ok = True
        for _m in range(degree):
            perm = rng.permutation(n)
            for a in range(0, n, 2):
                u, v = int(perm[a]), int(perm[a + 1])
                e = (min(u, v), max(u, v))
                if e in edges:
                    ok = False
                    break
                edges.add(e)
            if not ok:
                break
        if not ok:
            continue
        G = nx.Graph(sorted(edges))
        if G.number_of_nodes() != n or not nx.is_connected(G):
            continue
        D = _shortest_path_matrix(G, sorted(G.nodes))
        return GeneratedInstance(FiniteMetricSpace(tuple(range(n)), _frozen(D)))
    raise DisconnectedGraph(f"no simple connected {degree}-regular graph found in {retries} tries")


_FAMILIES = ("hamming_cube", "lp_cloud", "diamond", "expander_path_metric", "grid")


def generate_instance(family: str, params: dict, seed=None) -> GeneratedInstance:
    """Deterministically generate a named test instance.

    Coordinate-based families (cube, grid, cloud) also return the identity
    Euclidean map on their native coordinates.
    """
    params = dict(params or {})
    if family == "hamming_cube":
        return _hamming_cube(int(params.get("dim", 3)))
    if family == "grid":
        rows = int(params.get("rows", params.get("dim", 4)))
        cols = params.get("cols")
        return _grid(rows, None if cols is None else int(cols))
    if family == "lp_cloud":
        return _lp_cloud(
            int(params.get("n", 16)),
            float(params.get("p", 2.0)),
            int(params.get("dim", 3)),
            seed,
        )
    if family == "diamond":
        return _diamond(int(params.get("level", 1)))
    if family == "expander_path_metric":
        return _expander(int(params.get("n", 8)), int(params.get("degree", 3)), seed)
    raise BadParams(f"unknown family {family!r}; choose one of {_FAMILIES}")


# -------------------------------------------------------------------------
# negative type / snowflakes
# -------------------------------------------------------------------------


def _schoenberg_matrix(D: np.ndarray) -> np.ndarray:
    """Gram-style matrix (d(x0,x) + d(x0,y) - d(x,y)) / 2 over points != x0."""
    g = D[0, 1:]
    return (g[:, None] + g[None, :] - D[1:, 1:]) / 2.0


def _schoenberg_eigh(D: np.ndarray):
    """Eigenpairs of the Schoenberg matrix of D, and whether it passes the
    relative PSD test."""
    vals, vecs = np.linalg.eigh(_schoenberg_matrix(D))
    return vals, vecs, vals[0] >= -PSD_REL_TOL * max(float(vals[-1]), 1e-30)


def negative_type_test(space: FiniteMetricSpace):
    """PSD test of the base-point Gram matrix; witness eigenvector when false."""
    _vals, vecs, psd = _schoenberg_eigh(space.dist)
    if psd:
        return True, None
    return False, vecs[:, 0].copy()


def snowflake_embed(space: FiniteMetricSpace, theta: float) -> EuclideanMap:
    """Isometric Euclidean realization of the theta-snowflake d^theta.

    Requires the doubled power d^(2*theta) to pass the PSD criterion; the
    factorization then reproduces d^theta distances to within rounding.
    """
    if not (0.0 < theta <= 1.0):
        raise BadParams("theta must lie in (0, 1]")
    vals, vecs, psd = _schoenberg_eigh(space.dist ** (2.0 * theta))
    if not psd:
        raise NotNegativeType(
            f"d^{2 * theta:g} is not of negative type (min eigenvalue {vals[0]:.3e})"
        )
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :]
    coords = np.vstack([np.zeros((1, root.shape[1])), root])
    return EuclideanMap(coords)


# -------------------------------------------------------------------------
# embedding diagnostics
# -------------------------------------------------------------------------

_QS_SLACK = 1e-9  # relative slack absorbing float noise in the comparison test


def _require_injective(space: FiniteMetricSpace, emap: EuclideanMap) -> np.ndarray:
    if emap.n != space.n:
        raise BadParams("map size does not match the space")
    E = emap.image_distances()
    n = space.n
    mask = ~np.eye(n, dtype=bool)
    if np.min(E[mask]) <= INJECTIVITY_TOL:
        raise NonInjectiveMap("two points share an image (within tolerance)")
    return E


def quasisym_check(space: FiniteMetricSpace, emap: EuclideanMap, params: QuasiParams):
    """Exhaustively test d(x,y) <= s d(x,z)  =>  |im x - im y| <= (1-eps)|im x - im z|.

    Returns (True, None) or (False, first violating ordered triple).
    """
    E = _require_injective(space, emap)
    D = space.dist
    s, eps = params.s, params.eps
    for x in range(space.n):
        antecedent = D[x][:, None] <= s * D[x][None, :]
        allowed = (1.0 - eps) * E[x][None, :]
        bad = antecedent & (E[x][:, None] > allowed * (1.0 + _QS_SLACK) + 1e-15)
        hits = np.argwhere(bad)
        if hits.size:
            y, z = map(int, hits[0])
            return False, (x, y, z)
    return True, None


def distortion(space: FiniteMetricSpace, emap: EuclideanMap) -> EmbeddingReport:
    """Worst-pair expansion times worst-pair contraction."""
    E = _require_injective(space, emap)
    n = space.n
    iu = np.triu_indices(n, k=1)
    d = space.dist[iu]
    e = E[iu]
    ratios = e / d
    hi = int(np.argmax(ratios))
    lo = int(np.argmin(ratios))
    lip = float(ratios[hi])
    inv_lip = float(1.0 / ratios[lo])
    return EmbeddingReport(
        lipschitz=lip,
        inverse_lipschitz=inv_lip,
        distortion=lip * inv_lip,
        worst_expansion_pair=(int(iu[0][hi]), int(iu[1][hi])),
        worst_contraction_pair=(int(iu[0][lo]), int(iu[1][lo])),
    )


def p_average_distortion(
    space: FiniteMetricSpace, emap: EuclideanMap, measure: PointMeasure, p: float
) -> float:
    """Lip(f) times the ratio of p-averaged distances, distance over image."""
    if p < 1:
        raise BadParams("p must be >= 1")
    if emap.n != space.n or len(measure.weights) != space.n:
        raise BadParams("map/measure size does not match the space")
    E = emap.image_distances()
    D = space.dist
    n = space.n
    mask = ~np.eye(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        lip = float(np.max(np.where(mask, E / np.where(mask, D, 1.0), 0.0)))
    w = np.outer(measure.weights, measure.weights)
    num = float((w * D**p).sum()) ** (1.0 / p)
    den_pow = float((w * E**p).sum())
    if den_pow <= 0.0:
        return math.inf
    return lip * num / den_pow ** (1.0 / p)


# -------------------------------------------------------------------------
# JSON round trip
# -------------------------------------------------------------------------


def instance_to_json(
    space: FiniteMetricSpace,
    emap: Optional[EuclideanMap] = None,
    measure: Optional[PointMeasure] = None,
) -> dict:
    obj = {"ids": list(space.ids), "dist": space.dist.tolist()}
    if emap is not None:
        obj["coords"] = emap.coords.tolist()
    if measure is not None:
        obj["measure"] = measure.weights.tolist()
    return obj


def instance_from_json(obj: dict):
    space = validate_metric(require_floats(obj, "dist"), ids=obj.get("ids"))
    emap = EuclideanMap(require_floats(obj, "coords")) if obj.get("coords") else None
    measure = PointMeasure(require_floats(obj, "measure")) if obj.get("measure") else None
    if emap is not None and emap.n != space.n:
        raise BadParams(f"'coords' has {emap.n} rows for {space.n} points")
    if measure is not None and measure.weights.size != space.n:
        raise BadParams(f"'measure' has {measure.weights.size} masses for {space.n} points")
    return space, emap, measure
