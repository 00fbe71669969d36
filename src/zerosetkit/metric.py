"""Finite metric spaces, point measures, instance generators, and embedding diagnostics."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ._rng import _require_int
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
_TRIANGLE_BLOCK = 1 << 16  # element cap on one block of the triangle check
_PAIR_BLOCK = 1 << 16  # element cap on one block of pairwise coordinate differences
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
        """Read-only |f(x) - f(y)| for every pair, computed once per map."""
        return self._image_distances

    @cached_property
    def _image_distances(self) -> np.ndarray:
        E = _pairwise(self.coords, lambda diff: np.sqrt((diff**2).sum(axis=2)))
        E.setflags(write=False)
        return E

    def composed(self, q: np.ndarray) -> "EuclideanMap":
        """x -> self(q[x]), its image distances read from this map's at [q][:, q]."""
        f = EuclideanMap(self.coords[q])
        f.__dict__["_image_distances"] = E = self.image_distances()[q][:, q]  # the cache slot
        E.setflags(write=False)
        return f

    def pair_distances(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``image_distances()[x, y]`` computed alike for these pairs only,
        over blocks of at most _PAIR_BLOCK differences."""
        step = max(1, _PAIR_BLOCK // max(1, self.dim))
        out = np.empty(len(x))
        for s in range(0, len(x), step):
            diff = self.coords[x[s:s + step]] - self.coords[y[s:s + step]]
            out[s:s + step] = np.sqrt((diff**2).sum(axis=1))
        return out


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
    # triangle inequality, first violating (i, j, k) in lexicographic order,
    # over blocks of rows i of at most _TRIANGLE_BLOCK triples (one row when
    # n * n exceeds it), each computed into the same two buffers.  D is
    # exactly symmetric, so (i, j, k) and (j, i, k) have the same slack, and
    # (i, i, k) has slack -2 d(i,k) <= 0: the first violated triple has
    # i < j, and a block's columns j start past its first row.
    rows = max(1, _TRIANGLE_BLOCK // (n * n))
    slack_rows, bad_rows = np.empty((rows, n, n)), np.empty((rows, n, n), dtype=bool)
    for i0 in range(0, n - 1, rows):
        Di = D[i0:i0 + rows]
        j0 = i0 + 1
        slack, bad = slack_rows[:len(Di), :n - j0], bad_rows[:len(Di), :n - j0]
        np.add(Di[:, None, :], D[None, j0:, :], out=slack)
        np.subtract(Di[:, j0:, None], slack, out=slack)  # d(i,j) - (d(i,k) + d(k,j))
        if np.greater(slack, TRIANGLE_TOL, out=bad).any():
            i, j, k = map(int, np.argwhere(bad)[0])
            raise TriangleViolation(i0 + i, j0 + j, k)
    if ids is None:
        ids = tuple(range(n))
    else:
        try:
            ids = tuple(ids)
        except TypeError:
            raise BadParams("'ids' must be a list of point labels") from None
        if len(ids) != n:
            raise BadParams("ids length must match matrix size")
    return FiniteMetricSpace(ids=ids, dist=_frozen(D))


# -------------------------------------------------------------------------
# instance generators
# -------------------------------------------------------------------------


def _pairwise(points: np.ndarray, reduce) -> np.ndarray:
    """``reduce(diff)`` with diff[i, j] = points[i] - points[j], over blocks of
    rows i of at most _PAIR_BLOCK differences (one row when n * d exceeds it),
    so no n * n * d intermediate is built."""
    n, d = points.shape
    rows = max(1, _PAIR_BLOCK // max(1, n * d))
    out = np.empty((n, n))
    for i0 in range(0, n, rows):
        out[i0:i0 + rows] = reduce(points[i0:i0 + rows, None, :] - points[None, :, :])
    return out


def _lp_distances(points: np.ndarray, p: float) -> np.ndarray:
    if math.isinf(p):
        return _pairwise(points, lambda diff: np.abs(diff).max(axis=2))
    return _pairwise(points, lambda diff: (np.abs(diff) ** p).sum(axis=2) ** (1.0 / p))


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
    if n < 2 or not p >= 1 or dim < 1:
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


def _hop_distances(n: int, edges) -> np.ndarray:
    """(n, n) hop distances of the undirected graph on 0..n-1 with these
    edges, inf where there is no path, by a BFS from every source at once.
    The frontier is the list of (source, vertex) pairs first reached at the
    last level, kept as codes source * n + vertex; the next level gathers
    each pair's neighbours from the edges sorted by end, keeps the pairs
    not yet reached, and writes each once.

    Each (source, vertex) pair is in one frontier and gathers deg(vertex)
    neighbours, so the whole BFS is O(n * edges) plus a few numpy calls per
    level: a 1024-point path takes about 0.1 s on a 2-core x86_64 machine.
    Its callers are the diamond and expander generators, for their
    shortest-path metrics, ``ThresholdedGraph.hops``, for the compatibility
    checks, and ``applications.sdp_gl_solve``, for the hop distances of the
    capacity graph; none of them loads scipy.sparse."""
    u, v = np.asarray(edges, dtype=int).reshape(-1, 2).T
    head = np.concatenate([u, v])
    tail = np.concatenate([v, u])[np.argsort(head)]  # each vertex's neighbours, in vertex order
    degree = np.bincount(head, minlength=n)
    first = np.cumsum(degree) - degree
    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    flat = D.reshape(-1)
    source = vertex = np.arange(n)
    level = 0
    while source.size:
        level += 1
        count = degree[vertex]
        ends = np.cumsum(count)
        at = np.arange(ends[-1]) + np.repeat(first[vertex] - (ends - count), count)
        code = np.repeat(source * n, count) + tail[at]
        code = code[flat[code] == np.inf]
        # each pair once: of its copies, the one whose index was written last keeps it
        index = np.arange(code.size, dtype=float)
        flat[code] = index
        code = code[flat[code] == index]
        flat[code] = level
        source, vertex = np.divmod(code, n)
    return D


def _diamond(level: int) -> GeneratedInstance:
    """Level-k diamond graph: start from one unit edge and replace every edge
    by two parallel two-edge paths, k times; shortest-path metric."""
    if level < 0:
        raise BadParams("diamond level must be >= 0")
    edges, n = [(0, 1)], 2
    for _ in range(level):
        grown = []
        for u, v in edges:
            grown += [(u, n), (v, n), (u, n + 1), (v, n + 1)]
            n += 2
        edges = sorted(grown)
    D = _hop_distances(n, edges)
    return GeneratedInstance(FiniteMetricSpace(tuple(range(n)), _frozen(D)))


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
        D = _hop_distances(n, list(edges))
        if np.isfinite(D).all():
            return GeneratedInstance(FiniteMetricSpace(tuple(range(n)), _frozen(D)))
    raise DisconnectedGraph(f"no simple connected {degree}-regular graph found in {retries} tries")


_FAMILIES = ("hamming_cube", "lp_cloud", "diamond", "expander_path_metric", "grid")


def generate_instance(family: str, params: dict, seed: Optional[int] = None) -> GeneratedInstance:
    """Deterministically generate a named test instance; the random families
    (lp_cloud, expander_path_metric) draw from the integer ``seed`` >= 0,
    and no seed (None) means seed 0.

    Coordinate-based families (cube, grid, cloud) also return the identity
    Euclidean map on their native coordinates.
    """
    seed = 0 if seed is None else seed
    _require_int(seed, "seed")
    if seed < 0:
        raise BadParams("seed must be >= 0")
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
_QS_BLOCK = 1 << 16  # element cap on one block of the quasisymmetry check


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
    n = space.n
    near = params.s * D  # d(x, y) <= near[x, z] is the antecedent
    allowed = (1.0 - params.eps) * E * (1.0 + _QS_SLACK) + 1e-15
    # over blocks of x of at most _QS_BLOCK triples (one x when n * n exceeds
    # it); argwhere keeps the lexicographic order of (x, y, z)
    rows = max(1, _QS_BLOCK // (n * n))
    for x0 in range(0, n, rows):
        x1 = x0 + rows
        bad = ((D[x0:x1, :, None] <= near[x0:x1, None, :])
               & (E[x0:x1, :, None] > allowed[x0:x1, None, :]))
        if bad.any():
            x, y, z = map(int, np.argwhere(bad)[0])
            return False, (x0 + x, y, z)
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


def _p_average_scorer(space: FiniteMetricSpace, measure: PointMeasure, p: float):
    """The p-average distortion, Lip(f) times the ratio of p-averaged
    distances (distance over image), as a function of a map f's image
    distances E; its parts that do not depend on the map are computed once."""
    if p < 1:
        raise BadParams("p must be >= 1")
    if len(measure.weights) != space.n:
        raise BadParams("map/measure size does not match the space")
    D = space.dist
    safe = np.where(np.eye(space.n, dtype=bool), 1.0, D)  # E / safe is 0 on the diagonal
    w = np.outer(measure.weights, measure.weights)
    num = float((w * D**p).sum()) ** (1.0 / p)

    def score(E: np.ndarray) -> float:
        with np.errstate(divide="ignore", invalid="ignore"):
            lip = float((E / safe).max())
        den_pow = float((w * E**p).sum())
        if den_pow <= 0.0:
            return math.inf
        return lip * num / den_pow ** (1.0 / p)

    return score


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
