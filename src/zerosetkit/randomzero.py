"""Random zero sets: slab/layered randomness, the good-graph builder, the
separated-pair pipeline, duality, scale gluing, and the general-metric sampler."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._rng import RandomnessSpec, _require_count, _require_int, raw_words
from .compression import ZETA, CompressionOutput, universal_compression
from .errors import (
    BadParams,
    ConclusionViolated,
    EmptySupport,
    IterationCapExceeded,
    MinDistanceViolated,
    ModerationViolated,
    PairTooClose,
    QuasisymmetryViolated,
    RejectionCapExceeded,
    TauExceedsDiameter,
    ZerosetkitError,
)
from .graphs import (
    _BLOCK,
    UNSATURATION_TOL,
    ThresholdedGraph,
    VertexWeights,
    _highs_model,
    _solve_lp,
    extract_unsaturated_pair,
    unsaturated,
)
from .metric import EuclideanMap, FiniteMetricSpace, PointMeasure, QuasiParams, quasisym_check

LAYER_ALPHA = math.log(2.0)  # layer-width constant used by the per-component sampler
PIPELINE_ALPHA = 2.0  # the separated-pair pipeline's alpha: r = ZETA*alpha, beta = s^(alpha/eps)
DRAWS_PER_ROUND = 8  # separated-pair draws added to the column pool per duality round
ITERATION_CAP = 10**6  # centres per stopping-time draw before IterationCapExceeded
REJECTION_CAP = 10**3  # empty draws per index before RejectionCapExceeded
_SLACK = 1e-9
_HALF_TOP_BITS = np.array([31, 63], dtype=np.uint64)  # top bits of a word's low and high halves

# -------------------------------------------------------------------------
# the tent function
# -------------------------------------------------------------------------


def tent(s: float) -> float:
    """Joint shift probability of landing in (L, R) at separation s."""
    return max(0.25 - abs(0.5 - (s - math.floor(s))), 0.0)


# -------------------------------------------------------------------------
# level functions and layered pair sets
# -------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelFunction:
    """A positive (possibly +inf) level per point."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not (v > 0).all():  # NaN fails it
            raise BadParams("level function must be strictly positive")
        object.__setattr__(self, "values", v)


def _doubles(li: np.ndarray, lj: np.ndarray) -> np.ndarray:
    """Where the level more than doubles between the ends of an edge, given
    its levels li and lj at the ends; never on a self-loop, since levels are
    positive."""
    return (lj > 2.0 * li * (1 + _SLACK)) | (li > 2.0 * lj * (1 + _SLACK))


class _Slabs(NamedTuple):
    """The decoded component streams of a block of draws: per draw (row),
    the slab scale and shift of every finite-level point (shift NaN when the
    point lands in no layer) and the E and F masks of the infinite-level
    points."""

    finite: np.ndarray  # the finite-level points
    scale: np.ndarray  # draws x finite points
    theta: np.ndarray  # draws x finite points
    E: np.ndarray  # draws x points
    F: np.ndarray  # draws x points


class _Layering:
    """Decodes component streams into slabs for points labelled by component
    (``comp``) with levels ``lam``.

    Component c's stream, read as doubles, gives its layer offset r, one
    slab shift theta per layer its points land in (ascending), then the
    branch value u.  A finite level lam falls in layer i = floor(t - r +
    2/3) when t - r < i, with t = log(lam)/(3 alpha); the layer's slabs
    have scale 4 C e^{3 alpha (i + r)}.  As r ranges over [0, 1), i stays in
    [floor((t - 1) + 2/3), floor(t + 2/3)], which bounds the words a stream
    needs before any r is read.  The infinite-level points of a component
    join E or F wholesale by a three-way branch on u with masses
    (2/3, 1/6, 1/6).
    """

    def __init__(self, comp: np.ndarray, lam: np.ndarray, alpha: float, C: float):
        if not (alpha > 0 and C > 0):
            raise BadParams("alpha and C must be positive")
        self.comp = comp
        self.n_components = int(comp.max()) + 1
        self.infinite = ~np.isfinite(lam)
        self.finite = np.flatnonzero(~self.infinite)
        self.fcomp = comp[self.finite]
        # math.log, as the scalar sampler took it: np.log may differ in the last bit
        self.t = np.array([math.log(x) for x in lam[self.finite].tolist()]) / (3.0 * alpha)
        self.alpha3 = 3.0 * alpha
        self.scale = 4.0 * C
        self.n_words = 2
        if self.finite.size:
            self.lowest = int(np.floor((self.t - 1.0) + 2.0 / 3.0).min())
            self.span = int(np.floor(self.t + 2.0 / 3.0).max()) - self.lowest + 1
            # a component has at most one layer per point and per layer index
            self.n_words += min(int(np.bincount(self.fcomp).max()), self.span)

    def decode(self, words: np.ndarray) -> _Slabs:
        """Slabs from the (draws, components, n_words) stream words."""
        unit = (words >> np.uint64(11)) * 2.0**-53
        draws = np.arange(len(unit))[:, None]
        scale = np.ones((len(unit), self.finite.size))
        theta = np.full((len(unit), self.finite.size), np.nan)
        layers = np.zeros((len(unit), self.n_components), dtype=int)
        if self.finite.size:
            c, span = self.fcomp, self.span
            r = unit[:, c, 0]
            d = self.t - r
            i = np.floor(d + 2.0 / 3.0)
            hit = d < i
            # cells (component, layer) in row-major order per draw; a point's
            # cell and the 1-based rank of its layer within its component
            cell = c * span + (i.astype(int) - self.lowest)
            present = np.zeros((len(unit), self.n_components * span), dtype=bool)
            present[np.nonzero(hit)[0], cell[hit]] = True
            count = present.cumsum(axis=1)
            upto = count[:, span - 1::span]  # cells in this and earlier components
            layers = np.diff(upto, axis=1, prepend=0)
            rank = np.take_along_axis(count, cell, axis=1)
            before = (upto - layers)[:, c]
            theta[hit] = unit[draws, c, np.where(hit, rank - before, 0)][hit]
            rows, cells = np.nonzero(present)
            arg = self.alpha3 * ((cells % span + self.lowest) + unit[rows, cells // span, 0])
            layer_scale = self.scale * np.array([math.exp(a) for a in arg.tolist()])
            offset = np.concatenate([[0], upto[:-1, -1].cumsum()])[:, None]
            scale[hit] = layer_scale[(offset + rank - 1)[hit]]
        u = unit[draws, np.arange(self.n_components), 1 + layers]
        E = self.infinite & ((2.0 / 3.0 <= u) & (u < 5.0 / 6.0))[:, self.comp]
        F = self.infinite & (5.0 / 6.0 <= u)[:, self.comp]
        return _Slabs(self.finite, scale, theta, E, F)


def layered_pair_sets(proj: np.ndarray, slabs: _Slabs) -> Tuple[np.ndarray, np.ndarray]:
    """The layered (E, F) pairs of a block's draws (the rows of ``slabs``),
    over every component at once, as (draws, points) masks for the
    projections ``proj`` (draws, points) on each draw's direction.

    A finite-level point with slab coordinate s = (proj / scale - theta)
    mod 1 joins E when s lies in [0, 1/4) and F when it lies in [1/2, 3/4),
    so a point of E and a point of F in one layer differ by > 1/4 of the
    scale; the infinite-level points are already placed.
    """
    s = np.remainder(proj[:, slabs.finite] / slabs.scale - slabs.theta, 1.0)
    E = slabs.E.copy()
    F = slabs.F.copy()
    E[:, slabs.finite] = s < 0.25
    F[:, slabs.finite] = (0.5 <= s) & (s < 0.75)
    return E, F


# -------------------------------------------------------------------------
# per-component separated sampler
# -------------------------------------------------------------------------


class _Block(NamedTuple):
    """A block of draws (rows): their (draws, 2, points) side masks, their
    crossing edges as (draws, ``_edges``) masks, per draw whether it has a
    crossing edge, and per draw its separation fault's message, None when it
    has none."""

    sides: np.ndarray
    cross: np.ndarray
    hit: np.ndarray
    faults: list


class ComponentSeparatedSampler:
    """Draws (A, B) with guaranteed projection separation along graph edges.

    The level function must vary moderately along edges, and same-component
    pairs at distance >= ``tau`` (none when it is None) must be
    image-separated at the level scale; both are checked at construction.
    Every draw deterministically satisfies |<v, f(x) - f(y)>| > C
    max(level(x), level(y)) on crossing edges.

    Draw ``index`` reads component c's stream ``stream("component", index,
    c)`` and its direction from ``directions.stream("direction", index)``
    (default: ``randomness``).  No draw depends on a weighting, so draws are
    made in blocks (``block``): the component streams' words opened together
    (``raw_words``), one ``layered_pair_sets`` call, and every row's crossing
    edges and separation check.  A layering without finite-level points reads
    no direction.
    """

    def __init__(
        self,
        graph: ThresholdedGraph,
        f: EuclideanMap,
        level: LevelFunction,
        tau: Optional[float],
        C: float,
        randomness: RandomnessSpec,
        directions: Optional[RandomnessSpec] = None,
    ):
        if f.n != graph.n:
            raise BadParams("map size does not match the graph")
        if tau is not None and not tau > 0:
            raise BadParams("tau must be positive")
        lam = level.values
        # self-loops never cross: the two sides of a draw are disjoint
        self._edges = graph.loopless_edges()
        li, lj = lam[self._edges].T
        steep = _doubles(li, lj)
        if steep.any():
            raise ModerationViolated(tuple(self._edges[steep.argmax()].tolist()))
        if tau is not None:
            # image distances of the tested pairs only: far, same component
            x, y = np.nonzero((graph.space.dist >= tau) & graph.same_component)
            close = f.pair_distances(x, y) < np.minimum(lam[x], lam[y]) * (1 - _SLACK)
            if close.any():
                k = close.argmax()
                raise MinDistanceViolated((int(x[k]), int(y[k])))
        self.graph = graph
        self.f = f
        self.level = level
        self.C = float(C)
        self.randomness = randomness
        self._layering = _Layering(graph.component_of, lam, LAYER_ALPHA, self.C)
        self._need = self.C * np.maximum(li, lj)
        self._components = randomness.opener("component")
        self._directions = (directions or randomness).opener("direction")

    def block(self, indices) -> _Block:
        """Make the draws ``indices`` (1-d ints, in any order) together."""
        indices = _indices(indices)
        if self._layering.finite.size:
            # one product per draw: a stacked product may sum in another order
            proj = np.array([self.f.coords @ self._directions(k).standard_normal(self.f.dim)
                             for k in indices.tolist()]).reshape(len(indices), self.f.n)
        else:
            # no slab reads a projection, and no edge crosses: infinite-level
            # components join a side wholesale
            proj = np.empty((len(indices), 0))
        nc, n_words = self._layering.n_components, self._layering.n_words
        # the component streams' words, rows (index, component) index-major
        keys = np.column_stack((indices.repeat(nc), np.tile(np.arange(nc), len(indices))))
        words = raw_words([(self._components, keys)], n_words).reshape(len(indices), nc, n_words)
        A, B = layered_pair_sets(proj, self._layering.decode(words))
        cross = self._crosses(A, B)
        hit = cross.any(axis=1)
        faults = self._faults(proj, cross) if hit.any() else [None] * len(indices)
        return _Block(np.stack((A, B), axis=1), cross, hit, faults)

    def _crosses(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Per loopless edge (last axis): does it join side A to side B?"""
        i, j = self._edges.T
        return (A[..., i] & B[..., j]) | (B[..., i] & A[..., j])

    def _faults(self, proj: np.ndarray, cross: np.ndarray) -> list:
        """Per draw (rows of ``proj`` and of the crossing masks ``cross``),
        the message naming its first crossing edge, in ``_edges`` order,
        that is not separated, or None."""
        i, j = self._edges.T
        gap = np.abs(proj[:, i] - proj[:, j])
        bad = cross & ~(gap > self._need)
        faults = [None] * len(cross)
        for row in np.flatnonzero(bad.any(axis=1)).tolist():
            k = bad[row].argmax()
            faults[row] = (f"edge ({i[k]},{j[k]}) violates directional separation: "
                           f"{gap[row, k]} <= {self._need[k]}")
        return faults


# -------------------------------------------------------------------------
# good graphs
# -------------------------------------------------------------------------


@dataclass(frozen=True)
class GoodGraph:
    compression: CompressionOutput
    level: LevelFunction
    beta: float
    C: float
    tau: float

    @property
    def graph(self) -> ThresholdedGraph:
        return self.compression.graph

    @property
    def f(self) -> EuclideanMap:
        return self.compression.f

    @property
    def rho(self) -> np.ndarray:
        return self.compression.rho


def build_level_function(
    space: FiniteMetricSpace,
    graph: ThresholdedGraph,
    E: np.ndarray,
    C: float,
    tau: float,
) -> LevelFunction:
    """Level(x) = C min over tau-separated same-component pairs (w, z) of
    max(E[x, w], E[x, z]), where E[x, y] = |f(x)-f(y)| are the image distances
    of the map f; +inf on components of diameter < tau."""
    lam = np.full(space.n, np.inf)
    # the components holding a tau-far pair
    spans = (space.dist >= tau) & graph.same_component
    for c in np.unique(graph.component_of[spans.any(axis=1)]).tolist():
        comp = np.asarray(graph.components[c])
        a, b = np.nonzero(np.triu(space.dist[np.ix_(comp, comp)] >= tau, k=1))
        if a.size == 0:
            continue
        W, Z = comp[a], comp[b]
        # min over pairs of the larger image distance, in pair blocks so the
        # (component x pairs) intermediate stays bounded
        best = np.full(len(comp), np.inf)
        step = max(1, _BLOCK // len(comp))
        for s in range(0, len(W), step):
            far = np.maximum(E[np.ix_(comp, W[s:s + step])], E[np.ix_(comp, Z[s:s + step])])
            best = np.minimum(best, far.min(axis=1))
        lam[comp] = C * best
    return LevelFunction(lam)


@dataclass(frozen=True)
class _Quasisymmetric(QuasiParams):
    """Comparison parameters under which quasisym_check has passed ``phi`` on ``space``."""

    space: Optional[FiniteMetricSpace] = None
    phi: Optional[EuclideanMap] = None


def _quasisymmetric(space: FiniteMetricSpace, phi: EuclideanMap,
                    params: QuasiParams) -> QuasiParams:
    """``params`` checked for the good graph: 0 < s, eps <= 1/2, and ``phi``
    quasisymmetric on ``space``.  Params this returned are not scanned again
    with that space and map, so one embedding pipeline call scans once."""
    if not (0 < params.s <= 0.5 and 0 < params.eps <= 0.5):
        raise BadParams("require 0 < s, eps <= 1/2")
    if isinstance(params, _Quasisymmetric) and params.space is space and params.phi is phi:
        return params
    ok, witness = quasisym_check(space, phi, params)
    if not ok:
        raise QuasisymmetryViolated(witness)
    return _Quasisymmetric(params.s, params.eps, space, phi)


def good_graph_builder(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    phi: EuclideanMap,
    params: QuasiParams,
    tau: float,
    C: float,
    r: float,
    beta: float,
) -> GoodGraph:
    """Compression at scale (r*C, beta*tau) plus the level function, with the
    promised edge and same-component conclusions asserted.

    C >= 1, tau > 0, r >= 1 and beta > 0 are checked before the O(n^3)
    quasisymmetry scan.  A failed assertion raises ConclusionViolated: the
    conclusions are guaranteed by construction, so a violation is an
    implementation bug.
    """
    if not C >= 1:
        raise BadParams("C must be >= 1")
    if not tau > 0:
        raise BadParams("tau must be positive")
    if not r >= 1:
        raise BadParams("r must be >= 1")
    if not beta > 0:
        raise BadParams("beta must be positive")
    params = _quasisymmetric(space, phi, params)

    comp_out = universal_compression(space, measure, beta * tau, r * C, phi)
    graph = comp_out.graph
    E = comp_out.f.image_distances()
    level = build_level_function(space, graph, E, C, tau)
    lam = level.values

    # the first edge, in edge order, that breaks each conclusion
    li, lj = lam[graph.edges].T
    steep = _doubles(li, lj)
    if steep.any():
        x, y = graph.edges[steep.argmax()].tolist()
        raise ConclusionViolated(f"level function more than doubles on edge ({x},{y})")
    over = 4.0 * graph.sigma > np.minimum(li, lj) * (1 + _SLACK)
    if over.any():
        e = tuple(graph.edges[over.argmax()].tolist())
        raise ConclusionViolated(f"4 sigma exceeds the level function on edge {e}")
    under = np.triu(
        graph.same_component
        & (space.dist >= tau)
        & (C * E < np.maximum(lam[:, None], lam[None, :]) * (1 - _SLACK)),
        k=1,
    )
    if under.any():
        x, y = np.argwhere(under)[0]
        raise ConclusionViolated(
            f"same-component pair ({x},{y}) under-separated in the image"
        )
    return GoodGraph(compression=comp_out, level=level, beta=beta, C=C, tau=tau)


# -------------------------------------------------------------------------
# the separated-pair pipeline
# -------------------------------------------------------------------------


class SeparatedPairSampler:
    """Draws nonempty (A*, B*) with metric separation beta*tau/min(rho).

    Tau, C, beta, rho, the level function, the graph and the map are all
    read from the good graph ``good``.  Each draw samples a Gaussian
    direction, runs the per-component sampler on the C-rescaled realization,
    removes a fractional-matching-sized set via the unsaturated-pair
    extractor, and falls back to a fixed far pair when a side comes out
    empty.  The separation guarantee is asserted on every draw.

    The preconditions are checked once, at construction, on the pairs at
    distance >= tau; the fallback is the first far pair (i, j) in row-major
    order, so i < j.  A draw takes any vertex weights (default ``weights``,
    the marginals of the uniform weighting on those pairs): only
    ``unsaturated`` and the unsaturated-pair extractor read them, and the
    random streams do not depend on them.  Draw ``index`` reads its
    direction from ``stream("direction", index)``; ``draw_masks`` makes one
    inner block of all that does not depend on the weights and finishes its
    rows for them by ``_finish``, the routine ``duality_solve`` finishes each
    round's slice of its block with.  A draw without crossing edges keeps
    the points ``unsaturated`` under the weights; one with them (the block's
    ``hit`` rows) calls the extractor's LP.
    """

    def __init__(self, good: GoodGraph, randomness: RandomnessSpec):
        self.good = good
        self.randomness = randomness
        self.space = good.graph.space
        self.rho, self.beta, self.tau = good.rho, good.beta, good.tau
        self.psi = self.beta * self.tau / self.rho  # far-side guarantee radius per point
        # the inner sampler checks image separation against the C-rescaled
        # map, which matches the level function built at parameter C
        scaled = EuclideanMap(good.f.coords * good.C)
        self._inner = ComponentSeparatedSampler(
            good.graph, scaled, good.level, self.tau, good.C, randomness.child("inner"),
            directions=randomness,
        )
        far = (self.space.dist >= self.tau) & ~np.eye(self.space.n, dtype=bool)
        if not far.any():
            raise TauExceedsDiameter("no pair at distance >= tau")
        first = divmod(int(far.argmax()), self.space.n)  # the first far pair (i, j): i < j
        self._fallback = np.arange(self.space.n) == np.array(first)[:, None]
        self.weights = VertexWeights(_far_marginals(np.where(far, 1.0, 0.0)))
        rho = self.rho
        # 1.0 where (x, y) lies inside the separation radius beta*tau/min(rho(x), rho(y))
        radius = self.beta * self.tau / np.minimum(rho[:, None], rho[None, :])
        self._inside = (~(self.space.dist > radius)).astype(float)

    def draw(
        self, index: int, weights: Optional[VertexWeights] = None
    ) -> Tuple[frozenset, frozenset]:
        """Draw ``index`` for ``weights`` (default: ``self.weights``)."""
        A, B = self.draw_masks([index], weights)[0]
        return frozenset(A.nonzero()[0].tolist()), frozenset(B.nonzero()[0].tolist())

    def draw_masks(self, indices, weights: Optional[VertexWeights] = None) -> np.ndarray:
        """Draws ``indices`` (1-d ints in any order, made as one block) for ``weights``
        as (len(indices), 2, n) side masks; a failure raises what a loop of ``draw`` does."""
        block = self._inner.block(indices)
        Q = (self.weights if weights is None else weights).Q
        if Q.shape != (self.space.n,):
            raise BadParams("weights must provide one value per point")
        return self._finish(block, slice(None), Q)

    def _finish(self, block: _Block, rows: slice, Q: np.ndarray) -> np.ndarray:
        """The ``rows`` of an inner ``block`` finished for the vertex weights ``Q``, one
        finite nonnegative value per point; a failure finishes each row again alone, in
        order, so that the first failing row raises its own error, as a loop of ``draw``
        would."""
        try:
            return self._masks(block, rows, Q)
        except ZerosetkitError:
            each = range(len(block.sides))[rows]
            if len(each) > 1:
                for row in each:
                    self._masks(block, slice(row, row + 1), Q)
            raise

    def _masks(self, block: _Block, rows: slice, Q: np.ndarray) -> np.ndarray:
        """``_finish`` over all rows at once, but for the extractor's LP on each row with a
        crossing edge; separation is screened by one product."""
        faults = block.faults[rows]
        if any(faults):  # a fault is a nonempty message
            raise ConclusionViolated(next(filter(None, faults)))
        masks, hit, cross = block.sides[rows].copy(), block.hit[rows], block.cross[rows]
        # a crossing edge joins the two sides, so neither is empty
        np.logical_and(masks, unsaturated(Q), out=masks, where=~hit[:, None, None])
        for row in np.flatnonzero(hit).tolist():
            masks[row] = extract_unsaturated_pair(*masks[row].copy(),
                                                  self._inner._edges[cross[row]], VertexWeights(Q))
        masks[~masks.any(axis=2).all(axis=1)] = self._fallback
        inside = (masks[:, 0] @ self._inside) * masks[:, 1]
        if inside.any():
            row = inside.any(axis=1).argmax()
            self._assert_separation(masks[row, 0].nonzero()[0], masks[row, 1].nonzero()[0])
        return masks

    def _assert_separation(self, a: np.ndarray, b: np.ndarray):
        """No pair of a x b (ascending point indices) lies inside the
        separation radius; the first such pair in index order is named."""
        inside = self._inside.take(a, axis=0).take(b, axis=1)
        if inside.any():
            i, j = np.argwhere(inside)[0]
            raise ConclusionViolated(f"pair ({a[i]},{b[j]}) inside the separation radius")


def pipeline_scales(params: QuasiParams) -> Tuple[float, float]:
    """The good graph's (r, beta) in the separated-pair pipeline:
    r = ZETA*PIPELINE_ALPHA and beta = s^(PIPELINE_ALPHA/eps)."""
    return ZETA * PIPELINE_ALPHA, params.s ** (PIPELINE_ALPHA / params.eps)


def separated_pipeline(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    phi: EuclideanMap,
    params: QuasiParams,
    tau: float,
    C: float,
    randomness: RandomnessSpec,
    good: Optional[GoodGraph] = None,
) -> SeparatedPairSampler:
    """Assemble the separated-pair sampler on the good graph at
    ``pipeline_scales(params)``.

    A precomputed GoodGraph may be supplied to amortize construction across
    several samplers; it must have been built at this ``tau`` and ``C``.
    The good-graph builder checks ``tau`` and ``C``.
    """
    if tau > space.diam:
        raise TauExceedsDiameter(f"tau {tau:g} exceeds the diameter {space.diam:g}")
    if good is None:
        r, beta = pipeline_scales(params)
        good = good_graph_builder(space, measure, phi, params, tau, C, r, beta)
    elif (tau, C) != (good.tau, good.C):
        raise BadParams(f"tau {tau:g} and C {C:g} differ from the good graph's "
                        f"tau {good.tau:g} and C {good.C:g}")
    return SeparatedPairSampler(good, randomness)


# -------------------------------------------------------------------------
# zero-set distributions
# -------------------------------------------------------------------------


_EMPTY_DRAW = "a zero-set draw came out empty"


class ZeroSetDistribution:
    """A seeded sampler of nonempty subsets of its ``n`` points.

    A subclass sets ``n`` and defines the one hook, the classmethod
    ``_masks_for(requests)``: per (distribution, indices) request, the draws
    as a (len(indices), n) bool array of point masks, the requests of all its
    instances drawn together.  ``draw_masks`` checks every row nonempty, and
    ``draw`` is its one-row view.
    """

    def draw(self, index: int) -> frozenset:
        return frozenset(np.flatnonzero(self.draw_masks([index])[0]).tolist())

    def draw_masks(self, indices) -> np.ndarray:
        """Draws ``indices`` as a (len(indices), n) bool array of point masks,
        every row nonempty; a failure raises what a loop of ``draw`` raises."""
        return _draw_requests([(self, _indices(indices))])[0]

    @classmethod
    def _masks_for(cls, requests) -> list:
        raise NotImplementedError


def _indices(indices) -> np.ndarray:
    """Draw indices (1-d ints in any order, or none) as an int64 array; a float
    index, which int64 would truncate, raises BadParams."""
    indices = np.asarray(indices)
    if indices.size:  # its first index has the array's type (np.asarray([]) is float64)
        _require_int(indices.flat[0], "draw index")
    return indices.astype(np.int64, copy=False)


def _draw_requests(requests) -> list:
    """Per (distribution, indices) request, its draws as rows of point masks,
    every row nonempty: ``_masks_for`` of the requests of each class in one
    call.  On a failure, every draw is made again one at a time, in request
    order, so that the first failing draw raises its own error, as a loop of
    ``draw`` would."""
    kinds = {}
    for r, (dist, _indices) in enumerate(requests):
        kinds.setdefault(type(dist), []).append(r)
    out = [None] * len(requests)
    try:
        for kind, rs in kinds.items():
            for r, masks in zip(rs, kind._masks_for([requests[r] for r in rs])):
                out[r] = masks
        if not all(masks.any(axis=1).all() for masks in out):
            raise ConclusionViolated(_EMPTY_DRAW)
        return out
    except ZerosetkitError:
        if sum(len(indices) for _dist, indices in requests) > 1:
            for dist, indices in requests:
                for index in indices.tolist():
                    dist.draw(index)
        raise


def _first_nonempty(attempt, indices: np.ndarray, n: int, cap: int, what: str) -> np.ndarray:
    """Per index of ``indices``, its first nonempty attempt, as rows of point
    masks.  Attempt round a calls ``attempt(pending, a)`` once, for the
    indices ``pending`` still empty, and takes their (len(pending), n)
    masks; an index still empty after ``cap`` rounds raises
    RejectionCapExceeded, naming the zero sets ``what``."""
    out = np.zeros((len(indices), n), dtype=bool)
    pending = np.arange(len(indices))
    for a in range(cap):
        if not pending.size:
            break
        Z = attempt(indices[pending], a)
        kept = Z.any(axis=1)
        out[pending[kept]] = Z[kept]
        pending = pending[~kept]
    if pending.size:
        raise RejectionCapExceeded(f"no nonempty {what} in {cap} attempts")
    return out


def _request_words(requests, k: int) -> list:
    """Per (distribution, indices) request, the first ``k`` words of each of
    its draws' streams ``dist._streams``, all from one ``raw_words`` call."""
    words = raw_words([(dist._streams, indices[:, None]) for dist, indices in requests], k)
    return np.split(words, np.cumsum([len(indices) for _dist, indices in requests])[:-1])


def _cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative table ``Generator.choice(len(p), p=p)`` decodes with."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _picks(words: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """``choice(len(p), p=p)`` for ``cdf = _cdf(p)`` from streams whose first
    words are ``words``: the index of the double ``random()`` makes of the
    word, ``(word >> 11) * 2**-53``, without choice's checks of p."""
    return cdf.searchsorted((words >> np.uint64(11)) * 2.0**-53, side="right")


class DualityDistribution(ZeroSetDistribution):
    """The zero-set distribution a duality solve returns: a mixture over pool
    columns (A, B), each turned into A or B by a fair coin.

    ``columns`` holds the pool's side masks as an (m, 2, n) bool array.  Draw
    ``index`` reads ``stream("zeroset", index)``: its first word picks the
    column (``_picks``) and the top bit of its second word's low half is the
    coin (``integers(2)``), 0 for A.  ``space``, ``tau`` and ``psi`` (the
    sampler's space and per-point separation radii) are what the pool's
    (columns x far pairs) coverage is built from; the solve drops that
    matrix, and ``value`` and ``column_game`` rebuild it (``_pool_coverage``).
    """

    def __init__(
        self,
        columns: np.ndarray,
        mixture: np.ndarray,
        space: FiniteMetricSpace,
        tau: float,
        psi: np.ndarray,
        randomness: RandomnessSpec,
    ):
        self.columns = columns
        self.mixture = mixture
        self.space = space
        self.tau = tau
        self.psi = psi
        self.randomness = randomness
        self.n = columns.shape[2]
        self.params = {"n_columns": len(columns)}
        self._cdf = _cdf(mixture)
        self._streams = randomness.opener("zeroset")

    @functools.cached_property
    def value(self) -> float:
        """The mixture's worst far-pair coverage, computed on first read."""
        return float(np.min(self.mixture @ _pool_coverage(self)))

    @classmethod
    def _masks_for(cls, requests) -> list:
        out = []
        for (dist, _indices), words in zip(requests, _request_words(requests, 2)):
            coin = (words[:, 1] >> np.uint64(31)) & np.uint64(1)
            out.append(dist.columns[_picks(words[:, 0], dist._cdf), coin])
        return out


def _far_pairs(space: FiniteMetricSpace, tau: float, radii):
    """The far pairs (x, y), x != y at distance >= tau, as flat indices
    x * n + y in row-major order, and ``near[z, y]`` (1.0 when z lies within
    psi[y] of y) for ``_column_coverage``.  ``radii.psi`` is read only once
    a far pair exists: a sampler's, or the one a duality solve kept."""
    D = space.dist
    pairs = np.flatnonzero((D >= tau) & ~np.eye(space.n, dtype=bool))
    if pairs.size == 0:
        raise EmptySupport(f"no pair at distance >= tau = {tau:g}")
    return pairs, (D < radii.psi[:, None]).T.astype(float)


def _far_marginals(W: np.ndarray) -> np.ndarray:
    """The vertex weights (marginals) of the (n, n) far-pair weighting
    ``W``: the row sums of W, symmetrised and normalised to sum 1.  A
    weighting that is all 0 (its weights underflowed) raises BadParams, as
    vertex weights with NaN marginals would."""
    W = W + W.T
    W /= 2.0
    total = W.sum()
    if not total > 0:
        raise BadParams("vertex weights must be finite and nonnegative")
    W /= total
    return W.sum(axis=1)


def duality_solve(
    sampler: SeparatedPairSampler,
    rounds: int = 32,
    randomness: RandomnessSpec = RandomnessSpec(0),
) -> DualityDistribution:
    """Turn per-weighting separated pairs into a single zero-set distribution
    by multiplicative weights (MW) over the pairs of ``sampler.space`` at
    distance >= ``sampler.tau``.

    Each round adds ``DRAWS_PER_ROUND`` seeded draws for the vertex weights
    (marginals) of the current MW distribution over far pairs to a growing
    column pool, and plays the pool column that best responds to it.  The
    draw indices, not the weights, fix the random streams.  The recorded
    best responses (with repetition) form the final mixture, and a fair coin
    turns a mixture column into the A-side or the B-side.  ``column_game``
    solves the zero-sum game over the returned pool exactly.

    The solve's draws are made as one inner sampler block before round 0,
    and its rows are finished (``SeparatedPairSampler._finish``, as
    ``draw_masks`` finishes a block) ahead, over a run of rounds: a draw
    without a crossing edge reads the marginals Q only through
    ``unsaturated(Q)``, and a bound on the MW weights certifies, rounds
    ahead, that this set is every point with a far pair.  A round whose rows
    are not finished starts a run, and the rows the run cannot reach (from
    a row with a crossing edge, or past the certified rounds) are finished
    for the round's exact marginals (``_far_marginals``).  A round then adds
    its new columns' coverage as one product with the near-point matrix
    built once per solve (``_column_coverage``) and screens the best
    response by one matrix-vector product (``_best_response``).  A solve
    whose far-pair weights all underflow to 0 raises BadParams, as vertex
    weights with NaN marginals would.
    """
    _require_count(rounds, "rounds")
    space, tau = sampler.space, sampler.tau
    pairs, near = _far_pairs(space, tau, sampler)
    n = space.n
    lr = math.sqrt(math.log(pairs.size) / rounds)
    # the MW factor exp(-lr * coverage) for coverage 0, 1/2 and 1
    decay = np.array([1.0, math.exp(-lr / 2.0), math.exp(-lr)])

    n_draws = rounds * DRAWS_PER_ROUND
    block = sampler._inner.block(np.arange(n_draws))
    # the rows a run stops before, then n_draws: the rows with a crossing
    # edge, whose extractor reads the exact marginals (a fault is on one)
    stops = np.append(np.flatnonzero(block.hit), n_draws)
    far_points = np.zeros(n)  # 1.0 at every point with a far pair
    far_points[pairs // n] = 1.0
    finished = np.empty((n_draws, 2, n), dtype=bool)
    done = 0  # the rows finished so far
    pair_w = np.ones(pairs.size)  # the MW weights of the far pairs
    seen = set()  # the pool's columns, as the bytes of their side masks
    columns = np.zeros((n_draws, 2, n), dtype=bool)
    cov = np.empty((n_draws, pairs.size))
    counts = np.zeros(n_draws, dtype=int)
    for lo in range(0, n_draws, DRAWS_PER_ROUND):
        hi = lo + DRAWS_PER_ROUND
        if done < hi:
            # A run.  A pair weight is multiplied by a factor of at least
            # min(decay) per round and never rises, so k rounds ahead
            # Q[x] >= min(pair_w) min(decay)^k / sum(pair_w) at every x with
            # a far pair (half of one pair's two weights, over the total),
            # and Q[x] = 0 at every other x.  Rounding moves the bound by a
            # relative O((k + n^2) eps) while its numerator stays a normal
            # float, so above twice the tolerance ``unsaturated(Q)`` is
            # ``unsaturated(far_points)``, and the run's rows finish for it.
            low, total, end = pair_w.min(), pair_w.sum(), lo
            while (end < n_draws and low >= np.finfo(float).tiny
                   and low > 2.0 * UNSATURATION_TOL * total):
                low *= decay.min()
                end += DRAWS_PER_ROUND
            end = min(end, int(stops[np.searchsorted(stops, done)]))
            if end > done:
                finished[done:end] = sampler._finish(block, slice(done, end), far_points)
                done = end
        if done < hi:
            W = np.zeros((n, n))
            W.reshape(-1)[pairs] = pair_w
            finished[done:hi] = sampler._finish(block, slice(done, hi), _far_marginals(W))
            done = hi
        m = len(seen)
        for column in finished[lo:hi]:
            key = column.tobytes()
            if key not in seen:
                columns[len(seen)] = column
                seen.add(key)
        if len(seen) > m:
            cov[m:len(seen)] = _column_coverage(near, pairs, columns[m:len(seen)])
        best = _best_response(cov[:len(seen)], pair_w / pair_w.sum())
        counts[best] += 1
        pair_w *= decay[(2 * cov[best]).astype(int)]

    m = len(seen)
    return DualityDistribution(columns[:m], counts[:m] / counts.sum(), space, tau, sampler.psi,
                               randomness)


def column_game(dist: DualityDistribution) -> Tuple[np.ndarray, float]:
    """The maximin mixture over the pool of ``dist``, a ``duality_solve``, by
    LP, and its value: the worst far-pair coverage, which bounds what any
    mixture of those columns, MW's included, guarantees."""
    cov = _pool_coverage(dist)
    mu = _solve_column_game(cov)
    return mu, float(np.min(mu @ cov))


def _pool_coverage(dist: DualityDistribution) -> np.ndarray:
    """The (columns x far pairs) coverage of the pool of ``dist``, a
    ``duality_solve``, rebuilt from the solve's own space, tau and psi."""
    pairs, near = _far_pairs(dist.space, dist.tau, dist)
    return _column_coverage(near, pairs, dist.columns)


def _column_coverage(near: np.ndarray, pairs: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Per column (A, B), a row of the (k, 2, n) side masks ``columns``, the
    probability over the fair coin that it covers each far pair (x, y), with
    flat index x * n + y in ``pairs``: the coin's side holds x and stays
    psi[y] away from y, that is, holds no z with ``near[z, y]`` (1.0 when
    D[y, z] < psi[y]).  All values are sums of two exact halves."""
    k, _two, n = columns.shape
    sides = columns.reshape(2 * k, n).astype(float)
    far = ((sides @ near) == 0).astype(float).reshape(k, 2, n)
    half = (0.5 * sides).reshape(k, 2, n).transpose(0, 2, 1)
    return (half @ far).reshape(k, n * n).take(pairs, axis=1)


def _best_response(cov: np.ndarray, w: np.ndarray) -> int:
    """``np.argmax([float(w @ c) for c in cov])`` for coverage rows in [0, 1]
    (C-contiguous) and weights ``w`` >= 0 summing to 1.  A matrix-vector
    product and a row's dot product each err by at most about len(w) eps / 2
    (the sums are at most 1), so only rows within twice that of the screen's
    maximum can hold the maximum dot product.  A lone such row is the answer;
    several are rescored by their own dot products, taken on the C-contiguous
    rows (a strided copy may sum in another order), so exact ties are decided
    by those rounded scores, the first maximum winning."""
    screen = cov @ w
    close = np.flatnonzero(screen >= screen.max() - 4 * w.size * np.finfo(float).eps)
    if close.size == 1:
        return int(close[0])
    exact = [float(w @ cov[c]) for c in close.tolist()]
    return int(close[int(np.argmax(exact))])


def _solve_column_game(cov_matrix: np.ndarray) -> np.ndarray:
    """LP for the optimal mixture over recorded columns (maximin coverage):
    max t over mu >= 0 summing to 1 and t free with t <= cov^T mu, its matrix
    column by column, mu's straight from the coverage rows, then t's."""
    n_cols, n_pairs = cov_matrix.shape
    col, row = np.nonzero(cov_matrix)
    entries = (np.append(row, np.arange(n_pairs)), np.append(col, np.full(n_pairs, n_cols)),
               np.append(-cov_matrix[col, row], np.ones(n_pairs)))
    lower = np.append(np.zeros(n_cols), -np.inf)
    _value, x = _solve_lp("column game LP", _highs_model(
        np.append(np.zeros(n_cols), -1.0), entries, np.zeros(n_pairs), lower,
        np.append(np.ones(n_cols), 0.0)))
    mu = np.clip(x[:n_cols], 0.0, None)
    return mu / mu.sum()


class GluedDistribution(ZeroSetDistribution):
    """A mixture of zero-set distributions with truncated geometric weights:
    draw ``index`` picks input k with probability ``weights[k]`` proportional
    to 2^-(k+1), from the first word of ``stream("glue", index)``
    (``_picks``), and returns that input's draw ``index``.  All inputs have
    the same size ``n``."""

    def __init__(self, dists: Sequence[ZeroSetDistribution], randomness: RandomnessSpec):
        if len(dists) < 1:
            raise BadParams("need at least one distribution")
        sizes = sorted({dist.n for dist in dists})
        if len(sizes) > 1:
            raise BadParams(f"glued distributions differ in size: {sizes}")
        w = np.array([2.0 ** -(k + 1) for k in range(len(dists))])
        self.dists = list(dists)
        self.n = sizes[0]
        self.weights = w / w.sum()
        self.randomness = randomness
        self._cdf = _cdf(self.weights)
        self._streams = randomness.opener("glue")

    @classmethod
    def _masks_for(cls, requests) -> list:
        """The inputs' draws: those of every input of every request drawn in
        one ``_draw_requests`` call."""
        nested, places = [], []
        for r, ((glue, indices), words) in enumerate(zip(requests, _request_words(requests, 1))):
            picks = _picks(words[:, 0], glue._cdf)
            for k in np.unique(picks).tolist():
                rows = np.flatnonzero(picks == k)
                nested.append((glue.dists[k], indices[rows]))
                places.append((r, rows))
        out = [np.zeros((len(indices), glue.n), dtype=bool) for glue, indices in requests]
        for (r, rows), masks in zip(places, _draw_requests(nested)):
            out[r][rows] = masks
        return out


class GeneralZeroSetDistribution(ZeroSetDistribution):
    """Stopping-time zero sets on an arbitrary finite metric space.

    Per draw: a radius uniform on (tau/4, tau/2), i.i.d. measure-distributed
    points until every point of the space has been hit, and independent fair
    bits; the set keeps the points whose first hit carries bit one.

    Draw (index, attempt) reads the fresh PCG64 stream
    ``stream("general", index, attempt)`` in the layout of ``random()`` for
    R followed by ``choice(n, p=probs)`` and ``integers(2)`` per centre.  R
    takes the first 64-bit word.  Each pair of centres (a, b) then takes
    three words w0, w1, w2: centre a is
    ``cdf.searchsorted((w0 >> 11) * 2**-53, side="right")`` with
    ``cdf = probs.cumsum(); cdf /= cdf[-1]``, as ``Generator.choice``
    decodes, centre b is the same of w2, and the bits of a and b are the top
    bits of w1's low and high 32-bit halves (``integers(2)`` takes one
    buffered half per call and keeps its top bit).
    """

    def __init__(
        self,
        space: FiniteMetricSpace,
        measure: PointMeasure,
        tau: float,
        randomness: RandomnessSpec,
    ):
        if not tau > 0:
            raise BadParams("tau must be positive")
        if len(measure.weights) != space.n:
            raise BadParams("measure size does not match the space")
        self.space = space
        self.n = space.n
        self.measure = measure
        self.tau = float(tau)
        self.randomness = randomness
        self._cdf = _cdf(measure.weights / measure.total)
        self._streams = randomness.opener("general")

    def draw_raw(self, index: int, attempt: int = 0) -> frozenset:
        """One unconditioned draw (may be empty).

        Centres are decoded in blocks, of about n centres first and twice as
        many each time after, holding at most ``_BLOCK`` centre-to-point
        distances whenever n <= ``_BLOCK // 2``.
        """
        _require_int(index, "draw index")
        _require_int(attempt, "attempt")
        rng = self._streams(index, attempt)
        R = self.tau / 4.0 + float(rng.random()) * self.tau / 4.0
        D = self.space.dist
        n = self.space.n
        selected = np.zeros(n, dtype=bool)
        undecided = np.ones(n, dtype=bool)
        max_pairs = max(1, _BLOCK // (2 * n))
        pairs = min((n + 1) // 2, max_pairs)
        done = 0  # centres decoded so far
        while done < ITERATION_CAP:
            pairs = min(pairs, (ITERATION_CAP - done + 1) // 2)
            k = min(2 * pairs, ITERATION_CAP - done)
            words = rng.bit_generator.random_raw(3 * pairs).reshape(pairs, 3)
            u = (words[:, [0, 2]] >> np.uint64(11)) * 2.0**-53
            z = self._cdf.searchsorted(u.ravel()[:k], side="right")
            bits = (words[:, [1]] >> _HALF_TOP_BITS).ravel()[:k] & np.uint64(1)
            hit = (D[z] <= R) & undecided  # k x n
            new = hit.any(axis=0)
            selected[new] = bits[hit.argmax(axis=0)[new]] == 1
            undecided &= ~new
            if not undecided.any():
                return frozenset(np.flatnonzero(selected).tolist())
            done += k
            pairs = min(2 * pairs, max_pairs)
        raise IterationCapExceeded(
            f"stopping times undetermined after {ITERATION_CAP} samples"
        )

    @classmethod
    def _masks_for(cls, requests) -> list:
        """Per index, its first nonempty attempt ``draw_raw(index, attempt)``."""
        return [_first_nonempty(dist._attempt, indices, dist.n, REJECTION_CAP, "zero set")
                for dist, indices in requests]

    def _attempt(self, indices: np.ndarray, attempt: int) -> np.ndarray:
        """Attempt ``attempt`` of the draws ``indices``, one ``draw_raw`` each."""
        masks = np.zeros((len(indices), self.n), dtype=bool)
        for row, index in enumerate(indices.tolist()):
            masks[row, list(self.draw_raw(index, attempt))] = True
        return masks


def general_zeroset_sampler(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    tau: float,
    randomness: RandomnessSpec,
) -> GeneralZeroSetDistribution:
    return GeneralZeroSetDistribution(space, measure, tau, randomness)


def spreading_estimate(
    dist: ZeroSetDistribution,
    zeta: float,
    tau: float,
    pairs: Iterable[Tuple[int, int]],
    n_samples: int,
    space: FiniteMetricSpace,
) -> list:
    """Per pair (x, y), the share of draws Z that hold x and no point within
    tau/zeta of y, with a 95% confidence interval."""
    pairs = _spreading_pairs(dist, zeta, tau, pairs, n_samples, space)
    return _spreading_records(dist.draw_masks(range(n_samples)), tau / zeta, pairs, space)


def _spreading_pairs(dist, zeta: float, tau: float, pairs, n_samples: int,
                     space: FiniteMetricSpace) -> list:
    """The input checks of ``spreading_estimate``, made before any draw; its
    pairs as a list of int pairs."""
    _require_count(n_samples, "n_samples")
    if not (tau > 0 and zeta > 0):
        raise BadParams("tau and zeta must be positive")
    if dist.n != space.n:
        raise BadParams(f"a distribution on {dist.n} points for a space of {space.n}")
    pairs = [(int(x), int(y)) for x, y in pairs]
    for x, y in pairs:
        if not (0 <= x < space.n and 0 <= y < space.n):
            raise BadParams(f"pair ({x},{y}) is not a pair of the space's points")
        if space.dist[x, y] < tau:
            raise PairTooClose(f"pair ({x},{y}) is closer than tau")
    return pairs


def _spreading_records(masks: np.ndarray, radius: float, pairs: list,
                       space: FiniteMetricSpace) -> list:
    """The records of ``spreading_estimate`` for the drawn (draws, n) point
    masks ``masks``, its checked ``pairs`` and ``radius`` = tau/zeta."""
    xs, ys = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    near = (space.dist[ys] < radius).astype(float)
    counts = (masks[:, xs] & (masks.astype(float) @ near.T == 0)).sum(axis=0)
    out = []
    for idx, (x, y) in enumerate(pairs):
        p = counts[idx] / len(masks)
        half = 1.96 * math.sqrt(max(p * (1 - p), 1e-12) / len(masks))
        out.append({"pair": (x, y), "estimate": p, "ci95": (max(0.0, p - half), min(1.0, p + half))})
    return out
