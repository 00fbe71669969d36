"""Random zero sets: slab/layered randomness, the good-graph builder, the
separated-pair pipeline, duality, scale gluing, and the general-metric sampler."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from ._rng import RandomnessSpec
from .compression import CompressionOutput, universal_compression
from .errors import (
    BadParams,
    BetaTooLarge,
    ConclusionViolated,
    EmptySupport,
    IterationCapExceeded,
    LPSolveFailed,
    MinDistanceViolated,
    ModerationViolated,
    PairTooClose,
    QuasisymmetryViolated,
    RejectionCapExceeded,
    TauExceedsDiameter,
)
from .graphs import PairWeighting, ThresholdedGraph, extract_unsaturated_pair
from .metric import EuclideanMap, FiniteMetricSpace, PointMeasure, QuasiParams, quasisym_check

LAYER_ALPHA = math.log(2.0)  # layer-width constant used by the per-component sampler
_SLACK = 1e-9
_BLOCK = 1 << 20  # element cap on the blocked intermediates of the level function

# -------------------------------------------------------------------------
# slabs and the tent function
# -------------------------------------------------------------------------


@dataclass(frozen=True)
class SlabMembership:
    in_L: bool
    in_R: bool


def slab_membership(a: float, theta: float) -> SlabMembership:
    """Shifted quarter-period slabs: L collects fractional parts in [0, 1/4),
    R in [1/2, 3/4); a point of L and a point of R always differ by > 1/4."""
    s = (a - theta) % 1.0
    return SlabMembership(in_L=s < 0.25, in_R=0.5 <= s < 0.75)


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
        if np.any(v <= 0):
            raise BadParams("level function must be strictly positive")
        object.__setattr__(self, "values", v)


def _layer_index(lam: float, r: float, alpha: float) -> Optional[int]:
    """The unique i with e^{3a(i+r)-2a} <= lam < e^{3a(i+r)}, if any."""
    u = math.log(lam) / (3.0 * alpha)
    i = math.floor(u - r + 2.0 / 3.0)
    return i if u - r < i else None


def layered_pair_sets(
    points: Sequence[int],
    fcoords: np.ndarray,
    lam: np.ndarray,
    alpha: float,
    C: float,
    v: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[set, set]:
    """One draw of the layered (E, F) pair for a supplied direction v.

    Points whose level lands in a layer fall into shifted slabs of the
    projection at the layer's scale; the infinite-level points join E or F
    wholesale according to a three-way branch with masses (2/3, 1/6, 1/6).
    """
    if alpha <= 0 or C <= 0:
        raise BadParams("alpha and C must be positive")
    r = float(rng.random())
    finite = [x for x in points if math.isfinite(lam[x])]
    infinite = [x for x in points if not math.isfinite(lam[x])]
    layer_of = {}
    for x in finite:
        i = _layer_index(float(lam[x]), r, alpha)
        if i is not None:
            layer_of[x] = i
    thetas = {}
    for i in sorted(set(layer_of.values())):
        thetas[i] = float(rng.random())
    u = float(rng.random())
    k = 1 if u < 2.0 / 3.0 else (2 if u < 5.0 / 6.0 else 3)

    proj = fcoords @ v
    E, F = set(), set()
    for x, i in sorted(layer_of.items()):
        scale = 4.0 * C * math.exp(3.0 * alpha * (i + r))
        mem = slab_membership(proj[x] / scale, thetas[i])
        if mem.in_L:
            E.add(x)
        elif mem.in_R:
            F.add(x)
    if k == 2:
        E.update(infinite)
    elif k == 3:
        F.update(infinite)
    return E, F


# -------------------------------------------------------------------------
# per-component separated sampler
# -------------------------------------------------------------------------


class ComponentSeparatedSampler:
    """Draws (A, B) with guaranteed projection separation along graph edges.

    The level function must vary moderately along edges, and weighted
    same-component pairs must be image-separated at the level scale; both are
    checked at construction.  Every draw deterministically satisfies
    |<v, f(x) - f(y)>| > C max(level(x), level(y)) on crossing edges.
    """

    def __init__(
        self,
        graph: ThresholdedGraph,
        f: EuclideanMap,
        level: LevelFunction,
        omega: Optional[PairWeighting],
        C: float,
        randomness: RandomnessSpec,
        alpha: float = LAYER_ALPHA,
    ):
        if f.n != graph.n:
            raise BadParams("map size does not match the graph")
        lam = level.values
        for i, j in graph.loopless_edges():
            if lam[j] > 2.0 * lam[i] * (1 + _SLACK) or lam[i] > 2.0 * lam[j] * (1 + _SLACK):
                raise ModerationViolated((i, j))
        comp = graph.component_of()
        if omega is not None:
            close = (
                (omega.omega > 0)
                & (comp[:, None] == comp[None, :])
                & (f.image_distances() < np.minimum(lam[:, None], lam[None, :]) * (1 - _SLACK))
            )
            if close.any():
                x, y = np.argwhere(close)[0]
                raise MinDistanceViolated((int(x), int(y)))
        self.graph = graph
        self.f = f
        self.level = level
        self.C = float(C)
        self.alpha = float(alpha)
        self.randomness = randomness
        self._components = graph.components()

    def draw(self, index: int, v: Optional[np.ndarray] = None) -> Tuple[frozenset, frozenset]:
        if v is None:
            v = self.randomness.stream("direction", index).standard_normal(self.f.dim)
        A, B = set(), set()
        for ci, compi in enumerate(self._components):
            rng = self.randomness.stream("component", index, ci)
            E, F = layered_pair_sets(
                compi, self.f.coords, self.level.values, self.alpha, self.C, v, rng
            )
            A.update(E)
            B.update(F)
        self._assert_separation(v, A, B)
        return frozenset(A), frozenset(B)

    def _assert_separation(self, v, A, B):
        lam = self.level.values
        proj = self.f.coords @ v
        for i, j in self.graph.edges:
            cross = (i in A and j in B) or (i in B and j in A)
            if cross:
                gap = abs(proj[i] - proj[j])
                need = self.C * max(lam[i], lam[j])
                if not gap > need:
                    raise ConclusionViolated(
                        f"edge ({i},{j}) violates directional separation: {gap} <= {need}"
                    )


def component_separated_sampler(
    graph: ThresholdedGraph,
    f: EuclideanMap,
    level: LevelFunction,
    omega: Optional[PairWeighting],
    C: float,
    randomness: RandomnessSpec,
) -> ComponentSeparatedSampler:
    return ComponentSeparatedSampler(graph, f, level, omega, C, randomness)


# -------------------------------------------------------------------------
# good graphs
# -------------------------------------------------------------------------


@dataclass(frozen=True)
class GoodGraph:
    compression: CompressionOutput
    level: LevelFunction
    beta: float
    r: float
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


def beta_cap(params: QuasiParams, r: float) -> float:
    """Largest admissible beta for the stated comparison parameters."""
    return params.s ** (3.0 * math.log(8.0 * r) / params.eps)


def build_level_function(
    space: FiniteMetricSpace,
    graph: ThresholdedGraph,
    f: EuclideanMap,
    C: float,
    tau: float,
) -> LevelFunction:
    """Level(x) = C min over tau-separated same-component pairs (w, z) of
    max(|f(x)-f(w)|, |f(x)-f(z)|); +inf on components of diameter < tau."""
    lam = np.full(space.n, np.inf)
    E = f.image_distances()
    for comp in graph.components():
        comp = np.asarray(comp)
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


def good_graph_builder(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    phi: EuclideanMap,
    params: QuasiParams,
    tau: float,
    C: float,
    r: float,
    beta: float,
    zeta: float = 2.0,
    enforce_beta_bound: bool = True,
) -> GoodGraph:
    """Compression at scale (r*C, beta*tau) plus the level function, with the
    promised edge and same-component conclusions asserted.

    A failed assertion raises ConclusionViolated: the conclusions are
    guaranteed by construction, so a violation is an implementation bug.
    """
    if not (0 < params.s <= 0.5 and 0 < params.eps <= 0.5):
        raise BadParams("require 0 < s, eps <= 1/2")
    if r < 1:
        raise BadParams("r must be >= 1")
    ok, witness = quasisym_check(space, phi, params)
    if not ok:
        raise QuasisymmetryViolated(witness)
    if enforce_beta_bound and beta > beta_cap(params, r) * (1 + _SLACK):
        raise BetaTooLarge(
            f"beta {beta:g} exceeds the admissible cap {beta_cap(params, r):g}"
        )
    if beta <= 0:
        raise BadParams("beta must be positive")

    comp_out = universal_compression(space, measure, beta * tau, r * C, phi, zeta=zeta)
    level = build_level_function(space, comp_out.graph, comp_out.f, C, tau)
    lam = level.values
    f = comp_out.f
    E = f.image_distances()

    for i, j in comp_out.graph.loopless_edges():
        if lam[j] > 2.0 * lam[i] * (1 + _SLACK) or lam[i] > 2.0 * lam[j] * (1 + _SLACK):
            raise ConclusionViolated(f"level function more than doubles on edge ({i},{j})")
    for e in comp_out.graph.edges:
        if 4.0 * comp_out.graph.sigma[e] > min(lam[e[0]], lam[e[1]]) * (1 + _SLACK):
            raise ConclusionViolated(f"4 sigma exceeds the level function on edge {e}")
    comp = comp_out.component_of()
    under = np.triu(
        (comp[:, None] == comp[None, :])
        & (space.dist >= tau)
        & (C * E < np.maximum(lam[:, None], lam[None, :]) * (1 - _SLACK)),
        k=1,
    )
    if under.any():
        x, y = np.argwhere(under)[0]
        raise ConclusionViolated(
            f"same-component pair ({x},{y}) under-separated in the image"
        )
    return GoodGraph(
        compression=comp_out, level=level, beta=beta, r=r, C=C, tau=tau
    )


# -------------------------------------------------------------------------
# the separated-pair pipeline
# -------------------------------------------------------------------------


class SeparatedPairSampler:
    """Draws nonempty (A*, B*) with metric separation beta*tau/min(rho).

    Each draw samples a Gaussian direction, runs the per-component sampler on
    the C-rescaled realization, removes a fractional-matching-sized set via
    the unsaturated-pair extractor, and falls back to a fixed far pair when a
    side comes out empty.  The separation guarantee is asserted on every draw.

    The preconditions are checked once, against ``omega``.  A draw may take
    any other weighting whose support lies inside omega's: only the
    unsaturated-pair extractor reads it, and the random streams do not
    depend on it.
    """

    def __init__(
        self,
        good: GoodGraph,
        omega: PairWeighting,
        C: float,
        randomness: RandomnessSpec,
        alpha: float,
    ):
        self.good = good
        self.omega = omega
        self.C = float(C)
        self.alpha = float(alpha)
        self.randomness = randomness
        self.space = good.graph.space
        # the inner sampler checks image separation against the C-rescaled
        # map, which matches the level function built at parameter C
        scaled = EuclideanMap(good.f.coords * C)
        self._inner = ComponentSeparatedSampler(
            good.graph, scaled, good.level, omega, C, randomness.child("inner"),
        )
        self._support = omega.omega > 0
        self._fallback = self._fixed_far_pair(good.tau)

    def _fixed_far_pair(self, tau: float):
        far = np.argwhere(np.triu(self.space.dist >= tau, k=1))
        if far.size == 0:
            raise TauExceedsDiameter("no pair at distance >= tau")
        return int(far[0, 0]), int(far[0, 1])

    @property
    def rho(self) -> np.ndarray:
        return self.good.rho

    @property
    def beta(self) -> float:
        return self.good.beta

    @property
    def tau(self) -> float:
        return self.good.tau

    @property
    def psi(self) -> np.ndarray:
        """Far-side guarantee radius per point: beta*tau/rho."""
        return self.beta * self.tau / self.rho

    def draw(
        self, index: int, omega: Optional[PairWeighting] = None
    ) -> Tuple[frozenset, frozenset]:
        """Draw ``index`` for ``omega`` (default: the build weighting)."""
        if omega is None:
            omega = self.omega
        elif np.any((omega.omega > 0) & ~self._support):
            raise BadParams("omega support must lie inside the sampler's build weighting")
        v = self.randomness.stream("direction", index).standard_normal(self.good.f.dim)
        A, B = self._inner.draw(index, v=v)
        crossing = [
            (i, j)
            for (i, j) in self.good.graph.loopless_edges()
            if (i in A and j in B) or (i in B and j in A)
        ]
        if A and B:
            A0, B0 = extract_unsaturated_pair(A, B, crossing, omega)
        else:
            A0, B0 = tuple(A), tuple(B)
        if not A0 or not B0:
            A0, B0 = (self._fallback[0],), (self._fallback[1],)
        Astar, Bstar = frozenset(A0), frozenset(B0)
        self._assert_separation(Astar, Bstar)
        return Astar, Bstar

    def _assert_separation(self, A, B):
        a = np.array(sorted(A), dtype=int)
        b = np.array(sorted(B), dtype=int)
        rho = self.rho
        radius = self.beta * self.tau / np.minimum(rho[a][:, None], rho[b][None, :])
        inside = ~(self.space.dist[np.ix_(a, b)] > radius)
        if inside.any():
            i, j = np.argwhere(inside)[0]
            raise ConclusionViolated(
                f"pair ({a[i]},{b[j]}) inside the separation radius"
            )


def separated_pipeline(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    phi: EuclideanMap,
    params: QuasiParams,
    tau: float,
    C: float,
    alpha_cfg: float,
    omega: PairWeighting,
    randomness: RandomnessSpec,
    zeta: float = 2.0,
    good: Optional[GoodGraph] = None,
) -> SeparatedPairSampler:
    """Assemble the separated-pair sampler: r = zeta*alpha, beta = s^(alpha/eps).

    A precomputed GoodGraph may be supplied to amortize construction across
    many weightings (the graph does not depend on omega).
    """
    if C < 1:
        raise BadParams("C must be >= 1")
    if tau > space.diam:
        raise TauExceedsDiameter(f"tau {tau:g} exceeds the diameter {space.diam:g}")
    r = zeta * alpha_cfg
    beta = params.s ** (alpha_cfg / params.eps)
    if good is None:
        good = good_graph_builder(
            space, measure, phi, params, tau, C, r, beta,
            zeta=zeta, enforce_beta_bound=False,
        )
    return SeparatedPairSampler(good, omega, C, randomness, alpha_cfg)


# -------------------------------------------------------------------------
# zero-set distributions
# -------------------------------------------------------------------------


class ZeroSetDistribution:
    """A seeded sampler of nonempty point subsets.

    Subclasses override ``_draw`` rather than pass a bound method as
    ``draw_fn``: the reference cycle would keep the instance, and whatever
    large arrays it holds, alive until the cyclic collector runs.
    """

    def __init__(
        self,
        construction: str,
        params: dict,
        draw_fn: Optional[Callable[[int], frozenset]] = None,
    ):
        self.construction = construction
        self.params = dict(params)
        self._draw_fn = draw_fn

    def draw(self, index: int) -> frozenset:
        Z = self._draw(index)
        if not Z:
            raise ConclusionViolated("a zero-set draw came out empty")
        return Z

    def _draw(self, index: int) -> frozenset:
        return self._draw_fn(index)

    def to_json(self) -> dict:
        return {"construction": self.construction, "params": self.params}


class DualityDistribution(ZeroSetDistribution):
    """The zero-set distribution a duality solve returns: a mixture over pool
    columns (A, B), each turned into A or B by a fair coin.

    ``coverage[c, p]`` is the probability that column c covers far pair p,
    and ``value`` is the mixture's worst-pair coverage.
    """

    psi: np.ndarray
    columns: List[Tuple[frozenset, frozenset]]
    coverage: np.ndarray
    mixture: np.ndarray
    value: float
    randomness: RandomnessSpec

    def __init__(
        self,
        tau: float,
        mode: str,
        rounds: int,
        psi: np.ndarray,
        columns: List[Tuple[frozenset, frozenset]],
        coverage: np.ndarray,
        mixture: np.ndarray,
        randomness: RandomnessSpec,
    ):
        self.psi = psi
        self.columns = columns
        self.coverage = coverage
        self.mixture = mixture
        self.value = float(np.min(mixture @ coverage))
        self.randomness = randomness
        super().__init__(
            "duality",
            {
                "tau": tau,
                "mode": mode,
                "rounds": rounds,
                "value": self.value,
                "n_columns": len(columns),
            },
        )

    def _draw(self, index: int) -> frozenset:
        rng = self.randomness.stream("zeroset", index)
        c = int(rng.choice(len(self.columns), p=self.mixture))
        A, B = self.columns[c]
        return A if rng.integers(2) == 0 else B


def duality_solve(
    space: FiniteMetricSpace,
    tau: float,
    sampler: SeparatedPairSampler,
    mode: str = "mw",
    rounds: int = 32,
    randomness: RandomnessSpec = RandomnessSpec(0),
    draws_per_round: int = 8,
) -> DualityDistribution:
    """Turn per-weighting separated pairs into a single zero-set distribution.

    ``sampler`` is built once, for a weighting supported on every pair at
    distance >= tau (the uniform far-pair weighting, say).  Each round adds
    ``draws_per_round`` seeded draws for the current multiplicative-weights
    (MW) distribution over far pairs to a growing column pool, and plays the
    pool column that best responds to it.  MW never shrinks the support, so
    the sampler's precondition checks hold in every round, and the draw
    indices, not the weighting, fix the random streams.  The recorded best
    responses (with repetition) form the final mixture, and a fair coin turns
    a mixture column into the A-side or the B-side.  ``exact_lp`` instead
    solves the zero-sum game over the pool by LP.
    """
    if mode not in ("mw", "exact_lp"):
        raise BadParams("mode must be 'mw' or 'exact_lp'")
    D = space.dist
    n = space.n
    support = (D >= tau) & ~np.eye(n, dtype=bool)
    I, J = np.nonzero(support)
    if I.size == 0:
        raise EmptySupport(f"no pair at distance >= tau = {tau:g}")
    lr = math.sqrt(math.log(I.size) / max(rounds, 1))
    # the MW factor exp(-lr * coverage) for coverage 0, 1/2 and 1
    decay = np.array([1.0, math.exp(-lr / 2.0), math.exp(-lr)])

    weights = np.zeros((n, n))
    weights[support] = 1.0
    psi = sampler.psi
    pool_columns = []
    pool_cov = []
    seen = set()
    counts = []
    for t in range(rounds):
        W = (weights + weights.T) / 2.0
        W = W / W.sum()
        omega = PairWeighting(W, tau, space)
        for d in range(draws_per_round):
            A, B = sampler.draw(t * draws_per_round + d, omega)
            key = (A, B)
            if key not in seen:
                seen.add(key)
                pool_columns.append((A, B))
                pool_cov.append(_column_coverage(D, I, J, A, B, psi))
                counts.append(0)
        pair_w = weights[I, J]
        pair_w = pair_w / pair_w.sum()
        # one dot product per column: a matrix product may sum in another order
        scores = np.array([float(pair_w @ c) for c in pool_cov])
        best = int(np.argmax(scores))
        counts[best] += 1
        weights[I, J] *= decay[(2 * pool_cov[best]).astype(int)]

    cov_matrix = np.array(pool_cov)  # pool x pairs
    if mode == "mw":
        mu = np.asarray(counts, dtype=float)
        mu = mu / mu.sum()
    else:
        mu = _solve_column_game(cov_matrix)
    return DualityDistribution(tau, mode, rounds, psi, pool_columns, cov_matrix, mu, randomness)


def _column_coverage(D, I, J, A, B, psi):
    """Probability (over the fair coin) that the column (A, B) covers each far
    pair (I[p], J[p]): the coin's side contains I[p] and stays at least
    psi[J[p]] away from J[p]."""
    cov = np.zeros(len(I))
    for side in (A, B):
        if side:
            idx = np.array(sorted(side), dtype=int)
            member = np.zeros(len(D), dtype=bool)
            member[idx] = True
            far = D[:, idx].min(axis=1) >= psi
            cov[member[I] & far[J]] += 0.5
    return cov


def _solve_column_game(cov_matrix: np.ndarray) -> np.ndarray:
    """LP for the optimal mixture over recorded columns (maximin coverage)."""
    n_cols, n_pairs = cov_matrix.shape
    # variables: mu_1..mu_c, t;  maximize t  s.t.  cov^T mu >= t, sum mu = 1
    c = np.zeros(n_cols + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-cov_matrix.T, np.ones((n_pairs, 1))])
    b_ub = np.zeros(n_pairs)
    A_eq = np.zeros((1, n_cols + 1))
    A_eq[0, :n_cols] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0, None)] * n_cols + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        raise LPSolveFailed(f"column game LP failed: {res.message}")
    mu = np.clip(res.x[:n_cols], 0.0, None)
    return mu / mu.sum()


def glue_scales(dists: Sequence[ZeroSetDistribution], randomness: RandomnessSpec) -> ZeroSetDistribution:
    """Mixture with truncated geometric weights 2^-k over the inputs."""
    kmax = len(dists)
    if kmax < 1:
        raise BadParams("need at least one distribution")
    w = np.array([2.0 ** -(k + 1) for k in range(kmax)])
    w = w / w.sum()

    def draw_fn(index: int) -> frozenset:
        rng = randomness.stream("glue", index)
        k = int(rng.choice(kmax, p=w))
        return dists[k].draw(index)

    dist = ZeroSetDistribution(
        "glued", {"kmax": kmax, "weights": w.tolist()}, draw_fn
    )
    dist.weights = w
    return dist


class GeneralZeroSetDistribution(ZeroSetDistribution):
    """Stopping-time zero sets on an arbitrary finite metric space.

    Per draw: a radius uniform on (tau/4, tau/2), i.i.d. measure-distributed
    points until every point of the space has been hit, and independent fair
    bits; the set keeps the points whose first hit carries bit one.
    """

    def __init__(
        self,
        space: FiniteMetricSpace,
        measure: PointMeasure,
        tau: float,
        randomness: RandomnessSpec,
        iteration_cap: int = 10**6,
        rejection_cap: int = 10**3,
    ):
        if tau <= 0:
            raise BadParams("tau must be positive")
        if len(measure.weights) != space.n:
            raise BadParams("measure size does not match the space")
        self.space = space
        self.measure = measure
        self.tau = float(tau)
        self.randomness = randomness
        self.iteration_cap = iteration_cap
        self.rejection_cap = rejection_cap
        self._probs = measure.weights / measure.total
        super().__init__("general", {"tau": tau})

    def draw_raw(self, index: int, attempt: int = 0) -> frozenset:
        """One unconditioned draw (may be empty)."""
        rng = self.randomness.stream("general", index, attempt)
        R = self.tau / 4.0 + float(rng.random()) * self.tau / 4.0
        D = self.space.dist
        selected = np.zeros(self.space.n, dtype=bool)
        undecided = np.ones(self.space.n, dtype=bool)
        for _t in range(self.iteration_cap):
            z = int(rng.choice(self.space.n, p=self._probs))
            bit = int(rng.integers(2))
            hit = undecided & (D[z] <= R)
            if bit:
                selected |= hit
            undecided &= ~hit
            if not undecided.any():
                return frozenset(int(i) for i in np.flatnonzero(selected))
        raise IterationCapExceeded(
            f"stopping times undetermined after {self.iteration_cap} samples"
        )

    def _draw(self, index: int) -> frozenset:
        for attempt in range(self.rejection_cap):
            Z = self.draw_raw(index, attempt)
            if Z:
                return Z
        raise RejectionCapExceeded(
            f"no nonempty zero set in {self.rejection_cap} attempts"
        )


def general_zeroset_sampler(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    tau: float,
    randomness: RandomnessSpec,
    iteration_cap: int = 10**6,
    rejection_cap: int = 10**3,
) -> GeneralZeroSetDistribution:
    return GeneralZeroSetDistribution(
        space, measure, tau, randomness, iteration_cap, rejection_cap
    )


def spreading_estimate(
    dist: ZeroSetDistribution,
    zeta: float,
    tau: float,
    pairs: Iterable[Tuple[int, int]],
    n_samples: int,
    space: FiniteMetricSpace,
) -> list:
    """Per-pair empirical spreading probability with a 95% confidence interval."""
    pairs = [(int(x), int(y)) for x, y in pairs]
    for x, y in pairs:
        if space.dist[x, y] < tau:
            raise PairTooClose(f"pair ({x},{y}) is closer than tau")
    counts = np.zeros(len(pairs))
    for k in range(n_samples):
        Z = dist.draw(k)
        Zidx = np.asarray(sorted(Z), dtype=int)
        for idx, (x, y) in enumerate(pairs):
            if x in Z and float(space.dist[y, Zidx].min()) >= tau / zeta:
                counts[idx] += 1
    out = []
    for idx, (x, y) in enumerate(pairs):
        p = counts[idx] / n_samples
        half = 1.96 * math.sqrt(max(p * (1 - p), 1e-12) / n_samples)
        out.append({"pair": (x, y), "estimate": p, "ci95": (max(0.0, p - half), min(1.0, p + half))})
    return out
