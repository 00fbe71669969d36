"""Measured descent: dyadic scale indices, multi-scale stochastic mixing of
zero-set distributions, the Fréchet embedding, and the end-to-end Euclidean
embedding pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ._rng import RandomnessSpec
from .errors import BadParams, EmptyZeroSet, InfiniteIndex, RejectionCapExceeded
from .graphs import PairWeighting
from .metric import (
    EmbeddingReport,
    EuclideanMap,
    FiniteMetricSpace,
    PointMeasure,
    QuasiParams,
    distortion,
    snowflake_embed,
)
from .randomzero import (
    ZeroSetDistribution,
    duality_solve,
    glue_scales,
    good_graph_builder,
    separated_pipeline,
)

# -------------------------------------------------------------------------
# scale indices
# -------------------------------------------------------------------------


def _normalized_weights(measure: PointMeasure) -> np.ndarray:
    """Rescale so the smallest point mass is exactly 1."""
    w = measure.weights
    return w / w.min()


def ck_scale_index(
    space: FiniteMetricSpace, measure: PointMeasure, x: int, t: float
) -> Optional[int]:
    """Largest integer k with mu(B(x, 2^k)) <= e^t, under min-mass-1 scaling.

    Returns None when even the point's own mass exceeds e^t (no admissible
    scale exists); callers treat such points as belonging to no level.
    """
    w = _normalized_weights(measure)
    cap = math.exp(t)
    if cap >= w.sum():
        raise InfiniteIndex(f"e^t = {cap:g} is at least the total mass {w.sum():g}")
    if w[x] > cap:
        return None
    D = space.dist[x]
    k = math.ceil(math.log2(space.diam)) + 1
    k_floor = math.floor(math.log2(space.min_positive_distance)) - 1
    while k > k_floor:
        if float(w[D <= 2.0**k].sum()) <= cap:
            return k
        k -= 1
    return k


def log_ball_mass(
    space: FiniteMetricSpace, measure: PointMeasure, x: int, theta: float
) -> float:
    """log mu(B(x, 2^theta)) under min-mass-1 scaling; the inverse of the
    scale index viewed as a function of t."""
    w = _normalized_weights(measure)
    return math.log(float(w[space.dist[x] <= 2.0**theta].sum()))


# -------------------------------------------------------------------------
# the mixer
# -------------------------------------------------------------------------


@dataclass(frozen=True)
class MixerConfig:
    """Shift window (a, b), one zero-set distribution per integer scale, and
    the nonemptiness rejection cap."""

    a: float
    b: float
    distributions: Dict[int, ZeroSetDistribution]
    nonempty_cap: int = 10**3

    def __post_init__(self):
        if not self.a > self.b:
            raise BadParams("require a > b")
        if not self.distributions:
            raise BadParams("scale window must be nonempty")

    @property
    def shift_range(self) -> range:
        return range(math.ceil(self.b), math.ceil(self.a) + 1)


def draw_bit_fields(rng: np.random.Generator, indices: Sequence[int]) -> Tuple[dict, dict]:
    """Fair bits sigma_i and uniform ternary eta_i for the given indices,
    materialized in increasing index order."""
    sigma, eta = {}, {}
    for i in sorted(set(int(i) for i in indices)):
        sigma[i] = int(rng.integers(2))
        eta[i] = int(rng.integers(3))
    return sigma, eta


class MixedZeroSetDistribution(ZeroSetDistribution):
    """Scale-mixture zero sets: each point consults the distribution at its
    own (shifted, jittered) mass scale, with an independent fair-coin bailout."""

    def __init__(
        self,
        space: FiniteMetricSpace,
        measure: PointMeasure,
        config: MixerConfig,
        randomness: RandomnessSpec,
    ):
        self.space = space
        self.measure = measure
        self.config = config
        self.randomness = randomness
        w = _normalized_weights(measure)
        phi = float(w.sum())  # aspect ratio after normalization
        self._trange = range(max(1, math.ceil(math.log(phi))))
        self._ck = {}
        for t in self._trange:
            self._ck[t] = [ck_scale_index(space, measure, z, t) for z in range(space.n)]
        super().__init__(
            "mixed",
            {"a": config.a, "b": config.b, "scales": sorted(config.distributions)},
        )

    def _draw(self, index: int) -> frozenset:
        for attempt in range(self.config.nonempty_cap):
            Z = self._draw_once(index, attempt)
            if Z:
                return Z
        raise RejectionCapExceeded(
            f"no nonempty mixed zero set in {self.config.nonempty_cap} attempts"
        )

    def _draw_once(self, index: int, attempt: int) -> frozenset:
        rng = self.randomness.stream("mix", index, attempt)
        shifts = list(self.config.shift_range)
        i_shift = shifts[int(rng.integers(len(shifts)))]
        t = int(rng.integers(len(self._trange)))
        ck = self._ck[t]
        needed = [ck[z] - i_shift for z in range(self.space.n) if ck[z] is not None]
        sigma, eta = draw_bit_fields(rng, needed)
        scale_of = {}
        for z in range(self.space.n):
            if ck[z] is None:
                continue
            j = ck[z] - i_shift
            scale_of[z] = j + eta[j]
        sets = {}
        for n_scale in sorted(set(scale_of.values())):
            dist = self.config.distributions.get(n_scale)
            if dist is not None:
                sets[n_scale] = dist.draw(index * self.config.nonempty_cap + attempt)
        Z = set()
        for z in range(self.space.n):
            if ck[z] is None:
                continue
            j = ck[z] - i_shift
            in_scale_set = z in sets.get(scale_of[z], ())
            if in_scale_set or sigma[j] == 1:
                Z.add(z)
        return frozenset(Z)


def mixed_zeroset_sampler(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    config: MixerConfig,
    randomness: RandomnessSpec,
) -> MixedZeroSetDistribution:
    return MixedZeroSetDistribution(space, measure, config, randomness)


# -------------------------------------------------------------------------
# Fréchet embedding
# -------------------------------------------------------------------------


def frechet_embed(space: FiniteMetricSpace, zero_sets: Sequence[frozenset]) -> EuclideanMap:
    """Coordinates x -> d(x, Z_j)/sqrt(N); always 1-Lipschitz."""
    N = len(zero_sets)
    if N == 0:
        raise BadParams("need at least one zero set")
    coords = np.empty((space.n, N))
    for j, Z in enumerate(zero_sets):
        if not Z:
            raise EmptyZeroSet(f"zero set {j} is empty")
        idx = np.asarray(sorted(Z), dtype=int)
        coords[:, j] = space.dist[:, idx].min(axis=1) / math.sqrt(N)
    return EuclideanMap(coords)


# -------------------------------------------------------------------------
# end-to-end pipeline
# -------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbedConfig:
    """Knobs for the end-to-end embedder; defaults suit spaces up to ~64 points."""

    n_samples: int = 512
    rounds: int = 16
    kmax: int = 2
    alpha_cfg: float = 2.0
    zeta: float = 2.0
    mode: str = "mw"
    granularity: float = 1.0
    nonempty_cap: int = 10**3


def _uniform_far_weighting(space: FiniteMetricSpace, tau: float) -> PairWeighting:
    """The uniform weighting on ordered pairs at distance >= tau."""
    D = space.dist
    sup = (D >= tau) & ~np.eye(space.n, dtype=bool)
    W = np.where(sup, 1.0, 0.0)
    return PairWeighting(W / W.sum(), tau, space)


def euclidean_embed_pipeline(
    space: FiniteMetricSpace,
    measure: PointMeasure,
    phi: Optional[EuclideanMap] = None,
    params: Optional[QuasiParams] = None,
    negative_type: bool = False,
    config: EmbedConfig = EmbedConfig(),
    randomness: RandomnessSpec = RandomnessSpec(0),
) -> Tuple[EuclideanMap, EmbeddingReport]:
    """Multi-scale zero sets glued over levels, mixed across scales, and
    turned into Euclidean coordinates by sampled Fréchet distances.

    When ``negative_type`` is set (or no map is given) the half-snowflake
    provides the comparison map.
    """
    if phi is None or negative_type:
        phi = snowflake_embed(space, 0.5)
        params = params or QuasiParams(s=0.25, eps=0.5)
    if params is None:
        raise BadParams("params required when a comparison map is supplied")

    n_lo = math.floor(math.log2(space.min_positive_distance)) - 1
    n_hi = math.ceil(math.log2(space.diam))
    offsets = [1.0, 1.0 + config.granularity]
    dists: Dict[int, ZeroSetDistribution] = {}
    for n_scale in range(n_lo, n_hi + 1):
        rng = randomness.stream("offset", n_scale)
        tau = min(offsets[int(rng.integers(len(offsets)))] * 2.0**n_scale, space.diam)
        per_level = []
        for k in range(1, config.kmax + 1):
            C = math.exp(k - 1)
            good = good_graph_builder(
                space, measure, phi, params, tau, C,
                r=config.zeta * config.alpha_cfg,
                beta=params.s ** (config.alpha_cfg / params.eps),
                zeta=config.zeta, enforce_beta_bound=False,
            )
            sampler = separated_pipeline(
                space, measure, phi, params, tau, C, config.alpha_cfg,
                _uniform_far_weighting(space, tau), randomness.child("scale", n_scale, k),
                zeta=config.zeta, good=good,
            )
            per_level.append(
                duality_solve(
                    space, tau, sampler, mode=config.mode, rounds=config.rounds,
                    randomness=randomness.child("duality", n_scale, k),
                )
            )
        dists[n_scale] = glue_scales(per_level, randomness.child("glue", n_scale))

    mixer = mixed_zeroset_sampler(
        space,
        measure,
        MixerConfig(a=float(n_hi), b=float(n_lo), distributions=dists,
                    nonempty_cap=config.nonempty_cap),
        randomness.child("mixer"),
    )
    zero_sets = [mixer.draw(j) for j in range(config.n_samples)]
    emap = frechet_embed(space, zero_sets)
    report = distortion(space, emap)
    return emap, report
