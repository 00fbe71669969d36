"""Measured descent: dyadic scale indices, multi-scale stochastic mixing of
zero-set distributions, the Fréchet embedding, and the end-to-end Euclidean
embedding pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    GluedDistribution,
    ZeroSetDistribution,
    _quasisymmetric,
    duality_solve,
    good_graph_builder,
    pipeline_scales,
    separated_pipeline,
)

LEVELS = 2  # duality levels glued per scale, level k at C = e^(k-1)
SCALE_OFFSETS = (1.0, 2.0)  # tau = offset * 2^scale, the offset drawn per scale
NONEMPTY_CAP = 10**3  # mixer attempts per draw; also the stride of its scale-draw index

# -------------------------------------------------------------------------
# scale indices
# -------------------------------------------------------------------------


def _normalized_weights(measure: PointMeasure) -> np.ndarray:
    """Rescale so the smallest point mass is exactly 1."""
    w = measure.weights
    return w / w.min()


def _scale_indices(space: FiniteMetricSpace, w: np.ndarray, points, ts) -> dict:
    """t -> the scale index of each x in ``points`` at t, under the weights
    w, from one table of the ball masses w[d(x, .) <= 2^k].sum() for k from
    the top down: the first k whose mass is at most e^t, one below the last
    k when none is, None when w[x] alone exceeds e^t."""
    total = float(w.sum())
    k_floor = math.floor(math.log2(space.min_positive_distance)) - 1
    ks = range(math.ceil(math.log2(space.diam)) + 1, k_floor, -1)
    masses = np.array([[float(w[space.dist[x] <= 2.0**k].sum()) for k in ks] for x in points])
    own = w[list(points)].tolist()
    out = {}
    for t in ts:
        cap = math.exp(t)
        if cap >= total:
            raise InfiniteIndex(f"e^t = {cap:g} is at least the total mass {total:g}")
        fits = masses <= cap
        first = np.where(fits.any(axis=1), fits.argmax(axis=1), len(ks)).tolist()
        out[t] = [None if o > cap else ks[0] - i for o, i in zip(own, first)]
    return out


# -------------------------------------------------------------------------
# the mixer
# -------------------------------------------------------------------------


@dataclass(frozen=True)
class MixerConfig:
    """Shift window (a, b) and one zero-set distribution per integer scale."""

    a: float
    b: float
    distributions: Dict[int, ZeroSetDistribution]

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
    own (shifted, jittered) mass scale, with an independent fair-coin bailout.

    Attempt ``attempt`` of draw ``index`` reads ``stream("mix", index,
    attempt)``.
    """

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
        self._streams = randomness.opener("mix")
        w = _normalized_weights(measure)
        phi = float(w.sum())  # aspect ratio after normalization
        self._trange = range(max(1, math.ceil(math.log(phi))))
        self._ck = _scale_indices(space, w, range(space.n), self._trange)

    def _draw(self, index: int) -> frozenset:
        for attempt in range(NONEMPTY_CAP):
            Z = self._draw_once(index, attempt)
            if Z:
                return Z
        raise RejectionCapExceeded(
            f"no nonempty mixed zero set in {NONEMPTY_CAP} attempts"
        )

    def _draw_once(self, index: int, attempt: int) -> frozenset:
        rng = self._streams(index, attempt)
        shifts = list(self.config.shift_range)
        i_shift = shifts[int(rng.integers(len(shifts)))]
        t = int(rng.integers(len(self._trange)))
        # (point, shifted scale index) of every point with a finite index
        live = [(z, k - i_shift) for z, k in enumerate(self._ck[t]) if k is not None]
        sigma, eta = draw_bit_fields(rng, [j for _z, j in live])
        scale_of = {z: j + eta[j] for z, j in live}
        sets = {}
        for n_scale in sorted(set(scale_of.values())):
            dist = self.config.distributions.get(n_scale)
            if dist is not None:
                sets[n_scale] = dist.draw(index * NONEMPTY_CAP + attempt)
        return frozenset(z for z, j in live if z in sets.get(scale_of[z], ()) or sigma[j] == 1)


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
    """Fréchet coordinates drawn and multiplicative-weights rounds per duality
    solve; the defaults suit spaces up to ~64 points."""

    n_samples: int = 512
    rounds: int = 16

    def __post_init__(self):
        if self.n_samples < 1 or self.rounds < 1:
            raise BadParams("n_samples and rounds must be >= 1")


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
    params = _quasisymmetric(space, phi, params)  # one scan for every good graph below

    n_lo = math.floor(math.log2(space.min_positive_distance)) - 1
    n_hi = math.ceil(math.log2(space.diam))
    r, beta = pipeline_scales(params)
    dists: Dict[int, ZeroSetDistribution] = {}
    for n_scale in range(n_lo, n_hi + 1):
        rng = randomness.stream("offset", n_scale)
        offset = SCALE_OFFSETS[int(rng.integers(len(SCALE_OFFSETS)))]
        tau = min(offset * 2.0**n_scale, space.diam)
        per_level = []
        for k in range(1, LEVELS + 1):
            C = math.exp(k - 1)
            good = good_graph_builder(
                space, measure, phi, params, tau, C, r=r, beta=beta,
                enforce_beta_bound=False,
            )
            sampler = separated_pipeline(
                space, measure, phi, params, tau, C,
                _uniform_far_weighting(space, tau), randomness.child("scale", n_scale, k),
                good=good,
            )
            per_level.append(
                duality_solve(
                    space, tau, sampler, rounds=config.rounds,
                    randomness=randomness.child("duality", n_scale, k),
                )
            )
        dists[n_scale] = GluedDistribution(per_level, randomness.child("glue", n_scale))

    mixer = MixedZeroSetDistribution(
        space,
        measure,
        MixerConfig(a=float(n_hi), b=float(n_lo), distributions=dists),
        randomness.child("mixer"),
    )
    zero_sets = [mixer.draw(j) for j in range(config.n_samples)]
    emap = frechet_embed(space, zero_sets)
    report = distortion(space, emap)
    return emap, report
