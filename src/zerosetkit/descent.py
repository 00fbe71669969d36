"""Measured descent: dyadic scale indices, multi-scale stochastic mixing of
zero-set distributions, the Fréchet embedding, and the end-to-end Euclidean
embedding pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ._rng import RandomnessSpec, _require_int, bounded_integers, raw_words
from .errors import BadParams, EmptyZeroSet, InfiniteIndex
from .graphs import _BLOCK
from .metric import (
    EmbeddingReport,
    EuclideanMap,
    FiniteMetricSpace,
    PointMeasure,
    QuasiParams,
    _frozen,
    distortion,
    snowflake_embed,
)
from .randomzero import (
    GluedDistribution,
    GoodGraph,
    ZeroSetDistribution,
    _draw_requests,
    _first_nonempty,
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


def _scale_window(space: FiniteMetricSpace) -> range:
    """The pipeline's dyadic scales, floor(log2 d_min) - 1 to ceil(log2 diam)."""
    return range(math.floor(math.log2(space.min_positive_distance)) - 1,
                 math.ceil(math.log2(space.diam)) + 1)


def _scale_table(space: FiniteMetricSpace, w: np.ndarray, ts) -> Tuple[np.ndarray, np.ndarray]:
    """The scale index of every point at each t of ``ts`` under the weights
    w, as a (T, n) int array, and the (T, n) mask of where it is finite.
    Both read one table of the ball masses w[d(x, .) <= 2^k].sum() for k
    from each scale of ``_scale_window`` plus one, top down (one masked row
    sum per k): the index is the first k whose mass is at most e^t, one
    below the last k when none is, and is not finite (and reads 0) where
    w[x] alone exceeds e^t."""
    total = float(w.sum())
    window = _scale_window(space)
    ks = range(window.stop, window.start, -1)
    masses = np.column_stack([np.where(space.dist <= 2.0**k, w, 0.0).sum(axis=1) for k in ks])
    scale = np.zeros((len(ts), space.n), dtype=np.int64)
    finite = np.zeros(scale.shape, dtype=bool)
    for row, t in enumerate(ts):
        cap = math.exp(t)
        if cap >= total:
            raise InfiniteIndex(f"e^t = {cap:g} is at least the total mass {total:g}")
        fits = masses <= cap
        first = np.where(fits.any(axis=1), fits.argmax(axis=1), len(ks))
        finite[row] = w <= cap
        scale[row] = np.where(finite[row], ks[0] - first, 0)
    return scale, finite


# -------------------------------------------------------------------------
# the mixer
# -------------------------------------------------------------------------


class MixedZeroSetDistribution(ZeroSetDistribution):
    """Scale-mixture zero sets: each point consults the distribution at its
    own (shifted, jittered) mass scale, with an independent fair-coin bailout.
    ``distributions`` maps integer scales to zero-set distributions on the
    space's points.

    Attempt ``attempt`` of draw ``index`` reads ``stream("mix", index,
    attempt)`` as a run of ``Generator.integers`` draws (``bounded_integers``):
    the shift i_shift, uniform on the space's dyadic scale window
    ``_scale_window(space)``, then t, uniform on ``range(T)``, then for each
    distinct finite scale index k at t (``_scale_table``), in increasing
    order, a fair bit sigma and a ternary eta.  A draw over m values takes
    the stream's next 32-bit half (a word's low half, then its high half)
    and reads none when m = 1, so without a Lemire rejection the shift and t
    take halves 0 and 1 and the p-th index's sigma and eta halves 2 + 2p and
    3 + 2p.  Point z with scale index k is then sent to scale j + eta with
    j = k - i_shift: it is kept when it lies in that scale's draw
    ``index * NONEMPTY_CAP + attempt`` or its sigma is 1.  The first
    nonempty attempt is the draw.

    ``draw_masks`` makes a block of draws together in the attempt rounds of
    ``_first_nonempty``: per round, one word call for every pending draw,
    and one request per scale for the nested draws (``_draw_requests``).
    """

    def __init__(
        self,
        space: FiniteMetricSpace,
        measure: PointMeasure,
        distributions: Dict[int, ZeroSetDistribution],
        randomness: RandomnessSpec,
    ):
        if not distributions:
            raise BadParams("need at least one scale distribution")
        if len(measure.weights) != space.n:
            raise BadParams(f"measure of {len(measure.weights)} masses on a space of "
                            f"{space.n} points")
        sizes = sorted({dist.n for dist in distributions.values()} - {space.n})
        if sizes:
            raise BadParams(f"scale distributions of size {sizes} on a space of {space.n} points")
        self.space = space
        self.n = space.n
        self.measure = measure
        self.distributions = distributions
        self.randomness = randomness
        self._streams = randomness.opener("mix")
        self._window = _scale_window(space)
        w = _normalized_weights(measure)
        phi = float(w.sum())  # aspect ratio after normalization
        self._trange = range(max(1, math.ceil(math.log(phi))))
        self._scale, self._live = _scale_table(space, w, self._trange)
        # each finite index's rank among the distinct ones at its t, the
        # place of its sigma and eta (0 where the index is not finite)
        self._rank = np.zeros_like(self._scale)
        for t, live in enumerate(self._live):
            self._rank[t, live] = np.unique(self._scale[t, live], return_inverse=True)[1]
        self._n_live = self._rank.max(axis=1, where=self._live, initial=-1) + 1

    @classmethod
    def _masks_for(cls, requests) -> list:
        return [_first_nonempty(mixer._attempt, indices, mixer.n, NONEMPTY_CAP, "mixed zero set")
                for mixer, indices in requests]

    def _attempt(self, indices: np.ndarray, attempt: int) -> np.ndarray:
        keys = np.column_stack([indices, np.full(len(indices), attempt)])
        shift, t, sigma, eta = _selectors(lambda k: raw_words([(self._streams, keys)], k),
                                          len(self._window), len(self._trange), self._n_live)
        rank = self._rank[t]
        live = self._live[t]
        scale = (self._scale[t] - (self._window.start + shift)[:, None]
                 + np.take_along_axis(eta, rank, axis=1))
        nested = indices * NONEMPTY_CAP + attempt
        requests, places = [], []
        for n_scale in np.unique(scale[live]).tolist():
            dist = self.distributions.get(n_scale)
            if dist is not None:
                at = live & (scale == n_scale)
                rows = np.flatnonzero(at.any(axis=1))
                requests.append((dist, nested[rows]))
                places.append((rows, at[rows]))
        member = np.zeros_like(live)
        for (rows, at), masks in zip(places, _draw_requests(requests)):
            member[rows] |= at & masks
        return live & (member | (np.take_along_axis(sigma, rank, axis=1) == 1))


def _selectors(read, n_shifts: int, n_t: int, n_live: np.ndarray):
    """The mixer's draws of each row's stream, from ``read(k)``, the rows'
    first ``k`` stream words: the shift's place in its range, t, and the
    (rows, max n_live) sigma bits and eta values, of which row r uses the
    first ``n_live[t[r]]``.  Rows are read again with twice the words while
    a Lemire rejection runs one past its words."""
    width = int(n_live.max())
    n_words = 1 + width
    while True:
        words = read(n_words)
        head, end = bounded_integers(words, [n_shifts, n_t])
        shift, t = head.T
        fields = np.where(np.arange(2 * width) < 2 * n_live[t][:, None],
                          np.tile([2, 3], width), 1)
        bits, end = bounded_integers(words, fields, end)
        if end.max(initial=0) <= 2 * n_words:
            return shift, t, bits[:, 0::2], bits[:, 1::2]
        n_words *= 2


# -------------------------------------------------------------------------
# Fréchet embedding
# -------------------------------------------------------------------------


def frechet_embed(space: FiniteMetricSpace, masks: np.ndarray) -> EuclideanMap:
    """Coordinates x -> d(x, Z_j)/sqrt(N) for the zero sets Z_j given as the
    rows of the (N, n) bool ``masks``; always 1-Lipschitz.  The distances are
    one masked minimum per block of rows, over at most ``_BLOCK`` (row, z, x)
    triples, with no array of that size made."""
    masks = np.asarray(masks, dtype=bool)
    n = space.n
    if masks.ndim != 2 or masks.shape[1] != n:
        raise BadParams(f"zero-set masks must have shape (N, {n}), not {masks.shape}")
    N = len(masks)
    if N == 0:
        raise BadParams("need at least one zero set")
    empty = ~masks.any(axis=1)
    if empty.any():
        raise EmptyZeroSet(f"zero set {int(empty.argmax())} is empty")
    to = np.ascontiguousarray(space.dist.T)  # to[z, x] = d(x, z)
    coords = np.empty((n, N))
    step = max(1, _BLOCK // (n * n))
    for lo in range(0, N, step):
        block = masks[lo:lo + step]
        coords[:, lo:lo + len(block)] = np.min(
            np.broadcast_to(to, (len(block), n, n)), axis=1,
            where=block[:, :, None], initial=np.inf).T
    return EuclideanMap(coords / math.sqrt(N))


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
        _require_int(self.n_samples, "n_samples")
        _require_int(self.rounds, "rounds")
        if self.n_samples < 1 or self.rounds < 1:
            raise BadParams("n_samples and rounds must be >= 1")


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

    It embeds D / 2^floor(log2 d_min), an exact division, and scales the
    coordinates back, so embed(2^j D) = 2^j embed(D) bit for bit.  A supplied
    ``phi`` is kept (the quasisymmetry test reads distance ratios only), and
    the distortion is reported against ``space``.
    """
    unit = 2.0 ** math.floor(math.log2(space.min_positive_distance))
    caller, space = space, FiniteMetricSpace(ids=space.ids, dist=_frozen(space.dist / unit))
    if phi is None or negative_type:
        phi = snowflake_embed(space, 0.5)
        params = params or QuasiParams(s=0.25, eps=0.5)
    if params is None:
        raise BadParams("params required when a comparison map is supplied")
    params = _quasisymmetric(space, phi, params)  # one scan for every good graph below

    r, beta = pipeline_scales(params)
    dists: Dict[int, ZeroSetDistribution] = {}
    # tau never falls from one scale to the next, so a (tau, C) already built
    # is the previous scale's: only its good graphs are kept
    goods: Dict[Tuple[float, float], GoodGraph] = {}
    for n_scale in _scale_window(space):
        rng = randomness.stream("offset", n_scale)
        offset = SCALE_OFFSETS[int(rng.integers(len(SCALE_OFFSETS)))]
        tau = min(offset * 2.0**n_scale, space.diam)
        per_level, previous, goods = [], goods, {}
        for k in range(1, LEVELS + 1):
            C = math.exp(k - 1)
            good = previous.get((tau, C))
            if good is None:
                good = good_graph_builder(space, measure, phi, params, tau, C, r=r, beta=beta)
            goods[tau, C] = good
            sampler = separated_pipeline(
                space, measure, phi, params, tau, C, randomness.child("scale", n_scale, k),
                good=good,
            )
            per_level.append(
                duality_solve(sampler, rounds=config.rounds,
                              randomness=randomness.child("duality", n_scale, k))
            )
        dists[n_scale] = GluedDistribution(per_level, randomness.child("glue", n_scale))

    mixer = MixedZeroSetDistribution(space, measure, dists, randomness.child("mixer"))
    emap = frechet_embed(space, mixer.draw_masks(np.arange(config.n_samples)))
    emap = EuclideanMap(unit * emap.coords)
    report = distortion(caller, emap)
    return emap, report
