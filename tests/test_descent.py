import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zerosetkit import descent, randomzero
from zerosetkit._rng import RandomnessSpec, StreamOpener, substream
from zerosetkit.descent import (
    NONEMPTY_CAP,
    EmbedConfig,
    MixedZeroSetDistribution,
    _normalized_weights,
    _scale_table,
    _scale_window,
    _selectors,
    euclidean_embed_pipeline,
    frechet_embed,
)
from zerosetkit.errors import (
    BadParams,
    ConclusionViolated,
    EmptyZeroSet,
    InfiniteIndex,
    QuasisymmetryViolated,
    RejectionCapExceeded,
    ZerosetkitError,
)
from zerosetkit.metric import (
    PointMeasure,
    QuasiParams,
    generate_instance,
    quasisym_check,
    snowflake_embed,
    validate_metric,
)
from zerosetkit.randomzero import (
    DualityDistribution,
    GluedDistribution,
    duality_solve,
    general_zeroset_sampler,
    separated_pipeline,
)
from zerosetkit.verify import GOLDEN_DISTORTION_RATIO

from conftest import ConstantDistribution, space_from_points


def _line_space(n):
    return space_from_points(np.arange(n, dtype=float)[:, None])


# -------------------------------------------------------------------------
# scale indices
# -------------------------------------------------------------------------


def _brute_scale_index(space, measure, x, t):
    """Definition-level oracle: the largest k with mu(B(x, 2^k)) <= e^t."""
    w = measure.weights / measure.weights.min()
    cap = math.exp(t)
    k_hi = math.ceil(math.log2(space.diam)) + 1
    k_lo = math.floor(math.log2(space.min_positive_distance)) - 1
    for k in range(k_hi, k_lo - 1, -1):
        if float(w[space.dist[x] <= 2.0**k].sum()) <= cap:
            return k
    return k_lo


def _scale_indices_loop(space, w, points, ts):
    """t -> the scale index of each x in ``points`` at t, None where it is not
    finite, with each ball mass summed on its own: ``_scale_table``'s
    reference."""
    total = float(w.sum())
    window = _scale_window(space)
    ks = range(window.stop, window.start, -1)
    masses = np.array([[float(w[space.dist[x] <= 2.0**k].sum()) for k in ks] for x in points])
    out = {}
    for t in ts:
        cap = math.exp(t)
        assert cap < total
        fits = masses <= cap
        first = np.where(fits.any(axis=1), fits.argmax(axis=1), len(ks)).tolist()
        out[t] = [None if w[x] > cap else ks[0] - i for x, i in zip(points, first)]
    return out


def _table_lists(space, w, ts):
    """``_scale_table`` as the reference's per-point lists."""
    scale, finite = _scale_table(space, w, ts)
    assert scale.shape == finite.shape == (len(ts), space.n)
    assert not scale[~finite].any()  # 0 where the index is not finite
    return {t: [int(k) if f else None for k, f in zip(scale[row], finite[row])]
            for row, t in enumerate(ts)}


def _random_weights(rng, n, integral):
    return (rng.integers(1, 50, n).astype(float) if integral
            else _normalized_weights(PointMeasure(rng.uniform(0.5, 2.0, n))))


def _t_range(w):
    return range(max(1, math.ceil(math.log(float(w.sum())))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 128), st.booleans())
def test_scale_indices_are_the_ball_by_ball_indices(seed, n, integral):
    rng = np.random.default_rng(seed)
    space = space_from_points(rng.normal(size=(n, 3)) * rng.uniform(0.5, 20.0))
    w = _random_weights(rng, n, integral)
    ts = _t_range(w)
    assert _table_lists(space, w, ts) == _scale_indices_loop(space, w, range(n), ts)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_scale_table_spans_a_huge_aspect_ratio(seed, integral):
    # points 2^i on a line, i < 30: distances from 1 to 2^29 - 1, a window of
    # 31 scales
    rng = np.random.default_rng(seed)
    space = space_from_points(2.0 ** np.arange(30)[:, None])
    assert len(_scale_window(space)) == 31
    w = _random_weights(rng, space.n, integral)
    ts = _t_range(w)
    assert _table_lists(space, w, ts) == _scale_indices_loop(space, w, range(space.n), ts)


def _ck(space, mu, x, t):
    """The scale index of x at t, read off the mixer's table helper."""
    scale, finite = _scale_table(space, _normalized_weights(mu), [t])
    return int(scale[0, x]) if finite[0, x] else None


def test_ck_scale_index_matches_oracle(cube3):
    space = cube3.space
    rng = substream(7, "test", "ck")
    for _ in range(20):
        mu = PointMeasure(rng.random(space.n) + 0.5)
        t = float(rng.random() * math.log(mu.weights.sum() / mu.weights.min()) * 0.9)
        for x in range(space.n):
            got = _ck(space, mu, x, t)
            w = mu.weights / mu.weights.min()
            if w[x] > math.exp(t):
                assert got is None
            else:
                assert got == _brute_scale_index(space, mu, x, t)


def test_ck_scale_index_infinite_cap(cube3):
    mu = PointMeasure(np.ones(8))
    with pytest.raises(InfiniteIndex):
        _ck(cube3.space, mu, 0, t=math.log(8.0) + 1.0)


def test_log_ball_mass_inverts_scale_index(cube3):
    space = cube3.space
    mu = PointMeasure(np.ones(8))
    # ball of radius 2^1 around a corner holds 1 + 3 + 3 = 7 points, radius
    # 2^0 holds 4: just above t = log 7 the index is 1, just below it 0
    assert _ck(space, mu, 0, math.log(7.0) + 1e-9) == 1
    assert _ck(space, mu, 0, math.log(7.0) - 1e-9) == 0


# -------------------------------------------------------------------------
# selector fields
# -------------------------------------------------------------------------


def _words(halves):
    """uint64 words of 32-bit halves, each word's low half first."""
    h = np.asarray(halves, dtype=np.uint64).reshape(len(halves), -1, 2)
    return h[..., 0] | (h[..., 1] << np.uint64(32))


def test_selectors_decode_lemire_rejections_and_read_past_them():
    # one shift and one t read nothing; two (sigma, eta) pairs follow.  eta =
    # integers(3) rejects exactly the zero half (its 2^32 mod 3 is 1)
    top = 2**32 - 1
    halves = [
        # sigma 1; eta rejects 0, then reads top: 2; sigma 0; eta rejects 0
        # twice, runs past the first read's 3 words and reads 2^31: 1
        [top, 0, top, 0, 0, 0, 2**31, 0],
        # no rejection: sigma 1, eta 1, sigma 0, eta 2
        [2**31, 2**31, 0, top, 5, 5, 5, 5],
    ]
    reads = []

    def read(k):
        reads.append(k)
        return _words(halves)[:, :k]

    _shift, _t, sigma, eta = _selectors(read, 1, 1, np.array([2]))
    assert reads == [3, 6]  # 1 + 2 words, then twice that
    assert sigma.tolist() == [[1, 0], [1, 0]]
    assert eta.tolist() == [[2, 1], [1, 2]]


# -------------------------------------------------------------------------
# Fréchet embedding
# -------------------------------------------------------------------------


def _masks(zero_sets, n):
    masks = np.zeros((len(zero_sets), n), dtype=bool)
    for row, Z in enumerate(zero_sets):
        masks[row, list(Z)] = True
    return masks


def test_frechet_is_exactly_one_lipschitz(cube4, uniform_measure):
    space = cube4.space
    dist = general_zeroset_sampler(space, uniform_measure(space), 2.0, RandomnessSpec(2))
    zero_sets = [dist.draw(k) for k in range(32)]
    emap = frechet_embed(space, _masks(zero_sets, space.n))
    assert emap.dim == 32
    E = emap.image_distances()
    assert np.all(E <= space.dist + 1e-9)
    # coordinate formula: d(x, Z_j) / sqrt(N), bit for bit
    for j, Z in enumerate(zero_sets):
        Zidx = np.asarray(sorted(Z), dtype=int)
        assert np.array_equal(emap.coords[:, j], space.dist[:, Zidx].min(axis=1) / math.sqrt(32))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 128), st.integers(1, 40))
def test_frechet_map_is_one_lipschitz_on_random_masks(seed, n, N):
    rng = np.random.default_rng(seed)
    space = space_from_points(rng.standard_normal((n, int(rng.integers(1, 4)))))
    masks = rng.random((N, n)) < rng.uniform(0.02, 0.9)
    masks[np.arange(N), rng.integers(0, n, N)] = True  # every zero set nonempty
    emap = frechet_embed(space, masks)
    assert emap.coords.shape == (n, N)
    # each coordinate is 1/sqrt(N)-Lipschitz, so the map is 1-Lipschitz
    off = ~np.eye(n, dtype=bool)
    assert np.all(emap.image_distances()[off] <= space.dist[off] * (1 + 1e-12))
    row = int(rng.integers(N))
    want = space.dist[:, masks[row]].min(axis=1) / math.sqrt(N)
    assert np.array_equal(emap.coords[:, row], want)


def test_frechet_rejects_empty_inputs(cube3):
    with pytest.raises(BadParams):
        frechet_embed(cube3.space, np.zeros((0, 8), dtype=bool))
    for shape in [(4, 7), (4, 9), (8,), (2, 4, 8)]:
        with pytest.raises(BadParams, match="shape"):
            frechet_embed(cube3.space, np.ones(shape, dtype=bool))
    masks = np.ones((3, 8), dtype=bool)
    masks[1] = False
    with pytest.raises(EmptyZeroSet, match="zero set 1 is empty"):
        frechet_embed(cube3.space, masks)


# -------------------------------------------------------------------------
# the mixer
# -------------------------------------------------------------------------


def test_mixer_rejects_distributions_of_another_size():
    # 16-point distributions, or a measure of 5 masses, on a 9-point space:
    # the nested rows or the ball masses would not fit the mixer's
    space = generate_instance("grid", {"rows": 3, "cols": 3}).space
    grid4 = generate_instance("grid", {"rows": 4, "cols": 4}).space
    mu = PointMeasure(np.ones(9))
    wide = general_zeroset_sampler(grid4, PointMeasure(np.ones(16)), 2.0, RandomnessSpec(0))
    with pytest.raises(BadParams, match=r"size \[16\] on a space of 9 points"):
        MixedZeroSetDistribution(space, mu, {0: wide, 1: wide}, RandomnessSpec(0))
    with pytest.raises(BadParams, match=r"size \[1, 16\] on a space of 9 points"):
        MixedZeroSetDistribution(
            space, mu, {0: wide, 1: ConstantDistribution({0}, 1), 2: ConstantDistribution({0}, 9)},
            RandomnessSpec(0))
    narrow = {0: ConstantDistribution({4}, 9)}
    with pytest.raises(BadParams, match=r"measure of 5 masses on a space of 9 points"):
        MixedZeroSetDistribution(space, PointMeasure(np.ones(5)), narrow, RandomnessSpec(0))
    with pytest.raises(BadParams, match="at least one scale distribution"):
        MixedZeroSetDistribution(space, mu, {}, RandomnessSpec(0))
    mixer = MixedZeroSetDistribution(space, mu, narrow, RandomnessSpec(0))
    assert mixer.n == 9 and mixer.draw_masks(range(5)).shape == (5, 9)


def test_mixed_sampler_draws_are_valid_and_deterministic():
    space = _line_space(8)
    mu = PointMeasure(np.ones(8))
    dists = {k: ConstantDistribution(range(8), 8) for k in range(-2, 4)}
    m1 = MixedZeroSetDistribution(space, mu, dists, RandomnessSpec(4))
    m2 = MixedZeroSetDistribution(space, mu, dists, RandomnessSpec(4))
    for k in range(60):
        Z = m1.draw(k)
        assert Z and Z <= frozenset(range(8))
        assert Z == m2.draw(k)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 128))
def test_mixer_scale_table_matches_the_scale_index(seed, n):
    # random float masses: the table's masked sums must be the walk's own
    rng = np.random.default_rng(seed)
    space = space_from_points(rng.standard_normal((n, int(rng.integers(1, 4)))))
    mu = PointMeasure(rng.uniform(0.1, 3.0, n))
    mixer = MixedZeroSetDistribution(space, mu, {0: ConstantDistribution({0}, n)},
                                     RandomnessSpec(0))
    w = mu.weights / mu.weights.min()
    for t in mixer._trange:
        for x in range(n):
            want = None if w[x] > math.exp(t) else _brute_scale_index(space, mu, x, t)
            got = int(mixer._scale[t, x]) if mixer._live[t, x] else None
            assert got == _ck(space, mu, x, t) == want


def test_nested_draws_are_independent_of_draw_order(grid4):
    # mixer -> glue -> duality -> separated pairs, each reading its streams
    # through its own reused generator: the sets drawn must not depend on the
    # order in which the four levels are asked, or a generator is shared
    space = grid4.space
    mu = PointMeasure(np.ones(space.n))
    sampler = separated_pipeline(
        space, mu, snowflake_embed(space, 0.5), QuasiParams(0.25, 0.5), 2.0, 1.0,
        RandomnessSpec(0, ("nest", "pairs")),
    )
    dual = duality_solve(sampler, rounds=10, randomness=RandomnessSpec(0, ("nest", "duality")))
    glue = GluedDistribution([dual, dual], RandomnessSpec(0, ("nest", "glue")))
    mixer = MixedZeroSetDistribution(space, mu, {k: glue for k in range(-1, 4)},
                                     RandomnessSpec(0, ("nest", "mixer")))
    draw = {"mixer": mixer.draw, "glue": glue.draw, "duality": dual.draw, "pairs": sampler.draw}
    # 70 draws of each cross a block of 64 streams
    calls = [(name, k) for name in draw for k in range(70)]

    def run(order):
        return {call: draw[call[0]](call[1]) for call in order}

    in_order = run(calls)
    assert run(calls[::-1]) == in_order
    shuffled = [calls[i] for i in np.random.default_rng(5).permutation(len(calls))]
    assert run(shuffled) == in_order


def _fresh_mixer_draw(mixer, index):
    """The per-point mixer the block draw replaced: attempt by attempt, a
    fresh generator per attempt, the shift drawn over the space's scale
    window, the scale indices summed ball by ball, the bit fields
    materialized in increasing index order and the nested draws made scale
    by scale."""
    space = mixer.space
    shifts = list(_scale_window(space))
    ts = mixer._trange
    indices = _scale_indices_loop(space, _normalized_weights(mixer.measure), range(space.n), ts)
    for attempt in range(NONEMPTY_CAP):
        rng = mixer.randomness.stream("mix", index, attempt)
        i_shift = shifts[int(rng.integers(len(shifts)))]
        t = int(rng.integers(len(ts)))
        live = [(z, k - i_shift) for z, k in enumerate(indices[t]) if k is not None]
        sigma, eta = {}, {}
        for j in sorted({j for _z, j in live}):
            sigma[j] = int(rng.integers(2))
            eta[j] = int(rng.integers(3))
        scale_of = {z: j + eta[j] for z, j in live}
        sets = {}
        for n_scale in sorted(set(scale_of.values())):
            dist = mixer.distributions.get(n_scale)
            if dist is not None:
                sets[n_scale] = _fresh_draw(dist, index * NONEMPTY_CAP + attempt)
        Z = frozenset(z for z, j in live if z in sets.get(scale_of[z], ()) or sigma[j] == 1)
        if Z:
            return Z
    raise RejectionCapExceeded(f"no nonempty mixed zero set in {NONEMPTY_CAP} attempts")


def _fresh_draw(dist, index):
    """``dist.draw(index)`` one draw at a time from fresh generators: glue
    and duality picks by ``Generator.choice``, the duality coin by
    ``integers(2)``."""
    if isinstance(dist, MixedZeroSetDistribution):
        Z = _fresh_mixer_draw(dist, index)
    elif isinstance(dist, GluedDistribution):
        rng = dist.randomness.stream("glue", index)
        Z = _fresh_draw(dist.dists[int(rng.choice(len(dist.weights), p=dist.weights))], index)
    elif isinstance(dist, DualityDistribution):
        rng = dist.randomness.stream("zeroset", index)
        column = dist.columns[int(rng.choice(len(dist.mixture), p=dist.mixture))]
        Z = frozenset(column[int(rng.integers(2))].nonzero()[0].tolist())
    else:
        Z = dist.draw(index)
    if not Z:
        raise ConclusionViolated("a zero-set draw came out empty")
    return Z


def _rows(masks):
    return [frozenset(row.nonzero()[0].tolist()) for row in masks]


def _outcome(draw):
    """What ``draw()`` returns, or the type and message of what it raises."""
    try:
        return draw()
    except ZerosetkitError as exc:
        return type(exc), str(exc)


def _random_duality(rng, n, spec, empty_side=False):
    m = int(rng.integers(1, 5))
    columns = rng.random((m, 2, n)) < 0.3
    columns[np.arange(m)[:, None], np.arange(2), rng.integers(0, n, (m, 2))] = True
    if empty_side:
        columns[0, 1] = False
    space = space_from_points(np.arange(n, dtype=float)[:, None])
    return DualityDistribution(columns, rng.dirichlet(np.ones(m)), space, 1.0, np.zeros(n),
                               spec)


# label prefixes of every length class: under the SeedSequence pool's 4 words
# (the seed and the name alone), exactly 4, and over it with negative labels
def _specs(seed):
    return [RandomnessSpec(seed), RandomnessSpec(2**40 + seed), RandomnessSpec(seed, ("s", 3)),
            RandomnessSpec(seed, ("s", -3, 2)), RandomnessSpec(seed, (-1, -2, "t"))]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_glue_duality_and_mixer_draws_are_fresh_streams_in_any_order(seed):
    # mixer -> glue -> duality as the pipeline nests them; the dualities'
    # prefixes fall in different length classes
    rng = np.random.default_rng(seed)
    space = _line_space(8)
    mu = PointMeasure(np.ones(8))
    duals = [_random_duality(rng, 8, spec) for spec in _specs(seed)[:3]]
    glue = GluedDistribution(duals, RandomnessSpec(seed, ("glue",)))
    mixer = MixedZeroSetDistribution(space, mu, {k: glue for k in range(-1, 4)},
                                     RandomnessSpec(seed, ("mixer",)))
    dists = {"mixer": mixer, "glue": glue, "dual0": duals[0], "dual1": duals[1]}
    calls = [(name, k) for name in dists for k in range(20)]
    expected = {(name, k): _fresh_draw(dists[name], k) for name, k in calls}
    assert {(name, k): dists[name].draw(k) for name, k in calls} == expected
    for i in rng.permutation(len(calls) + 20) % len(calls):
        name, k = calls[i]
        assert dists[name].draw(k) == expected[name, k]
    # block draws of any index order, repeats included
    for name, dist in dists.items():
        order = rng.permutation(40) % 20
        assert _rows(dist.draw_masks(order)) == [expected[name, k] for k in order.tolist()]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9),
       st.lists(st.integers(-2**40, 2**40) | st.integers(0, 70), min_size=1, max_size=12))
@example(0, 2, [0, 3, 2**40, -7])  # one t
def test_mixer_block_masks_match_the_per_point_mixer(seed, n, indices):
    # the shift is drawn over the space's scale window, which spans at least
    # two scales; uniform masses on two points give one t.  Nested
    # distributions hold few points, so that attempts often come out empty
    # and are retried; scales reach below zero, and the large indices make
    # nested keys of two entropy words
    rng = np.random.default_rng(seed)
    space = space_from_points(rng.standard_normal((n, int(rng.integers(1, 3)))))
    uniform = n == 2 or rng.random() < 0.5
    mu = PointMeasure(np.ones(n) if uniform else rng.uniform(1.0, 5.0, n))
    specs = _specs(seed)
    dists = {}
    for k in range(-8, 5):
        kind = int(rng.integers(4))
        spec = specs[int(rng.integers(len(specs)))].child(k)
        if kind == 1:
            dists[k] = ConstantDistribution({int(rng.integers(n))}, n)
        elif kind == 2:
            dists[k] = _random_duality(rng, n, spec)
        elif kind == 3:
            parts = [_random_duality(rng, n, spec.child(i)) for i in range(int(rng.integers(1, 4)))]
            dists[k] = GluedDistribution(parts, spec)
    dists = dists or {0: ConstantDistribution({0}, n)}
    mixer = MixedZeroSetDistribution(space, mu, dists,
                                     specs[int(rng.integers(len(specs)))].child("mixer"))
    assert len(_scale_window(space)) >= 2
    if n == 2:
        assert len(mixer._trange) == 1
    expected = [_fresh_mixer_draw(mixer, i) for i in indices]
    assert _rows(mixer.draw_masks(indices)) == expected
    assert _rows(mixer.draw_masks(indices[::-1])) == expected[::-1]
    assert mixer.draw(indices[0]) == expected[0]


class _Failing(ConstantDistribution):
    """Draw ``index`` raises ``RejectionCapExceeded`` naming the distribution
    and the index when index mod 7 is in ``bad``, and is ``points`` otherwise."""

    def __init__(self, name, points, bad, n):
        super().__init__(points, n)
        self.name, self.bad = name, set(bad)

    @classmethod
    def _masks_for(cls, requests) -> list:
        for dist, indices in requests:
            for index in indices.tolist():
                if index % 7 in dist.bad:
                    raise RejectionCapExceeded(f"{dist.name}: draw {index} failed")
        return super()._masks_for(requests)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 200), min_size=2, max_size=10))
def test_block_draw_raises_the_first_failing_draws_error(seed, indices):
    # nested draws that raise, come out empty, or succeed, at several scales:
    # the block raises what the first failing draw of a loop over the
    # indices raises
    rng = np.random.default_rng(seed)
    n = 6
    space = _line_space(n)
    spec = RandomnessSpec(seed, ("fail",))
    dists = {
        -1: _Failing("a", {0}, {int(rng.integers(7))}, n),
        0: GluedDistribution([_random_duality(rng, n, spec.child(0), empty_side=True),
                              _Failing("b", {1}, {int(rng.integers(7))}, n)],
                             spec.child("glue")),
        1: _random_duality(rng, n, spec.child(1), empty_side=rng.random() < 0.5),
        2: _Failing("c", {2, 3}, {int(rng.integers(7)), int(rng.integers(7))}, n),
    }
    mixer = MixedZeroSetDistribution(space, PointMeasure(np.ones(n)), dists, spec)
    want = _outcome(lambda: [_fresh_mixer_draw(mixer, i) for i in indices])
    got = _outcome(lambda: _rows(mixer.draw_masks(indices)))
    assert got == want


def test_embed_opens_no_mixer_glue_or_zeroset_stream(monkeypatch, cube4):
    # the mixer, glue and duality draws read batched stream words only
    opened = []
    call = StreamOpener.__call__

    def spy(self, *key):
        opened.append(self.name)
        return call(self, *key)

    monkeypatch.setattr(StreamOpener, "__call__", spy)
    RandomnessSpec(0).opener("mix")(0, 0)
    assert opened == ["mix"]  # the spy sees an open
    opened.clear()
    emap, _report = euclidean_embed_pipeline(
        cube4.space, PointMeasure(np.ones(16)), negative_type=True,
        config=EmbedConfig(n_samples=96, rounds=6))
    assert emap.dim == 96
    assert not {"mix", "glue", "zeroset"} & set(opened)


# -------------------------------------------------------------------------
# end-to-end pipeline
# -------------------------------------------------------------------------


def test_embed_pipeline_cube2_lower_bound_and_lipschitz():
    inst = generate_instance("hamming_cube", {"dim": 2})
    mu = PointMeasure(np.ones(4))
    emap, report = euclidean_embed_pipeline(
        inst.space, mu, negative_type=True,
        config=EmbedConfig(n_samples=64, rounds=6),
        randomness=RandomnessSpec(0),
    )
    assert report.distortion >= math.sqrt(2.0) - 1e-6
    E = emap.image_distances()
    assert np.all(E <= inst.space.dist * (1.0 + 1e-12) + 1e-12)
    assert report.lipschitz <= 1.0 + 1e-9


def test_embed_pipeline_deterministic():
    inst = generate_instance("hamming_cube", {"dim": 2})
    mu = PointMeasure(np.ones(4))
    cfg = EmbedConfig(n_samples=16, rounds=3)
    a, _ = euclidean_embed_pipeline(
        inst.space, mu, negative_type=True, config=cfg, randomness=RandomnessSpec(1)
    )
    b, _ = euclidean_embed_pipeline(
        inst.space, mu, negative_type=True, config=cfg, randomness=RandomnessSpec(1)
    )
    assert np.array_equal(a.coords, b.coords)


def test_embed_pipeline_scans_quasisymmetry_once_per_call(grid4):
    space = grid4.space
    mu = PointMeasure(np.ones(space.n))
    cfg = EmbedConfig(n_samples=16, rounds=2)
    with mock.patch.object(randomzero, "quasisym_check", wraps=quasisym_check) as scan:
        euclidean_embed_pipeline(space, mu, negative_type=True, config=cfg)
        assert scan.call_count == 1
        # a fresh map is scanned again, and so is the same map in a new call
        phi = snowflake_embed(space, 0.5)
        for _call in range(2):
            euclidean_embed_pipeline(space, mu, phi=phi, params=QuasiParams(0.25, 0.5),
                                     config=cfg)
        assert scan.call_count == 3


@pytest.mark.parametrize("label", ["cube6", "lp_cloud64"])
def test_embed_pipeline_builds_one_good_graph_per_tau_and_C(monkeypatch, label):
    # tau = min(offset * 2^scale, diam) never falls from one scale to the
    # next, so a repeated (tau, C) is the previous scale's, whose good graphs
    # the pipeline keeps; both windows end in scales capped at the diameter
    if label == "cube6":
        space = generate_instance("hamming_cube", {"dim": 6}).space
    else:
        space = generate_instance("lp_cloud", {"n": 64, "p": 2.0, "dim": 3}, seed=0).space
    built, used = [], []
    build, pipeline = descent.good_graph_builder, descent.separated_pipeline

    def counted_build(*args, **kwargs):
        built.append(args[4:6])
        return build(*args, **kwargs)

    def counted_pipeline(*args, **kwargs):
        used.append(args[4:6])
        return pipeline(*args, **kwargs)

    monkeypatch.setattr(descent, "good_graph_builder", counted_build)
    monkeypatch.setattr(descent, "separated_pipeline", counted_pipeline)
    euclidean_embed_pipeline(space, PointMeasure(np.ones(space.n)), negative_type=True,
                             config=EmbedConfig(n_samples=128, rounds=2))
    assert len(used) == 2 * len(descent._scale_window(space))
    assert built == list(dict.fromkeys(used)) and len(built) < len(used)


def test_embed_pipeline_names_the_first_non_quasisymmetric_triple(cube3):
    space = cube3.space
    phi = snowflake_embed(space, 0.5)
    params = QuasiParams(0.5, 0.5)
    ok, triple = quasisym_check(space, phi, params)
    assert not ok
    with pytest.raises(QuasisymmetryViolated) as info:
        euclidean_embed_pipeline(space, PointMeasure(np.ones(space.n)), phi=phi, params=params)
    assert info.value.triple == triple


@pytest.mark.xfail(strict=True, raises=QuasisymmetryViolated,
                   reason="ROADMAP item 17: the default QuasiParams(0.25, 0.5) lie on the "
                          "half-snowflake's modulus, and float noise fails the triple (2, 0, 4)")
def test_embed_pipeline_embeds_points_at_powers_of_two():
    # the line of points 2^i, i < 30: an l1 metric, so of negative type
    x = 2.0 ** np.arange(30)
    space = validate_metric(np.abs(x[:, None] - x[None, :]))
    emap, report = euclidean_embed_pipeline(space, PointMeasure(np.ones(space.n)),
                                            negative_type=True)
    assert emap.n == space.n
    assert report.lipschitz <= 1.0 + 1e-12 and report.distortion >= 1.0


@pytest.mark.parametrize("fields", [{"rounds": 0}, {"rounds": -1}, {"n_samples": 0}])
def test_embed_config_needs_rounds_and_samples(fields):
    with pytest.raises(BadParams, match="must be >= 1"):
        EmbedConfig(**fields)


def test_embed_pipeline_requires_params_with_custom_map():
    inst = generate_instance("hamming_cube", {"dim": 2})
    mu = PointMeasure(np.ones(4))
    with pytest.raises(BadParams):
        euclidean_embed_pipeline(inst.space, mu, phi=inst.emap, params=None)


# Scale-free embedding: the pipeline embeds D / 2^floor(log2 d_min), so a
# metric rescaled by a power of two gets the embedding rescaled bit for bit,
# and any other unit gets an embedding with the same guarantees.

_SMALL = EmbedConfig(n_samples=32, rounds=4)


@functools.cache
def _cube3_embedding(supplied_phi: bool) -> np.ndarray:
    space = generate_instance("hamming_cube", {"dim": 3}).space
    return _embed_cube3(space, supplied_phi).coords


def _embed_cube3(space, supplied_phi: bool):
    # a supplied map is the unit cube's half-snowflake at every scale: the
    # quasisymmetry test reads ratios only, so the unit does not matter to it
    cube = generate_instance("hamming_cube", {"dim": 3}).space
    phi = snowflake_embed(cube, 0.5) if supplied_phi else None
    emap, _report = euclidean_embed_pipeline(
        space, PointMeasure(np.ones(space.n)), phi=phi, params=QuasiParams(0.25, 0.5),
        negative_type=not supplied_phi, config=_SMALL)
    return emap


@pytest.mark.parametrize("j", [-3, 1, 10])
def test_embed_pipeline_commutes_with_a_power_of_two_unit(cube3, j):
    scaled = _embed_cube3(validate_metric(2.0**j * cube3.space.dist), False)
    assert np.array_equal(scaled.coords, 2.0**j * _cube3_embedding(False))


@settings(max_examples=25, deadline=None)
@given(st.integers(-30, 30), st.booleans())
@example(-30, False)
@example(30, True)
def test_embed_of_a_power_of_two_multiple_is_that_multiple(j, supplied_phi):
    # embed(2^j D) == 2^j embed(D), with the half-snowflake of 2^j D or a supplied map
    space = validate_metric(2.0**j * generate_instance("hamming_cube", {"dim": 3}).space.dist)
    scaled = _embed_cube3(space, supplied_phi)
    assert np.array_equal(scaled.coords, 2.0**j * _cube3_embedding(supplied_phi))


@pytest.mark.parametrize("s", [0.37, 7.3])
def test_embed_pipeline_at_any_unit_is_a_contraction(cube3, s):
    space = validate_metric(s * cube3.space.dist)
    _emap, report = euclidean_embed_pipeline(space, PointMeasure(np.ones(space.n)),
                                             negative_type=True, config=_SMALL)
    assert report.lipschitz <= 1.0 + 1e-12
    assert report.distortion < GOLDEN_DISTORTION_RATIO * math.sqrt(math.log(space.n))


@pytest.mark.parametrize("d", [3e-5, 0.1, 1.0, 100.0])
def test_embed_pipeline_embeds_two_points_at_any_distance(d):
    # two points embed isometrically up to scale: distortion exactly 1
    _emap, report = euclidean_embed_pipeline(
        validate_metric([[0.0, d], [d, 0.0]]), PointMeasure(np.ones(2)), negative_type=True,
        config=_SMALL)
    assert report.distortion == 1.0
