import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosetkit import randomzero
from zerosetkit._rng import RandomnessSpec, substream
from zerosetkit.descent import (
    EmbedConfig,
    MixedZeroSetDistribution,
    MixerConfig,
    _normalized_weights,
    _scale_indices,
    _uniform_far_weighting,
    draw_bit_fields,
    euclidean_embed_pipeline,
    frechet_embed,
)
from zerosetkit.errors import BadParams, EmptyZeroSet, InfiniteIndex, QuasisymmetryViolated
from zerosetkit.metric import (
    PointMeasure,
    QuasiParams,
    generate_instance,
    quasisym_check,
    snowflake_embed,
)
from zerosetkit.randomzero import (
    DualityDistribution,
    GluedDistribution,
    duality_solve,
    general_zeroset_sampler,
    separated_pipeline,
)

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


def _ck(space, mu, x, t):
    """The scale index of x at t, read off the mixer's table helper."""
    return _scale_indices(space, _normalized_weights(mu), [x], [t])[t][0]


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
# mixer configuration and bit fields
# -------------------------------------------------------------------------


def test_mixer_config_validation():
    with pytest.raises(BadParams):
        MixerConfig(a=1.0, b=2.0, distributions={0: ConstantDistribution({0})})
    with pytest.raises(BadParams):
        MixerConfig(a=2.0, b=1.0, distributions={})
    cfg = MixerConfig(a=2.3, b=-1.7, distributions={0: ConstantDistribution({0})})
    assert list(cfg.shift_range) == [-1, 0, 1, 2, 3]


def test_draw_bit_fields_ranges_and_determinism():
    rng1 = substream(0, "bits")
    rng2 = substream(0, "bits")
    s1, e1 = draw_bit_fields(rng1, [3, 1, 2, 1])
    s2, e2 = draw_bit_fields(rng2, [1, 2, 3])
    # duplicate indices collapse; identical index sets give identical fields
    assert s1 == s2 and e1 == e2
    assert set(s1) == {1, 2, 3}
    assert all(v in (0, 1) for v in s1.values())
    assert all(v in (0, 1, 2) for v in e1.values())


# -------------------------------------------------------------------------
# Fréchet embedding
# -------------------------------------------------------------------------


def test_frechet_is_exactly_one_lipschitz(cube4, uniform_measure):
    space = cube4.space
    dist = general_zeroset_sampler(space, uniform_measure(space), 2.0, RandomnessSpec(2))
    zero_sets = [dist.draw(k) for k in range(32)]
    emap = frechet_embed(space, zero_sets)
    assert emap.dim == 32
    E = emap.image_distances()
    assert np.all(E <= space.dist + 1e-9)
    # coordinate formula: d(x, Z_j) / sqrt(N)
    Z0 = np.asarray(sorted(zero_sets[0]), dtype=int)
    expect = space.dist[:, Z0].min(axis=1) / math.sqrt(32)
    assert np.allclose(emap.coords[:, 0], expect)


def test_frechet_rejects_empty_inputs(cube3):
    with pytest.raises(BadParams):
        frechet_embed(cube3.space, [])
    with pytest.raises(EmptyZeroSet):
        frechet_embed(cube3.space, [frozenset()])


# -------------------------------------------------------------------------
# the mixer
# -------------------------------------------------------------------------


def test_mixed_sampler_draws_are_valid_and_deterministic():
    space = _line_space(8)
    mu = PointMeasure(np.ones(8))
    dists = {k: ConstantDistribution(set(range(8))) for k in range(-2, 4)}
    cfg = MixerConfig(a=3.0, b=-2.0, distributions=dists)
    m1 = MixedZeroSetDistribution(space, mu, cfg, RandomnessSpec(4))
    m2 = MixedZeroSetDistribution(space, mu, cfg, RandomnessSpec(4))
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
    mixer = MixedZeroSetDistribution(
        space, mu, MixerConfig(a=1.0, b=0.0, distributions={0: ConstantDistribution({0})}),
        RandomnessSpec(0))
    w = mu.weights / mu.weights.min()
    for t in mixer._trange:
        for x in range(n):
            want = None if w[x] > math.exp(t) else _brute_scale_index(space, mu, x, t)
            assert mixer._ck[t][x] == _ck(space, mu, x, t) == want


def test_nested_draws_are_independent_of_draw_order(grid4):
    # mixer -> glue -> duality -> separated pairs, each reading its streams
    # through its own reused generator: the sets drawn must not depend on the
    # order in which the four levels are asked, or a generator is shared
    space = grid4.space
    mu = PointMeasure(np.ones(space.n))
    sampler = separated_pipeline(
        space, mu, snowflake_embed(space, 0.5), QuasiParams(0.25, 0.5), 2.0, 1.0,
        _uniform_far_weighting(space, 2.0), RandomnessSpec(0, ("nest", "pairs")),
    )
    dual = duality_solve(space, 2.0, sampler, rounds=10,
                         randomness=RandomnessSpec(0, ("nest", "duality")))
    glue = GluedDistribution([dual, dual], RandomnessSpec(0, ("nest", "glue")))
    mixer = MixedZeroSetDistribution(
        space, mu, MixerConfig(a=3.0, b=-1.0, distributions={k: glue for k in range(-1, 4)}),
        RandomnessSpec(0, ("nest", "mixer")),
    )
    draw = {"mixer": mixer.draw, "glue": glue.draw, "duality": dual.draw, "pairs": sampler.draw}
    # 70 draws of each cross a block of 64 streams
    calls = [(name, k) for name in draw for k in range(70)]

    def run(order):
        return {call: draw[call[0]](call[1]) for call in order}

    in_order = run(calls)
    assert run(calls[::-1]) == in_order
    shuffled = [calls[i] for i in np.random.default_rng(5).permutation(len(calls))]
    assert run(shuffled) == in_order


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_glue_duality_and_mixer_draws_are_fresh_streams_in_any_order(seed):
    # mixer -> glue -> duality as the pipeline nests them, each opening its
    # streams through its own opener; one duality's prefix is under the
    # SeedSequence pool's 4 words
    rng = np.random.default_rng(seed)
    space = _line_space(8)
    mu = PointMeasure(np.ones(8))
    parts = []
    for _k in range(2):
        columns = [tuple(frozenset(rng.choice(8, int(rng.integers(1, 5)), replace=False).tolist())
                         for _side in range(2)) for _c in range(5)]
        parts.append((columns, rng.dirichlet(np.ones(5))))
    specs = [RandomnessSpec(seed, ("dual", 0)), RandomnessSpec(seed)]

    def build(fresh):
        duals = [DualityDistribution(columns, mixture, 1.0, 1.0, np.zeros(8), spec)
                 for (columns, mixture), spec in zip(parts, specs)]
        glue = GluedDistribution(duals, RandomnessSpec(seed, ("glue",)))
        mixer = MixedZeroSetDistribution(
            space, mu, MixerConfig(a=3.0, b=-1.0, distributions={k: glue for k in range(-1, 4)}),
            RandomnessSpec(seed, ("mixer",)))
        if fresh:  # the reference opens every stream as a new generator
            for dist, name in [(mixer, "mix"), (glue, "glue")] + [(d, "zeroset") for d in duals]:
                dist._streams = lambda *key, d=dist, n=name: d.randomness.stream(n, *key)
        return {"mixer": mixer.draw, "glue": glue.draw, "dual0": duals[0].draw,
                "dual1": duals[1].draw}

    calls = [(name, k) for name in ("mixer", "glue", "dual0", "dual1") for k in range(20)]
    reference = build(fresh=True)
    expected = {(name, k): reference[name](k) for name, k in calls}
    draw = build(fresh=False)
    assert {(name, k): draw[name](k) for name, k in calls} == expected
    for i in rng.permutation(len(calls) + 20) % len(calls):
        name, k = calls[i]
        assert draw[name](k) == expected[name, k]


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


def test_embed_pipeline_names_the_first_non_quasisymmetric_triple(cube3):
    space = cube3.space
    phi = snowflake_embed(space, 0.5)
    params = QuasiParams(0.5, 0.5)
    ok, triple = quasisym_check(space, phi, params)
    assert not ok
    with pytest.raises(QuasisymmetryViolated) as info:
        euclidean_embed_pipeline(space, PointMeasure(np.ones(space.n)), phi=phi, params=params)
    assert info.value.triple == triple


@pytest.mark.parametrize("fields", [{"rounds": 0}, {"rounds": -1}, {"n_samples": 0}])
def test_embed_config_needs_rounds_and_samples(fields):
    with pytest.raises(BadParams, match="must be >= 1"):
        EmbedConfig(**fields)


def test_embed_pipeline_requires_params_with_custom_map():
    inst = generate_instance("hamming_cube", {"dim": 2})
    mu = PointMeasure(np.ones(4))
    with pytest.raises(BadParams):
        euclidean_embed_pipeline(inst.space, mu, phi=inst.emap, params=None)
