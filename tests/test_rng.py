"""Stream openers against numpy's own SeedSequence and PCG64."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zerosetkit import _rng
from zerosetkit._rng import RandomnessSpec, bounded_integers, raw_words, substream
from zerosetkit.errors import BadParams

# entropy ints of every length class SeedSequence distinguishes: 0 and values
# below 2^32 take one uint32 word, values at or above 2^32 take two, and a
# negative int is masked to 64 bits, so it takes two
INT_LABELS = [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, -1, -5]

# string labels sit in the prefix (the stream name among them)
PREFIXES = [
    RandomnessSpec(0),  # seed, name and keys: the prefix is under the pool's 4 words
    RandomnessSpec(3, ("inner",)),
    RandomnessSpec(2**33 + 1, ("embed", "cube6", 5, -2, "inner")),  # a two-word seed
    RandomnessSpec(2**64 - 1, (0, 2**32)),
    RandomnessSpec(2**32),  # a two-word seed and the name: exactly the pool's 4 words
]


def _expected(spec, name, keys, k):
    return np.array([substream(spec.seed, *spec.labels, name, *key).bit_generator.random_raw(k)
                     for key in keys], dtype=np.uint64).reshape(len(keys), k)


@pytest.mark.parametrize("spec", PREFIXES, ids=str)
def test_batched_stream_word_layout(spec):
    rng = np.random.default_rng(0)
    opener = spec.opener("component")
    # the batch starts from the cached pool exactly when the prefix fills it
    assert (opener._pool is None) == (len(opener._prefix) < 4)
    # mixed tail lengths within one call: every pair of length classes
    keys = np.array([(a, b) for a in INT_LABELS for b in INT_LABELS], dtype=object)
    ints = np.array([[a & (2**64 - 1) for a in row] for row in keys], dtype=np.uint64)
    for k in (0, 1, 2, 5):
        assert np.array_equal(raw_words([(opener, ints)], k),
                              _expected(spec, "component", keys.tolist(), k))
    # signed integer keys wrap like the masked labels
    signed = rng.integers(-2**63, 2**63 - 1, size=(40, 3), dtype=np.int64)
    assert np.array_equal(raw_words([(spec.opener("direction"), signed)], 3),
                          _expected(spec, "direction", signed.tolist(), 3))
    # rows with no labels past the name
    assert np.array_equal(raw_words([(spec.opener("s"), np.zeros((2, 0), dtype=int))], 2),
                          _expected(spec, "s", [(), ()], 2))


def test_batched_words_of_many_openers_in_one_call():
    # prefixes of every length class in one call, each name under several
    # specs, and key rows of both widths
    rng = np.random.default_rng(2)
    specs = PREFIXES + [RandomnessSpec(7, ("duality", -4, 1)), RandomnessSpec(7, (-1,))]
    blocks, rows = [], []
    for spec in specs:
        for name in ("zeroset", "glue"):
            keys = rng.choice(np.array(INT_LABELS[:7], dtype=np.uint64),
                              size=(int(rng.integers(0, 4)), 1))
            blocks.append((spec.opener(name), keys))
            rows += [(spec, name, key) for key in keys.tolist()]
    want = [spec.stream(name, *key).bit_generator.random_raw(3).tolist()
            for spec, name, key in rows]
    assert raw_words(blocks, 3).tolist() == want
    assert raw_words([], 2).shape == (0, 2)


def test_cached_pools_of_every_prefix_length_hash_in_one_group(monkeypatch):
    # prefixes of 4, 6, 7 and 8 words fill the pool; with one key layout their
    # rows hash together, and read what each opener reads on its own
    specs = [RandomnessSpec(2**32), RandomnessSpec(7, ("duality", 3, 1)),
             RandomnessSpec(7, ("duality", -4, 1)), RandomnessSpec(2**32, (2**40,))]
    blocks = [(spec.opener("zeroset"), np.arange(5 * b, 5 * b + 5)[:, None])
              for b, spec in enumerate(specs)]
    assert sorted({len(opener._prefix) for opener, _keys in blocks}) == [4, 6, 7, 8]
    separate = np.concatenate([raw_words([block], 3) for block in blocks])
    seeds = []
    pcg64_seed = _rng._pcg64_seed
    monkeypatch.setattr(_rng, "_pcg64_seed", lambda pool: seeds.append(1) or pcg64_seed(pool))
    assert np.array_equal(raw_words(blocks, 3), separate)
    assert len(seeds) == 1


# leading labels of every width: one word, two words, and negative (two words)
LEADS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                  st.integers(-2**63, -1))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PREFIXES), st.sampled_from(PREFIXES),
       st.lists(LEADS, min_size=1, max_size=4), st.integers(1, 64), st.integers(0, 3),
       st.integers(0, 3))
@example(PREFIXES[2], PREFIXES[3], [2**40, -3, 7], 64, 2, 2)  # cached pools, mixed layouts
@example(PREFIXES[0], PREFIXES[1], [5, 2**32], 3, 1, 1)  # prefixes under four words
def test_index_major_grids_are_the_streams_first_words(spec_a, spec_b, leads, runs, more, k):
    # (index, component) grids, index-major as a solve's block asks for them:
    # each index heads a run of ``runs`` rows; the second opener's grid starts
    # on the index the first one's ends on, so a run meets the block boundary
    def grid(indices):
        if all(-2**63 <= i < 2**63 for i in indices):
            keys = np.array([(i, c) for i in indices for c in range(runs)], dtype=np.int64)
        else:  # labels past int64 as their uint64 form
            keys = np.array([(i % 2**64, c) for i in indices for c in range(runs)],
                            dtype=np.uint64)
        return keys.reshape(-1, 2)

    second = leads[-1:] + leads[:more]
    blocks = [(spec_a.opener("component"), grid(leads)), (spec_b.opener("component"), grid(second))]
    want = [spec.stream("component", i, c).bit_generator.random_raw(k).tolist()
            for spec, indices in ((spec_a, leads), (spec_b, second))
            for i in indices for c in range(runs)]
    assert raw_words(blocks, k).tolist() == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(st.integers(1, 2**32), min_size=1, max_size=8),
       st.integers(0, 3))
@example(0, [3 * 2**30, 2**31 + 1, 1, 3 * 2**30], 0)  # rejections about 1 in 4 and 1 in 2
def test_bounded_integers_are_generator_integers(seed, moduli, start):
    # moduli near 2^32 make Lemire rejections common; a modulus of 1 reads nothing
    gens = [substream(seed, "bounded", r) for r in range(6)]
    words = np.array([g.bit_generator.random_raw(2 * len(moduli) + 8) for g in gens])
    values, end = bounded_integers(words, moduli, np.full(6, 2 * start))
    for r in range(6):
        gen = substream(seed, "bounded", r)
        gen.bit_generator.random_raw(start)  # skip 2 * start halves
        want = [int(gen.integers(m)) for m in moduli]
        if end[r] <= 2 * words.shape[1]:
            assert values[r].tolist() == want
            # the next unread half: the next draw reads it
            rest = words[r:r + 1]
            nxt, _end = bounded_integers(rest, [2**32], end[r])
            if _end[0] <= 2 * rest.shape[1]:
                assert int(nxt[0, 0]) == int(gen.integers(2**32))


def test_bounded_integers_reject_crafted_halves():
    # integers(3) rejects a half h when 3h mod 2^32 < 2^32 mod 3 = 1: h = 0
    words = np.array([[0 | (5 << 32), 2**31]], dtype=np.uint64)
    values, end = bounded_integers(words, [3, 3])
    assert values.tolist() == [[(5 * 3) >> 32, (2**31 * 3) >> 32]] and end.tolist() == [3]
    # integers(2**31 + 1) rejects h when (2**31 + 1) h mod 2^32 < 2^31 - 1
    m = 2**31 + 1
    bad, good = 2, 2**32 - 1
    assert (m * bad) % 2**32 < 2**32 % m <= (m * good) % 2**32
    values, end = bounded_integers(np.array([[bad | (good << 32)]], dtype=np.uint64), [m])
    assert values.tolist() == [[(m * good) >> 32]] and end.tolist() == [2]
    # a row whose rejections run past its words reports a position beyond them
    _values, end = bounded_integers(np.zeros((1, 1), dtype=np.uint64), [3])
    assert end.tolist() == [3]


def test_batched_stream_rows_are_the_streams_first_words():
    # a stream's first word is what a fresh generator's random() decodes
    spec = RandomnessSpec(11, ("layered",))
    words = raw_words([(spec.opener("component"), np.arange(8).reshape(4, 2))], 2)
    for row, key in zip(words, np.arange(8).reshape(4, 2).tolist()):
        gen = spec.stream("component", *key)
        assert [gen.random(), gen.random()] == [(int(w) >> 11) * 2.0**-53 for w in row]


def _draws(gen):
    """What the package reads from a stream: doubles, bounded integers (which
    leave a buffered half-word), ziggurat normals and raw words."""
    return (gen.random(), gen.integers(7, size=3).tolist(), gen.standard_normal(3).tolist(),
            gen.bit_generator.random_raw(2).tolist())


WIDE = st.one_of(st.integers(0, 9), st.integers(-2**63, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(WIDE, st.lists(st.one_of(WIDE, st.text(max_size=3)), max_size=3),
       st.lists(st.lists(WIDE, max_size=3), min_size=1, max_size=5),
       st.lists(st.integers(0, 4), min_size=1, max_size=12))
@example(0, [], [[1], [2**40, -3], []], [0, 1, 2, 1, 0])  # a 3-word prefix
@example(2**32, [], [[5, 0], [2**64 - 1]], [1, 0, 1])  # exactly 4 words
@example(2**40, ["embed", -1], [[0], [1, 2**33]], [0, 0, 1])  # over 4 words
@example(2**33 + 1, ["embed", 5, -2], [[0, 2**32 - 1], [2**32, -1], [-5, 2**64 - 1]],
         [0, 1, 2])  # mixed-width and signed keys
def test_opener_draws_what_fresh_streams_draw(seed, labels, keys, order):
    spec = RandomnessSpec(seed, tuple(labels))
    a, b = spec.opener("mix"), spec.opener("mix")
    # keys repeated and out of order, read through two openers on one name
    order = [keys[i % len(keys)] for i in order]
    for key, other in zip(order, reversed(order)):
        gen = a(*key)
        fresh = spec.stream("mix", *key)
        assert gen.bit_generator.state == fresh.bit_generator.state
        assert gen.standard_normal(2).tolist() == fresh.standard_normal(2).tolist()
        # the other opener reads a stream of its own without moving a's place
        assert _draws(b(*other)) == _draws(spec.stream("mix", *other))
        assert _draws(gen) == _draws(fresh)


def test_block_streams_draw_what_fresh_streams_draw():
    spec = RandomnessSpec(2**40 + 9, ("outer", -3))
    streams = spec.opener("mix")
    # blocks left and re-entered, out of order, each stream read twice
    for index in [0, 63, 64, 200, 2, 2, 130, 65, 0]:
        gen = streams(index, 0)
        got = (gen.standard_normal(5), gen.integers(3, size=7), gen.random(), gen.integers(2))
        fresh = spec.stream("mix", index, 0)
        want = (fresh.standard_normal(5), fresh.integers(3, size=7), fresh.random(),
                fresh.integers(2))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_one_openers_calls_are_independent_generators():
    spec = RandomnessSpec(4)
    streams = spec.opener("direction")
    gen = streams(3)
    first = gen.standard_normal(2)
    # a second call on the same key opens a new generator at the stream's start
    # and leaves the first one's place alone
    again = streams(3)
    assert again is not gen
    assert np.array_equal(again.standard_normal(50)[:2], first)
    assert np.array_equal(np.concatenate([first, gen.standard_normal(2)]),
                          spec.stream("direction", 3).standard_normal(4))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
       st.lists(st.one_of(st.integers(-2**63, 2**64 - 1), st.text(max_size=3)),
                min_size=1, max_size=6))
@example(2**32, [0])  # exactly the pool's 4 words
@example(2**64 - 1, ["a", "b", "c", "d", "e", "f"])  # 16 words
def test_cached_pools_are_the_prefix_words_pools(seed, labels):
    # one- or two-word seeds, the name's two words and 1-6 labels of one or
    # two words: prefixes of 4-16 words, which all fill the pool
    opener = RandomnessSpec(seed, tuple(labels)).opener("s")
    assert 4 <= len(opener._prefix) <= 16
    pool, hashmix = _rng._mix_entropy([np.array([w], dtype=np.uint32) for w in opener._prefix])
    assert opener._pool[0].tolist() == [int(word[0]) for word in pool]
    assert opener._pool[1] == hashmix.const


@pytest.mark.parametrize("seed", [1.0, 1.5, float("nan"), "1", None], ids=repr)
def test_seeds_must_be_integers(seed):
    with pytest.raises(BadParams, match="^seed must be an integer"):
        RandomnessSpec(seed)
    # int(1.5) would open substream(1, "x") under another seed
    with pytest.raises(BadParams, match="^seed must be an integer"):
        substream(seed, "x")


# the first two raw words of substream(seed, "x", 3), recorded before substream
# checked its seed's type
SUBSTREAM_WORDS = {
    5: [9825368438446704388, 10039663948588042508],
    -5: [17205985100196337099, 3953600907185165841],
    2**40 + 3: [15576905115644037037, 16534880137807807689],
}


@pytest.mark.parametrize("seed, want", [
    (5, 5), (np.int64(5), 5), (-5, -5), (np.int64(-5), -5), (np.uint64(2**64 - 5), -5),
    (2**40 + 3, 2**40 + 3), (np.uint64(2**40 + 3), 2**40 + 3)], ids=repr)
def test_integer_substream_seeds_keep_their_streams(seed, want):
    got = substream(seed, "x", 3).bit_generator.random_raw(2).tolist()
    assert got == SUBSTREAM_WORDS[want]


@pytest.mark.parametrize("seed", [5, np.int64(5), -5, np.int64(-5), np.uint64(2**64 - 5)],
                         ids=repr)
def test_integer_seeds_open_one_stream_both_ways(seed):
    spec = RandomnessSpec(seed, ("x",))
    want = spec.stream("y", 0).random(3).tolist()
    assert spec.opener("y")(0).random(3).tolist() == want
    assert RandomnessSpec(int(seed), ("x",)).stream("y", 0).random(3).tolist() == want
