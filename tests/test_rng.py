"""The batched stream decoder against numpy's own SeedSequence and PCG64."""

import numpy as np
import pytest

from zerosetkit._rng import BlockStreams, RandomnessSpec, substream

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
]


def _expected(spec, name, keys, k):
    return np.array([substream(spec.seed, *spec.labels, name, *key).bit_generator.random_raw(k)
                     for key in keys], dtype=np.uint64).reshape(len(keys), k)


@pytest.mark.parametrize("spec", PREFIXES, ids=str)
def test_batched_stream_word_layout(spec):
    rng = np.random.default_rng(0)
    # mixed tail lengths within one call: every pair of length classes
    keys = np.array([(a, b) for a in INT_LABELS for b in INT_LABELS], dtype=object)
    ints = np.array([[a & (2**64 - 1) for a in row] for row in keys], dtype=np.uint64)
    for k in (0, 1, 2, 5):
        assert np.array_equal(spec.raw_words("component", ints, k),
                              _expected(spec, "component", keys.tolist(), k))
    # signed integer keys wrap like the masked labels
    signed = rng.integers(-2**63, 2**63 - 1, size=(40, 3), dtype=np.int64)
    assert np.array_equal(spec.raw_words("direction", signed, 3),
                          _expected(spec, "direction", signed.tolist(), 3))
    # rows with no labels past the name
    assert np.array_equal(spec.raw_words("s", np.zeros((2, 0), dtype=int), 2),
                          _expected(spec, "s", [(), ()], 2))


def test_batched_stream_rows_are_the_streams_first_words():
    # a stream's first word is what a fresh generator's random() decodes
    spec = RandomnessSpec(11, ("layered",))
    words = spec.raw_words("component", np.arange(8).reshape(4, 2), 2)
    for row, key in zip(words, np.arange(8).reshape(4, 2).tolist()):
        gen = spec.stream("component", *key)
        assert [gen.random(), gen.random()] == [(int(w) >> 11) * 2.0**-53 for w in row]


def _state(gen):
    state = gen.bit_generator.state
    return state["state"]["state"], state["state"]["inc"]


@pytest.mark.parametrize("spec", PREFIXES, ids=str)
def test_seeded_states_are_the_streams_states(spec):
    rng = np.random.default_rng(1)
    # mixed-width rows in one call: every pair of length classes, negative
    # labels given as their 64-bit residues
    keys = [(a, b) for a in INT_LABELS for b in INT_LABELS]
    ints = np.array([[a & (2**64 - 1) for a in row] for row in keys], dtype=np.uint64)
    assert spec.seeded_states("direction", ints) == [
        _state(spec.stream("direction", *key)) for key in keys]
    signed = rng.integers(-2**63, 2**63 - 1, size=(20, 2), dtype=np.int64)
    assert spec.seeded_states("mix", signed) == [
        _state(spec.stream("mix", *key)) for key in signed.tolist()]
    assert spec.seeded_states("s", np.zeros((2, 0), dtype=int)) == [_state(spec.stream("s"))] * 2


def test_block_streams_draw_what_fresh_streams_draw():
    spec = RandomnessSpec(2**40 + 9, ("outer", -3))
    streams = BlockStreams(spec, "mix", (0,))
    # blocks left and re-entered, out of order, each stream read twice
    for index in [0, 63, 64, 200, 2, 2, 130, 65, 0]:
        gen = streams(index)
        got = (gen.standard_normal(5), gen.integers(3, size=7), gen.random(), gen.integers(2))
        fresh = spec.stream("mix", index, 0)
        want = (fresh.standard_normal(5), fresh.integers(3, size=7), fresh.random(),
                fresh.integers(2))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_block_streams_keep_their_own_generators():
    spec = RandomnessSpec(4)
    a = BlockStreams(spec, "direction")
    b = BlockStreams(spec, "direction")
    gen_a = a(3)
    first = gen_a.standard_normal(2)
    # a second reader opening the same stream leaves the first one's place alone
    b(3).standard_normal(50)
    assert np.array_equal(np.concatenate([first, gen_a.standard_normal(2)]),
                          spec.stream("direction", 3).standard_normal(4))
