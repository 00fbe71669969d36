"""The batched stream decoder against numpy's own SeedSequence and PCG64."""

import numpy as np
import pytest

from zerosetkit._rng import RandomnessSpec, substream

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
