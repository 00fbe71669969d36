"""Seeded randomness with labeled substreams.

A single 64-bit seed fans out into independent substreams keyed by
(module, operation, index)-style label tuples.  Identical (seed, labels)
always yields identical draws, which is what makes every Monte Carlo run
in the package replayable draw-by-draw.

A draw loop opens ``stream(name, *key)`` through ``spec.opener(name)``,
which makes its prefix (seed, labels, name) into SeedSequence's uint32
entropy words once; ``opener(*key)`` is a new generator seeded by numpy's
SeedSequence of those words and then the key's.

``raw_words(blocks, k)`` computes, for each (opener, keys) block and each row
``key`` of its keys, ``stream(name, *key).bit_generator.random_raw(k)`` with
SeedSequence and PCG64 on arrays (uint32 words, 64-bit limbs for the 128-bit
LCG).  SeedSequence hashes the entropy words into a pool of four uint32
words: the first four fill it, and each later word is mixed onto it.  An
opener whose prefix fills the pool keeps that pool and the hash constant it
stops at, so its rows, stacked with other such openers' rows, hash only their
keys, and a run of rows that share their leading label hashes that label's
words once; a prefix under four words is hashed with each row.
``bounded_integers`` decodes ``Generator.integers`` draws from such words.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import BadParams

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# numpy's SeedSequence: a pool of four uint32 words and its hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier, as high and low 64-bit limbs
_MULT_HI, _MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _label_to_int(label) -> int:
    """Map an arbitrary label (str/int/...) to a stable 64-bit integer."""
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
    digest = hashlib.blake2b(str(label).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _require_int(value, what: str) -> None:
    """Reject a seed, count or index that is not an int (a float would be truncated)."""
    if not isinstance(value, (int, np.integer)):
        raise BadParams(f"{what} must be an integer, got {value!r}")


def _require_count(value, what: str) -> None:
    """Reject a count that is not an integer >= 1."""
    _require_int(value, what)
    if value < 1:
        raise BadParams(f"{what} must be >= 1")


def substream(seed: int, *labels) -> np.random.Generator:
    """Return a fresh generator for the substream named by ``labels``; the
    seed is an int (a negative one is taken mod 2^64)."""
    _require_int(seed, "seed")
    entropy = [int(seed) & _MASK64] + [_label_to_int(l) for l in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class RandomnessSpec:
    """A seed plus a label prefix; the unit of reproducibility.

    ``stream(*labels)`` opens the substream for the combined label tuple,
    ``opener(name)`` opens ``stream(name, *key)`` for many keys, and
    ``child(*labels)`` narrows the prefix without drawing anything.  The
    seed is an int (a negative one is taken mod 2^64).
    """

    seed: int
    labels: tuple = ()

    def __post_init__(self):
        _require_int(self.seed, "seed")

    def stream(self, *labels) -> np.random.Generator:
        return substream(self.seed, *self.labels, *labels)

    def child(self, *labels) -> "RandomnessSpec":
        return RandomnessSpec(self.seed, self.labels + tuple(labels))

    def opener(self, name) -> "StreamOpener":
        return StreamOpener(self, name)


class StreamOpener:
    """``spec.stream(name, *key)`` for many keys, from the prefix's entropy
    words (and, when they fill it, their pool) made once."""

    def __init__(self, spec: RandomnessSpec, name):
        self.name = name
        self._prefix = _words((spec.seed, *spec.labels, name))
        self._pool = None  # (pool, hash constant) after the prefix, when it fills the pool
        if len(self._prefix) >= _POOL_SIZE:
            # 4 hashes fill the pool, 12 cross-mix it, and each later word takes 4
            const = _INIT_A * pow(_MULT_A, 4 * len(self._prefix), 1 << 32) & _MASK32
            self._pool = (np.random.SeedSequence(np.array(self._prefix, np.uint32)).pool, const)

    def __call__(self, *key) -> np.random.Generator:
        """A new generator that draws what a fresh ``stream(name, *key)`` draws
        (SeedSequence takes a uint32 array in one piece, a list word by word)."""
        words = np.array(self._prefix + _words(key), dtype=np.uint32)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def raw_words(blocks, k: int) -> np.ndarray:
    """The first ``k`` raw words of ``stream(name, *key)`` for each
    ``(opener, keys)`` of ``blocks`` and each row ``key`` of its ``keys``,
    stacked block after block as a (rows, k) uint64 array.

    ``keys`` are 2-d integer arrays, every block's with the same number of
    int labels per row; like ``stream``, a negative label is taken mod 2^64.
    Rows are hashed in groups of one key word layout (an int label >= 2^32
    takes two entropy words) and, for prefixes under four words, one prefix
    word count.  From a cached pool, a run of consecutive rows of one opener
    that share their leading label absorbs its words once.
    """
    openers = [opener for opener, _keys in blocks]
    ints = [np.asarray(keys).astype(np.uint64) for _opener, keys in blocks]
    which = np.repeat(np.arange(len(blocks)), [len(keys) for keys in ints])
    ints = np.concatenate(ints) if len(ints) > 1 else ints[0] if ints else np.empty((0, 0))
    out = np.empty((len(ints), k), dtype=np.uint64)
    # per opener, the words its rows' hash starts from: its cached pool, or its prefix
    starts = [opener._prefix if opener._pool is None else opener._pool[0] for opener in openers]
    table = np.zeros((len(openers), max(map(len, starts), default=0)), dtype=np.uint32)
    for b, words in enumerate(starts):
        table[b, :len(words)] = words
    consts = np.array([o._pool[1] if o._pool else 0 for o in openers], dtype=np.uint32)
    # a cached pool is _POOL_SIZE words whatever the prefix it holds
    prefix = np.array([min(len(o._prefix), _POOL_SIZE) for o in openers], dtype=np.uint64)
    group = prefix[which]
    wide = None  # which labels take two words, when any does
    if ints.size and ints.max() > _MASK32:
        wide = ints > _MASK32
        shape = (wide << np.arange(wide.shape[1], dtype=np.uint64)).sum(axis=1)
        group = group + shape * np.uint64(_POOL_SIZE + 1)
    # most calls hold one group, which needs no sort to find (nor row gathers)
    one_group = group.size == 0 or group.min() == group.max()
    for code in (group[:1] if one_group else np.unique(group)):
        rows = slice(None) if one_group else np.flatnonzero(group == code)
        labels, owner = ints[rows], which[rows]
        layout = wide[rows][0] if wide is not None else np.zeros(labels.shape[1], dtype=bool)
        # rows come block after block: one opener's words broadcast over its rows
        first, last = owner[0], owner[-1]
        if openers[first]._pool is None:
            start = table[first:first + 1] if first == last else table[owner]
            tail = _label_words(labels, layout)
            pool = _mix_entropy(list(start[:, :len(starts[first])].T) + tail)[0]
        else:
            pool = _absorb_runs(labels, layout, owner, table, consts)
        out[rows] = _pcg64_words(*_pcg64_seed(pool), k)
    return out


def _label_words(labels: np.ndarray, layout) -> list:
    """The uint32 entropy words of uint64 label columns, column by column:
    a column marked in ``layout`` gives its low and then its high word."""
    words = []
    for column, two in zip(labels.T, layout):
        words.append(column.astype(np.uint32))
        if two:
            words.append((column >> 32).astype(np.uint32))
    return words


def _absorb_runs(labels: np.ndarray, layout, which: np.ndarray, table, consts) -> list:
    """The pools of rows of ``labels`` (word layout ``layout``) from their
    openers' cached pools (``table`` rows, hash constants ``consts``, opener
    ``which`` per row).  Each run of consecutive rows with one opener and one
    leading label absorbs that label's words once, then its rows the rest."""
    rows, width = labels.shape
    if width == 0:
        return list(table[which, :_POOL_SIZE].T)
    lead = labels[:, 0]
    new = np.ones(rows, dtype=bool)
    new[1:] = (lead[1:] != lead[:-1]) | (which[1:] != which[:-1])
    firsts = np.flatnonzero(new)
    lengths = np.diff(firsts, append=rows)
    owners = which[firsts]
    one = owners.min() == owners.max()
    hashmix = _Hash(int(consts[owners[0]]) if one else consts[owners], _MULT_A)
    pool = _absorb(list(table[owners, :_POOL_SIZE].T.copy()), hashmix,
                   _label_words(lead[firsts, None], layout[:1]))
    pool = [word.repeat(lengths) for word in pool]
    if not one:
        hashmix.const = hashmix.const.repeat(lengths)
    return _absorb(pool, hashmix, _label_words(labels[:, 1:], layout[1:]))


def bounded_integers(words: np.ndarray, moduli, start=0):
    """``Generator.integers(m)`` for each modulus ``m`` of a row of
    ``moduli`` in turn (broadcast over rows), from fresh streams whose first
    raw words are the rows of ``words``, starting ``start`` 32-bit halves in
    (an int, or one per row).  Returns the (rows, len(moduli)) int64 values
    and, per row, the position of the next unread half.

    Each draw takes the stream's next 32-bit half h (a word's low half, then
    its high half): with the product P = h m, it returns P >> 32 unless the
    low 32 bits of P are below 2^32 mod m, in which case it takes the next
    half instead (Lemire's rejection).  ``integers(1)`` reads nothing.  A row
    whose draws run past its words returns a position beyond
    ``2 * words.shape[1]``, and its values are not to be used.
    """
    rows, n_halves = len(words), 2 * words.shape[1]
    halves = np.stack([words & _MASK32, words >> 32], axis=-1).reshape(rows, n_halves)
    m = np.broadcast_to(np.asarray(moduli, dtype=np.uint64), (rows, np.shape(moduli)[-1]))
    reads = (m > 1).astype(np.int64)
    threshold = (1 << 32) % np.maximum(m, 1)
    skips = np.zeros_like(reads)  # rejected halves before each draw's accepted one
    start = np.broadcast_to(np.asarray(start, dtype=np.int64), (rows,))
    while True:
        pos = start[:, None] + np.cumsum(reads + skips, axis=1) - 1
        known = pos < n_halves
        product = np.take_along_axis(halves, np.where(known, pos, 0), axis=1) * m
        rejected = (reads == 1) & known & ((product & _MASK32) < threshold)
        if not rejected.any():
            break
        # a rejection moves every later half of its row: settle the first one
        hit = np.flatnonzero(rejected.any(axis=1))
        skips[hit, rejected[hit].argmax(axis=1)] += 1
    values = np.where(reads == 1, product >> 32, 0).astype(np.int64)
    return values, start + (reads + skips).sum(axis=1)


# -------------------------------------------------------------------------
# SeedSequence and PCG64 on arrays
# -------------------------------------------------------------------------


def _words(labels) -> list:
    """The little-endian uint32 words SeedSequence makes of the labels' ints."""
    return [w for v in map(_label_to_int, labels)
            for w in ((v & _MASK32, v >> 32) if v > _MASK32 else (v,))]


class _Hash:
    """SeedSequence's multiplicative hash with its running constant, on uint32
    arrays, whose products wrap mod 2^32 by themselves; the constant is an
    int, or a uint32 array with one per row."""

    def __init__(self, const, mult: int):
        self.const = const
        self.mult = mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * self.mult) & _MASK32
        value *= self.const
        value ^= value >> 16
        return value


def _mix(mixed: np.ndarray, hashed: np.ndarray) -> None:
    """SeedSequence's mix of a hashed word into the pool word ``mixed``, in
    place (``hashed`` is overwritten too)."""
    mixed *= _MIX_MULT_L
    hashed *= _MIX_MULT_R
    mixed -= hashed
    mixed ^= mixed >> 16


def _mix_entropy(entropy: list):
    """SeedSequence's pool, and its hash after it, of entropy words given as
    broadcastable uint32 arrays (the hash constants advance the same way for
    every row)."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    first = entropy[:_POOL_SIZE] + [np.zeros_like(entropy[0])] * (_POOL_SIZE - len(entropy))
    pool = list(np.array(np.broadcast_arrays(*map(hashmix, first))))  # writable, one shape
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                _mix(pool[dst], hashmix(pool[src]))
    return _absorb(pool, hashmix, entropy[_POOL_SIZE:]), hashmix


def _absorb(pool: list, hashmix: _Hash, words) -> list:
    """Mix entropy words past the pool's first four onto ``pool``,
    overwriting its arrays."""
    for word in words:
        for dst in range(_POOL_SIZE):
            _mix(pool[dst], hashmix(word))
    return pool


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit product of uint64 ``a`` and the constant ``b``."""
    b0, b1 = b & _MASK32, b >> 32
    lo, hi = a & _MASK32, a >> 32
    cross = hi * b0  # the two cross products, each split into its halves
    other = lo * b1
    lo *= b0
    lo >>= 32
    hi *= b1
    for p in (cross, other):
        hi += p >> 32
        p &= _MASK32
        lo += p
    lo >>= 32
    hi += lo
    return hi


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """state * _PCG_MULT + inc mod 2^128, in 64-bit limbs, overwriting
    (hi, lo)."""
    hi *= _MULT_LO
    hi += _mulhi(lo, _MULT_LO)
    hi += lo * _MULT_HI
    lo *= _MULT_LO
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo
    return hi, lo


def _pcg64_seed(pool: list):
    """PCG64 seeded from a pool of uint32 arrays, in 64-bit limbs (state_hi,
    state_lo, inc_hi, inc_lo): the pool's ``generate_state(4, uint64)`` words
    are (seed_hi, seed_lo, seq_hi, seq_lo), then inc = 2 seq + 1 and
    state = (inc + seed) * M + inc mod 2^128."""
    hashmix = _Hash(_INIT_B, _MULT_B)  # generate_state's hash
    half = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    for low, high in zip(half[::2], half[1::2]):
        high <<= 32
        high |= low
    seed_hi, seed_lo, seq_hi, seq_lo = half[1::2]
    inc_hi = seq_hi << 1
    inc_hi |= seq_lo >> 63
    inc_lo = seq_lo << 1
    inc_lo |= 1
    # state = (inc + seed) * M + inc
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi
    hi += lo < seed_lo
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _pcg64_words(hi, lo, inc_hi, inc_lo, k: int) -> np.ndarray:
    """The first k outputs of PCG64 from a seeded (state, inc) in limbs: each
    output steps the LCG and applies XSL-RR to the new state."""
    out = np.empty((len(hi), k), dtype=np.uint64)
    for i in range(k):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        np.bitwise_or(x >> rot, np.left_shift(x, (64 - rot) & 63, out=x), out=out[:, i])
    return out
