"""Seeded randomness with labeled substreams.

A single 64-bit seed fans out into independent substreams keyed by
(module, operation, index)-style label tuples.  Identical (seed, labels)
always yields identical draws, which is what makes every Monte Carlo run
in the package replayable draw-by-draw.

``RandomnessSpec.raw_words(name, keys, k)`` opens a whole batch of streams
at once: row r of its result is exactly
``stream(name, *keys[r]).bit_generator.random_raw(k)``.  It recomputes
numpy's SeedSequence hash and PCG64 seeding and output with array
arithmetic (uint32 for the hash, 64-bit limbs for the 128-bit LCG), so a
batched reader sees the same words, row for row, as one generator per key.

``RandomnessSpec.seeded_states(name, keys)`` shares that entropy and
SeedSequence path and stops at the seeding: row r is the (state, inc) pair
of ``stream(name, *keys[r]).bit_generator.state["state"]``.  Assigning it,
with no buffered half-word, to the ``state`` of any PCG64 makes that bit
generator, and a ``Generator`` over it, draw exactly what a fresh
``stream(name, *keys[r])`` draws, ziggurat normals and bounded integers
included.  ``BlockStreams`` reads consecutive streams that way through one
generator that it owns; a caller that nests draws gives every draw loop its
own ``BlockStreams``, so no two loops read through one generator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

STREAM_BLOCK = 64  # consecutive streams a batched reader opens together

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# numpy's SeedSequence: a pool of four uint32 words and its hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier, as high and low 64-bit limbs
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = _PCG_MULT >> 64, _PCG_MULT & _MASK64


def _label_to_int(label) -> int:
    """Map an arbitrary label (str/int/...) to a stable 64-bit integer."""
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(str(label).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def substream(seed: int, *labels) -> np.random.Generator:
    """Return a fresh generator for the substream named by ``labels``."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_label_to_int(l) for l in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class RandomnessSpec:
    """A seed plus a label prefix; the unit of reproducibility.

    ``stream(*labels)`` opens the substream for the combined label tuple and
    ``child(*labels)`` narrows the prefix without drawing anything.
    """

    seed: int
    labels: tuple = ()

    def stream(self, *labels) -> np.random.Generator:
        return substream(self.seed, *self.labels, *labels)

    def child(self, *labels) -> "RandomnessSpec":
        return RandomnessSpec(self.seed, self.labels + tuple(labels))

    def raw_words(self, name, keys, k: int) -> np.ndarray:
        """The first ``k`` raw words of ``stream(name, *key)`` for every row
        ``key`` of ``keys``, as a (len(keys), k) uint64 array.

        ``keys`` is an integer array with one row of int labels per stream;
        like ``stream``, it takes a negative label mod 2^64.  Rows whose
        labels make entropy of different lengths are hashed in separate
        groups.
        """
        out = np.empty((len(keys), k), dtype=np.uint64)
        for rows, pool in self._pools(name, keys):
            out[rows] = _pcg64_words(*_pcg64_seed(pool), k)
        return out

    def seeded_states(self, name, keys) -> list:
        """The seeded PCG64 (state, inc) of ``stream(name, *key)`` for every
        row ``key`` of ``keys`` (as in ``raw_words``), as 128-bit ints."""
        states = [None] * len(keys)
        for rows, pool in self._pools(name, keys):
            limbs = [np.broadcast_to(a, rows.shape).tolist() for a in _pcg64_seed(pool)]
            for r, hi, lo, inc_hi, inc_lo in zip(rows.tolist(), *limbs):
                states[r] = ((hi << 64) | lo, (inc_hi << 64) | inc_lo)
        return states

    def _pools(self, name, keys):
        """(rows, SeedSequence pool) per group of ``keys`` rows whose labels
        make entropy of one length."""
        prefix = [int(self.seed) & _MASK64] + [_label_to_int(l) for l in (*self.labels, name)]
        prefix = [np.full(1, w, np.uint32) for v in prefix for w in _entropy_words(v)]
        ints = np.asarray(keys).astype(np.uint64).reshape(len(keys), -1)
        # an entropy int takes a second uint32 word when it is >= 2^32
        wide = ints > _MASK32
        shape = (wide << np.arange(wide.shape[1], dtype=np.uint64)).sum(axis=1)
        for code in np.unique(shape):
            rows = np.flatnonzero(shape == code)
            tail = []
            for j in range(ints.shape[1]):
                label = ints[rows, j]
                tail.append((label & _MASK32).astype(np.uint32))
                if wide[rows[0], j]:
                    tail.append((label >> 32).astype(np.uint32))
            yield rows, _mix_entropy(prefix + tail)


class BlockStreams:
    """``stream(name, index, *tail)`` for index = 0, 1, ..., read through
    one generator owned by this object: the seeded states of
    ``STREAM_BLOCK`` consecutive indices are computed together, and the last
    block is kept."""

    def __init__(self, spec: RandomnessSpec, name, tail: tuple = ()):
        self._spec = spec
        self._name = name
        self._tail = tail
        self._states = (None, None)  # (index // STREAM_BLOCK, its seeded states)
        self._gen = np.random.Generator(np.random.PCG64(0))

    def __call__(self, index: int) -> np.random.Generator:
        block, row = divmod(index, STREAM_BLOCK)
        if self._states[0] != block:
            first = block * STREAM_BLOCK
            keys = [(i, *self._tail) for i in range(first, first + STREAM_BLOCK)]
            self._states = (block, self._spec.seeded_states(self._name, keys))
        state, inc = self._states[1][row]
        self._gen.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        return self._gen


# -------------------------------------------------------------------------
# SeedSequence and PCG64 on arrays
# -------------------------------------------------------------------------


def _entropy_words(value: int) -> list:
    """The little-endian uint32 words SeedSequence makes of one entropy int."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


class _Hash:
    """SeedSequence's multiplicative hash with its running constant."""

    def __init__(self, const: int, mult: int):
        self.const = const
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ self.const
        self.const = (self.const * self.mult) & _MASK32
        value = value * self.const
        return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _mix_entropy(entropy: list) -> list:
    """SeedSequence's pool for entropy words given as broadcastable uint32
    arrays: the hash constants advance the same way for every row."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit product of uint64 ``a`` and the constant ``b``."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(hi, lo, add_hi, add_lo):
    low = lo + add_lo
    return hi + add_hi + (low < lo), low


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """state * _PCG_MULT + inc mod 2^128, in 64-bit limbs."""
    prod_hi = _mulhi(lo, _MULT_LO) + lo * _MULT_HI + hi * _MULT_LO
    return _add128(prod_hi, lo * _MULT_LO, inc_hi, inc_lo)


def _pcg64_seed(pool: list):
    """The (state, inc) of PCG64 seeded from a SeedSequence pool, in limbs
    (state_hi, state_lo, inc_hi, inc_lo): ``generate_state(4, uint64)``
    gives (seed_hi, seed_lo, seq_hi, seq_lo), then inc = 2 seq + 1 and
    state = (inc + seed) * M + inc."""
    hashmix = _Hash(_INIT_B, _MULT_B)
    half = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    seed_hi, seed_lo, seq_hi, seq_lo = (half[2 * i] | (half[2 * i + 1] << 32) for i in range(4))
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    hi, lo = _lcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _pcg64_words(hi, lo, inc_hi, inc_lo, k: int) -> np.ndarray:
    """The first k outputs of PCG64 from a seeded (state, inc) in limbs: each
    output steps the LCG and applies XSL-RR to the new state."""
    out = []
    for _ in range(k):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        out.append((x >> rot) | (x << ((64 - rot) & 63)))
    return np.stack(out, axis=-1) if out else np.empty((len(hi), 0), dtype=np.uint64)
