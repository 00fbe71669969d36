"""Seeded randomness with labeled substreams.

A single 64-bit seed fans out into independent substreams keyed by
(module, operation, index)-style label tuples.  Identical (seed, labels)
always yields identical draws, which is what makes every Monte Carlo run
in the package replayable draw-by-draw.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


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

