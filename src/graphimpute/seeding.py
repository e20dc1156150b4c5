"""Named random substream seeds derived from a single root seed.

Every stage of the pipeline (split, init, mask, negatives, ...) draws its
randomness from a seed keyed by a stable label, so changing how one
stage consumes randomness cannot silently shift another stage's draws.
"""

from __future__ import annotations

import zlib

import numpy as np


def _label_key(label: str) -> int:
    # crc32 is stable across platforms and Python versions, unlike hash().
    return zlib.crc32(label.encode("utf-8"))


def substream_seed(root_seed: int, label: str, index: int = 0) -> int:
    """Plain integer seed for the (label, index) substream of ``root_seed``."""
    seq = np.random.SeedSequence(root_seed, spawn_key=(_label_key(label), index))
    return int(seq.generate_state(1, np.uint64)[0])
