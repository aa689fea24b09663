"""Deterministic named random streams.

All randomness in the package flows from a single master seed through
named sub-streams, so that every experiment is reproducible bit-for-bit
and independent components never share a stream.  Philox is counter
based, so the draw sequence does not depend on how work is scheduled.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _labels_key(labels: tuple[str, ...]) -> tuple[int, ...]:
    digest = hashlib.sha256("/".join(labels).encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def substream(seed: int, *labels: str) -> np.random.Generator:
    """Return a generator for the sub-stream named by ``labels``.

    The same (seed, labels) pair always yields the same stream; distinct
    labels yield statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=_labels_key(labels))
    return np.random.Generator(np.random.Philox(ss))
