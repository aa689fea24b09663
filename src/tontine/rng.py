"""Deterministic named random streams.

All randomness in the package flows from a single master seed through
named sub-streams, so that every experiment is reproducible bit-for-bit
and independent components never share a stream.  Philox is counter
based, so the draw sequence does not depend on how work is scheduled.
``whole_count`` checks a count argument: a number of paths or trials, a
pool's size or a kernel's, or a seed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def _labels_key(labels: tuple[str, ...]) -> tuple[int, ...]:
    digest = hashlib.sha256("/".join(labels).encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def substream(seed: int, *labels: str) -> np.random.Generator:
    """Return a generator for the sub-stream named by ``labels``.

    The same (seed, labels) pair always yields the same stream; distinct
    labels yield statistically independent streams.  A seed that is not a
    nonnegative integer (or an integral float) raises.
    """
    ss = np.random.SeedSequence(entropy=whole_count(seed, "seed", 0), spawn_key=_labels_key(labels))
    return np.random.Generator(np.random.Philox(ss))


def whole_count(value, name: str, least: int) -> int:
    """A count argument as an int: an integer >= ``least``, or an integral float.

    Anything else (a fraction, NaN, an infinity, a count below ``least``)
    raises ``ValueError`` naming ``name`` and its value.
    """
    if not (math.isfinite(value) and float(value).is_integer() and value >= least):
        raise ValueError(f"need an integer {name} >= {least}, got {name} = {value}")
    return int(value)
