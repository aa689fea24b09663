"""A fixed reference computation that gauges the machine's current speed.

On a shared host the same code can run a third slower for seconds to
minutes at a time, and a run-to-run spread of that size hides a change in
the program. So before every timed operation the benchmark times a fixed
chunk of work that does not touch the package, and scales the
operation's wall times by ``REFERENCE_S`` over the chunk time around it:
the result is the time the operation would take on a machine that runs
the chunk in exactly ``REFERENCE_S``. A change in the program moves that
figure; a change in the machine's speed moves the chunk and the
operation together and cancels.

The chunk mixes the kinds of work the package does: an interpreted loop
over floats and a dict, numpy calls on short arrays, a dense
matrix-vector product, and element-wise work and a sort over arrays
larger than the first-level caches. It allocates no large arrays, so its
time does not depend on the allocator's state.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal time of one speed sample: normalised times are seconds at this speed.
REFERENCE_S = 0.002
# Chunks per speed sample.
CHUNKS = 3
# A timed operation is scaled by the median of the speed samples within
# WINDOW samples of the one taken just before it, in run order.
WINDOW = 5

_rng = np.random.default_rng(20200403)
_MATRIX = _rng.standard_normal((256, 256))
_VECTOR = _rng.standard_normal(256)
_PRODUCT = np.empty(256)
_LARGE = _rng.standard_normal(200_000)
_LARGE_OUT = np.empty(200_000)
_SORTED = np.empty(20_000)


def chunk() -> float:
    """One fixed unit of reference work; returns a value so none of it is skipped."""
    total, table = 0.0, {}
    for i in range(3000):
        total += (i * 0.5) % 7.0
        table[i & 63] = total
    small = np.arange(65.0)
    for _ in range(100):
        small = np.sqrt(small * 1.0001 + 1.0) + small.sum() * 1e-9
    for _ in range(4):
        np.matmul(_MATRIX, _VECTOR, out=_PRODUCT)
    np.multiply(_LARGE, 1e-3, out=_LARGE_OUT)
    np.exp(_LARGE_OUT, out=_LARGE_OUT)
    _SORTED[:] = _LARGE[:20_000]
    _SORTED.sort()
    return total + float(small[0] + _PRODUCT[0] + _LARGE_OUT[0] + _SORTED[0])


def sample() -> float:
    """Median wall time of ``CHUNKS`` back-to-back chunks."""
    times = []
    for _ in range(CHUNKS):
        t0 = time.perf_counter()
        chunk()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def local_speeds(samples: list[float], window: int = WINDOW) -> list[float]:
    """For each sample, the median of the samples within ``window`` of it."""
    return [
        statistics.median(samples[max(0, j - window) : j + window + 1]) for j in range(len(samples))
    ]


def normalise(seconds: float, chunk_s: float) -> float:
    """Wall time ``seconds``, measured while a speed sample took ``chunk_s``, at the reference speed."""
    return seconds * REFERENCE_S / chunk_s
