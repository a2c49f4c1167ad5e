"""Host-speed calibration for the benchmark's timings.

A shared 2-core x86-64 host (Firecracker VM) shares its cores with other
tenants: identical work ran up to 1.8x slower from one minute to the next,
and a whole run's median could move by 20-30%.  The benchmark measures that
slowdown: a fixed kernel, independent of the program, is timed right before
and right after each measured interval, and the interval's wall time is
scaled to the speed of a host on which one kernel chunk takes the kernel's
reference time.

``scaled = wall * speed`` with ``speed = reference / chunk``.  On an
undisturbed host of the reference speed the scaled time equals the wall
time.  Both are kept in the results file.

The host does not slow all work alike, so there are two kernels, and each
workload names the one like its own work (``Workload.speed_kernel``):

* ``numpy`` (sort/exp over a 3 MB array) for the numpy-heavy trace: its
  correlation with warm trace run times was 0.67-0.83;
* ``python`` (a pure-Python integer loop) for the interpreter-bound
  sweeps and the service.  Over ten paper-figures runs whose raw warm time
  rose by 32%, the numpy kernel saw the host slow by 12%; over 75 s of
  repeated paper sweeps the coefficient of variation of warm times was
  0.081 raw, 0.105 numpy-scaled and 0.069 python-scaled.
"""

from __future__ import annotations

import statistics
import time
from functools import lru_cache

#: Chunks per calibration burst (the median chunk time is used).
CHUNKS = 7

#: Chunk time of each kernel on the reference host: the undisturbed time on
#: the 2-core x86-64 host (Python 3.11, numpy 2.4) the benchmark was
#: calibrated on.
REFERENCE_CHUNK_S = {"numpy": 0.0055, "python": 0.0048}


@lru_cache(maxsize=1)
def _array():
    import numpy as np

    return np.random.default_rng(0).random(400_000)


def _numpy_chunk() -> float:
    import numpy as np

    data = _array()
    started = time.perf_counter()
    for _ in range(4):
        np.sort(data[:100_000])
        (np.exp(data) * data).sum()
    return time.perf_counter() - started


def _python_chunk() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(80_000):
        total += i * i % 7
    return time.perf_counter() - started


_CHUNKS = {"numpy": _numpy_chunk, "python": _python_chunk}


def host_speed(kernel: str) -> float:
    """Current host speed for ``kernel`` work (1.0 = reference, lower = slower)."""
    chunk = _CHUNKS[kernel]
    return REFERENCE_CHUNK_S[kernel] / statistics.median(chunk() for _ in range(CHUNKS))
