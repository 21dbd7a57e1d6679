"""Host speed, measured by a fixed kernel that does not involve covbvm.

The shared 2-core host the baseline was measured on changes speed by up to
2x over minutes: a fixed Python loop took 11 to 18 ms, and the same
benchmark run took 1.07 s per operation in one minute and 1.80 s a few
minutes earlier.  Raw medians of runs on different seeds therefore spread by
0.15 to 0.35 of their median.  Rescaling by a kernel timed next to the
measurements removes much of that drift.  Over 200 s of operations, the
spread of 20-s medians fell from 0.10 to 0.08 for metropolis-p3, from 0.30
to 0.14 for functional-p50 and from 0.29 to 0.17 for vicinity-p3.

A run times the kernel before and after each measurement and reports the
median measurement times REFERENCE_S over the median kernel time.  The
kernel mixes the kinds of work covbvm does: interpreted Python, small
batched LAPACK calls, and streaming through arrays larger than the cache.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median kernel time on the baseline host (2-core Xeon, 1 BLAS
# thread).  Rescaled times are seconds on a host running the kernel this fast.
REFERENCE_S = 0.040


class HostSpeed:
    """Times the kernel; keeps the kernel's inputs between calls."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2000, 3, 3))
        self._small = a @ np.swapaxes(a, 1, 2)
        # 16 MB in all, which every run's peak_rss_mb includes
        self._big = rng.standard_normal(2**20)
        self._out = np.empty_like(self._big)

    def kernel_seconds(self) -> float:
        """Time of one pass: about a third each of Python, LAPACK and memory."""
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        for _ in range(6):
            np.linalg.eigvalsh(self._small)
        for _ in range(8):
            np.multiply(self._big, 1.0001, out=self._out)
            np.add(self._out, self._big, out=self._out)
        return time.perf_counter() - start



def rescale(seconds: list[float], kernels: list[float]) -> float:
    """Median of seconds, rescaled to the reference host speed by the median
    kernel time measured around them."""
    return statistics.median(seconds) * REFERENCE_S / statistics.median(kernels)
