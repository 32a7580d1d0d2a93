"""Host-speed calibration: a fixed kernel timed between tasks.

Task times are process CPU seconds with BLAS on one thread (worker.py), so
time that a neighbour's process holds the core is already left out.  What is
left is the speed of the core itself, which on the benchmark's shared host
drifts by 20-30% within a minute and moves a fixed kernel's CPU time with
it: from one quiet minute to another, one (1/2,1,1,1) `verify` went from 124
to 89 CPU ms and the mixed kernel below from 37 to 28.  So every time the
benchmark reports is in seconds at the reference speed: the CPU seconds
scaled by ``ref_s / median kernel CPU seconds``, the median taken over all
the kernel's samples in the same phase of the same run.  One scale per
phase, from many samples, keeps the kernel's own sample-to-sample noise out
of the result; the medians over tasks take care of noise within the run.

The kernel imports nothing from spinwitness, so a change to the program never
changes the yardstick.  Wall-clock times are kept in the details line.
"""

from __future__ import annotations

import statistics
import time

# Median kernel CPU seconds on the reference host: 2 vCPUs of a shared VM,
# Python 3.11.7, numpy 2.4.6 with scipy-openblas 0.3.31, one BLAS thread.  A
# reported second is a CPU second on that host at that speed.
REF_S = 0.040
# Before a task, the kernel runs once for every EVERY_S that has passed since
# the last sample, at most MAX_DUE times: short tasks share a sample and long
# ones get several.
EVERY_S = 0.25
MAX_DUE = 4


class Calibration:
    """The kernel and its samples.

    The kernel takes about 40 ms: roughly a quarter each of interpreter loop,
    small eigensolves, one 192x192 eigensolve and passes over a 60 000-entry
    array, the kinds of work both workloads spend their time on.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(20231101)

        def hermitian(n):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return a + a.conj().T

        self._small, self._large = hermitian(32), hermitian(192)
        self._table = np.sort(rng.random(4096))
        self.samples: list[float] = []  # CPU seconds
        self._last = 0.0  # perf_counter at the end of the last sample
        self._kernel()  # first-call allocation stays out of the samples

    def _kernel(self):
        np = self._np
        counts: dict[int, int] = {}
        for i in range(60_000):
            counts[i & 255] = counts.get(i & 255, 0) + i
        for _ in range(60):
            np.linalg.eigh(self._small)
        np.linalg.eigh(self._large)
        u = np.random.Generator(np.random.Philox(7)).random(60_000)
        np.bincount(np.searchsorted(self._table, u) & 63, weights=u, minlength=64)

    def sample(self):
        cpu = time.process_time()
        self._kernel()
        self.samples.append(time.process_time() - cpu)
        self._last = time.perf_counter()

    def sample_if_due(self):
        due = min(MAX_DUE, int((time.perf_counter() - self._last) / EVERY_S))
        for _ in range(due):
            self.sample()

    def scale(self) -> float:
        """REF_S over the median of the samples so far."""
        return REF_S / statistics.median(self.samples)
