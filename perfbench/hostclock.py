"""Host-speed correction for the benchmark's wall times.

On a shared host the same aetlab work takes up to a quarter longer or
shorter from one minute to the next, for reasons invisible inside the
process: its CPU time drifts with its wall time, and steal time stays near
zero. A fixed kernel of the workloads' character (small numpy products and
reductions, Python calls, frozen-dataclass construction) drifts with them.

While a `HostClock` is running, a SIGALRM timer interrupts the benchmark
every INTERVAL_S and times one run of the kernel in the main thread. The
time spent in the kernel is kept in `busy` so that callers subtract it from
the work they time. `scale()` is REFERENCE_S over the mean kernel time of a
span of samples: the factor that converts wall times measured during that
span to the speed at which the kernel takes REFERENCE_S. The kernel is
benchmark code, so no change to the package moves it.
"""
from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.25
ROUNDS = 250
# Kernel time on an unloaded 2-vCPU x86-64 VM (Python 3.11, numpy 2.4,
# OpenBLAS 0.3.31, one BLAS thread); it only fixes the scale of the
# corrected times.
REFERENCE_S = 0.008


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float

    def __post_init__(self):
        if self.a != self.a:
            raise ValueError("nan weight")


class HostClock:
    """Samples the host's speed with a fixed kernel."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((64, 144))
        self._u = rng.standard_normal(64)
        self._table = rng.standard_normal((256, 64))
        self.samples: list[float] = []
        self.busy = 0.0  # seconds spent in timer-driven samples

    def sample(self) -> float:
        """Time one run of the kernel; returns its duration."""
        w, u, table = self._w, self._u, self._table
        t0 = time.perf_counter()
        x = np.zeros((12, 12))
        for i in range(ROUNDS):
            g = (w.T @ u).reshape(12, 12) / 64
            x = np.clip(x + 0.01 * np.sign(g / np.linalg.norm(g)), -0.1, 0.1)
            e = table[[i % 256, 3, 5, 7, 9]].mean(axis=0)
            _Pair(float(e @ u) / 64, float(x[0, 0]))
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.busy += time.perf_counter() - t0

    @contextmanager
    def running(self):
        """Sample every INTERVAL_S until the block exits."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, since: int = 0) -> float:
        """Factor that converts wall times to reference speed, from the
        samples taken since sample number `since`."""
        return REFERENCE_S / statistics.fmean(self.samples[since:])
