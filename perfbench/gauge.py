"""A gauge of the host's current speed, sampled while eclab runs.

The benchmark runs on shared hosts whose speed drifts by tens of percent,
over seconds and over minutes, for reasons outside the process.  The gauge
times a fixed pure-Python loop that never touches eclab: a few samples
before and after the timed region, and one sample every ``interval``
seconds during it, from a ``SIGALRM`` handler.  The median sample is the
host's speed at the time the region ran; ``run.py`` divides it out of the
region's times.  Sampling costs about one percent of the region's time, the
same on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time

_XS = list(range(64))


class Gauge:
    def __init__(self, interval: float = 0.03, edge_samples: int = 15):
        self.interval = interval
        self.edge_samples = edge_samples
        self.samples: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc = ((acc >> 3) ^ (_XS[i & 63] << (i & 7))) & 0xFFFFFFFF
        self.samples.append(time.perf_counter() - start)

    def sample_now(self) -> None:
        for _ in range(self.edge_samples):
            self.sample()

    def __enter__(self) -> "Gauge":
        self.sample_now()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample_now()

    @property
    def seconds(self) -> float:
        """Median time of one sample."""
        return statistics.median(self.samples)
