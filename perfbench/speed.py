"""The machine's speed, sampled evenly over a run.

The benchmark shares its cores with other work on the host, and their speed
changes by tens of percent from one second to the next and from one minute
to the next; it moves a fixed loop and the library's operations alike.
`SpeedProbe` times a short fixed kernel that does not use localscores every
`INTERVAL` seconds of wall time, from a SIGALRM handler, so the samples
cover the timed work evenly. Timings taken with `mark`/`elapsed` leave the
probe's own time out. `scale()` converts the run's raw seconds to reference
seconds: raw seconds x `REFERENCE_S` / the mean kernel time of the run. A
timing is an integral of the machine's slowness over its interval, so it is
set against the mean, not the median, of the kernel times.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.1  # seconds of wall time between samples
REFERENCE_S = 0.002  # the kernel's time at the reference speed

_ARRAY = np.linspace(-1.0, 1.0, 64)


def kernel():
    """Small numpy operations and interpreted Python, the kinds of work the
    library's own loops are made of."""
    a = _ARRAY
    for _ in range(400):
        a = np.tanh(a * 0.5 + 0.1)
    table = {}
    for i in range(8000):
        table[i & 255] = i * i % 7


class SpeedProbe:
    """Context manager; samples the kernel while it is entered."""

    def __init__(self):
        self.samples: list[float] = []  # kernel seconds
        self.pauses: list[tuple[float, float]] = []  # (start, end) of each sample
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection belongs to the interrupted work, not the kernel
        kernel()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.pauses.append((start, time.perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        return len(self.pauses), time.perf_counter()

    def elapsed(self, mark) -> float:
        """Seconds since `mark`, less the samples taken since. A sample runs
        between two bytecodes of the timed code, so it lies wholly inside
        or wholly outside the interval."""
        end = time.perf_counter()
        index, start = mark
        return end - start - sum(e - s for s, e in self.pauses[index:] if s >= start and e <= end)

    def scale(self, *others: SpeedProbe) -> float:
        """Raw seconds to reference seconds, from this probe's samples and
        those of `others`."""
        if not self.samples:  # a run too short for the timer to fire
            self._sample(None, None)
        return REFERENCE_S / statistics.fmean(self.samples + [t for o in others for t in o.samples])
