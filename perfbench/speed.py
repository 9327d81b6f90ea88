"""Machine-speed clock: times are scaled to a fixed reference speed.

The benchmark runs on shared machines whose vCPUs share cores with other
tenants: the same work takes up to twice as long for seconds or minutes at a
time, while CPU time and wall time stay equal.  Medians over one run cannot
average that out.  So a fixed reference computation, written here and
independent of the package, is timed in the measuring process at least every
``SAMPLE_EVERY_S``: between operations, and inside long ones from a
``SIGALRM`` handler, which runs between bytecodes of the measured code.  Each
stretch of measured time between two samples is multiplied by
``REFERENCE_S / (mean of those two samples)``.  Reported times are thus the
times on a machine where the reference computation takes ``REFERENCE_S``; the
samples themselves are left out.  A change to the package cannot change the
reference.
"""

from __future__ import annotations

import bisect
import math
import signal
from time import perf_counter

import numpy as np

#: Nominal duration of the reference computation (its median on a 2-vCPU
#: 2 GHz virtual machine); the unit in which scaled times are quoted.
REFERENCE_S = 1.5e-3
#: Wall time between two reference samples.
SAMPLE_EVERY_S = 0.02

_GRID = np.linspace(-0.99, 0.99, 512)
_POWERS = _GRID[None, :128] ** np.arange(9)[:, None]


def reference_work() -> float:
    """A fixed mix like the package's inner loops: small-array numpy calls,
    seeded generator draws, a small matrix product and interpreter work."""
    acc = 0.0
    for k in range(20):
        dev = np.exp(3.0 * (math.log1p(-0.25) - np.log1p(0.25 - 0.5 * _GRID))) - 1.0
        acc += float(np.dot(np.sign(dev) * np.abs(dev) ** 1.5, _GRID))
        coeffs = np.random.default_rng([7, k]).uniform(-1.0, 1.0, 9)
        acc += float(np.sum(coeffs @ _POWERS))
        for j in range(40):
            acc += math.sqrt(j + k + 1.0)
    return acc


class Clock:
    """Samples the reference speed while open; scales measured intervals.

    Use as a context manager.  With ``sampling=False`` samples are taken only
    on entry, on exit and at ``sample()`` calls, never inside measured code
    (traced rounds, where a sample would land in the current span).
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def sample(self, *_) -> None:
        started = perf_counter()
        reference_work()
        self.starts.append(started)
        self.ends.append(perf_counter())

    def __enter__(self) -> "Clock":
        self.sample()
        if self.sampling:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def scaled(self, a: float, b: float) -> tuple[float, float]:
        """(scaled, unscaled) seconds of [a, b], leaving out the samples.

        Work between samples i and i + 1 runs from ``ends[i]`` to
        ``starts[i + 1]`` and is scaled by the mean of the two samples; work
        before the first or after the last sample by that sample alone.
        """
        d = self.durations()
        pieces = [(-math.inf, self.starts[0], d[0])]
        i = max(0, bisect.bisect_right(self.ends, a) - 1)
        while i + 1 < len(d) and self.ends[i] < b:
            pieces.append((self.ends[i], self.starts[i + 1], 0.5 * (d[i] + d[i + 1])))
            i += 1
        pieces.append((self.ends[-1], math.inf, d[-1]))
        scaled = raw = 0.0
        for lo, hi, reference in pieces:
            span = min(b, hi) - max(a, lo)
            if span > 0.0:
                raw += span
                scaled += span * REFERENCE_S / reference
        return scaled, raw
