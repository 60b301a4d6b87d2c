"""Speed-normalised time for a machine whose core speed drifts.

On the shared 2-vCPU Xeon VM this benchmark was built on, a core's speed
alternates between two modes about 1.6x apart, in episodes of one to a
few seconds, and the two cores drift independently: a fixed pure-Python
loop took 0.13 s to 0.26 s per slice over one minute, and the
correlation between the cores' slice times was 0.19.  Wall-clock
metrics of 10-second runs then spread by 15-30% between runs, more
than any useful regression bound.

``Clock`` samples the speed of the core the measuring thread runs on:
a SIGALRM timer runs a fixed pure-Python loop every INTERVAL_S, and the
speed until the next sample is REFERENCE_S divided by the loop's
duration.  ``Clock.scaled(a, b)`` turns the wall interval [a, b] into
reference seconds (the seconds it would have taken at the speed where
the loop takes REFERENCE_S), leaving out the time of the samples
themselves.  A process with a Clock must not use SIGALRM otherwise.

Importing galcd (with numpy) is left out of every end-to-end time: the
worker and each CLI process start timing after it.  An import is mostly
memory allocation and page faults, and on the VM its time swung by
1.3-1.5x between episodes lasting ten minutes or more, in wall time and
normalised alike (by the loop, or by a probe that unmarshals a compiled
module), so sets of ten runs read 25-50% apart, beyond any bound the
benchmark may set.  The import's wall time is printed on the ``#``
lines and is ``cli.import_s`` in traced cli runs.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

CAL_LOOPS = 5000
INTERVAL_S = 0.025
REFERENCE_S = 0.0004   # about the loop's duration between galcd calls in the VM's fast mode


def _loop() -> None:
    x = 0
    for i in range(CAL_LOOPS):
        x += i * i % 7


class Clock:
    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self._smooth: list[float] = []

    def _sample(self, *_):
        start = perf_counter()
        _loop()
        self.lengths.append(perf_counter() - start)
        self.starts.append(start)

    def start(self) -> None:
        for _ in range(3):   # let the interpreter specialise the loop before it is timed
            _loop()
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _smoothed(self) -> list[float]:
        """Each sample's length as the median of three neighbouring samples.

        One sample interrupted by the scheduler would otherwise rescale
        the whole interval until the next sample.
        """
        lengths, n = self.lengths, len(self.lengths)
        if len(self._smooth) != n:
            windows = (lengths[max(min(k - 1, n - 3), 0):][:3] for k in range(n))
            self._smooth = [sorted(w)[len(w) // 2] for w in windows]
        return self._smooth

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds of work done in the wall interval [a, b].

        Sample k's (smoothed) speed holds from the end of its loop to the
        start of sample k + 1; the first sample's speed also holds before it.
        """
        starts, speed_of = self.starts, self._smoothed()
        total = 0.0
        if a < starts[0]:
            total += (min(b, starts[0]) - a) * REFERENCE_S / speed_of[0]
        for k in range(max(bisect.bisect_right(starts, a) - 1, 0), len(starts)):
            nxt = starts[k + 1] if k + 1 < len(starts) else b
            lo, hi = max(a, starts[k] + self.lengths[k]), min(b, nxt)
            if hi > lo:
                total += (hi - lo) * REFERENCE_S / speed_of[k]
            if nxt >= b:
                break
        return total

    def factor(self, a: float, b: float) -> float:
        """Mean speed over [a, b] relative to the reference: scaled time over wall time."""
        return self.scaled(a, b) / (b - a)
