"""Host speed, sampled while a workload runs, to cancel the host's drift.

The machines this benchmark runs on are shared: the same pass can take 30%
longer a minute later because of other tenants, and a slowdown lasts from
milliseconds to minutes.  A fixed reference loop, run from a timer signal
every few milliseconds in the middle of the workload, slows down with it.
Each timed interval is scaled by the loop's nominal duration over its mean
duration in the samples taken during that interval, widened to ``MIN_SPAN_S``
around intervals shorter than that; scaled times move by a few percent across
runs where raw times move by tens.  Samples from inside the interval track
its speed better than samples from around it, and more samples better than
fewer, which set the interval and span.

The probe's own time is kept out of the workload's timings: ``clock()``
is ``time.perf_counter()`` minus the time spent in the probe so far, and the
handler runs whole between two bytecodes of the code it interrupts.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.01
MIN_SPAN_S = 0.1
# Duration of one reference loop on the machine the benchmark was written on
# (2-core x86-64 VM, Python 3.11) when it was quiet.
NOMINAL_S = 0.00035


def reference_loop() -> list:
    """Small-integer row arithmetic, the kind of work the package does."""
    rows = [[(i * 7 + j) % 97 for j in range(8)] for i in range(8)]
    for _ in range(36):
        rows = [[(x * 3 + y) % 97 for x, y in zip(r, rows[0])] for r in rows]
    return rows


class SpeedProbe:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.prefix: list[float] = [0.0]
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        at = self.clock()
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.times.append(at)
        self.prefix.append(self.prefix[-1] + took)
        self.spent += took

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Nominal over measured loop duration, from the samples in [start,
        end] on the ``clock()`` timeline widened to ``MIN_SPAN_S``, or from
        all samples when none falls there; 1 when there are no samples."""
        lo, hi = 0, len(self.times)
        if start is not None:
            margin = max(0.0, (MIN_SPAN_S - (end - start)) / 2)
            lo = bisect.bisect_left(self.times, start - margin)
            hi = bisect.bisect_right(self.times, end + margin)
            if lo == hi:
                lo, hi = 0, len(self.times)
        if lo == hi:
            return 1.0
        return NOMINAL_S * (hi - lo) / (self.prefix[hi] - self.prefix[lo])

    def scale(self, start: float, duration: float) -> float:
        """A duration measured from ``start`` as it would be at nominal speed."""
        return duration * self.factor(start, start + duration)
