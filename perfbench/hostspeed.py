"""The host's speed, sampled while the timed passes run.

The benchmark runs on shared hosts whose speed drifts by tens of
percent from one minute to the next, and within a pass (other tenants'
load, frequency changes), so a wall-clock throughput from one run can
differ from the next run's by more than any change worth measuring.
This module times a fixed unit of interpreter work every
:data:`PERIOD_S` seconds of the timed passes, from a ``SIGALRM``
handler in the benchmark process, and turns the median unit time over
a stretch of samples into a speed factor: ``REFERENCE_UNIT_S / median
unit time`` is 1.0 on a host as fast as the reference host, 0.8 on one
running 20% slower.  Dividing a pass's wall-clock rate by the factor
sampled during that pass gives its rate at the reference speed.

Sampling is dense (dozens of samples a pass) because the host's speed
moves within a pass: samples taken only between passes do not track it.
The time spent sampling is kept out of the passes' times by
:meth:`HostSpeed.now`, a clock that stops while a sample runs.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: Seconds between samples (about 4% of the run goes to sampling).
PERIOD_S = 0.05
#: Loop iterations in one unit of work (about 2 ms).
UNIT_LOOPS = 8_000
#: Median seconds of one unit on the reference host: 2 vCPUs of a
#: shared x86-64 host, Python 3.11.
REFERENCE_UNIT_S = 0.002


def unit_of_work(loops: int = UNIT_LOOPS) -> float:
    """Float arithmetic and dict stores, like the simulator's hot loops."""
    total = 0.0
    slots = {}
    for i in range(loops):
        total += (i * 1.5) % 7.0
        slots[i & 63] = total
    return total


class HostSpeed:
    """Samples :func:`unit_of_work` on a timer while it is entered."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: List[float] = []
        #: Seconds spent inside the sampling handler so far.
        self.spent_s = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        # Restart system calls (sqlite's I/O among them) the timer
        # interrupts instead of failing them with EINTR.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    def sample(self) -> None:
        """Time one unit of work now."""
        self._busy = True
        start = time.perf_counter()
        unit_of_work()
        self.samples.append(time.perf_counter() - start)
        self.spent_s += time.perf_counter() - start
        self._busy = False

    def now(self) -> float:
        """``perf_counter`` with the sampling time taken out."""
        return time.perf_counter() - self.spent_s

    def factor(self, first: int = 0) -> float:
        """Host speed relative to the reference over the samples from
        index ``first`` on: above 1 is faster."""
        return REFERENCE_UNIT_S / statistics.median(self.samples[first:])
