"""Host-speed normalisation of wall-clock intervals.

The shared 2-vCPU host this benchmark was tuned on runs a pure-Python
loop at one of two speeds about 1.6x apart, switching every 10-20 ms,
and the share of slow time drifts from ~10% to ~90% over seconds to
minutes.  Raw wall times follow that share, so two sets of runs of the
same code disagree by more than any usable bound.

:class:`HostPace` samples the host's speed while the program runs: a
``SIGALRM`` every :data:`PERIOD_S` runs :func:`reference`, a fixed loop
that does not touch the program, and keeps its duration.  An interval
between two :meth:`HostPace.mark` calls is then reported as its wall
time minus the time spent in the sampler, rescaled from the speed the
samples around it show to the nominal speed :data:`NOMINAL_REF_S`.  A
change to the program moves these times as it moves wall times; a
change of host speed moves the samples too, and cancels out.

Never start it in a traced run: the handler would run inside spans.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

#: Seconds between two speed samples.
PERIOD_S = 0.005
#: Duration of :func:`reference` on the uncontended host the benchmark
#: was tuned on (2 vCPUs, Python 3.11): normalised times are wall times
#: at that speed.
NOMINAL_REF_S = 0.00018
#: Samples taken before an interval and after it that join the ones
#: taken during it in its speed estimate.
WINDOW = 10

_TABLE = [(i * 2654435761) & 0xFFFFFFFF for i in range(256)]
_SLOTS = [0] * 64

Mark = Tuple[float, float, int]


def reference() -> int:
    """A fixed loop of integer work, table lookups and list stores.  It
    allocates no container, so it never triggers a garbage collection
    that the program's objects would be charged to."""
    x = 0x12345678
    table, slots = _TABLE, _SLOTS
    for i in range(600):
        x = ((x << 5) | (x >> 27)) & 0xFFFFFFFF
        x ^= table[x & 0xFF] ^ table[(x >> 8) & 0xFF]
        slots[i & 63] = x
    return x


class HostPace:
    """Speed samples of the host, and intervals normalised by them.

    Until :meth:`start` there are no samples, and :meth:`seconds` is
    plain wall time."""

    def __init__(self) -> None:
        #: Duration of each :func:`reference` run, in order.
        self.samples: List[float] = []
        #: Total seconds spent in the sampler.
        self.spent = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        reference()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def mark(self) -> Mark:
        return time.perf_counter(), self.spent, len(self.samples)

    def wall(self, begin: Mark, end: Mark) -> float:
        """Wall seconds from ``begin`` to ``end``, less the sampler's."""
        return end[0] - begin[0] - (end[1] - begin[1])

    def speed(self, begin: Mark, end: Mark) -> float:
        """Mean sample duration around an interval over the nominal one
        (above 1: the host ran slow), or 1.0 without samples."""
        window = self.samples[max(0, begin[2] - WINDOW): end[2] + WINDOW]
        if not window:
            return 1.0
        return statistics.fmean(window) / NOMINAL_REF_S

    def seconds(self, begin: Mark, end: Mark) -> float:
        """The interval's wall seconds at the nominal host speed.  Call
        it once the samples after ``end`` have been taken."""
        return self.wall(begin, end) / self.speed(begin, end)
