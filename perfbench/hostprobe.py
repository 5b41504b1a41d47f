"""Host-speed probe: a fixed piece of pure-Python work, timed every few
milliseconds while the benchmark measures.

The benchmark runs on a few cores of a shared host whose speed drifts by
±15% from one minute to the next and by more from one second to the next.
Thread CPU time drifts with it, so neither wall nor CPU time of a verify call
compares across runs made minutes apart. The probe samples the host's speed
during the very seconds the calls run: ``SIGALRM`` fires every
``INTERVAL_S`` and the handler times ``KERNEL_ROUNDS`` rounds of an integer
loop. Of the kernels tried (dict and tuple updates, frozen-dataclass tree
substitution, string formatting, the integer loop), the integer loop's time
followed the verify calls' time most closely: scaled by it, the spread of
`indirect-safe` between runs fell from 0.11 to 0.03 of the median.

The probe uses nothing of scpv, so a change to the library moves the calls'
time and not the probe's. The handler's own time is summed in ``spent_s``, so
that the caller can take it out of what it timed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

INTERVAL_S = 0.01
KERNEL_ROUNDS = 2000
# an interval is scaled by the probe samples taken during it and this long
# before and after it, so that one shorter than INTERVAL_S has samples too
WINDOW_S = 0.5
# probe time, in seconds, of the reference host: a time scaled by
# REFERENCE_S / (median probe time) reads as it would on that host
REFERENCE_S = 1.0e-4


def kernel(rounds: int = KERNEL_ROUNDS) -> int:
    x = 0
    for i in range(rounds):
        x += i * i
    return x


class HostProbe:
    def __init__(self):
        self.starts = array("d")
        self.times = array("d")
        self.spent_s = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.times.append(t1 - t0)
        self.spent_s += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def scale(self, t0: float, t1: float) -> float:
        """Reference time per second measured between ``t0`` and ``t1``
        (perf_counter readings): below 1 on a host slower than the reference."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no host probe sample near a timed interval")
        return REFERENCE_S / statistics.median(self.times[lo:hi])
