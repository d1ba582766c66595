"""CPU clock of the timed thread, scaled to reference seconds.

The benchmark host is a 2-vCPU share of a larger machine, and it loses time in
two ways. The hypervisor takes the vCPU away (steal time, at times a third of
the wall time); the guest kernel does not count that as the thread's CPU time.
And while the vCPU runs, its speed drifts by tens of percent within seconds and
over minutes; CPU time drifts with that. So every time the benchmark reports
for a pass is CPU time of the thread that does the work, read with
``thread_time``, and scaled to a host of fixed speed.

For the scale, a daemon thread times a fixed piece of 512-bit mpmath
arithmetic every ``INTERVAL_S`` of wall time while a pass runs. It calls
``libmp`` with an explicit precision, so the program's own precision context
does not touch it, and it runs no semidop code. Each probe is filed under the
timed thread's CPU clock at that moment. ``SpeedProbe.clock`` maps a reading of
that clock to reference seconds: each stretch of CPU time is scaled by
``REFERENCE_S`` over the median probe time around it, that is, to the time it
would take on a host where the probe takes ``REFERENCE_S``. The probe holds the
GIL for about 2 ms at a time; the timed thread waits then, and its CPU clock
does not advance. Both threads are pinned to one CPU: the two vCPUs run at
different speeds, so a probe on the other one would time the wrong CPU.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
from time import clock_gettime, pthread_getcpuclockid, thread_time

from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul, round_nearest

INTERVAL_S = 0.05
# probe time that defines reference speed: about the probe's median on a
# 2.0 GHz Xeon vCPU of the benchmark host (0.9-2.0 ms seen); it sets only the scale
REFERENCE_S = 0.0016
# probes on each side of a probe whose median sets the speed of its stretch
HALF_WINDOW = 10
PREC = 512
TERMS = 200


def probe_work() -> tuple:
    third = mpf_div(from_int(1), from_int(3), PREC, round_nearest)
    total = from_int(0)
    for i in range(1, TERMS):
        term = mpf_div(mpf_mul(third, third, PREC, round_nearest), from_int(i), PREC,
                       round_nearest)
        total = mpf_add(total, term, PREC, round_nearest)
    return total


def probe_time() -> float:
    t = thread_time()
    probe_work()
    return thread_time() - t


class SpeedProbe:
    """Probes in the background between ``__enter__`` and ``__exit__``.

    Create it in the thread to be timed; that thread reads its clock with
    ``thread_time``, and is pinned to one CPU from then on.
    """

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.starts: list[float] = []  # timed thread's CPU clock at each probe
        self.times: list[float] = []
        self._timed_clock = pthread_getcpuclockid(threading.get_ident())
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._rates: list[float] = []
        self._ref: list[float] = []

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.starts.append(clock_gettime(self._timed_clock))
            self.times.append(probe_time())

    def __enter__(self) -> SpeedProbe:
        probe_work()  # the first call pays for lazy set-up in mpmath
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.times:
            raise RuntimeError("the pass ended before the first speed probe")
        for i in range(len(self.times)):
            around = self.times[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1]
            self._rates.append(REFERENCE_S / statistics.median(around))
        self._ref = [0.0]
        for i in range(len(self.times) - 1):
            self._ref.append(self._ref[i] + (self.starts[i + 1] - self.starts[i]) * self._rates[i])

    def clock(self, t: float) -> float:
        """Reference seconds at ``thread_time`` reading ``t`` (after the probe stopped)."""
        i = max(0, bisect.bisect_right(self.starts, t) - 1)
        return self._ref[i] + (t - self.starts[i]) * self._rates[i]

    def median_ms(self) -> float:
        return 1000 * statistics.median(self.times)
