"""Machine-speed probe that scales wall times to a fixed reference speed.

Cores on a shared machine change speed as neighbours start and stop: on the
machine this benchmark was built on, a fixed loop ran up to 1.6x slower for
stretches of seconds, and raw pass times of one 20 s run spread by 15-25%
from run to run.  While a :class:`Speedometer` is active, ``SIGALRM`` fires
every ``INTERVAL_S`` and the handler times ``probe()``, a fixed integer
workload.  Its time rises and falls with the speed the job gets (correlation
0.9-0.96 with job time in the measurements behind this choice).

``scaled(wall)`` is the wall time minus the probes, times ``REF_PROBE_S``
over the mean probe time (probes that were descheduled left out): the seconds the work would take on a machine where
``probe()`` takes ``REF_PROBE_S``.  It measures the program's work in a
steady unit; it is not the wall time a user waits on a busy machine.  The
probes cost about 0.3% of the wall time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
REF_PROBE_S = 60e-6   # about the probe's median time where this benchmark was built


def probe() -> int:
    x = 3 ** 200
    s = 0
    for i in range(300):
        s += (x * i) % 1000003
    return s


class Speedometer:
    """Samples ``probe()`` on a timer signal between ``with`` entry and exit."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        probe()
        self.samples.append(perf_counter() - start)

    def __enter__(self):
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, wall: float) -> float:
        """``wall`` (measured inside this block) at the reference speed."""
        if not self.samples:
            return wall
        # a probe that took over twice the median was descheduled, not slowed
        typical = statistics.median(self.samples)
        speed = statistics.fmean(s for s in self.samples if s <= 2 * typical)
        return (wall - sum(self.samples)) * REF_PROBE_S / speed
