"""Host-speed probe: how much slower than nominal the CPU runs right now.

The benchmark's host is shared, and other tenants slow its CPUs by up to
half for seconds at a time: 14 ``topk-sweep`` children in a row took
anywhere from 5.5 s to 8.5 s.  A :class:`Probe` measures that slowdown
from inside the process being timed.  Every ``PERIOD_S`` seconds a SIGALRM handler runs a fixed
piece of pure-Python work (:func:`probe_work`, about 0.6 ms) in the
main thread, on whichever CPU the process is on at that moment, and
records the thread CPU time it took.  The mean over a run, divided by
``REFERENCE_S``, is the run's slowdown: 1.0 on a host where the probe
takes ``REFERENCE_S``, 1.5 when the host runs it half as fast again.
Dividing a measured time by the slowdown gives the time on that
reference host.

The probe runs no tourflow code, so a change to the program does not
move it.  It costs about 1% of the run, the same share on every run.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
# About the probe's CPU time on the 2-vCPU Xeon host of README.md's
# baseline when other tenants leave it alone.
REFERENCE_S = 0.0006


def probe_work() -> int:
    """A fixed mix of integer arithmetic and set lookups, like the null model's loop."""
    present = set()
    hits = 0
    for i in range(4000):
        key = (i * 2654435761) & 0xFFF
        if key in present:
            present.discard(key)
            hits += 1
        else:
            present.add(key)
    return hits


class Probe:
    """Runs :func:`probe_work` every ``PERIOD_S`` seconds between start and stop.

    The first probe runs at once, so every started probe has a sample.
    Only one probe can run in a process at a time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _handler(self, signum, frame) -> None:
        started = time.thread_time()
        probe_work()
        self.samples.append(time.thread_time() - started)

    def start(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, 1e-6, PERIOD_S)
        return self

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples


def slowdown(samples: list[float]) -> float:
    """The host's slowdown over the probed interval: mean probe time / ``REFERENCE_S``.

    The mean, not the median: over 14 ``topk-sweep`` children the child's
    wall time correlated 0.98 with the mean probe time and 0.91 with the
    median.
    """
    return statistics.fmean(samples) / REFERENCE_S
