"""CPU-speed calibration for timings taken on a shared host.

The host that this benchmark was developed on runs this process's core fast
at some times and up to about 1.6x slower at others. A state lasts from
seconds to minutes, so whole runs of the same code differ by up to 50% in
wall time. A fixed pure-Python loop slows down with the program. Dividing
each timing by the loop's duration at the time, relative to its duration on a
reference core (PROBE_REF_S), removes most of that swing. README.md,
"Calibrated timings", has the measurements.

SpeedProbe times the loop every PROBE_INTERVAL_S of process CPU time, from a
SIGPROF handler. The handler runs in the main thread, so the loop runs on the
core the program is running on. The time the handler spends is counted in
`spent`, so that callers can take it out of the calls they time.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_REF_S = 0.002        # the loop's duration on the reference core
PROBE_INTERVAL_S = 0.1     # process CPU seconds between probes


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python loop; a measure of current core speed."""
    t0 = time.perf_counter()
    x = 0
    acc = []
    for i in range(20000):
        x += i * i % 7
        if i % 8 == 0:
            acc.append(x)
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples speed_probe() in the background of the calling code while active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _on_prof(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(speed_probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> SpeedProbe:
        self.samples.append(speed_probe())
        self._previous = signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def factor(self) -> float:
        """Multiply a wall time taken while active by this to calibrate it."""
        return PROBE_REF_S / statistics.mean(self.samples)
