"""Host-speed probe.

On a shared virtual machine the same interpreter runs the same inputs up to
a third slower or faster from one minute to the next, so raw wall-clock
times of identical runs spread by 15-20 % (quartile distance over median).
The probe measures that speed while the benchmark runs: every 20 ms a
SIGALRM handler times a fixed pure-Python loop on the thread's CPU clock.
`factor()` is the nominal loop time over the median measured one; multiplying
a wall-clock time by it gives the time at the nominal host speed.  It only
scales: a program that does more work still reads slower.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
# median probe time on an idle 2-vCPU host running Python 3.11
NOMINAL_S = 1.0e-4


def _reference_loop() -> int:
    """A chain of dependent integer steps; of the loops tried it tracked the
    package's own slowdowns most closely."""
    acc = 0
    for i in range(1000):
        acc = (acc * 31 + i) % 1000003
    return acc


class SpeedProbe:
    """Context manager sampling the host speed until it exits; `mark()`
    starts a new segment, so each deck can be scaled by its own speed."""

    def __init__(self):
        self.samples: list[float] = []
        self.marks: list[int] = [0]

    def _tick(self, signum, frame):
        t = time.thread_time()
        _reference_loop()
        self.samples.append(time.thread_time() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> None:
        self.marks.append(len(self.samples))

    def factor(self, segment: int | None = None) -> float:
        """Nominal over measured speed for one segment, or for all samples
        when the segment is not given or too short to hold a sample; 1.0
        without any sample."""
        part = self.samples
        if segment is not None:
            ends = self.marks + [len(self.samples)]
            part = self.samples[ends[segment]:ends[segment + 1]] or self.samples
        return factor(part)


def factor(samples) -> float:
    """Nominal over the median probe time; 1.0 without samples."""
    import statistics  # not at module level: CLI children import this module cold
    return NOMINAL_S / statistics.median(samples) if samples else 1.0
