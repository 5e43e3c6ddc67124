"""Host speed probe: rescales a wall duration to a reference host speed.

On a shared host the speed of one CPU drifts by tens of percent within
seconds and across minutes, and a probe on the other CPU does not track
it. So the probe runs in the measured thread itself: a SIGALRM timer
interrupts the work every ``INTERVAL_S`` and times a fixed loop that
creates no container objects (so it never triggers garbage collection). The work took
``wall - probe time``; at the reference speed it would have taken that
times ``REFERENCE_S / mean probe time``.

On a shared 2-CPU Xeon host, over 17 single passes of crash-sweep, this
cut the spread of the pass time (quartile distance over median) from 0.22
to 0.07.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.005
# A typical probe-loop time on a 2-CPU Xeon host; it only sets the scale of
# the reported seconds.
REFERENCE_S = 30e-6

_TABLE = tuple((i, i + 1) for i in range(256))


class SpeedProbe:
    """Context manager timing its block, with probe samples taken throughout."""

    def __init__(self):
        self.probe_s = 0.0
        self.samples = 0
        self.wall = 0.0

    def _probe(self, *_):
        started = perf_counter()
        total = 0
        for i in range(400):
            total += _TABLE[i & 255][1]
        self.probe_s += perf_counter() - started
        self.samples += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._started = perf_counter()
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._probe()
        self.wall = perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def factor(self) -> float:
        """Reference speed over the speed measured in the block."""
        return REFERENCE_S * self.samples / self.probe_s

    def scaled(self) -> float:
        """The block's work time in seconds at the reference speed."""
        return (self.wall - self.probe_s) * self.factor
