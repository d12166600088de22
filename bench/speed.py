"""The machine's speed, read from a spin loop interleaved with the work.

This box alternates between two speed modes about a quarter apart, in
spells of 5-80 s, and stalls for a second or two now and then.  Host
times of ten runs of one workload spread 13-25 % between quartiles,
whatever statistic a run reported, because a whole run can sit in one
mode.  The slowdown is uniform across Python code: over 150 s, the time
of a 0.4 s admission stream and of a spin loop run just before and
after it correlated at 0.87, and dividing one by the other cut the
quartile spread of the stream's time from 20 % to 5 % (3 % for medians
of eight).

So every round reads the spin loop about four times a second while it
works, and every host time is converted **to reference speed** as it is
taken: multiplied by :data:`REFERENCE_S` over the mean of the last two
readings, so a sample is judged by the speed of the quarter second it
ran in and a run that sits in both modes does not grow a tail.  Speed
1.0 is 25 million iterations of the loop below per second -- this box's
faster mode.  The correction knows nothing about the program under
test; it only takes the machine's drift out of a comparison of two
commits.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, List

_perf = time.perf_counter

SPIN_ITERATIONS = 50_000
#: Seconds one spin takes at speed 1.0.
REFERENCE_S = 0.0020
#: Spins per reading (the median is kept) and seconds between readings.
SPINS = 5
EVERY_S = 0.25


def _spin() -> float:
    began = _perf()
    total = 0
    for index in range(SPIN_ITERATIONS):
        total += index * index % 7
    return _perf() - began


def warm_up() -> None:
    """Spin until the loop runs at its steady speed.

    The first spins of a process read up to three times slow (the
    interpreter specialises the loop, the core leaves its idle state);
    a first round normalised by them looked twice as fast as it was.
    """
    for _ in range(4 * SPINS):
        _spin()


class Speedometer:
    """Spin-loop readings taken while one phase of a round runs."""

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.readings: List[float] = []
        #: Seconds spent reading, for phases timed as a whole.
        self.spent = 0.0
        #: Reference seconds per host second, from the last two readings.
        self.factor = 1.0
        self._last = 0.0

    def read(self) -> None:
        began = _perf()
        with self.tracer.span("bench.calibrate"):
            self.readings.append(statistics.median(_spin() for _ in range(SPINS)))
        self.factor = REFERENCE_S / statistics.fmean(self.readings[-2:])
        self._last = _perf()
        self.spent += self._last - began

    def tick(self) -> None:
        """Read again if the last reading is older than :data:`EVERY_S`."""
        if _perf() - self._last >= EVERY_S:
            self.read()

    def ref(self, seconds: float) -> float:
        """*seconds* just measured, at reference speed."""
        return seconds * self.factor

    def slowness(self) -> float:
        """Mean spin time over the reference: 1.25 means a quarter slower."""
        if not self.readings:
            return 1.0
        return statistics.fmean(self.readings) / REFERENCE_S
