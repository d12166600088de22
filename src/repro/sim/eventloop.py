"""A minimal discrete-event loop (times in seconds)."""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry import MetricsRegistry, resolve


def _cancelled(*_args: Any) -> None:
    """A cancelled event's ``fn``: the loop skips it, uncalled and uncounted."""


class SimEvent(list):
    """A scheduled call, ``[time, seq, fn, args]``: the heap entry itself,
    ordered by time and then by scheduling order; cancellable."""

    __slots__ = ()

    def cancel(self) -> None:
        self[2] = _cancelled


class EventLoop:
    """Heap-ordered discrete-event executor.

    Args:
        telemetry: metrics registry; when enabled, it reads the
            executed-event count and live queue depth (:meth:`metrics`).
    """

    def __init__(self, telemetry: Optional[MetricsRegistry] = None) -> None:
        self.now = 0.0
        self._heap: List[SimEvent] = []
        self._counter = itertools.count()
        self.processed = 0
        self.telemetry = resolve(telemetry)
        self.telemetry.register(self)

    def metrics(self) -> Dict[str, int]:
        return {"eventloop_events_processed": self.processed, "eventloop_pending": self.pending}

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> SimEvent:
        """Call ``fn(*args)`` at ``now + delay`` (delay >= 0)."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        event = SimEvent((self.now + delay, next(self._counter), fn, args))
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> SimEvent:
        """Call ``fn(*args)`` at *time* (not before ``now``)."""
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        event = SimEvent((time, next(self._counter), fn, args))
        heapq.heappush(self._heap, event)
        return event

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        until: Optional[float] = None,
    ) -> None:
        """Run *callback* every *interval* until *until* (or forever).

        Each tick falls *interval* after the last; the ticks in range
        are counted up front, so rounding in that sum loses none."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        ticks = math.inf if until is None else math.floor((until - self.now) / interval + 1e-9)
        if ticks > 0:
            self.schedule(interval, self._tick, interval, callback, ticks)

    def _tick(self, interval: float, callback: Callable[[], None], ticks: float) -> None:
        callback()
        if ticks > 1:
            self.schedule(interval, self._tick, interval, callback, ticks - 1)

    def run_until(self, time: float) -> None:
        """Execute all events up to *time*; leaves ``now == time``."""
        self._drain(time)
        self.now = max(self.now, time)

    def run(self) -> None:
        """Drain the event heap completely."""
        self._drain(math.inf)

    def _drain(self, time: float) -> None:
        """Call every event due by *time*, in (time, seq) order."""
        heap = self._heap
        pop = heapq.heappop
        processed = self.processed
        try:
            while heap and heap[0][0] <= time:
                self.now, _seq, fn, args = pop(heap)
                if fn is not _cancelled:
                    fn(*args)
                    processed += 1
        finally:
            self.processed = processed

    @property
    def pending(self) -> int:
        return sum(1 for event in self._heap if event[2] is not _cancelled)
