"""A minimal discrete-event loop (times in seconds)."""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.telemetry import MetricsRegistry, resolve


class SimEvent:
    """A scheduled callback; cancellable."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EventLoop:
    """Heap-ordered discrete-event executor.

    Args:
        telemetry: metrics registry; when enabled, a collector mirrors
            the executed-event count and live queue depth as gauges
            (``eventloop_events_processed``, ``eventloop_pending``).
    """

    def __init__(self, telemetry: Optional[MetricsRegistry] = None) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, SimEvent]] = []
        self._counter = itertools.count()
        self.processed = 0
        self.telemetry = resolve(telemetry)
        if self.telemetry.enabled:
            self.telemetry.register_collector(self._collect_telemetry)

    def _collect_telemetry(self, registry) -> None:
        registry.gauge(
            "eventloop_events_processed",
            help="Events executed by the simulation loop",
        ).set(self.processed)
        registry.gauge(
            "eventloop_pending",
            help="Live (uncancelled) events waiting in the heap",
        ).set(self.pending)

    def schedule(self, delay: float, callback: Callable[[], None]) -> SimEvent:
        """Run *callback* at ``now + delay`` (delay >= 0)."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> SimEvent:
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        event = SimEvent(time, callback)
        heapq.heappush(self._heap, (time, next(self._counter), event))
        return event

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        until: Optional[float] = None,
    ) -> None:
        """Run *callback* periodically until *until* (or forever)."""
        if interval <= 0:
            raise ValueError("interval must be positive")

        def tick() -> None:
            callback()
            if until is None or self.now + interval <= until:
                self.schedule(interval, tick)

        self.schedule(interval, tick)

    def run_until(self, time: float) -> None:
        """Execute all events up to *time*; leaves ``now == time``."""
        while self._heap and self._heap[0][0] <= time:
            when, _seq, event = heapq.heappop(self._heap)
            self.now = when
            if event.cancelled:
                continue
            event.callback()
            self.processed += 1
        self.now = max(self.now, time)

    def run(self) -> None:
        """Drain the event heap completely."""
        while self._heap:
            when, _seq, event = heapq.heappop(self._heap)
            self.now = when
            if event.cancelled:
                continue
            event.callback()
            self.processed += 1

    @property
    def pending(self) -> int:
        return sum(1 for _t, _s, e in self._heap if not e.cancelled)
