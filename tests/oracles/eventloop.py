"""The discrete-event loop as of commit ca74e78, kept as an oracle.

Every event is a :class:`SimEvent` object in a ``(time, seq, event)``
heap tuple, and every callback a closure; the only change is the
``*args`` signature, here a closure over the call.  ``every`` keeps
that commit's stop test, which loses a tick that lands on ``until``
by rounding.  :mod:`repro.sim.eventloop` now pushes ``[time, seq, fn,
args]`` records instead; ``tests/test_sim.py`` runs one simulated world
on both and compares what it counts.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


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
    """Heap-ordered discrete-event executor."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, SimEvent]] = []
        self._counter = itertools.count()
        self.processed = 0

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> SimEvent:
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> SimEvent:
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        event = SimEvent(time, lambda: fn(*args))
        heapq.heappush(self._heap, (time, next(self._counter), event))
        return event

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        until: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")

        def tick() -> None:
            callback()
            if until is None or self.now + interval <= until:
                self.schedule(interval, tick)

        self.schedule(interval, tick)

    def run_until(self, time: float) -> None:
        while self._heap and self._heap[0][0] <= time:
            when, _seq, event = heapq.heappop(self._heap)
            self.now = when
            if event.cancelled:
                continue
            event.callback()
            self.processed += 1
        self.now = max(self.now, time)

    def run(self) -> None:
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
