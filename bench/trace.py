"""Outside-in span recorder for the traced benchmark round.

Spans are recorded from the benchmark's own files, around the calls it
makes into each layer: nothing inside ``src/repro`` knows it is being
timed.  Three attachment styles, all undone by :meth:`Tracer.detach`:

- ``with tracer.span("packets.decode"):`` around a direct call,
- :meth:`Tracer.shadow` installs an instance attribute that shadows a
  public bound method (``controller.allocator.plan``), so calls the
  program makes *through that instance* are recorded too,
- :meth:`Tracer.patch_global` rebinds a public function in the module
  namespace another layer resolves it from (the controller's
  ``verify_plan``).

A probe whose target has moved is listed in :attr:`Tracer.lost` and
warned about once; the metrics that depended on it read ``None``.

The run is single-threaded, so the parent of a span is the span open
when it started, and every span carries the index of its root (one
request or one batch).  A layer's self time is its spans' duration
minus the part their direct children cover.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter

#: Name of the attribute a shadow leaves on the wrapper, so measured
#: rounds can assert that no wrapper is installed.
_MARK = "__bench_probe__"


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The tracer of the measured rounds: records nothing."""

    enabled = False
    lost: Tuple[str, ...] = ()

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def shadow(self, obj: object, attr: str, name: str, on_result: Any = None) -> None:
        raise RuntimeError("measured rounds must not install probes")

    def patch_global(self, module: object, attr: str, name: str) -> None:
        raise RuntimeError("measured rounds must not install probes")

    def detach(self) -> None:
        return None


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.index = self.tracer.begin(self.name)

    def __exit__(self, *exc: object) -> None:
        self.tracer.end(self.index)


class Tracer:
    """In-memory span list plus the probes installed to feed it."""

    enabled = True

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, root index]``
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []
        self._totals: Tuple[int, Dict[str, List[float]]] = (0, {})
        self.lost: List[str] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        stack = self._stack
        if stack:
            parent = stack[-1]
            root = self.spans[parent][4]
        else:
            parent = -1
            root = index
        stack.append(index)
        self.spans.append([name, _perf(), 0.0, parent, root])
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _perf()
        self._stack.pop()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    # -- probes ----------------------------------------------------------

    def _lose(self, name: str, why: str) -> None:
        self.lost.append(name)
        print(f"bench: probe {name} not attached: {why}", file=sys.stderr)

    def _wrap(
        self,
        target: Callable[..., Any],
        name: str,
        on_result: Optional[Callable[[Any], None]],
    ) -> Callable[..., Any]:
        begin, end = self.begin, self.end

        def probe(*args: Any, **kwargs: Any) -> Any:
            index = begin(name)
            try:
                result = target(*args, **kwargs)
            finally:
                end(index)
            if on_result is not None:
                on_result(result)
            return result

        setattr(probe, _MARK, name)
        return probe

    def shadow(
        self,
        obj: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Record a span named *name* around every ``obj.attr(...)``.

        *on_result* sees each return value (for counts the layer
        already reports, such as executed instructions).
        """
        target = getattr(obj, attr, None)
        if obj is None or not callable(target):
            self._lose(name, f"{type(obj).__name__}.{attr} is not callable")
            return
        try:
            setattr(obj, attr, self._wrap(target, name, on_result))
        except AttributeError as exc:  # __slots__ or read-only instance
            self._lose(name, str(exc))
            return
        self._undo.append(lambda: delattr(obj, attr))

    def patch_global(self, module: object, attr: str, name: str) -> None:
        """Record a span around a function *module* resolves by name."""
        target = getattr(module, attr, None)
        if not callable(target):
            self._lose(name, f"{getattr(module, '__name__', module)} has no {attr}")
            return
        setattr(module, attr, self._wrap(target, name, None))
        self._undo.append(lambda: setattr(module, attr, target))

    def detach(self) -> None:
        """Remove every probe this tracer installed."""
        while self._undo:
            self._undo.pop()()

    # -- accounting ------------------------------------------------------

    def totals(self) -> Dict[str, List[float]]:
        """``{name: [calls, total seconds, self seconds]}``.

        Kept until another span is recorded: a control-plane round sums
        close to a million spans, and both the workload and the runner
        read the totals.
        """
        spans = self.spans
        if self._totals[0] == len(spans):
            return self._totals[1]
        child_time = [0.0] * len(spans)
        for _name, start, end, parent, _root in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, List[float]] = {}
        for index, (name, start, end, _parent, _root) in enumerate(spans):
            row = out.get(name)
            if row is None:
                row = out[name] = [0, 0.0, 0.0]
            duration = end - start
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_time[index]
        self._totals = (len(spans), out)
        return out

    def chrome_trace(self, pid: int = 1, limit: int = 100_000) -> Dict[str, object]:
        """The first *limit* spans as Chrome-trace "complete" events (us).

        A control-plane round records close to a million spans; a trace
        viewer opens a tenth of that.
        """
        if not self.spans:
            return {"traceEvents": []}
        origin = self.spans[0][1]
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": pid,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": index, "parent": parent, "root": root},
            }
            for index, (name, start, end, parent, root) in enumerate(self.spans[:limit])
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def probed(obj: object, attr: str) -> bool:
    """Is ``obj.attr`` currently a bench probe?"""
    return hasattr(getattr(obj, attr, None), _MARK)
