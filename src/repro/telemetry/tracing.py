"""Causal request tracing: hierarchical span trees across all planes.

The one trace layer.  Metrics answer "how much"; spans answer "which
admission caused this journal replay, and which packets ran under the
layout it committed":

- :class:`Span` -- one timed operation with an explicit ``trace_id``,
  ``span_id``, and ``parent_id``.  All spans of one control-plane
  request share a trace ID; parent links form the tree.
- Propagation follows the **stack**: ``with tracer.span(name)`` parents
  the new span on the innermost span still open on that tracer, and a
  span opened with none open starts a new trace.  One thread drives a
  tracer, so the admission service's request span holds the
  controller's, which holds the allocator's, the table engine's and the
  journal's, with no context passed down.  The one explicit parent is a
  *sampled* data-path packet's: it adopts the commit that installed the
  layout it executes under (:attr:`Tracer.layout_context`) -- making
  control->data causality visible by IDs.
- :class:`Tracer` -- the recording sink: a bounded ring of completed
  spans plus the stack of open ones.  IDs come from its
  :class:`IdSource` (deterministic counters -- no ``Date.now``-style
  ambient state) and the clock is injected, so tests assert exact IDs
  and durations with fakes.  Per-packet
  tracing at line rate would swamp the ring and the hot path, so the
  data path samples: :meth:`Tracer.should_sample` draws from a seeded
  RNG at ``sample_rate`` (the same (rate, seed) always selects the same
  packet positions, which keeps experiment traces reproducible).
- :class:`NullTracer` -- the inert process default.  Its spans are one
  shared null object (:data:`NULL_SPAN`), so control-plane code opens
  spans unconditionally; only the switch's per-packet sampling guard
  tests ``tracer.enabled`` (gated by
  ``benchmarks/test_hotpath_throughput.py::test_telemetry_overhead``).
- :class:`FlightRecorder` -- a bounded ring of anomaly dumps.  When a
  rollback, a device failure or a shard failure fires, the
  recorder captures the full correlated span tree of the open span
  plus a caller-supplied state fingerprint, so every anomaly ships with its own
  reconstruction (RBFRT-style per-request latency breakdowns, but
  centered on the failures).

Exporters at the bottom render spans as Chrome trace-event JSON (loads
directly in Perfetto / ``chrome://tracing``) or as a compact JSONL span
log (one span per line, grep- and pandas-friendly).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)


@dataclasses.dataclass
class Span:
    """One timed operation in a trace tree.

    ``end_s`` is None while the span is in flight; closing its
    :meth:`Tracer.span` block stamps it and moves the span into the
    completed ring.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_s: float
    end_s: Optional[float] = None
    attrs: Dict[str, object] = dataclasses.field(default_factory=dict)
    thread: str = ""

    @property
    def duration_s(self) -> float:
        return 0.0 if self.end_s is None else self.end_s - self.start_s

    @property
    def in_flight(self) -> bool:
        return self.end_s is None

    def set(self, **attrs: object) -> "Span":
        """Attach attributes after the span started (chainable)."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "in_flight": self.in_flight,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }


class IdSource:
    """Deterministic trace/span ID generator.

    Sequential, zero-padded, prefixed IDs: the Nth trace is ``t-00000n``
    regardless of wall clock, PID, or interleaving order of *other*
    traces, so fixed-seed runs produce byte-identical trace files and
    tests can assert IDs literally.  Thread-safe (IDs are handed out
    under a lock).
    """

    def __init__(self) -> None:
        self._traces = itertools.count(1)
        self._spans = itertools.count(1)
        self._lock = threading.Lock()

    def next_trace_id(self) -> str:
        with self._lock:
            return f"t-{next(self._traces):06d}"

    def next_span_id(self) -> str:
        with self._lock:
            return f"s-{next(self._spans):08d}"


class Tracer:
    """Recording tracer: bounded completed-span ring + open-span stack.

    One thread drives a tracer: the open spans are a stack, pushed and
    popped by :meth:`span`, and a new span parents on its top.  IDs come
    from deterministic counters (:class:`IdSource`).

    Args:
        capacity: completed-span ring size (oldest spans evict first).
        clock: monotonic time source (injectable for exact-duration
            tests; defaults to :func:`time.perf_counter`).
        sample_rate: fraction of data-path packets traced as
            ``datapath.packet`` spans (0 records none; control-plane
            spans are unaffected).
        seed: sampler seed; fixed so reruns trace the same packets.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 16384,
        clock: Callable[[], float] = time.perf_counter,
        sample_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample rate must be within [0, 1]")
        self.capacity = capacity
        self.ids = IdSource()
        self.clock = clock
        self.sample_rate = sample_rate
        self._rng = random.Random(seed)
        self.recorded = 0
        self.dropped = 0
        #: Set by :class:`FlightRecorder` on attach; anomaly triggers
        #: are dropped while it is None.
        self.recorder: Optional["FlightRecorder"] = None
        #: The span of the last successfully committed layout change.
        #: The data path parents sampled packet spans here, so packets
        #: running under a just-committed layout join the committing
        #: trace (control->data causality).
        self.layout_context: Optional[Span] = None
        self._completed: Deque[Span] = deque(maxlen=capacity)
        #: The open spans, innermost last.
        self._stack: List[Span] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Time a block as one span; yields it for late attributes.

        The span parents on the innermost span open on this tracer (a
        root, with a fresh trace ID, when none is open) and is the
        parent of the spans opened inside the block.  A raising body
        still records the span -- with an ``error`` attribute naming
        the exception -- because the failing operation is exactly the
        one worth seeing.  The exception propagates.
        """
        stack = self._stack
        parent = stack[-1] if stack else None
        span = Span(
            name=name,
            trace_id=parent.trace_id if parent else self.ids.next_trace_id(),
            span_id=self.ids.next_span_id(),
            parent_id=parent.span_id if parent else None,
            start_s=self.clock(),
            attrs=attrs,
            thread=threading.current_thread().name,
        )
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            span.end_s = self.clock()
            stack.pop()
            with self._lock:
                if len(self._completed) == self.capacity:
                    self.dropped += 1
                self._completed.append(span)
                self.recorded += 1

    def record_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent: Optional[Span] = None,
        trace_id: Optional[str] = None,
        **attrs: object,
    ) -> Span:
        """Record an already-timed span directly (data-path fast path).

        The caller supplies both timestamps, so the hot path pays two
        clock reads and one deque append -- no stack traffic.  The
        parent is explicit, not the open span: a sampled packet parents
        on :attr:`layout_context`.
        """
        if trace_id is None:
            trace_id = parent.trace_id if parent else self.ids.next_trace_id()
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=self.ids.next_span_id(),
            parent_id=parent.span_id if parent else None,
            start_s=start_s,
            end_s=end_s,
            attrs=dict(attrs),
            thread=threading.current_thread().name,
        )
        with self._lock:
            if len(self._completed) == self.capacity:
                self.dropped += 1
            self._completed.append(span)
            self.recorded += 1
        return span

    def should_sample(self) -> bool:
        """Seeded Bernoulli draw: trace the next data-path packet?

        Rates of 0 and 1 short-circuit without consuming RNG state, so
        a 0%-sampling tracer costs one comparison per packet and a
        given (rate, seed) pair always selects the same packet
        positions.
        """
        rate = self.sample_rate
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self._rng.random() < rate

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def spans(self, include_live: bool = True) -> List[Span]:
        """Every retained span, completed first (oldest to newest)."""
        with self._lock:
            out = list(self._completed)
        if include_live:
            out.extend(self._stack)
        return out

    def spans_for(self, trace_id: str) -> List[Span]:
        """All retained spans of one trace (in-flight ones included)."""
        return [s for s in self.spans() if s.trace_id == trace_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._completed) + len(self._stack)

    def clear(self) -> None:
        """Drop the completed spans (the open ones close into the ring)."""
        with self._lock:
            self._completed.clear()

    # ------------------------------------------------------------------
    # Anomaly hook
    # ------------------------------------------------------------------

    def anomaly(self, reason: str, **attrs: object) -> Optional["FlightDump"]:
        """Report an anomaly in the open span's trace; dumps that trace
        (no spans when none is open) if a recorder is attached."""
        if self.recorder is None:
            return None
        return self.recorder.trigger(reason, self._stack[-1] if self._stack else None, **attrs)

    def layout_committed(self) -> None:
        """Note that the commit running in the open span installed a
        layout.

        Packets processed from here on run under that layout; sampled
        data-path spans parent on :attr:`layout_context`.
        """
        self.layout_context = self._stack[-1] if self._stack else None


class _NullSpan(Span):
    """The shared do-nothing span the NullTracer hands out.

    Its own context manager, so ``with NULL_TRACER.span(...)`` costs one
    call and no generator.
    """

    def set(self, **attrs: object) -> "Span":
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


NULL_SPAN = _NullSpan(
    name="", trace_id="", span_id="", parent_id=None, start_s=0.0, end_s=0.0
)


class NullTracer:
    """Inert tracer: same API, records nothing, near-zero overhead.

    The control plane calls these unconditionally -- ``span`` hands
    back the shared :data:`NULL_SPAN`, one no-op call per span --
    so no instrumented method needs a tracing-off copy of its body.
    It never samples a packet; the switch's sampling guard tests
    ``enabled`` first so the data path does not even pay the call.
    """

    enabled = False
    recorder = None
    layout_context = None
    capacity = 0
    recorded = 0
    dropped = 0

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return NULL_SPAN

    def record_span(self, name: str, start_s: float, end_s: float, **kw: object) -> Span:
        return NULL_SPAN

    def should_sample(self) -> bool:
        return False

    def spans(self, include_live: bool = True) -> List[Span]:
        return []

    def spans_for(self, trace_id: str) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0

    def clear(self) -> None:
        pass

    def anomaly(self, reason: str, **attrs: object) -> None:
        return None

    def layout_committed(self) -> None:
        return None


#: The shared inert instance components resolve when tracing is off.
NULL_TRACER = NullTracer()

#: What instrumented code accepts: either implementation.
AnyTracer = Union[Tracer, NullTracer]


# ----------------------------------------------------------------------
# Tree reconstruction
# ----------------------------------------------------------------------


def span_tree(spans: Iterable[Span]) -> Dict[str, object]:
    """Index a span set into a navigable tree.

    Returns ``{"roots": [...], "by_id": {...}, "children": {...},
    "orphans": [...]}``.  A span is an *orphan* when its ``parent_id``
    names a span not present in the set (ring eviction, or a bug);
    cycles cannot arise from parent links alone but a defensive check
    runs anyway so test assertions can rely on "tree" meaning tree.
    """
    by_id: Dict[str, Span] = {}
    for span in spans:
        by_id[span.span_id] = span
    children: Dict[str, List[Span]] = {}
    roots: List[Span] = []
    orphans: List[Span] = []
    for span in by_id.values():
        if span.parent_id is None:
            roots.append(span)
        elif span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            orphans.append(span)
    # Defensive cycle check: walk up from every span; a chain longer
    # than the population implies a loop.
    limit = len(by_id) + 1
    for span in by_id.values():
        hops = 0
        cursor: Optional[str] = span.parent_id
        while cursor is not None and cursor in by_id:
            hops += 1
            if hops > limit:
                raise ValueError(
                    f"parent links of trace {span.trace_id!r} form a cycle "
                    f"through span {span.span_id!r}"
                )
            cursor = by_id[cursor].parent_id
    for sibling_list in children.values():
        sibling_list.sort(key=lambda s: s.start_s)
    roots.sort(key=lambda s: s.start_s)
    return {
        "roots": roots,
        "by_id": by_id,
        "children": children,
        "orphans": orphans,
    }


def find_spans(spans: Iterable[Span], name: str) -> List[Span]:
    """Spans with the given name, in start order."""
    return sorted((s for s in spans if s.name == name), key=lambda s: s.start_s)


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


@dataclasses.dataclass
class FlightDump:
    """One anomaly's reconstruction: the correlated tree + a fingerprint."""

    reason: str
    trace_id: Optional[str]
    spans: List[Span]
    fingerprint: object = None
    attrs: Dict[str, object] = dataclasses.field(default_factory=dict)

    def tree(self) -> Dict[str, object]:
        return span_tree(self.spans)

    def find(self, name: str) -> List[Span]:
        return find_spans(self.spans, name)

    def as_dict(self) -> Dict[str, object]:
        return {
            "reason": self.reason,
            "trace_id": self.trace_id,
            "fingerprint": repr(self.fingerprint),
            "attrs": dict(self.attrs),
            "spans": [span.as_dict() for span in self.spans],
        }


class FlightRecorder:
    """Bounded ring of anomaly dumps, attached to one tracer.

    Args:
        tracer: the tracer whose spans are dumped.  Attaching sets
            ``tracer.recorder`` so instrumented code can fire
            :meth:`Tracer.anomaly` without holding a recorder handle.
        capacity: dump ring size (oldest dumps evict first).
        fingerprint: zero-arg callable capturing ambient state (e.g.
            :func:`~repro.controller.service.pools_fingerprint` of the
            live allocator) evaluated at dump time.
    """

    def __init__(
        self,
        tracer: Tracer,
        capacity: int = 32,
        fingerprint: Optional[Callable[[], object]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.tracer = tracer
        self.fingerprint = fingerprint
        self.dumps: Deque[FlightDump] = deque(maxlen=capacity)
        self.triggered = 0
        tracer.recorder = self

    def trigger(
        self, reason: str, span: Optional[Span] = None, **attrs: object
    ) -> FlightDump:
        """Capture the trace tree *span* belongs to (plus the
        fingerprint) now; no spans without one."""
        trace_id = span.trace_id if span else None
        spans = self.tracer.spans_for(trace_id) if trace_id else []
        dump = FlightDump(
            reason=reason,
            trace_id=trace_id,
            spans=spans,
            fingerprint=self.fingerprint() if self.fingerprint else None,
            attrs=dict(attrs),
        )
        self.dumps.append(dump)
        self.triggered += 1
        return dump

    def dumps_for(self, reason: str) -> List[FlightDump]:
        return [dump for dump in self.dumps if dump.reason == reason]

    def detach(self) -> None:
        if self.tracer.recorder is self:
            self.tracer.recorder = None


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def chrome_trace_events(
    spans: Iterable[Span], origin_s: Optional[float] = None
) -> Dict[str, object]:
    """Render spans in Chrome trace-event JSON (Perfetto-loadable).

    Each span becomes one complete ("ph": "X") event; timestamps are
    microseconds relative to the earliest span so the viewer opens at
    t=0.  Trace/span/parent IDs ride in ``args`` for correlation, and
    each thread gets its own ``tid`` row with a metadata name event.
    """
    spans = list(spans)
    if origin_s is None:
        origin_s = min((s.start_s for s in spans), default=0.0)
    tids: Dict[str, int] = {}
    events: List[Dict[str, object]] = []
    for span in sorted(spans, key=lambda s: s.start_s):
        tid = tids.setdefault(span.thread or "main", len(tids) + 1)
        args: Dict[str, object] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        args.update({k: repr(v) if not isinstance(v, (str, int, float, bool, type(None))) else v
                     for k, v in span.attrs.items()})
        events.append(
            {
                "name": span.name,
                "cat": span.trace_id,
                "ph": "X",
                "ts": (span.start_s - origin_s) * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    for thread, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": thread},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """Compact JSONL span log: one JSON object per line, start order."""
    lines = [
        json.dumps(span.as_dict(), sort_keys=True, default=repr)
        for span in sorted(spans, key=lambda s: s.start_s)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def dump_trace(path: str, source: Union[AnyTracer, Iterable[Span]]) -> None:
    """Write a tracer's (or span list's) contents to *path*.

    ``*.jsonl`` selects the compact span log; anything else gets Chrome
    trace-event JSON.
    """
    spans: Iterable[Span]
    if isinstance(source, (Tracer, NullTracer)):
        spans = source.spans()
    else:
        spans = source
    with open(path, "w", encoding="utf-8") as handle:
        if path.endswith(".jsonl"):
            handle.write(spans_to_jsonl(spans))
        else:
            json.dump(chrome_trace_events(spans), handle, indent=1)
            handle.write("\n")


def validate_chrome_trace(payload: Dict[str, object]) -> List[str]:
    """Schema check for Chrome trace-event JSON; returns problem list.

    Used by CI to gate the ``--trace-out`` artifact without external
    dependencies: top-level ``traceEvents`` list, every event carries
    the required keys for its phase, and complete events have
    non-negative numeric ``ts``/``dur``.
    """
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "M", "B", "E", "i"):
            problems.append(f"event {index}: unknown phase {phase!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in event:
                problems.append(f"event {index}: missing {key!r}")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"event {index}: {key!r} not a non-negative number"
                    )
            args = event.get("args")
            if not isinstance(args, dict) or "trace_id" not in args:
                problems.append(f"event {index}: args.trace_id missing")
    return problems


__all__ = [
    "AnyTracer",
    "FlightDump",
    "FlightRecorder",
    "IdSource",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "dump_trace",
    "find_spans",
    "span_tree",
    "spans_to_jsonl",
    "validate_chrome_trace",
]
