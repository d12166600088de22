"""Process-local metrics: counts read from their owners, plus pushed
gauges and fixed-bucket histograms.

A count lives on the object that does the counted work -- the switch,
the allocator, the controller's table engine -- as a plain integer
attribute, or as a :class:`collections.Counter` keyed by its label
values.  Such an *owner* registers once with :meth:`MetricsRegistry.register`
and exposes its counts through ``metrics()``, a ``{spec: value}`` dict
whose specs name the series (``"controller_admissions_total{outcome}"``:
one series per key of the Counter; ``"...{plane=controller}"`` fixes a
label).  A snapshot reads every owner ever registered and sums each
series over them, so two switches, or a controller and its failover
replacement, add up; nothing is pushed or mirrored.  A series whose
name ends in ``_total`` is a counter and appears once it has counted
something; any other is a gauge (a level, such as a queue depth).

Histograms hold distributions, not counts, so they stay push:
``histogram(name).observe(value)``.  :meth:`MetricsRegistry.counter` and
:meth:`MetricsRegistry.gauge` remain for harness-level values (an
experiment's result fields).  Everything exports as one JSON snapshot
or one Prometheus scrape (:mod:`repro.telemetry.export`).

Two implementations share one API.  :class:`MetricsRegistry` records
everything; :class:`NullRegistry` -- the process default -- records
nothing and exists so instrumented code can run unconditionally with
near-zero overhead.  Hot paths guard per-packet work on
``registry.enabled``.  Histograms use fixed upper-bound buckets
(Prometheus ``le`` semantics) and derive p50/p95/p99 by linear
interpolation within the owning bucket, exactly like
``histogram_quantile``.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Default histogram buckets for control-plane latencies, spanning the
#: paper's Figure 5/8a range (tens of microseconds to the ~1 s
#: provisioning plateau).  Seconds, ascending; +Inf is implicit.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
)

#: Default buckets for size-like histograms (batch sizes, entry counts).
SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
)

Labels = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _merge_labels(
    labels: Optional[Mapping[str, object]], kwargs: Dict[str, object]
) -> Dict[str, object]:
    """Combine the explicit ``labels=`` mapping with keyword labels.

    A label spelled both ways must agree -- silently preferring one
    would make two call sites increment different series.
    """
    if not labels:
        return kwargs
    merged = dict(labels)
    for key, value in kwargs.items():
        if key in merged and str(merged[key]) != str(value):
            raise ValueError(
                f"label {key!r} given twice with different values: "
                f"{merged[key]!r} and {value!r}"
            )
        merged[key] = value
    return merged


def _parse_spec(spec: str) -> Tuple[str, Tuple[str, ...], Labels]:
    """``"name{a,b=x}"`` -> ``("name", ("a",), (("b", "x"),))``: the
    label names an owner's Counter keys fill, and the fixed labels."""
    name, _, inner = spec.partition("{")
    names: List[str] = []
    fixed: List[Tuple[str, str]] = []
    for part in inner.rstrip("}").split(",") if inner else ():
        label, equals, value = part.partition("=")
        if equals:
            fixed.append((label, value))
        else:
            names.append(label)
    return name, tuple(names), tuple(fixed)


def format_series(name: str, labels: Labels) -> str:
    """Flat series key, Prometheus-style: ``name{k="v",...}``."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def add(self, delta: float) -> None:
        self._value += delta

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with interpolated percentile summaries.

    Args:
        name: metric name.
        buckets: ascending upper bounds; an implicit +Inf bucket catches
            the overflow.  Observations equal to a bound land in that
            bound's bucket (``le`` semantics).
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
        labels: Labels = (),
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly ascending")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        bounds = self.bounds
        lo, hi = 0, len(bounds)
        while lo < hi:  # first bound >= value
            mid = (lo + hi) // 2
            if bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.bucket_counts[lo] += 1

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0..1), interpolated within its bucket.

        Returns NaN with no observations.  Values in the +Inf bucket
        clamp to the highest finite bound (as histogram_quantile does).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count > 0:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                upper = self.bounds[index]
                lower = self.bounds[index - 1] if index > 0 else 0.0
                into = (rank - (cumulative - bucket_count)) / bucket_count
                return lower + (upper - lower) * into
        return self.bounds[-1]

    def summary(self) -> Dict[str, float]:
        """count/sum/mean plus the p50/p95/p99 the paper's figures use."""
        mean = self.sum / self.count if self.count else 0.0
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named-instrument store shared by all three planes.

    Thread-safe at instrument creation (the simulator itself is
    single-threaded, but exporters may scrape from another thread).
    Owners registered with :meth:`register` are read at every
    snapshot/export, so their counts cost the hot path nothing.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, Labels], object] = {}
        self._help: Dict[str, str] = {}
        self._owners: List[object] = []

    # ------------------------------------------------------------------
    # Instrument accessors (get-or-create)
    # ------------------------------------------------------------------

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, object]] = None,
        **kwargs: object,
    ) -> Counter:
        return self._get(Counter, name, help, _merge_labels(labels, kwargs))

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, object]] = None,
        **kwargs: object,
    ) -> Gauge:
        return self._get(Gauge, name, help, _merge_labels(labels, kwargs))

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        help: str = "",
        labels: Optional[Mapping[str, object]] = None,
        **kwargs: object,
    ) -> Histogram:
        merged = _merge_labels(labels, kwargs)
        key = (name, _label_key(merged))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = Histogram(
                        name, buckets if buckets is not None else LATENCY_BUCKETS_S,
                        labels=key[1],
                    )
                    self._instruments[key] = instrument
                    if help and name not in self._help:
                        self._help[name] = help
        if not isinstance(instrument, Histogram):
            raise TypeError(
                f"{name!r} already registered as {type(instrument).__name__}"
            )
        return instrument

    def _get(self, cls, name: str, help: str, labels: Dict[str, object]):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = cls(name, labels=key[1])
                    self._instruments[key] = instrument
                    if help and name not in self._help:
                        self._help[name] = help
        if not isinstance(instrument, cls):
            raise TypeError(
                f"{name!r} already registered as {type(instrument).__name__}"
            )
        return instrument

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def register(self, owner: object) -> None:
        """Read *owner*'s ``metrics()`` at every later snapshot."""
        self._owners.append(owner)

    def samples(self) -> List[Tuple[str, str, Labels, object]]:
        """Every series as ``(kind, name, labels, value)``, sorted by name
        and labels: the owners' series, each summed over every owner,
        and the instruments pushed here (a histogram's value is the
        instrument itself).  A counter that counted nothing is left out.
        """
        owned: Dict[Tuple[str, Labels], float] = {}
        for owner in self._owners:
            for spec, value in owner.metrics().items():
                name, names, fixed = _parse_spec(spec)
                for key, count in value.items() if names else (((), value),):
                    labels = dict(zip(names, key if isinstance(key, tuple) else (key,)))
                    series = (name, _label_key({**dict(fixed), **labels}))
                    owned[series] = owned.get(series, 0) + count
        rows: List[Tuple[str, str, Labels, object]] = [
            ("counter" if name.endswith("_total") else "gauge", name, labels, float(value))
            for (name, labels), value in owned.items()
            if value or not name.endswith("_total")
        ]
        for (name, labels), instrument in self._instruments.items():
            kind = type(instrument).__name__.lower()
            value = instrument if kind == "histogram" else instrument.value
            rows.append((kind, name, labels, value))
        return sorted(rows, key=lambda row: (row[1], row[2]))

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    def snapshot(self) -> Dict[str, object]:
        """One JSON-able dict of everything the registry holds."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, object] = {}
        for kind, name, labels, value in self.samples():
            series = format_series(name, labels)
            if kind == "counter":
                counters[series] = value
            elif kind == "gauge":
                gauges[series] = value
            else:
                data = value.summary()
                data["buckets"] = {
                    ("+Inf" if i >= len(value.bounds)
                     else repr(value.bounds[i])): count
                    for i, count in enumerate(value.bucket_counts)
                }
                histograms[series] = data
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def reset(self) -> None:
        """Drop every instrument and owner (between benchmark phases)."""
        with self._lock:
            self._instruments.clear()
            self._help.clear()
            self._owners.clear()


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    labels: Labels = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return math.nan

    def summary(self) -> Dict[str, float]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The zero-cost default: same API, records nothing.

    ``enabled`` is False so hot paths can skip per-packet accounting
    entirely; code that does not bother checking still works, because
    every accessor hands back one shared inert instrument.
    """

    enabled = False

    def counter(self, name: str, help: str = "", labels=None, **kwargs: object):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labels=None, **kwargs: object):
        return _NULL_INSTRUMENT

    def histogram(
        self, name, buckets=None, help: str = "", labels=None, **kwargs: object
    ):
        return _NULL_INSTRUMENT

    def register(self, owner: object) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: The process-wide inert registry every component defaults to.
NULL_REGISTRY = NullRegistry()
