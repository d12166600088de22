"""Process-local metrics: counts and histograms read from their owners.

A count lives on the object that does the counted work -- the switch,
the allocator, the controller's table engine -- as a plain integer
attribute, or as a :class:`collections.Counter` keyed by its label
values; a distribution lives there too, as a :class:`Histogram`
attribute.  Such an *owner* registers once with
:meth:`MetricsRegistry.register` and exposes them through ``metrics()``,
a ``{spec: value}`` dict whose specs name the series
(``"controller_admissions_total{outcome}"``: one series per key of the
Counter; ``"...{plane=controller}"`` fixes a label).  A snapshot reads
every owner ever registered and sums each series over them, a histogram
bucket by bucket, so two switches, or a controller and its failover
replacement, add up; nothing is pushed or mirrored.  A numeric series
whose name ends in ``_total`` is a counter and appears once it has
counted something; any other is a gauge (a level, such as a queue
depth).  A histogram appears once it has observed something.
Everything exports as one JSON snapshot or one Prometheus scrape
(:mod:`repro.telemetry.export`), whose help text is derived from the
series name.

:class:`MetricsRegistry` reads its owners; :class:`NullRegistry` -- the
process default -- keeps none.  Hot paths guard per-packet work on
``registry.enabled``.  Histograms use fixed upper-bound buckets
(Prometheus ``le`` semantics) and derive p50/p95/p99 by linear
interpolation within the owning bucket, exactly like
``histogram_quantile``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

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
    # A label both keyed and fixed would name two series at once.
    clash = set(names) & {label for label, _value in fixed}
    if clash:
        raise ValueError(f"labels {sorted(clash)} both keyed and fixed in {spec!r}")
    return name, tuple(names), tuple(fixed)


def format_series(name: str, labels: Labels) -> str:
    """Flat series key, Prometheus-style: ``name{k="v",...}``."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Histogram:
    """Fixed-bucket histogram with interpolated percentile summaries.

    An owner keeps one as an attribute and returns it from ``metrics()``
    like a count; a snapshot sums it bucket by bucket over the owners.

    Args:
        buckets: ascending upper bounds; an implicit +Inf bucket catches
            the overflow.  Observations equal to a bound land in that
            bound's bucket (``le`` semantics).
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS_S) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly ascending")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def merge(self, other: "Histogram") -> None:
        """Add *other*'s observations (same bounds) into this one."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        self.count += other.count
        self.sum += other.sum
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count

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
    """The read side shared by all three planes: the owners registered
    with :meth:`register`, read at every snapshot/export, so their
    counts and histograms cost the hot path nothing.
    """

    enabled = True

    def __init__(self) -> None:
        self._owners: List[object] = []

    def register(self, owner: object) -> None:
        """Read *owner*'s ``metrics()`` at every later snapshot."""
        self._owners.append(owner)

    def samples(self) -> List[Tuple[str, str, Labels, object]]:
        """Every series as ``(kind, name, labels, value)``, sorted by name
        and labels, each summed over every owner (a histogram bucket by
        bucket; its value is a :class:`Histogram`).  A counter that
        counted nothing and a histogram that observed nothing are left
        out.
        """
        owned: Dict[Tuple[str, Labels], float] = {}
        histograms: Dict[Tuple[str, Labels], Histogram] = {}
        for owner in self._owners:
            for spec, value in owner.metrics().items():
                name, names, fixed = _parse_spec(spec)
                for key, count in value.items() if names else (((), value),):
                    labels = dict(zip(names, key if isinstance(key, tuple) else (key,)))
                    series = (name, _label_key({**dict(fixed), **labels}))
                    if isinstance(count, Histogram):
                        total = histograms.get(series)
                        if total is None:
                            total = histograms[series] = Histogram(count.bounds)
                        total.merge(count)
                    else:
                        owned[series] = owned.get(series, 0) + count
        clash = owned.keys() & histograms.keys()
        if clash:
            raise TypeError(f"series exported both as a histogram and a number: {sorted(clash)}")
        rows: List[Tuple[str, str, Labels, object]] = [
            ("counter" if name.endswith("_total") else "gauge", name, labels, float(value))
            for (name, labels), value in owned.items()
            if value or not name.endswith("_total")
        ]
        rows.extend(
            ("histogram", name, labels, histogram)
            for (name, labels), histogram in histograms.items()
            if histogram.count
        )
        return sorted(rows, key=lambda row: (row[1], row[2]))

    def snapshot(self) -> Dict[str, object]:
        """One JSON-able dict of everything the registry reads."""
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
        """Forget every owner (between benchmark phases)."""
        self._owners.clear()


class NullRegistry(MetricsRegistry):
    """The zero-cost default: keeps no owner, so it reads nothing.

    ``enabled`` is False so hot paths can skip per-packet accounting
    entirely.
    """

    enabled = False

    def register(self, owner: object) -> None:
        pass


#: The process-wide inert registry every component defaults to.
NULL_REGISTRY = NullRegistry()
