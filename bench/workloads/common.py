"""What every workload shares: the round record, probes, fingerprints."""

from __future__ import annotations

import dataclasses
import sys
import traceback
from typing import Any, Dict, List, Optional

from repro.core import PoolSnapshot

from bench.device import DEVICE_OPS
from bench.speed import Speedometer
from bench.trace import NULL_TRACER, Tracer


@dataclasses.dataclass
class Round:
    """One set-up plus one pass over a workload's measured work.

    Every host time kept here is already at reference speed
    (:mod:`bench.speed`).
    """

    tracer: Any = NULL_TRACER
    #: Seconds of the set-up, without the speed readings taken in it.
    setup_s: float = 0.0
    #: Primary operations, and the seconds of the stream they ran in.
    ops: int = 0
    stream_s: float = 0.0
    #: Microseconds per primary operation, one sample per timed call.
    op_us: List[float] = dataclasses.field(default_factory=list)
    #: Microseconds per second-path operation, one sample per timed call.
    second_us: List[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Why operations failed (first few), for the log.
    problems: List[str] = dataclasses.field(default_factory=list)
    #: Counts and simulated-time metrics: equal for equal seeds.
    exact: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Wall time of a traced round up to the point its spans are summed.
    wall_s: float = 0.0
    #: The process's high-water mark when the round ended.
    peak_rss_mb: float = 0.0

    def __post_init__(self) -> None:
        #: Machine speed while setting up, and while measuring.
        self.setup_speed = Speedometer(self.tracer)
        self.speed = Speedometer(self.tracer)

    def set_up(self, began: float, ended: float) -> None:
        """Record the set-up that ran from *began* to *ended* (host clock)."""
        self.setup_s = (ended - began - self.setup_speed.spent) / self.setup_speed.slowness()

    def timed(self, took: float, ops: int = 1) -> None:
        """A primary-path call of *ops* operations took *took* host seconds."""
        ref = self.speed.ref(took)
        self.stream_s += ref
        self.ops += ops
        self.op_us.append(ref / ops * 1e6)

    def timed_second(self, took: float, ops: int = 1, in_stream: bool = False) -> None:
        """A second-path call; *in_stream* when it is interleaved with the primary path."""
        ref = self.speed.ref(took)
        if in_stream:
            self.stream_s += ref
        self.second_us.append(ref / ops * 1e6)

    def fail(self, count: int, why: str) -> None:
        if count <= 0:
            return
        self.failed += count
        if len(self.problems) < 8:
            self.problems.append(why)

    def check(self, ok: bool, why: str) -> None:
        """One correctness check: attempted, and failed unless *ok*."""
        self.attempted += 1
        if not ok:
            self.fail(1, why)

    def crashed(self, what: str) -> None:
        """An operation raised: it counts as attempted and failed."""
        self.attempted += 1
        self.fail(1, f"{what}: {traceback.format_exc(limit=3).strip()}")


def attach_controller(tracer: Tracer, controller: Any) -> None:
    """Probe the planner, the pools and the table engine of *controller*."""
    allocator = getattr(controller, "allocator", None)
    for attr in ("plan", "commit", "rollback", "release"):
        tracer.shadow(allocator, attr, f"core.{attr}")
    updater = getattr(controller, "updater", None)
    tracer.shadow(updater, "install_app", "controller.table_install")
    tracer.shadow(updater, "remove_app", "controller.table_remove")


def attach_analysis(tracer: Tracer, controller: Any) -> None:
    """Probe the analysis functions where *controller*'s module binds them."""
    module = sys.modules.get(type(controller).__module__)
    for attr, name in (
        ("verify_plan", "analysis.verify"),
        ("certify_plan", "analysis.certify"),
        ("audit_state", "analysis.audit"),
        ("certify_all", "analysis.certify_all"),
    ):
        tracer.patch_global(module, attr, name)


def attach_switch(tracer: Tracer, switch: Any, on_result: Any = None) -> None:
    """Probe the pipeline and its program cache behind *switch*."""
    pipeline = getattr(switch, "pipeline", None)
    tracer.shadow(pipeline, "execute", "switchsim.execute", on_result)
    cache = getattr(pipeline, "program_cache", None)
    tracer.shadow(cache, "entry_for", "switchsim.progcache_lookup")


def pools_fingerprint(allocator: Any) -> Dict[int, PoolSnapshot]:
    """Byte-identical capture of every stage pool's population."""
    return {
        stage: PoolSnapshot.capture(pool)
        for stage, pool in sorted(allocator.pools.items())
    }


def per_call(totals: Dict[str, List[float]], name: str, scale: float,
             column: int = 1, over: Optional[float] = None) -> Optional[float]:
    """Mean time of span *name*, ``None`` when it never ran.

    *column* 1 is total time, 2 self time; *over* divides by a count
    other than the number of spans (packets in a batch span).
    """
    row = totals.get(name)
    if row is None:
        return None
    count = row[0] if over is None else over
    return row[column] / count * scale if count else None


#: Device operations that write a match-table entry.
_TABLE_WRITES = ("install_grant", "remove_grant", "install_translation", "remove_translation")


def control_layers(
    totals: Dict[str, List[float]], admissions: int
) -> Dict[str, Optional[float]]:
    """Control-plane layer metrics every workload with a controller reports."""
    layers: Dict[str, Optional[float]] = {
        "core.plan_ms": per_call(totals, "core.plan", 1e3),
        "core.commit_ms": per_call(totals, "core.commit", 1e3),
        "core.release_ms": per_call(totals, "core.release", 1e3),
        "core.rollback_ms": per_call(totals, "core.rollback", 1e3),
        "core.rollbacks": totals.get("core.rollback", [0])[0],
        "analysis.verify_ms": per_call(totals, "analysis.verify", 1e3),
        "analysis.certify_ms": per_call(totals, "analysis.certify", 1e3),
        "analysis.audit_ms": per_call(totals, "analysis.audit", 1e3),
        "analysis.certify_all_ms": per_call(totals, "analysis.certify_all", 1e3),
        "controller.table_install_ms": per_call(totals, "controller.table_install", 1e3, column=2),
        "controller.table_remove_ms": per_call(totals, "controller.table_remove", 1e3, column=2),
        "controller.submit_self_ms": per_call(totals, "controller.submit", 1e3, column=2),
        "controller.service_inline_ms": per_call(
            totals, "controller.service_inline", 1e3, column=2
        ),
    }
    for op in DEVICE_OPS:
        layers[f"device.{op}.calls"] = totals.get(f"device.{op}", [0])[0]
        layers[f"device.{op}.us"] = per_call(totals, f"device.{op}", 1e6)
    writes = sum(totals.get(f"device.{op}", [0])[0] for op in _TABLE_WRITES)
    layers["controller.table_ops_per_admit"] = writes / admissions if admissions else None
    return layers


def plan_split(controllers: List[Any], layers: Dict[str, Optional[float]]) -> None:
    """Add mean search and assignment time, as ``AllocationPlan`` records them.

    Read from the reports the controllers keep, so it also covers plans
    the inline admission service computed on a shadow allocator, which
    no probe on the live allocator sees; there their sum stands in for
    ``core.plan_ms``.
    """
    plans = [
        report.plan
        for controller in controllers
        for report in getattr(controller, "reports", ())
        if getattr(report, "plan", None) is not None
    ]
    if not plans:
        return
    layers["core.plan_search_ms"] = sum(p.search_seconds for p in plans) / len(plans) * 1e3
    layers["core.plan_assign_ms"] = sum(p.assign_seconds for p in plans) / len(plans) * 1e3
    if layers.get("core.plan_ms") is None:
        layers["core.plan_ms"] = layers["core.plan_search_ms"] + layers["core.plan_assign_ms"]
