"""Shared machinery for the allocation experiments (Figures 5-8a, 11, 12)."""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.findings import AnalysisReport
from repro.analysis.isolation import IsolationCertificate, TableSnapshot
from repro.apps.base import EXEMPLAR_APPS
from repro.controller.controller import (
    ActiveRmtController,
    ProvisioningReport,
    ProvisioningRequest,
)
from repro.controller.service import AdmissionTicket, withdraw_with_retries
from repro.controller.table_updater import TableUpdateEngine
from repro.core.blocks import BlockRange
from repro.core.constraints import (
    AccessPattern,
    AllocationPolicy,
    LEAST_CONSTRAINED,
    MOST_CONSTRAINED,
)
from repro.core.fairness import jain_index
from repro.core.schemes import AllocationScheme
from repro.switchsim.config import SwitchConfig
from repro.switchsim.switch import ActiveSwitch
from repro.telemetry import MetricsRegistry, resolve
from repro.workloads.arrivals import ArrivalEvent, DepartureEvent, Event

POLICIES: Dict[str, AllocationPolicy] = {
    "mc": MOST_CONSTRAINED,
    "lc": LEAST_CONSTRAINED,
}


def sanitizer_enabled() -> bool:
    """ACTIVERMT_SANITIZE=1 re-audits every commit during experiments."""
    return os.environ.get("ACTIVERMT_SANITIZE", "") not in ("", "0")


def run_registry() -> MetricsRegistry:
    """The process registry when recording (so ``--stats-out`` captures
    the service counters), else a private one for the run's numbers."""
    registry = resolve(None)
    return registry if registry.enabled else MetricsRegistry()


def exemplar_patterns() -> Dict[str, AccessPattern]:
    """The bundled apps' access patterns, by app name."""
    return {name: spec.pattern() for name, spec in EXEMPLAR_APPS.items()}


def make_controller(
    policy: AllocationPolicy = MOST_CONSTRAINED,
    scheme: AllocationScheme = AllocationScheme.WORST_FIT,
    config: Optional[SwitchConfig] = None,
    sanitizer: Optional[bool] = None,
) -> ActiveRmtController:
    """A fresh switch + controller with the given allocation settings.

    *sanitizer* defaults to the ``ACTIVERMT_SANITIZE`` environment knob
    so any experiment can run with post-commit invariant audits without
    a new CLI flag.
    """
    switch = ActiveSwitch(config or SwitchConfig())
    if sanitizer is None:
        sanitizer = sanitizer_enabled()
    return ActiveRmtController(
        switch, scheme=scheme, policy=policy, sanitizer=sanitizer
    )


@dataclasses.dataclass
class EpochRecord:
    """Per-admission-event observations for the time-series figures."""

    epoch: int
    app_name: str
    success: bool
    alloc_seconds: float
    provisioning_seconds: float
    table_seconds: float
    snapshot_seconds: float
    utilization: float
    residents: int
    cache_residents: int
    reallocated_caches: int
    cache_fairness: float


@dataclasses.dataclass
class OnlineRun:
    """Result of driving one event sequence through a controller."""

    records: List[EpochRecord]
    failed: int
    admitted: int

    def series(self, field: str) -> List[float]:
        return [getattr(record, field) for record in self.records]


def drive_events(
    controller: ActiveRmtController, events: Iterable[Event]
) -> OnlineRun:
    """Feed arrival/departure events to a controller, recording metrics.

    Departures of instances that failed admission are skipped (they
    hold no allocation).  Cache-specific metrics (fairness, realloc
    fraction) follow the paper's Figure 7c/7d focus on the elastic app.
    """
    patterns = exemplar_patterns()
    app_of_fid: Dict[int, str] = {}
    refused: List[int] = []
    records: List[EpochRecord] = []
    admitted = 0
    failed = 0
    for event in events:
        if isinstance(event, DepartureEvent):
            if event.fid in app_of_fid:
                for fid in withdraw_with_retries(controller.submit, event.fid, refused):
                    del app_of_fid[fid]
            continue
        assert isinstance(event, ArrivalEvent)
        pattern = patterns[event.app_name]
        report = controller.admit(fid=event.fid, pattern=pattern)
        if report.success:
            admitted += 1
            app_of_fid[event.fid] = event.app_name
        else:
            failed += 1
        records.append(
            _record_for(controller, event, report, app_of_fid)
        )
    return OnlineRun(records=records, failed=failed, admitted=admitted)


def drive_tickets(
    submit: Callable[[ProvisioningRequest], AdmissionTicket],
    events: Sequence[Event],
    patterns: Dict[str, AccessPattern],
    deadline_s: Optional[float],
) -> Tuple[Dict[int, AdmissionTicket], Dict[int, AccessPattern], float]:
    """Stream one event sequence through a ticketed submit front door.

    Returns the admission tickets and patterns by fid plus the
    ``perf_counter`` start time.  Withdrawals must trail their fid's
    admission; rather than blocking the driver (which would starve the
    worker pipeline), departures of still-in-flight admissions are
    deferred and retried as later events stream in, so serial and
    concurrent runs see the same request sequence.
    """
    tickets: Dict[int, AdmissionTicket] = {}
    pattern_of_fid: Dict[int, AccessPattern] = {}
    deferred: List[int] = []
    #: fid -> its latest withdrawal; a refused one left the fid
    #: resident and is sent again at the next departure.
    withdrawals: Dict[int, AdmissionTicket] = {}

    def try_withdraw(fid: int) -> bool:
        ticket = tickets[fid]
        if not ticket.done():
            return False
        if ticket.result().success:
            withdrawals[fid] = submit(ProvisioningRequest.withdrawal(fid=fid))
        return True

    started = time.perf_counter()
    for event in events:
        if isinstance(event, DepartureEvent):
            for fid, ticket in list(withdrawals.items()):
                if ticket.done() and ticket.result().rolled_back:
                    try_withdraw(fid)
            if event.fid in tickets and not try_withdraw(event.fid):
                deferred.append(event.fid)
            continue
        assert isinstance(event, ArrivalEvent)
        pattern = patterns[event.app_name]
        pattern_of_fid[event.fid] = pattern
        tickets[event.fid] = submit(
            ProvisioningRequest.admission(fid=event.fid, pattern=pattern)
        )
        deferred = [fid for fid in deferred if not try_withdraw(fid)]
    for fid in deferred:
        tickets[fid].result(timeout=deadline_s)
        try_withdraw(fid)
    return tickets, pattern_of_fid, started


def audit_tally(
    audit_reports: Iterable[AnalysisReport],
    certificates: Iterable[Mapping[int, IsolationCertificate]],
) -> Tuple[int, int, int]:
    """Post-run proof obligations as three counts.

    Takes one invariant-audit report and one fid -> live certificate
    mapping per controller; returns (audit errors, certificates
    checked, invalid certificates).  The first and last must be 0.
    """
    audit_errors = sum(len(report.errors) for report in audit_reports)
    checked = [cert for by_fid in certificates for cert in by_fid.values()]
    invalid = sum(1 for cert in checked if not cert.valid)
    return audit_errors, len(checked), invalid


def table_surface_mismatches(controller: ActiveRmtController) -> List[str]:
    """The live table surface against a from-scratch install (want: []).

    The path-independence oracle for delta table updates: however the
    device got here, its grants, translations and TCAM occupancy must
    equal those of an empty device on which every resident's current
    regions -- read straight from the pool layouts -- are installed
    once.  Each mismatch names the stage, the FID and both entries.
    """
    config = controller.device.config
    regions: Dict[int, Dict[int, BlockRange]] = {}
    for stage, pool in controller.allocator.pools.items():
        for fid, block_range in pool.layout().items():
            if block_range.count > 0:
                regions.setdefault(fid, {})[stage] = block_range
    scratch = TableUpdateEngine(ActiveSwitch(config).pipeline)
    for fid in sorted(regions):
        scratch.install_app(fid, regions[fid], config.block_words)
    live = TableSnapshot.of(controller.device)
    want = TableSnapshot.of(scratch.tables)
    mismatches: List[str] = []
    for stage in range(1, live.num_stages + 1):
        for kind, have, expected in (
            ("grant", live.grants[stage], want.grants[stage]),
            ("translation", live.translations[stage], want.translations[stage]),
        ):
            for fid in sorted(set(have) | set(expected)):
                if have.get(fid) != expected.get(fid):
                    mismatches.append(
                        f"stage {stage} fid {fid}: installed {kind} "
                        f"{have.get(fid)} != from-scratch {expected.get(fid)}"
                    )
        tcam = controller.device.stage_tcam(stage)
        expected_tcam = scratch.tables.stage_tcam(stage)
        if tcam != expected_tcam:
            mismatches.append(
                f"stage {stage}: TCAM (used, capacity) {tcam} != "
                f"from-scratch {expected_tcam}"
            )
    return mismatches


def _record_for(
    controller: ActiveRmtController,
    event: ArrivalEvent,
    report: ProvisioningReport,
    app_of_fid: Dict[int, str],
) -> EpochRecord:
    allocator = controller.allocator
    cache_fids = [fid for fid, name in app_of_fid.items() if name == "cache"]
    cache_shares = [allocator.app_total_blocks(fid) for fid in cache_fids]
    reallocated_caches = sum(
        1 for fid in report.reallocated_fids if app_of_fid.get(fid) == "cache"
    )
    return EpochRecord(
        epoch=event.epoch,
        app_name=event.app_name,
        success=report.success,
        alloc_seconds=report.compute_seconds,
        provisioning_seconds=report.total_seconds,
        table_seconds=report.table_update_seconds,
        snapshot_seconds=report.snapshot_seconds,
        utilization=allocator.utilization(),
        residents=len(allocator.resident_fids()),
        cache_residents=len(cache_fids),
        reallocated_caches=reallocated_caches,
        cache_fairness=jain_index(cache_shares),
    )


def mean_by_epoch(
    runs: Sequence[OnlineRun], field: str
) -> List[float]:
    """Average a per-record series across trials, aligned by index."""
    if not runs:
        return []
    length = min(len(run.records) for run in runs)
    out = []
    for index in range(length):
        values = [getattr(run.records[index], field) for run in runs]
        out.append(sum(values) / len(values))
    return out


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table for CLI output."""
    columns = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    def fmt(row):
        return "  ".join(str(cell).rjust(width) for cell, width in zip(row, columns))

    lines = [fmt(headers), fmt(["-" * w for w in columns])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
