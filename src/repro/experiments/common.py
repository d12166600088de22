"""Shared machinery for the allocation experiments (Figures 5-8a, 11,
12) and the churn scenarios' driver and result schema."""

from __future__ import annotations

import collections
import dataclasses
import os
from typing import Any, Callable, Collection, Dict, Iterable, List, Mapping, Optional
from typing import Sequence, Set

from repro.analysis.findings import AnalysisReport
from repro.analysis.isolation import IsolationCertificate, TableSnapshot
from repro.apps.base import EXEMPLAR_APPS
from repro.controller.controller import (
    ActiveRmtController,
    ProvisioningReport,
    ProvisioningRequest,
    ProvisioningStatus,
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


# ----------------------------------------------------------------------
# The churn scenarios (churn, fabric, chaos, audit): one driver, one
# result schema
# ----------------------------------------------------------------------

#: How long a scenario waits for one ticket; also the threaded
#: services' request deadline.
DEADLINE_S = 30.0
#: Each threaded admission dwells PACING x its *modeled* provisioning
#: time after commit, standing in for the switch RPCs and client
#: snapshots a hardware deployment waits out.
PACING = 3e-2
#: The threaded churn and fabric services' settings.
THREADED_SERVICE: Dict[str, Any] = {
    "queue_limit": 1024,
    "default_deadline_s": DEADLINE_S,
    "pacing": PACING,
}


class ChurnDriver:
    """Streams Poisson churn through any ticket-returning *submit*.

    The one submit/withdraw loop of the churn scenarios: *submit* is an
    inline or threaded :class:`AdmissionService`'s, or a ``Fabric``'s.
    Arrivals are submitted without waiting.  A departure waits for its
    own fid's admission and, if it was admitted, withdraws through
    :func:`withdraw_with_retries`, so a withdrawal the switch refused is
    sent again at the next departure.  Every departure thus leaves in
    its place in the event order, at any worker count: a threaded run
    admits against the same residents as the inline run, except where
    concurrent arrivals commit in another order.

    ``status_of_fid`` and ``pattern_of_fid`` stay readable and amendable
    between :meth:`drive` calls (chaos marks the fids a failover shed).
    """

    def __init__(
        self, submit: Callable[[ProvisioningRequest], AdmissionTicket[ProvisioningReport]]
    ) -> None:
        self.submit = submit
        self.patterns = exemplar_patterns()
        #: Every arrival's admission ticket.
        self.tickets: Dict[int, AdmissionTicket[ProvisioningReport]] = {}
        self.pattern_of_fid: Dict[int, AccessPattern] = {}
        #: Admission outcomes, filled as they are read.
        self.status_of_fid: Dict[int, ProvisioningStatus] = {}
        self.withdrawn: Set[int] = set()
        #: Refused withdrawals, sent again at the next departure.
        self.refused: List[int] = []
        #: Refused withdrawal attempts (a re-sent one counts again).
        self.refused_withdrawals = 0

    def drive(self, events: Iterable[Event]) -> None:
        for event in events:
            if isinstance(event, ArrivalEvent):
                pattern = self.patterns[event.app_name]
                self.pattern_of_fid[event.fid] = pattern
                self.tickets[event.fid] = self.submit(
                    ProvisioningRequest.admission(fid=event.fid, pattern=pattern)
                )
            elif self.status(event.fid) is ProvisioningStatus.ADMITTED:
                self.withdrawn.update(
                    withdraw_with_retries(self._submit_and_wait, event.fid, self.refused)
                )
                self.refused_withdrawals += len(self.refused)

    def _submit_and_wait(self, request: ProvisioningRequest) -> ProvisioningReport:
        return self.submit(request).result(DEADLINE_S)

    def status(self, fid: int) -> ProvisioningStatus:
        """*fid*'s admission outcome (waiting for it), as amended."""
        if fid not in self.status_of_fid:
            status = self.tickets[fid].result(DEADLINE_S).status
            assert status is not None
            self.status_of_fid[fid] = status
        return self.status_of_fid[fid]

    def shed(self, fids: Collection[int]) -> None:
        """Mark *fids* ``SHED`` (a failover dropped them): never withdrawn."""
        self.status_of_fid.update(dict.fromkeys(fids, ProvisioningStatus.SHED))
        self.refused[:] = [fid for fid in self.refused if fid not in fids]

    def outcomes(self, fids: Optional[Iterable[int]] = None) -> "Outcomes":
        """The tally of *fids*' admissions (default: every arrival)."""
        return Outcomes.of(
            self.status(fid) for fid in (self.tickets if fids is None else fids)
        )


@dataclasses.dataclass
class Outcomes:
    """How a scenario's admissions resolved: the one outcome tally."""

    admitted: int = 0
    rejected: int = 0
    rolled_back: int = 0
    shed: int = 0

    @classmethod
    def of(cls, statuses: Iterable[ProvisioningStatus]) -> "Outcomes":
        counts = collections.Counter(statuses)
        return cls(
            admitted=counts[ProvisioningStatus.ADMITTED],
            rejected=counts[ProvisioningStatus.REJECTED],
            rolled_back=counts[ProvisioningStatus.ROLLED_BACK],
            shed=counts[ProvisioningStatus.SHED],
        )

    @property
    def total(self) -> int:
        return self.admitted + self.rejected + self.rolled_back + self.shed

    @property
    def shed_rate(self) -> float:
        return self.shed / self.total if self.total else 0.0


@dataclasses.dataclass
class Proofs:
    """Post-run proof obligations: invariant-audit errors and live
    isolation certificates (``audit_errors`` and ``invalid_certificates``
    must be 0)."""

    audit_errors: int = 0
    certificates: int = 0
    invalid_certificates: int = 0

    @classmethod
    def of(
        cls,
        audit_reports: Iterable[AnalysisReport],
        certificates: Iterable[Mapping[int, IsolationCertificate]],
    ) -> "Proofs":
        """One audit report and one fid -> certificate map per controller."""
        checked = [cert for by_fid in certificates for cert in by_fid.values()]
        return cls(
            audit_errors=sum(len(report.errors) for report in audit_reports),
            certificates=len(checked),
            invalid_certificates=sum(1 for cert in checked if not cert.valid),
        )

    def __add__(self, other: "Proofs") -> "Proofs":
        return Proofs(
            self.audit_errors + other.audit_errors,
            self.certificates + other.certificates,
            self.invalid_certificates + other.invalid_certificates,
        )

    def __str__(self) -> str:
        valid = self.certificates - self.invalid_certificates
        return (
            f"{self.audit_errors} invariant violation(s); {valid}/"
            f"{self.certificates} live isolation certificates valid "
            "(both must be clean)"
        )


@dataclasses.dataclass
class ChurnRun:
    """One threaded run of a churn scenario (a churn or fabric row)."""

    elapsed_s: float
    outcomes: Outcomes
    #: The commit log(s) did not replay to the live pools.
    diverged: bool
    proofs: Proofs

    @property
    def throughput(self) -> float:
        """Committed admissions per wall-clock second."""
        return self.outcomes.admitted / self.elapsed_s if self.elapsed_s > 0 else 0.0


def run_violations(
    label: str, outcomes: Outcomes, proofs: Proofs, diverged: bool, shed_limit: float
) -> List[str]:
    """The checks every churn run owes, each prefixed with *label*."""
    problems = []
    if proofs.audit_errors:
        problems.append(f"{proofs.audit_errors} invariant violation(s)")
    if proofs.invalid_certificates:
        problems.append(f"{proofs.invalid_certificates} invalid certificate(s)")
    if diverged:
        problems.append("commit-log replay diverged from the live pools")
    if outcomes.shed_rate > shed_limit:
        problems.append(f"shed rate {outcomes.shed_rate:.1%} above {shed_limit:.0%}")
    return [f"{label}: {problem}" for problem in problems]


class ScenarioResult:
    """A churn scenario's result.  Its ``violations`` (empty when every
    check holds) decide the CLI's exit status."""

    @property
    def violations(self) -> List[str]:
        raise NotImplementedError

    @property
    def clean(self) -> bool:
        return not self.violations


def payload_for(result: ScenarioResult) -> Dict[str, object]:
    """Machine-readable summary for ``--report-out``: every field plus
    the verdict, nested results (audit's starved leg) likewise."""
    payload = dataclasses.asdict(result)
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if isinstance(value, ScenarioResult):
            payload[field.name] = payload_for(value)
    payload["violations"] = list(result.violations)
    payload["clean"] = result.clean
    return payload


def counter_total(registry: MetricsRegistry, name: str) -> int:
    """Counter *name* summed over all its label sets."""
    counters = registry.snapshot()["counters"]
    return int(
        sum(value for series, value in counters.items() if series.split("{")[0] == name)
    )


def publish_gauges(
    registry: MetricsRegistry,
    prefix: str,
    fields: Mapping[str, float],
    labels: Optional[Mapping[str, str]] = None,
) -> None:
    """One ``{prefix}_{field}`` gauge per result field (a bool as 0/1)."""
    for field, value in fields.items():
        registry.gauge(
            f"{prefix}_{field}",
            help=f"Field {field!r} of the last {prefix} result",
            labels=labels,
        ).set(float(value))


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
