"""Shared machinery for the allocation experiments (Figures 5-8a, 11,
12) and the churn scenarios' driver and result schema."""

from __future__ import annotations

import collections
import dataclasses
import heapq
import os
import types
from typing import Callable, Collection, Dict, Iterable, Iterator, List, Mapping
from typing import Optional, Sequence, Set, Tuple

from repro.analysis.findings import AnalysisReport
from repro.analysis.isolation import IsolationCertificate
from repro.apps.base import EXEMPLAR_APPS
from repro.controller.controller import (
    ActiveRmtController,
    ProvisioningReport,
    ProvisioningRequest,
    ProvisioningStatus,
    withdraw_with_retries,
)
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
from repro.device import SimDevice
from repro.switchsim.config import SwitchConfig
from repro.switchsim.switch import ActiveSwitch
from repro.telemetry import resolve
from repro.workloads.arrivals import ArrivalEvent, Event

POLICIES: Dict[str, AllocationPolicy] = {
    "mc": MOST_CONSTRAINED,
    "lc": LEAST_CONSTRAINED,
}


def sanitizer_enabled() -> bool:
    """ACTIVERMT_SANITIZE=1 re-audits every commit during experiments."""
    return os.environ.get("ACTIVERMT_SANITIZE", "") not in ("", "0")


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


def drive_events(controller: ActiveRmtController, events: Iterable[Event]) -> OnlineRun:
    """Feed events to a controller through a :class:`ChurnDriver`, one
    :class:`EpochRecord` per arrival.  Cache-specific metrics (fairness,
    realloc fraction) follow the paper's Figure 7c/7d focus on the
    elastic app.
    """
    driver = ChurnDriver(controller.submit)
    steps = driver.steps(events)
    records = [_record_for(controller, driver, event, report) for event, report in steps]
    admitted = sum(record.success for record in records)
    return OnlineRun(records=records, failed=len(records) - admitted, admitted=admitted)


# ----------------------------------------------------------------------
# The churn scenarios (churn, fabric, chaos, audit): one driver, one
# result schema
# ----------------------------------------------------------------------

class ChurnDriver:
    """Streams Poisson churn through any report-returning *submit*.

    The one submit/withdraw loop of the churn scenarios and the
    allocation figures (:func:`drive_events`): *submit* is a
    controller's, an :class:`~repro.controller.service.AdmissionService`'s
    or a ``Fabric``'s.  A departure of an admitted fid withdraws it through
    :func:`withdraw_with_retries`, so a withdrawal the switch refused is
    sent again at the next departure.

    ``status_of_fid`` and ``pattern_of_fid`` stay readable and amendable
    between :meth:`drive` calls (chaos marks the fids a failover shed).
    """

    def __init__(
        self, submit: Callable[[ProvisioningRequest], ProvisioningReport]
    ) -> None:
        self.submit = submit
        self.patterns = exemplar_patterns()
        #: Every arrival's admission report.
        self.reports: Dict[int, ProvisioningReport] = {}
        #: Every report *submit* returned (withdrawals too), in order:
        #: the input of :func:`windowed_seconds`.
        self.history: List[ProvisioningReport] = []
        self.pattern_of_fid: Dict[int, AccessPattern] = {}
        #: Admission outcomes, as amended.
        self.status_of_fid: Dict[int, ProvisioningStatus] = {}
        self.withdrawn: Set[int] = set()
        #: Refused withdrawals, sent again at the next departure.
        self.refused: List[int] = []
        #: Refused withdrawal attempts (a re-sent one counts again).
        self.refused_withdrawals = 0

    def drive(self, events: Iterable[Event]) -> None:
        for _ in self.steps(events):
            pass

    def steps(self, events: Iterable[Event]) -> Iterator[Tuple[ArrivalEvent, ProvisioningReport]]:
        """Drive *events*, yielding each arrival with its report once served."""
        for event in events:
            if isinstance(event, ArrivalEvent):
                pattern = self.patterns[event.app_name]
                self.pattern_of_fid[event.fid] = pattern
                report = self._submit(
                    ProvisioningRequest.admission(fid=event.fid, pattern=pattern)
                )
                self.reports[event.fid] = report
                self.status_of_fid[event.fid] = report.status
                yield event, report
            elif self.status_of_fid.get(event.fid) is ProvisioningStatus.ADMITTED:
                self.withdrawn.update(
                    withdraw_with_retries(self._submit, event.fid, self.refused)
                )
                self.refused_withdrawals += len(self.refused)

    def _submit(self, request: ProvisioningRequest) -> ProvisioningReport:
        report = self.submit(request)
        self.history.append(report)
        return report

    def shed(self, fids: Collection[int]) -> None:
        """Mark *fids* ``SHED`` (a failover dropped them): never withdrawn."""
        self.status_of_fid.update(dict.fromkeys(fids, ProvisioningStatus.SHED))
        self.refused[:] = [fid for fid in self.refused if fid not in fids]

    def outcomes(self, fids: Optional[Iterable[int]] = None) -> "Outcomes":
        """The tally of *fids*' admissions (default: every arrival)."""
        return Outcomes.of(
            self.status_of_fid[fid] for fid in (self.reports if fids is None else fids)
        )


def windowed_seconds(reports: Iterable[ProvisioningReport], windows: int) -> float:
    """Modeled seconds to provision *reports* with *windows* outstanding.

    *reports* come in commit order.  Each one holds a provisioning
    window from its client snapshot (``snapshot_seconds``, which
    overlaps with up to ``windows - 1`` others) through its table update
    (``table_update_seconds``, withdrawals included), which waits for
    the switch's one control channel.  Planning is host time and stays
    out.  One window is the paper's serial provisioning: the sum of the
    modeled seconds.  No window count beats the table updates alone.
    """
    if windows < 1:
        raise ValueError("windows must be >= 1")
    free = [0.0] * windows  # when each window is next free, a min-heap
    channel = 0.0  # when the control channel is next free
    for report in reports:
        snapshot_done = heapq.heappop(free) + report.snapshot_seconds
        channel = max(snapshot_done, channel) + report.table_update_seconds
        heapq.heappush(free, channel)
    return channel


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
    """One inline run of a churn scenario (a churn or fabric row)."""

    #: Modeled provisioning seconds (:func:`windowed_seconds`).
    modeled_s: float
    outcomes: Outcomes
    #: The commit log(s) did not replay to the live pools.
    diverged: bool
    proofs: Proofs

    @property
    def throughput(self) -> float:
        """Committed admissions per modeled second."""
        return self.outcomes.admitted / self.modeled_s if self.modeled_s > 0 else 0.0


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


def publish_gauges(
    prefix: str,
    fields: Mapping[str, float],
    labels: Optional[Mapping[str, str]] = None,
) -> None:
    """One ``{prefix}_{field}`` gauge per result field (a bool as 0/1):
    the fields register as one more owner of the process registry
    (inert unless one was installed)."""
    fixed = ",".join(f"{key}={value}" for key, value in (labels or {}).items())
    suffix = f"{{{fixed}}}" if fixed else ""
    series = {f"{prefix}_{field}{suffix}": float(value) for field, value in fields.items()}
    resolve(None).register(types.SimpleNamespace(metrics=lambda: series))


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
    scratch = TableUpdateEngine(SimDevice(ActiveSwitch(config), device_id="scratch"))
    for fid in sorted(regions):
        scratch.apply_layout(fid, {}, regions[fid])
    live = controller.device.read_tables()
    want = scratch.tables.read_tables()
    mismatches: List[str] = []
    for stage in live.grants:
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
        tcam, expected_tcam = live.tcam[stage], want.tcam[stage]
        if tcam != expected_tcam:
            mismatches.append(
                f"stage {stage}: TCAM (used, capacity) {tcam} != "
                f"from-scratch {expected_tcam}"
            )
    return mismatches


def _record_for(
    controller: ActiveRmtController,
    driver: ChurnDriver,
    event: ArrivalEvent,
    report: ProvisioningReport,
) -> EpochRecord:
    allocator = controller.allocator
    # The driven caches (a resident admitted before the drive is none).
    cache, pattern_of = driver.patterns["cache"], driver.pattern_of_fid.get
    cache_fids = [fid for fid in allocator.resident_fids() if pattern_of(fid) is cache]
    cache_shares = [allocator.app_total_blocks(fid) for fid in cache_fids]
    reallocated_caches = sum(1 for fid in report.reallocated_fids if pattern_of(fid) is cache)
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
