"""Admission churn through the concurrent control plane.

Not a paper figure: the paper provisions one request at a time (~1 s
each, Figure 8a).  This experiment drives Poisson arrivals and
departures (Section 6.1's online process) through the
:class:`AdmissionService` at several worker counts and reports admission
throughput, latency percentiles, and shed rate -- the concurrency win
the optimistic plan/commit pipeline buys over the serial front door.

Each admission dwells ``pacing`` x its *modeled* provisioning time
after commit (standing in for the switch RPCs and client snapshots the
controller waits out in a hardware deployment); planning and the dwell
overlap across workers, only the short commit is serialized.  After
every run the service's commit log is replayed serially onto a fresh
controller and the stage pools must match byte for byte -- the
linearizability check that makes the speedup trustworthy.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence

from repro.apps.base import EXEMPLAR_APPS
from repro.controller.controller import (
    ProvisioningRequest,
    ProvisioningStatus,
)
from repro.controller.service import (
    AdmissionService,
    pools_fingerprint,
    replay_commit_log,
)
from repro.experiments.common import (
    audit_tally,
    drive_tickets,
    exemplar_patterns,
    make_controller,
    run_registry,
)
from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    json_snapshot,
    resolve_tracer,
)
from repro.workloads.arrivals import ArrivalEvent, poisson_events


@dataclasses.dataclass
class ChurnRow:
    """One worker-count configuration's measurements."""

    workers: int
    elapsed_s: float
    admitted: int
    rejected: int
    shed: int
    conflicts: int
    retries: int
    p50_ms: float
    p99_ms: float
    diverged: bool
    #: Post-run invariant-audit violations and invalid live isolation
    #: certificates (both must be 0).
    audit_errors: int = 0
    invalid_certificates: int = 0
    certificates: int = 0

    @property
    def throughput(self) -> float:
        """Committed admissions per wall-clock second."""
        return self.admitted / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        total = self.admitted + self.rejected + self.shed
        return self.shed / total if total else 0.0


@dataclasses.dataclass
class ChurnResult:
    rows: List[ChurnRow]
    arrivals: int
    departures: int
    seed: int
    pacing: float
    batch_status: str
    batch_size: int
    #: Flight-recorder anomaly dumps captured across the runs (0 when
    #: tracing is off or nothing anomalous fired).
    flight_dumps: int = 0

    @property
    def speedup(self) -> float:
        """Throughput at the highest worker count over single-worker."""
        base = next((r for r in self.rows if r.workers == 1), self.rows[0])
        peak = max(self.rows, key=lambda r: r.workers)
        return peak.throughput / base.throughput if base.throughput else 0.0


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def _counter_total(registry: MetricsRegistry, prefix: str) -> float:
    counters: Dict[str, float] = json_snapshot(registry).get("counters", {})
    return sum(
        value for series, value in counters.items() if series.startswith(prefix)
    )


def run_churn(
    epochs: int = 30,
    arrival_mean: float = 2.0,
    departure_mean: float = 1.0,
    worker_counts: Sequence[int] = (1, 2, 4),
    seed: int = 7,
    pacing: float = 3e-2,
    deadline_s: Optional[float] = 30.0,
    queue_limit: int = 1024,
    batch_size: int = 6,
) -> ChurnResult:
    """Drive one Poisson workload through the service per worker count.

    The same event sequence (same seed) runs at every worker count, so
    rows differ only in concurrency.  Departures wait for their fid's
    admission to resolve first (the generator only departs fids it
    arrived), then withdraw through the same service queue.
    """
    registry = run_registry()
    # With a recording tracer installed (the CLI's --trace-out), every
    # run gets a flight recorder whose dumps snapshot the live pools at
    # anomaly time -- sheds, rollbacks, and retry storms under churn
    # each ship with their own causal reconstruction.
    tracer = resolve_tracer(None)
    flight_dumps = 0
    rows: List[ChurnRow] = []
    arrivals = departures = 0
    for workers in worker_counts:
        events = list(
            poisson_events(
                epochs=epochs,
                arrival_mean=arrival_mean,
                departure_mean=departure_mean,
                seed=seed,
            )
        )
        arrivals = sum(1 for e in events if isinstance(e, ArrivalEvent))
        departures = len(events) - arrivals
        controller = make_controller()
        recorder: Optional[FlightRecorder] = None
        if isinstance(tracer, Tracer):
            recorder = FlightRecorder(
                tracer,
                fingerprint=lambda ctl=controller: pools_fingerprint(
                    ctl.allocator
                ),
            )
        service = AdmissionService(
            controller,
            workers=workers,
            queue_limit=queue_limit,
            default_deadline_s=deadline_s,
            pacing=pacing,
            seed=seed,
            telemetry=registry,
        )
        conflicts_before = _counter_total(
            registry, "admission_commit_conflicts_total"
        )
        retries_before = _counter_total(registry, "admission_plan_retries_total")

        tickets, pattern_of_fid, started = drive_tickets(
            service.submit, events, exemplar_patterns(), deadline_s
        )
        service.drain()
        elapsed = time.perf_counter() - started

        latencies = sorted(
            ticket.resolved_at - ticket.submitted_at
            for ticket in tickets.values()
            if ticket.resolved_at is not None
        )
        reports = [ticket.result(timeout=deadline_s) for ticket in tickets.values()]
        admitted = sum(
            1 for r in reports if r.status is ProvisioningStatus.ADMITTED
        )
        shed = sum(1 for r in reports if r.status is ProvisioningStatus.SHED)
        rejected = len(reports) - admitted - shed

        # Linearizability witness: the concurrent run must equal the
        # serial execution of its own commit log, byte for byte.
        replay = make_controller()
        replay_commit_log(service.commit_log, pattern_of_fid, replay)
        diverged = pools_fingerprint(controller.allocator) != pools_fingerprint(
            replay.allocator
        )
        # Post-run state audit + per-resident isolation certificates:
        # the concurrent run must leave a provably isolated layout.
        audit_errors, certificates, invalid_certificates = audit_tally(
            [controller.audit()], [controller.certificates()]
        )
        service.close()
        if recorder is not None:
            flight_dumps += len(recorder.dumps)
            recorder.detach()

        rows.append(
            ChurnRow(
                workers=workers,
                elapsed_s=elapsed,
                admitted=admitted,
                rejected=rejected,
                shed=shed,
                conflicts=int(
                    _counter_total(registry, "admission_commit_conflicts_total")
                    - conflicts_before
                ),
                retries=int(
                    _counter_total(registry, "admission_plan_retries_total")
                    - retries_before
                ),
                p50_ms=_percentile(latencies, 0.50) * 1e3,
                p99_ms=_percentile(latencies, 0.99) * 1e3,
                diverged=diverged,
                audit_errors=audit_errors,
                invalid_certificates=invalid_certificates,
                certificates=certificates,
            )
        )

    # Batched admission: one shadow, one journal, all-or-nothing.
    controller = make_controller()
    with AdmissionService(controller, workers=2, telemetry=registry) as service:
        cache = EXEMPLAR_APPS["cache"].pattern()
        batch = service.submit_many(
            [
                ProvisioningRequest.admission(fid=9000 + i, pattern=cache)
                for i in range(batch_size)
            ]
        )
        batch_status = batch.result(timeout=60.0).status.value

    return ChurnResult(
        rows=rows,
        arrivals=arrivals,
        departures=departures,
        seed=seed,
        pacing=pacing,
        batch_status=batch_status,
        batch_size=batch_size,
        flight_dumps=flight_dumps,
    )


def format_churn(result: ChurnResult) -> str:
    lines = [
        "Admission churn through the concurrent control plane",
        "(optimistic plan/commit: parallel shadow planning, serial commit)",
        "",
        f"workload: {result.arrivals} arrivals / {result.departures} "
        f"departures (Poisson, seed {result.seed}); dwell = "
        f"{result.pacing:g} x modeled provisioning time",
        "",
        f"{'workers':>7} {'tput(adm/s)':>12} {'p50(ms)':>8} {'p99(ms)':>8} "
        f"{'admitted':>8} {'rejected':>8} {'shed':>5} {'conflicts':>9} "
        f"{'retries':>8} {'diverged':>8}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.workers:>7} {row.throughput:>12.1f} {row.p50_ms:>8.1f} "
            f"{row.p99_ms:>8.1f} {row.admitted:>8} {row.rejected:>8} "
            f"{row.shed:>5} {row.conflicts:>9} {row.retries:>8} "
            f"{'YES' if row.diverged else 'no':>8}"
        )
    peak = max(result.rows, key=lambda r: r.workers)
    lines.append("")
    total_audit = sum(row.audit_errors for row in result.rows)
    total_invalid = sum(row.invalid_certificates for row in result.rows)
    total_certs = sum(row.certificates for row in result.rows)
    lines.append(
        f"state audit: {total_audit} invariant violation(s); "
        f"{total_certs - total_invalid}/{total_certs} live isolation "
        f"certificates valid (both must be clean)"
    )
    lines.append(
        f"speedup at {peak.workers} workers vs 1: {result.speedup:.2f}x "
        f"(target >= 2.0x at equal rejection rate)"
    )
    lines.append(
        f"batch admission: {result.batch_size} fids under one journal -> "
        f"{result.batch_status}"
    )
    if result.flight_dumps:
        lines.append(
            f"flight recorder: {result.flight_dumps} anomaly dump(s) "
            f"captured (sheds / rollbacks / retry storms)"
        )
    return "\n".join(lines)


def main(
    epochs: int = 30,
    worker_counts: Sequence[int] = (1, 2, 4),
    seed: int = 7,
) -> str:
    return format_churn(run_churn(epochs=epochs, worker_counts=worker_counts, seed=seed))
