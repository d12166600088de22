"""Admission churn through the concurrent control plane.

Not a paper figure: the paper provisions one request at a time (~1 s
each, Figure 8a).  This experiment drives Poisson arrivals and
departures (Section 6.1's online process) through the
:class:`AdmissionService` at several worker counts and reports admission
throughput, latency percentiles, and shed rate -- the concurrency win
the optimistic plan/commit pipeline buys over the serial front door.

Each admission dwells ``PACING`` x its *modeled* provisioning time
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
from typing import List, Optional, Sequence

from repro.apps.base import EXEMPLAR_APPS
from repro.controller.controller import ProvisioningRequest
from repro.controller.service import (
    AdmissionService,
    pools_fingerprint,
    replay_commit_log,
)
from repro.experiments.common import (
    PACING,
    THREADED_SERVICE,
    ChurnDriver,
    ChurnRun,
    Proofs,
    ScenarioResult,
    counter_total,
    make_controller,
    run_registry,
    run_violations,
)
from repro.telemetry import FlightRecorder, Tracer, resolve_tracer
from repro.workloads.arrivals import ArrivalEvent, poisson_events

#: The largest share of admissions a run may shed.
SHED_LIMIT = 0.05


@dataclasses.dataclass
class ChurnRow(ChurnRun):
    """One worker-count configuration's measurements."""

    workers: int
    conflicts: int
    retries: int
    p50_ms: float
    p99_ms: float


@dataclasses.dataclass
class ChurnResult(ScenarioResult):
    rows: List[ChurnRow]
    arrivals: int
    departures: int
    seed: int
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

    @property
    def violations(self) -> List[str]:
        return [
            problem
            for row in self.rows
            for problem in run_violations(
                f"{row.workers} worker(s)", row.outcomes, row.proofs, row.diverged, SHED_LIMIT
            )
        ]

    def __str__(self) -> str:
        lines = [
            "Admission churn through the concurrent control plane",
            "(optimistic plan/commit: parallel shadow planning, serial commit)",
            "",
            f"workload: {self.arrivals} arrivals / {self.departures} "
            f"departures (Poisson, seed {self.seed}); dwell = "
            f"{PACING:g} x modeled provisioning time",
            "",
            f"{'workers':>7} {'tput(adm/s)':>12} {'p50(ms)':>8} {'p99(ms)':>8} "
            f"{'admitted':>8} {'rejected':>8} {'shed':>5} {'conflicts':>9} "
            f"{'retries':>8} {'diverged':>8}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.workers:>7} {row.throughput:>12.1f} {row.p50_ms:>8.1f} "
                f"{row.p99_ms:>8.1f} {row.outcomes.admitted:>8} "
                f"{row.outcomes.rejected:>8} {row.outcomes.shed:>5} "
                f"{row.conflicts:>9} {row.retries:>8} "
                f"{'YES' if row.diverged else 'no':>8}"
            )
        peak = max(self.rows, key=lambda r: r.workers)
        lines += [
            "",
            f"state audit: {sum((row.proofs for row in self.rows), Proofs())}",
            f"speedup at {peak.workers} workers vs 1: {self.speedup:.2f}x "
            f"(target >= 2.0x at equal rejection rate)",
            f"batch admission: {self.batch_size} fids under one journal -> "
            f"{self.batch_status}",
        ]
        if self.flight_dumps:
            lines.append(
                f"flight recorder: {self.flight_dumps} anomaly dump(s) "
                f"captured (sheds / rollbacks / retry storms)"
            )
        return "\n".join(lines)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def run_churn(
    epochs: int = 30,
    worker_counts: Sequence[int] = (1, 2, 4),
    seed: int = 7,
    batch_size: int = 6,
) -> ChurnResult:
    """Drive one Poisson workload through the service per worker count.

    The same event sequence (same seed) runs at every worker count, so
    rows differ only in concurrency.
    """
    registry = run_registry()
    # With a recording tracer installed (the CLI's --trace-out), every
    # run gets a flight recorder whose dumps snapshot the live pools at
    # anomaly time -- sheds, rollbacks, and retry storms under churn
    # each ship with their own causal reconstruction.
    tracer = resolve_tracer(None)
    flight_dumps = 0
    rows: List[ChurnRow] = []
    events = list(poisson_events(epochs=epochs, seed=seed))
    arrivals = sum(1 for e in events if isinstance(e, ArrivalEvent))
    for workers in worker_counts:
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
            controller, workers=workers, seed=seed, telemetry=registry, **THREADED_SERVICE
        )
        conflicts = counter_total(registry, "admission_commit_conflicts_total")
        retries = counter_total(registry, "admission_plan_retries_total")

        drive = ChurnDriver(service.submit)
        started = time.perf_counter()
        drive.drive(events)
        service.drain()
        elapsed = time.perf_counter() - started

        latencies = sorted(
            ticket.resolved_at - ticket.submitted_at
            for ticket in drive.tickets.values()
            if ticket.resolved_at is not None
        )
        # Linearizability witness: the concurrent run must equal the
        # serial execution of its own commit log, byte for byte.
        replay = make_controller()
        replay_commit_log(service.commit_log, drive.pattern_of_fid, replay)
        diverged = pools_fingerprint(controller.allocator) != pools_fingerprint(
            replay.allocator
        )
        service.close()
        if recorder is not None:
            flight_dumps += len(recorder.dumps)
            recorder.detach()

        rows.append(
            ChurnRow(
                workers=workers,
                elapsed_s=elapsed,
                outcomes=drive.outcomes(),
                conflicts=counter_total(registry, "admission_commit_conflicts_total")
                - conflicts,
                retries=counter_total(registry, "admission_plan_retries_total") - retries,
                p50_ms=_percentile(latencies, 0.50) * 1e3,
                p99_ms=_percentile(latencies, 0.99) * 1e3,
                diverged=diverged,
                # The concurrent run must leave a provably isolated layout.
                proofs=Proofs.of([controller.audit()], [controller.certificates()]),
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
        departures=len(events) - arrivals,
        seed=seed,
        batch_status=batch_status,
        batch_size=batch_size,
        flight_dumps=flight_dumps,
    )
