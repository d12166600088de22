"""Admission churn through the inline admission service.

Not a paper figure: the paper provisions one request at a time (~1 s
each, Figure 8a).  This experiment drives Poisson arrivals and
departures (Section 6.1's online process) through the
:class:`AdmissionService` once, inline, and reports what provisioning
with k windows outstanding would take, in modeled seconds
(:func:`~repro.experiments.common.windowed_seconds` over the run's
reports): client snapshots overlap across windows, table updates share
the switch's one control channel, planning is host time and stays out.
k = 1 is the paper's serial provisioning.

After the run the service's commit log is replayed serially onto a
fresh controller and the stage pools must match byte for byte, and the
final state must pass the invariant audit and certify every resident.
A run at a given seed prints the same report every time.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.apps.base import EXEMPLAR_APPS
from repro.controller.controller import ProvisioningRequest, replay_commit_log
from repro.controller.service import AdmissionService, pools_fingerprint
from repro.experiments.common import (
    ChurnDriver,
    ChurnRun,
    Proofs,
    ScenarioResult,
    make_controller,
    run_violations,
    windowed_seconds,
)
from repro.telemetry import FlightRecorder, Tracer, resolve_tracer
from repro.workloads.arrivals import ArrivalEvent, poisson_events


@dataclasses.dataclass
class ChurnRow(ChurnRun):
    """The run's modeled time with ``windows`` provisioning windows."""

    windows: int


@dataclasses.dataclass
class ChurnResult(ScenarioResult):
    #: One row per window count; all of them read the same run, so they
    #: share its outcomes, replay verdict and proofs.
    rows: List[ChurnRow]
    arrivals: int
    departures: int
    seed: int
    batch_status: str
    batch_size: int
    #: Flight-recorder anomaly dumps captured in the run (0 when
    #: tracing is off or nothing anomalous fired).
    flight_dumps: int = 0

    @property
    def speedup(self) -> float:
        """Modeled throughput at the most windows over one window."""
        base = next((r for r in self.rows if r.windows == 1), self.rows[0])
        peak = max(self.rows, key=lambda r: r.windows)
        return peak.throughput / base.throughput if base.throughput else 0.0

    @property
    def violations(self) -> List[str]:
        run = self.rows[0]
        return run_violations("inline run", run.outcomes, run.proofs, run.diverged, 0.0)

    def __str__(self) -> str:
        run = self.rows[0]
        lines = [
            "Admission churn through the inline admission service",
            "(k provisioning windows: client snapshots overlap, table updates",
            " share the switch's one control channel; planning not modeled)",
            "",
            f"workload: {self.arrivals} arrivals / {self.departures} "
            f"departures (Poisson, seed {self.seed}); one inline run: "
            f"{run.outcomes.admitted} admitted / {run.outcomes.rejected} rejected, "
            f"commit-log replay {'DIVERGED' if run.diverged else 'identical'}",
            "",
            f"{'windows':>7} {'modeled(s)':>11} {'tput(adm/s)':>12}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.windows:>7} {row.modeled_s:>11.3f} {row.throughput:>12.2f}"
            )
        peak = max(self.rows, key=lambda r: r.windows)
        lines += [
            "",
            f"state audit: {run.proofs}",
            f"modeled speedup at {peak.windows} windows vs 1: {self.speedup:.2f}x",
            f"batch admission: {self.batch_size} fids under one journal -> "
            f"{self.batch_status}",
        ]
        if self.flight_dumps:
            lines.append(
                f"flight recorder: {self.flight_dumps} anomaly dump(s) "
                f"captured (rollbacks)"
            )
        return "\n".join(lines)


def run_churn(
    epochs: int = 30,
    windows: Sequence[int] = (1, 2, 4),
    seed: int = 7,
    batch_size: int = 6,
) -> ChurnResult:
    """Drive one Poisson workload through the service, then model it
    with each of *windows* provisioning windows outstanding."""
    # With a recording tracer installed (the CLI's --trace-out), the run
    # gets a flight recorder whose dumps snapshot the live pools at
    # anomaly time, each with its own causal reconstruction.
    tracer = resolve_tracer(None)
    events = list(poisson_events(epochs=epochs, seed=seed))
    arrivals = sum(1 for e in events if isinstance(e, ArrivalEvent))
    controller = make_controller()
    recorder: Optional[FlightRecorder] = None
    if isinstance(tracer, Tracer):
        recorder = FlightRecorder(
            tracer, fingerprint=lambda: pools_fingerprint(controller.allocator)
        )
    service = AdmissionService(controller)
    drive = ChurnDriver(service.submit)
    drive.drive(events)
    # The commit-log witness: the run equals the serial execution of
    # its own commit log, byte for byte.
    replay = make_controller()
    replay_commit_log(service.commit_log, drive.pattern_of_fid, replay)
    diverged = pools_fingerprint(controller.allocator) != pools_fingerprint(
        replay.allocator
    )
    flight_dumps = 0
    if recorder is not None:
        flight_dumps = len(recorder.dumps)
        recorder.detach()
    outcomes = drive.outcomes()
    proofs = Proofs.of([controller.audit()], [controller.certificates()])
    rows = [
        ChurnRow(
            modeled_s=windowed_seconds(drive.history, k),
            outcomes=outcomes,
            diverged=diverged,
            proofs=proofs,
            windows=k,
        )
        for k in windows
    ]

    # Batched admission: one shadow, one journal, all-or-nothing.
    batch_service = AdmissionService(make_controller())
    cache = EXEMPLAR_APPS["cache"].pattern()
    batch = batch_service.submit_many(
        [ProvisioningRequest.admission(fid=9000 + i, pattern=cache) for i in range(batch_size)]
    )

    return ChurnResult(
        rows=rows,
        arrivals=arrivals,
        departures=len(events) - arrivals,
        seed=seed,
        batch_status=batch.status.value,
        batch_size=batch_size,
        flight_dumps=flight_dumps,
    )
