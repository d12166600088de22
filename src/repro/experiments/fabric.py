"""Churn across a sharded fabric: throughput vs shard count.

Not a paper figure: the paper manages one switch's memory.  This
experiment lifts the churn workload (Poisson arrivals/departures
through the concurrent admission service) onto the
:class:`~repro.fabric.Fabric` and scales the shard count instead of
the worker count: every shard is an independent switch with its own
controller, admission service, and commit lock, so aggregate admission
throughput should scale with the fleet while each shard's commit log
still replays serially to its exact pool state.

Two checks anchor the numbers:

- **Single-shard parity**: the same event sequence driven serially
  (inline services, ``workers=0``) through a bare controller and
  through a 1-shard fabric must produce byte-identical pool
  fingerprints and identical admitted/rejected counts -- the fabric
  front door adds routing, not behavior.
- **Per-shard linearizability**: each shard's commit log, replayed
  serially onto a fresh controller, must reproduce that shard's pools
  fingerprint.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.controller.controller import ProvisioningStatus
from repro.controller.service import (
    AdmissionService,
    AdmissionTicket,
    pools_fingerprint,
)
from repro.core.constraints import AccessPattern
from repro.experiments.common import (
    audit_tally,
    drive_tickets,
    exemplar_patterns,
    make_controller,
    run_registry,
    sanitizer_enabled,
)
from repro.fabric import Fabric, replay_shard
from repro.workloads.arrivals import ArrivalEvent, poisson_events


@dataclasses.dataclass
class ShardRow:
    """One shard's share of a fabric run."""

    device: str
    admitted: int
    rejected: int
    shed: int
    commits: int
    utilization: float


@dataclasses.dataclass
class FabricRow:
    """One shard-count configuration's measurements."""

    shards: int
    workers_per_shard: int
    elapsed_s: float
    admitted: int
    rejected: int
    shed: int
    diverged: bool
    per_shard: List[ShardRow]
    #: Fleet-wide invariant-audit violations (``Fabric.audit()``) and
    #: invalid live isolation certificates; both must be 0.
    audit_errors: int = 0
    invalid_certificates: int = 0
    certificates: int = 0

    @property
    def throughput(self) -> float:
        """Committed admissions per wall-clock second, fleet-wide."""
        return self.admitted / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        total = self.admitted + self.rejected + self.shed
        return self.shed / total if total else 0.0


@dataclasses.dataclass
class FabricResult:
    rows: List[FabricRow]
    arrivals: int
    departures: int
    seed: int
    pacing: float
    placement: str
    #: Serial 1-shard fabric == serial bare controller, byte for byte.
    parity_ok: bool
    parity_admitted: int
    parity_rejected: int

    @property
    def best(self) -> FabricRow:
        """The best-scaling configuration (highest aggregate throughput)."""
        return max(self.rows, key=lambda r: r.throughput)

    @property
    def speedup(self) -> float:
        """Best aggregate throughput over single-shard throughput."""
        base = next((r for r in self.rows if r.shards == 1), self.rows[0])
        return self.best.throughput / base.throughput if base.throughput else 0.0


def _outcomes(
    tickets: Dict[int, AdmissionTicket], deadline_s: Optional[float]
) -> Tuple[int, int, int, Dict[int, ProvisioningStatus]]:
    by_fid: Dict[int, ProvisioningStatus] = {}
    for fid, ticket in tickets.items():
        status = ticket.result(timeout=deadline_s).status
        assert status is not None
        by_fid[fid] = status
    admitted = sum(
        1 for s in by_fid.values() if s is ProvisioningStatus.ADMITTED
    )
    shed = sum(1 for s in by_fid.values() if s is ProvisioningStatus.SHED)
    rejected = len(by_fid) - admitted - shed
    return admitted, rejected, shed, by_fid


def _parity_check(
    events: Sequence[object],
    patterns: Dict[str, AccessPattern],
    seed: int,
) -> Tuple[bool, int, int]:
    """Serial bare stack vs serial 1-shard fabric: identical, or not.

    Both sides run inline (``workers=0``), so execution is a pure
    function of the event sequence; any divergence is the fabric layer
    changing behavior, which the refactor promises not to do.
    """
    bare = make_controller()
    bare_service = AdmissionService(bare, workers=0, seed=seed)
    bare_tickets, _, _ = drive_tickets(bare_service.submit, events, patterns, None)
    bare_admitted, bare_rejected, _, _ = _outcomes(bare_tickets, None)

    fabric = Fabric.build(1, placement="hash", seed=seed, workers=0)
    fabric_tickets, _, _ = drive_tickets(fabric.submit, events, patterns, None)
    fab_admitted, fab_rejected, _, _ = _outcomes(fabric_tickets, None)

    identical = (
        pools_fingerprint(bare.allocator) == fabric.shards[0].fingerprint()
        and bare_service.commit_log == fabric.shards[0].commit_log
        and (bare_admitted, bare_rejected) == (fab_admitted, fab_rejected)
    )
    return identical, bare_admitted, bare_rejected


def run_fabric(
    epochs: int = 30,
    arrival_mean: float = 2.0,
    departure_mean: float = 1.0,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    workers_per_shard: int = 2,
    seed: int = 7,
    pacing: float = 3e-2,
    deadline_s: Optional[float] = 30.0,
    queue_limit: int = 1024,
    placement: str = "hash",
    sanitizer: Optional[bool] = None,
) -> FabricResult:
    """Run one Poisson workload per shard count (same seed throughout).

    Each configuration gets *workers_per_shard* planner threads per
    shard -- every switch brings its own control CPU -- so concurrency
    grows with the fleet, which is precisely the scaling a sharded
    control plane is meant to buy.
    """
    registry = run_registry()
    if sanitizer is None:
        sanitizer = sanitizer_enabled()
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
    patterns = exemplar_patterns()

    parity_ok, parity_admitted, parity_rejected = _parity_check(
        events, patterns, seed
    )

    rows: List[FabricRow] = []
    for num_shards in shard_counts:
        fabric = Fabric.build(
            num_shards,
            placement=placement,
            seed=seed,
            workers=workers_per_shard,
            queue_limit=queue_limit,
            default_deadline_s=deadline_s,
            pacing=pacing,
            telemetry=registry,
            sanitizer=sanitizer,
        )
        tickets, pattern_of_fid, started = drive_tickets(
            fabric.submit, events, patterns, deadline_s
        )
        fabric.drain()
        elapsed = time.perf_counter() - started
        admitted, rejected, shed, status_of_fid = _outcomes(
            tickets, deadline_s
        )

        # Per-shard linearizability: each commit log replays serially
        # to its shard's exact pool state.
        diverged = False
        per_shard: List[ShardRow] = []
        for shard in fabric.shards:
            live, replayed = replay_shard(shard, pattern_of_fid)
            if live != replayed:
                diverged = True
            owned = [
                fid
                for fid, index in (
                    (fid, fabric.route_of(fid)) for fid in tickets
                )
                if index == shard.index
            ]
            per_shard.append(
                ShardRow(
                    device=shard.device_id,
                    admitted=sum(
                        1
                        for fid in owned
                        if status_of_fid[fid] is ProvisioningStatus.ADMITTED
                    ),
                    rejected=sum(
                        1
                        for fid in owned
                        if status_of_fid[fid]
                        in (
                            ProvisioningStatus.REJECTED,
                            ProvisioningStatus.ROLLED_BACK,
                        )
                    ),
                    shed=sum(
                        1
                        for fid in owned
                        if status_of_fid[fid] is ProvisioningStatus.SHED
                    ),
                    commits=len(shard.commit_log),
                    utilization=shard.controller.allocator.utilization(),
                )
            )
        # Fleet-wide state audit + live isolation certificates, the
        # batch counterpart of the fingerprint parity checks above.
        audit_errors, certificates, invalid_certificates = audit_tally(
            fabric.audit().values(), fabric.certificates().values()
        )
        fabric.close()

        row = FabricRow(
            shards=num_shards,
            workers_per_shard=workers_per_shard,
            elapsed_s=elapsed,
            admitted=admitted,
            rejected=rejected,
            shed=shed,
            diverged=diverged,
            per_shard=per_shard,
            audit_errors=audit_errors,
            invalid_certificates=invalid_certificates,
            certificates=certificates,
        )
        rows.append(row)
        if registry.enabled:
            labels = {"shards": str(num_shards)}
            registry.gauge(
                "fabric_run_admitted",
                help="Admissions committed in one fabric churn run",
                labels=labels,
            ).set(admitted)
            registry.gauge(
                "fabric_run_rejected",
                help="Admissions rejected in one fabric churn run",
                labels=labels,
            ).set(rejected)
            registry.gauge(
                "fabric_run_shed",
                help="Requests shed in one fabric churn run",
                labels=labels,
            ).set(shed)
            registry.gauge(
                "fabric_run_throughput",
                help="Aggregate admitted throughput (admissions/s)",
                labels=labels,
            ).set(row.throughput)
            registry.gauge(
                "fabric_run_diverged",
                help="1 when any shard's replay diverged (must be 0)",
                labels=labels,
            ).set(1.0 if diverged else 0.0)
    if registry.enabled:
        registry.gauge(
            "fabric_run_parity",
            help="1 when the serial 1-shard fabric matched the bare stack",
        ).set(1.0 if parity_ok else 0.0)

    return FabricResult(
        rows=rows,
        arrivals=arrivals,
        departures=departures,
        seed=seed,
        pacing=pacing,
        placement=placement,
        parity_ok=parity_ok,
        parity_admitted=parity_admitted,
        parity_rejected=parity_rejected,
    )


def format_fabric(result: FabricResult) -> str:
    lines = [
        "Admission churn across a sharded fabric",
        "(independent shards: per-switch controller, service, commit lock)",
        "",
        f"workload: {result.arrivals} arrivals / {result.departures} "
        f"departures (Poisson, seed {result.seed}); placement = "
        f"{result.placement}; dwell = {result.pacing:g} x modeled time",
        "",
        f"single-shard parity vs bare stack: "
        f"{'OK' if result.parity_ok else 'DIVERGED'} "
        f"({result.parity_admitted} admitted / {result.parity_rejected} "
        f"rejected, identical fingerprint and commit log)"
        if result.parity_ok
        else "single-shard parity vs bare stack: DIVERGED",
        "",
        f"{'shards':>6} {'tput(adm/s)':>12} {'admitted':>8} {'rejected':>8} "
        f"{'shed':>5} {'shed%':>6} {'diverged':>8}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.shards:>6} {row.throughput:>12.1f} {row.admitted:>8} "
            f"{row.rejected:>8} {row.shed:>5} {row.shed_rate:>6.1%} "
            f"{'YES' if row.diverged else 'no':>8}"
        )
        for shard_row in row.per_shard:
            lines.append(
                f"       - {shard_row.device}: {shard_row.admitted} admitted, "
                f"{shard_row.rejected} rejected, {shard_row.shed} shed, "
                f"{shard_row.commits} commits, "
                f"{shard_row.utilization:.1%} utilized"
            )
    best = result.best
    lines.append("")
    total_audit = sum(row.audit_errors for row in result.rows)
    total_invalid = sum(row.invalid_certificates for row in result.rows)
    total_certs = sum(row.certificates for row in result.rows)
    lines.append(
        f"fleet audit: {total_audit} invariant violation(s); "
        f"{total_certs - total_invalid}/{total_certs} live isolation "
        f"certificates valid (both must be clean)"
    )
    lines.append(
        f"speedup at {best.shards} shards vs 1: {result.speedup:.2f}x "
        f"(target >= 2.0x at <= 5% shed)"
    )
    return "\n".join(lines)


def main(
    epochs: int = 30,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    seed: int = 7,
) -> str:
    return format_fabric(
        run_fabric(epochs=epochs, shard_counts=shard_counts, seed=seed)
    )
