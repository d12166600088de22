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
  fingerprints and identical outcome tallies -- the fabric front door
  adds routing, not behavior.
- **Per-shard linearizability**: each shard's commit log, replayed
  serially onto a fresh controller, must reproduce that shard's pools
  fingerprint.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Sequence, Tuple

from repro.controller.service import AdmissionService, pools_fingerprint
from repro.experiments.common import (
    PACING,
    THREADED_SERVICE,
    ChurnDriver,
    ChurnRun,
    Outcomes,
    Proofs,
    ScenarioResult,
    make_controller,
    publish_gauges,
    run_registry,
    run_violations,
    sanitizer_enabled,
)
from repro.fabric import Fabric, replay_shard
from repro.workloads.arrivals import ArrivalEvent, Event, poisson_events

#: Planner threads per shard: every switch brings its own control CPU.
WORKERS_PER_SHARD = 2
#: The largest share of admissions a run may shed.
SHED_LIMIT = 0.05


@dataclasses.dataclass
class ShardRow:
    """One shard's share of a fabric run."""

    device: str
    outcomes: Outcomes
    commits: int
    utilization: float


@dataclasses.dataclass
class FabricRow(ChurnRun):
    """One shard-count configuration's fleet-wide measurements."""

    shards: int
    per_shard: List[ShardRow]


@dataclasses.dataclass
class FabricResult(ScenarioResult):
    rows: List[FabricRow]
    arrivals: int
    departures: int
    seed: int
    #: Serial 1-shard fabric == serial bare controller, byte for byte.
    parity_ok: bool
    #: The serial run's tally.
    parity: Outcomes

    @property
    def best(self) -> FabricRow:
        """The best-scaling configuration (highest aggregate throughput)."""
        return max(self.rows, key=lambda r: r.throughput)

    @property
    def speedup(self) -> float:
        """Best aggregate throughput over single-shard throughput."""
        base = next((r for r in self.rows if r.shards == 1), self.rows[0])
        return self.best.throughput / base.throughput if base.throughput else 0.0

    @property
    def violations(self) -> List[str]:
        problems = [] if self.parity_ok else ["1-shard fabric diverged from the bare stack"]
        for row in self.rows:
            problems += run_violations(
                f"{row.shards} shard(s)", row.outcomes, row.proofs, row.diverged, SHED_LIMIT
            )
        one = next((r for r in self.rows if r.shards == 1), None)
        widest = max(self.rows, key=lambda r: r.shards)
        if one is not None and widest.outcomes.admitted < one.outcomes.admitted:
            problems.append(
                f"{widest.shards}-shard fleet admitted fewer fids than 1 shard"
            )
        return problems

    def __str__(self) -> str:
        parity = (
            f"OK ({self.parity.admitted} admitted / {self.parity.rejected} "
            "rejected, identical fingerprint and commit log)"
            if self.parity_ok
            else "DIVERGED"
        )
        lines = [
            "Admission churn across a sharded fabric",
            "(independent shards: per-switch controller, service, commit lock)",
            "",
            f"workload: {self.arrivals} arrivals / {self.departures} "
            f"departures (Poisson, seed {self.seed}); placement = hash; "
            f"dwell = {PACING:g} x modeled time",
            "",
            f"single-shard parity vs bare stack: {parity}",
            "",
            f"{'shards':>6} {'tput(adm/s)':>12} {'admitted':>8} {'rejected':>8} "
            f"{'shed':>5} {'shed%':>6} {'diverged':>8}",
        ]
        for row in self.rows:
            outcomes = row.outcomes
            lines.append(
                f"{row.shards:>6} {row.throughput:>12.1f} {outcomes.admitted:>8} "
                f"{outcomes.rejected:>8} {outcomes.shed:>5} {outcomes.shed_rate:>6.1%} "
                f"{'YES' if row.diverged else 'no':>8}"
            )
            for shard in row.per_shard:
                lines.append(
                    f"       - {shard.device}: {shard.outcomes.admitted} admitted, "
                    f"{shard.outcomes.rejected} rejected, {shard.outcomes.shed} shed, "
                    f"{shard.commits} commits, {shard.utilization:.1%} utilized"
                )
        lines += [
            "",
            f"fleet audit: {sum((row.proofs for row in self.rows), Proofs())}",
            f"speedup at {self.best.shards} shards vs 1: {self.speedup:.2f}x "
            f"(target >= 2.0x at <= 5% shed)",
        ]
        return "\n".join(lines)


def _parity_check(events: Sequence[Event], seed: int) -> Tuple[bool, Outcomes]:
    """Serial bare stack vs serial 1-shard fabric: identical, or not.

    Both sides run inline (``workers=0``), so execution is a pure
    function of the event sequence; any divergence is the fabric layer
    changing behavior, which the refactor promises not to do.
    """
    bare = make_controller()
    bare_service = AdmissionService(bare, workers=0, seed=seed)
    bare_drive = ChurnDriver(bare_service.submit)
    bare_drive.drive(events)

    fabric = Fabric.build(1, seed=seed)
    fabric_drive = ChurnDriver(fabric.submit)
    fabric_drive.drive(events)

    identical = (
        pools_fingerprint(bare.allocator) == fabric.shards[0].fingerprint()
        and bare_service.commit_log == fabric.shards[0].commit_log
        and bare_drive.outcomes() == fabric_drive.outcomes()
    )
    return identical, bare_drive.outcomes()


def run_fabric(
    epochs: int = 30,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    seed: int = 7,
) -> FabricResult:
    """Run one Poisson workload per shard count (same seed throughout).

    Each configuration gets ``WORKERS_PER_SHARD`` planner threads per
    shard, so concurrency grows with the fleet, which is precisely the
    scaling a sharded control plane is meant to buy.
    """
    registry = run_registry()
    events = list(poisson_events(epochs=epochs, seed=seed))
    arrivals = sum(1 for e in events if isinstance(e, ArrivalEvent))
    parity_ok, parity = _parity_check(events, seed)

    rows: List[FabricRow] = []
    for num_shards in shard_counts:
        fabric = Fabric.build(
            num_shards,
            seed=seed,
            workers=WORKERS_PER_SHARD,
            telemetry=registry,
            sanitizer=sanitizer_enabled(),
            **THREADED_SERVICE,
        )
        drive = ChurnDriver(fabric.submit)
        started = time.perf_counter()
        drive.drive(events)
        fabric.drain()
        elapsed = time.perf_counter() - started

        # Per-shard linearizability: each commit log replays serially
        # to its shard's exact pool state.
        diverged = False
        per_shard: List[ShardRow] = []
        for shard in fabric.shards:
            live, replayed = replay_shard(shard, drive.pattern_of_fid)
            diverged = diverged or live != replayed
            owned = [fid for fid in drive.tickets if fabric.route_of(fid) == shard.index]
            per_shard.append(
                ShardRow(
                    device=shard.device_id,
                    outcomes=drive.outcomes(owned),
                    commits=len(shard.commit_log),
                    utilization=shard.controller.allocator.utilization(),
                )
            )
        row = FabricRow(
            shards=num_shards,
            elapsed_s=elapsed,
            outcomes=drive.outcomes(),
            diverged=diverged,
            per_shard=per_shard,
            proofs=Proofs.of(fabric.audit().values(), fabric.certificates().values()),
        )
        fabric.close()
        rows.append(row)
        publish_gauges(
            registry,
            "fabric_run",
            {
                **dataclasses.asdict(row.outcomes),
                "throughput": row.throughput,
                "diverged": row.diverged,
            },
            labels={"shards": str(num_shards)},
        )
    publish_gauges(registry, "fabric_run", {"parity": parity_ok})

    return FabricResult(
        rows=rows,
        arrivals=arrivals,
        departures=len(events) - arrivals,
        seed=seed,
        parity_ok=parity_ok,
        parity=parity,
    )
