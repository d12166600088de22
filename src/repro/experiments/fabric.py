"""Churn across a sharded fabric: modeled throughput vs shard count.

Not a paper figure: the paper manages one switch's memory.  This
experiment lifts the churn workload (Poisson arrivals/departures
through the inline admission service) onto the
:class:`~repro.fabric.Fabric` and scales the shard count: every shard
is an independent switch with its own controller, admission service and
control channel.  Each configuration runs once, inline; a shard's
modeled provisioning time is its reports' serial time
(:func:`~repro.experiments.common.windowed_seconds` with one window),
and the fleet's makespan is the slowest shard's.  A run at a given seed
prints the same report every time.

Two checks anchor the numbers:

- **Single-shard parity**: the same event sequence driven through a
  bare controller's service and through a 1-shard fabric must produce
  byte-identical pool fingerprints, commit logs and outcome tallies --
  the fabric front door adds routing, not behavior.
- **Per-shard commit logs**: each shard's commit log, replayed serially
  onto a fresh controller, must reproduce that shard's pools
  fingerprint.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.controller.requests import ProvisioningReport
from repro.controller.service import AdmissionService, pools_fingerprint
from repro.experiments.common import (
    ChurnDriver,
    ChurnRun,
    Outcomes,
    Proofs,
    ScenarioResult,
    make_controller,
    publish_gauges,
    run_violations,
    sanitizer_enabled,
    windowed_seconds,
)
from repro.fabric import Fabric, replay_shard
from repro.workloads.arrivals import ArrivalEvent, Event, poisson_events


@dataclasses.dataclass
class ShardRow:
    """One shard's share of a fabric run."""

    device: str
    outcomes: Outcomes
    commits: int
    utilization: float
    #: This shard's serial modeled provisioning seconds.
    modeled_s: float


@dataclasses.dataclass
class FabricRow(ChurnRun):
    """One shard-count configuration's fleet-wide measurements; its
    ``modeled_s`` is the slowest shard's."""

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
        """The best-scaling configuration (highest modeled throughput)."""
        return max(self.rows, key=lambda r: r.throughput)

    @property
    def speedup(self) -> float:
        """Best modeled throughput over single-shard throughput."""
        base = next((r for r in self.rows if r.shards == 1), self.rows[0])
        return self.best.throughput / base.throughput if base.throughput else 0.0

    @property
    def violations(self) -> List[str]:
        problems = [] if self.parity_ok else ["1-shard fabric diverged from the bare stack"]
        for row in self.rows:
            problems += run_violations(
                f"{row.shards} shard(s)", row.outcomes, row.proofs, row.diverged, 0.0
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
            "(independent shards: per-switch controller, service, control channel;",
            " modeled seconds, the fleet's makespan is its slowest shard's)",
            "",
            f"workload: {self.arrivals} arrivals / {self.departures} "
            f"departures (Poisson, seed {self.seed}); placement = hash",
            "",
            f"single-shard parity vs bare stack: {parity}",
            "",
            f"{'shards':>6} {'modeled(s)':>11} {'tput(adm/s)':>12} {'admitted':>8} "
            f"{'rejected':>8} {'diverged':>8}",
        ]
        for row in self.rows:
            outcomes = row.outcomes
            lines.append(
                f"{row.shards:>6} {row.modeled_s:>11.3f} {row.throughput:>12.2f} "
                f"{outcomes.admitted:>8} {outcomes.rejected:>8} "
                f"{'YES' if row.diverged else 'no':>8}"
            )
            for shard in row.per_shard:
                lines.append(
                    f"       - {shard.device}: {shard.outcomes.admitted} admitted, "
                    f"{shard.outcomes.rejected} rejected, {shard.commits} commits, "
                    f"{shard.utilization:.1%} utilized, {shard.modeled_s:.3f} s modeled"
                )
        lines += [
            "",
            f"fleet audit: {sum((row.proofs for row in self.rows), Proofs())}",
            f"modeled speedup at {self.best.shards} shards vs 1: {self.speedup:.2f}x",
        ]
        return "\n".join(lines)


def _parity_check(events: Sequence[Event], seed: int) -> Tuple[bool, Outcomes]:
    """Serial bare stack vs serial 1-shard fabric: identical, or not.

    Execution is a pure function of the event sequence, so any
    divergence is the fabric layer changing behavior.
    """
    bare = make_controller()
    bare_service = AdmissionService(bare)
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
    """Run one Poisson workload per shard count (same seed throughout)."""
    events = list(poisson_events(epochs=epochs, seed=seed))
    arrivals = sum(1 for e in events if isinstance(e, ArrivalEvent))
    parity_ok, parity = _parity_check(events, seed)

    rows: List[FabricRow] = []
    for num_shards in shard_counts:
        fabric = Fabric.build(num_shards, seed=seed, sanitizer=sanitizer_enabled())
        drive = ChurnDriver(fabric.submit)
        drive.drive(events)
        # Each shard's reports in commit order: routes are sticky.
        history: Dict[Optional[int], List[ProvisioningReport]] = {}
        for report in drive.history:
            history.setdefault(fabric.route_of(report.fid), []).append(report)

        # Each commit log replays serially to its shard's exact pools.
        diverged = False
        per_shard: List[ShardRow] = []
        for shard in fabric.shards:
            live, replayed = replay_shard(shard, drive.pattern_of_fid)
            diverged = diverged or live != replayed
            owned = [fid for fid in drive.reports if fabric.route_of(fid) == shard.index]
            per_shard.append(
                ShardRow(
                    device=shard.device_id,
                    outcomes=drive.outcomes(owned),
                    commits=len(shard.commit_log),
                    utilization=shard.controller.allocator.utilization(),
                    modeled_s=windowed_seconds(history.get(shard.index, []), 1),
                )
            )
        row = FabricRow(
            shards=num_shards,
            modeled_s=max(shard.modeled_s for shard in per_shard),
            outcomes=drive.outcomes(),
            diverged=diverged,
            per_shard=per_shard,
            proofs=Proofs.of(fabric.audit().values(), fabric.certificates().values()),
        )
        rows.append(row)
        publish_gauges(
            "fabric_run",
            {
                **dataclasses.asdict(row.outcomes),
                "throughput": row.throughput,
                "diverged": row.diverged,
            },
            labels={"shards": str(num_shards)},
        )
    publish_gauges("fabric_run", {"parity": parity_ok})

    return FabricResult(
        rows=rows,
        arrivals=arrivals,
        departures=len(events) - arrivals,
        seed=seed,
        parity_ok=parity_ok,
        parity=parity,
    )
