"""Chaos run: churn under injected device faults, with shard failover.

Not a paper figure: this is the recovery proof for the fault-injection
subsystem.  A small fabric of sim switches runs the Poisson churn
workload while every device misbehaves on a deterministic, seed-driven
schedule (:class:`~repro.faults.FaultPlan`): transient control-channel
errors, partially-applied installs, and -- at two fixed points in the
run -- outright device death.  The harness then exercises both recovery
paths:

1. **Replace**: shard 0 dies mid-churn; :meth:`Fabric.failover`
   rebuilds its controller onto a fresh device from the commit log and
   proves the recovered pools byte-identical to the failed shard's
   (plus the usual serial-replay witness on the new column).
2. **Redistribute**: shard 1 dies later; its residents are re-admitted
   on the survivors through normal placement, shedding gracefully
   whatever no longer fits.

The run must end with a clean fleet: zero invariant-audit violations,
every live isolation certificate valid, and at most ``SHED_LIMIT`` of
the admissions shed (``ChaosResult.violations``).
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.device import Device, SimDevice
from repro.experiments.common import (
    ChurnDriver,
    Outcomes,
    Proofs,
    ScenarioResult,
    counter_total,
    publish_gauges,
    run_registry,
    run_violations,
    sanitizer_enabled,
)
from repro.fabric import Fabric, FailoverReport, replay_shard
from repro.faults import FaultPlan, FaultyDevice, RetryPolicy
from repro.switchsim.config import SwitchConfig
from repro.switchsim.switch import ActiveSwitch
from repro.workloads.arrivals import poisson_events

#: Shard 0 is replaced, shard 1 redistributed, shard 2 survives.
SHARDS = 3
#: The largest share of admissions the run may shed.
SHED_LIMIT = 0.10


@dataclasses.dataclass
class ChaosResult(ScenarioResult):
    """Everything the chaos checks assert on."""

    seed: int
    shards: int
    events: int
    #: Final outcomes of the fids not withdrawn: ``admitted`` counts the
    #: residents at the end of the run.
    outcomes: Outcomes
    #: Applications shed by the redistribute failover specifically.
    failover_shed: int
    failover_readmitted: int
    failovers: List[FailoverReport]
    #: Replace-mode proof: recovered pools == failed shard's pools.
    recovery_fingerprint_match: bool
    #: Serial-replay witness on the replacement column after failover.
    replay_match: bool
    transient_faults: int
    retries_healed: int
    fault_retries: int
    proofs: Proofs

    @property
    def violations(self) -> List[str]:
        problems = run_violations(
            "chaos", self.outcomes, self.proofs, not self.replay_match, SHED_LIMIT
        )
        if not self.failovers:
            problems.append("chaos: no shard failover was demonstrated")
        if not self.recovery_fingerprint_match:
            problems.append("chaos: replace-failover pools diverged from the failed shard")
        return problems

    def __str__(self) -> str:
        outcomes = self.outcomes
        lines = [
            "Chaos run: churn under injected device faults + shard failover",
            "(deterministic fault schedules; seed-driven, replayable)",
            "",
            f"workload: {self.events} events (Poisson, seed {self.seed}) "
            f"across {self.shards} shards",
            f"faults injected: {self.transient_faults} transient/partial "
            f"({self.retries_healed} ops healed by per-op retries, "
            f"{self.fault_retries} admission-level re-plans)",
            "",
            f"{'outcome':>12} {'count':>6}",
            f"{'resident':>12} {outcomes.admitted:>6}",
            f"{'rejected':>12} {outcomes.rejected:>6}",
            f"{'rolled_back':>12} {outcomes.rolled_back:>6}",
            f"{'shed':>12} {outcomes.shed:>6}  (rate {outcomes.shed_rate:.1%}, "
            f"{self.failover_shed} by failover)",
            "",
        ]
        for report in self.failovers:
            if report.mode == "replace":
                lines.append(
                    f"failover shard {report.index} ({report.device_id}): "
                    f"REPLACE -- {len(report.readmitted)} apps recovered from "
                    f"commit log; fingerprint match: "
                    f"{'yes' if report.fingerprint_match else 'NO'}"
                )
            else:
                lines.append(
                    f"failover shard {report.index} ({report.device_id}): "
                    f"REDISTRIBUTE -- {len(report.readmitted)} re-admitted on "
                    f"survivors, {len(report.shed)} shed"
                )
        lines += [
            "replacement-column serial replay: "
            f"{'match' if self.replay_match else 'DIVERGED'}",
            "",
            f"post-recovery audit: {self.proofs}",
        ]
        return "\n".join(lines)


def run_chaos(epochs: int = 60, seed: int = 7) -> ChaosResult:
    """One fixed-seed churn x fault-schedule run with two failovers.

    The event list is generated once and split in thirds; shard 0 is
    killed after the first third (recovered onto a replacement device),
    shard 1 after the second (residents redistributed to survivors).
    Everything -- workload, fault schedules, placement -- derives from
    *seed*, so the admitted/recovered/shed table is reproducible.
    """
    registry = run_registry()
    config = SwitchConfig()
    faulty: List[FaultyDevice] = []

    def factory(index: int) -> Device:
        inner = SimDevice(ActiveSwitch(config), device_id=f"sw{index}")
        device = FaultyDevice(
            inner,
            FaultPlan(
                seed=seed * 31 + index,
                transient_rate=0.02,
                partial_rate=0.01,
                digest_drop_rate=0.05,
            ),
            telemetry=registry,
        )
        faulty.append(device)
        return device

    fabric = Fabric.build(
        SHARDS,
        config=config,
        seed=seed,
        telemetry=registry,
        sanitizer=sanitizer_enabled(),
        device_factory=factory,
        retry=RetryPolicy(max_attempts=5, base_s=1e-6, cap_s=1e-5, jitter=0.5),
    )

    events = list(poisson_events(epochs=epochs, seed=seed))
    third = max(1, len(events) // 3)
    drive = ChurnDriver(fabric.submit)

    # Phase 1: churn, then shard 0 dies and is replaced.
    drive.drive(events[:third])
    faulty[0].kill()
    replace_report = fabric.failover(
        0, replacement=SimDevice(ActiveSwitch(config), device_id="sw0r")
    )
    live_fp, replayed_fp = replay_shard(fabric.shards[0], drive.pattern_of_fid)

    # Phase 2: more churn, then shard 1 dies with no spare: survivors
    # absorb its residents (or shed them gracefully).
    drive.drive(events[third : 2 * third])
    faulty[1].kill()
    redistribute_report = fabric.failover(1)
    drive.shed(redistribute_report.shed)

    # Phase 3: the degraded fleet keeps serving churn.
    drive.drive(events[2 * third :])

    result = ChaosResult(
        seed=seed,
        shards=SHARDS,
        events=len(events),
        outcomes=drive.outcomes(fid for fid in drive.tickets if fid not in drive.withdrawn),
        failover_shed=len(redistribute_report.shed),
        failover_readmitted=len(redistribute_report.readmitted)
        + len(replace_report.readmitted),
        failovers=[replace_report, redistribute_report],
        recovery_fingerprint_match=bool(replace_report.fingerprint_match),
        replay_match=live_fp == replayed_fp,
        transient_faults=sum(
            device.injected.get("transient", 0) + device.injected.get("partial", 0)
            for device in faulty
        ),
        retries_healed=sum(
            shard.controller.updater.retries_healed for shard in fabric.shards
        ),
        fault_retries=counter_total(registry, "admission_fault_retries_total"),
        # Post-recovery proof obligations across every live shard.
        proofs=Proofs.of(fabric.audit().values(), fabric.certificates().values()),
    )
    fabric.close()
    publish_gauges(
        registry,
        "chaos_run",
        {
            **dataclasses.asdict(result.outcomes),
            **dataclasses.asdict(result.proofs),
            "failovers": len(result.failovers),
            "failover_readmitted": result.failover_readmitted,
            "recovery_fingerprint_match": result.recovery_fingerprint_match,
            "replay_match": result.replay_match,
            "transient_faults": result.transient_faults,
            "retries_healed": result.retries_healed,
        },
    )
    return result
