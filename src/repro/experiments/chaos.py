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
every live isolation certificate valid.  CI's ``chaos-smoke`` job gates
on the exported gauges.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.controller.controller import (
    ProvisioningRequest,
    ProvisioningStatus,
)
from repro.controller.service import withdraw_with_retries
from repro.core.constraints import AccessPattern
from repro.device import Device, SimDevice
from repro.experiments.common import (
    audit_tally,
    exemplar_patterns,
    run_registry,
    sanitizer_enabled,
)
from repro.fabric import Fabric, FailoverReport, replay_shard
from repro.faults import FaultPlan, FaultyDevice, RetryPolicy
from repro.switchsim.config import SwitchConfig
from repro.switchsim.switch import ActiveSwitch
from repro.workloads.arrivals import ArrivalEvent, poisson_events


@dataclasses.dataclass
class ChaosResult:
    """Everything the chaos gates assert on."""

    seed: int
    shards: int
    events: int
    admitted: int
    rejected: int
    rolled_back: int
    shed: int
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
    audit_errors: int
    certificates: int
    invalid_certificates: int

    @property
    def shed_rate(self) -> float:
        total = self.admitted + self.rejected + self.shed
        return self.shed / total if total else 0.0


def _drive_segment(
    fabric: Fabric,
    events: Sequence[object],
    patterns: Dict[str, AccessPattern],
    pattern_of_fid: Dict[int, AccessPattern],
    status_of_fid: Dict[int, ProvisioningStatus],
) -> None:
    """Stream one event slice through the fabric, inline.

    The services run ``workers=0``, so every submission resolves on
    this thread and the run is a pure function of (events, fault
    seeds).  Departures are honored only for fids that were admitted
    and still hold a route -- a fid shed by an earlier failover has no
    shard to withdraw from.  A withdrawal the switch refuses leaves its
    fid ``ADMITTED`` and is sent again at the slice's next departure.
    """
    refused: List[int] = []
    for event in events:
        if isinstance(event, ArrivalEvent):
            pattern = patterns[event.app_name]
            pattern_of_fid[event.fid] = pattern
            report = fabric.submit_and_wait(
                ProvisioningRequest.admission(fid=event.fid, pattern=pattern)
            )
            assert report.status is not None
            status_of_fid[event.fid] = report.status
            continue
        if (
            status_of_fid.get(event.fid) is ProvisioningStatus.ADMITTED
            and fabric.route_of(event.fid) is not None
        ):
            for fid in withdraw_with_retries(
                fabric.submit_and_wait, event.fid, refused
            ):
                del status_of_fid[fid]


def run_chaos(
    epochs: int = 60,
    arrival_mean: float = 2.0,
    departure_mean: float = 1.0,
    shards: int = 3,
    seed: int = 7,
    transient_rate: float = 0.02,
    partial_rate: float = 0.01,
    retry_attempts: int = 5,
    placement: str = "hash",
    sanitizer: Optional[bool] = None,
) -> ChaosResult:
    """One fixed-seed churn x fault-schedule run with two failovers.

    The event list is generated once and split in thirds; shard 0 is
    killed after the first third (recovered onto a replacement device),
    shard 1 after the second (residents redistributed to survivors).
    Everything -- workload, fault schedules, placement -- derives from
    *seed*, so the admitted/recovered/shed table is reproducible.
    """
    registry = run_registry()
    if sanitizer is None:
        sanitizer = sanitizer_enabled()
    patterns = exemplar_patterns()
    config = SwitchConfig()
    retry = RetryPolicy(
        max_attempts=retry_attempts, base_s=1e-6, cap_s=1e-5, jitter=0.5
    )

    faulty: List[FaultyDevice] = []

    def factory(index: int) -> Device:
        inner = SimDevice(ActiveSwitch(config), device_id=f"sw{index}")
        device = FaultyDevice(
            inner,
            FaultPlan(
                seed=seed * 31 + index,
                transient_rate=transient_rate,
                partial_rate=partial_rate,
                digest_drop_rate=0.05,
            ),
            telemetry=registry,
        )
        faulty.append(device)
        return device

    fabric = Fabric.build(
        shards,
        config=config,
        placement=placement,
        seed=seed,
        workers=0,
        telemetry=registry,
        sanitizer=sanitizer,
        device_factory=factory,
        retry=retry,
    )

    events = list(
        poisson_events(
            epochs=epochs,
            arrival_mean=arrival_mean,
            departure_mean=departure_mean,
            seed=seed,
        )
    )
    third = max(1, len(events) // 3)
    segments = [events[:third], events[third : 2 * third], events[2 * third :]]

    pattern_of_fid: Dict[int, AccessPattern] = {}
    status_of_fid: Dict[int, ProvisioningStatus] = {}
    failovers: List[FailoverReport] = []

    # Phase 1: churn, then shard 0 dies and is replaced.
    _drive_segment(fabric, segments[0], patterns, pattern_of_fid, status_of_fid)
    faulty[0].kill()
    replacement = SimDevice(ActiveSwitch(config), device_id="sw0r")
    replace_report = fabric.failover(0, replacement=replacement)
    failovers.append(replace_report)
    live_fp, replayed_fp = replay_shard(fabric.shards[0], pattern_of_fid)
    replay_match = live_fp == replayed_fp

    # Phase 2: more churn, then shard 1 dies with no spare: survivors
    # absorb its residents (or shed them gracefully).
    _drive_segment(fabric, segments[1], patterns, pattern_of_fid, status_of_fid)
    faulty[1].kill()
    redistribute_report = fabric.failover(1)
    failovers.append(redistribute_report)
    for fid in redistribute_report.shed:
        status_of_fid[fid] = ProvisioningStatus.SHED

    # Phase 3: the degraded fleet keeps serving churn.
    _drive_segment(fabric, segments[2], patterns, pattern_of_fid, status_of_fid)

    # Post-recovery proof obligations: clean audits and certificates
    # across every live shard.
    audit_errors, certificates, invalid_certificates = audit_tally(
        fabric.audit().values(), fabric.certificates().values()
    )

    admitted = rejected = rolled_back = shed = 0
    for status in status_of_fid.values():
        if status is ProvisioningStatus.ADMITTED:
            admitted += 1
        elif status is ProvisioningStatus.SHED:
            shed += 1
        elif status is ProvisioningStatus.ROLLED_BACK:
            rolled_back += 1
        else:
            rejected += 1

    transient_faults = sum(
        device.injected.get("transient", 0) + device.injected.get("partial", 0)
        for device in faulty
    )
    retries_healed = sum(
        shard.controller.updater.retries_healed for shard in fabric.shards
    )
    fault_retries = 0
    if registry.enabled:
        counters = registry.snapshot()["counters"]
        assert isinstance(counters, dict)
        for series, value in counters.items():
            if series.startswith("admission_fault_retries_total"):
                fault_retries += int(value)

    fabric.close()

    result = ChaosResult(
        seed=seed,
        shards=shards,
        events=len(events),
        admitted=admitted,
        rejected=rejected,
        rolled_back=rolled_back,
        shed=shed,
        failover_shed=len(redistribute_report.shed),
        failover_readmitted=len(redistribute_report.readmitted)
        + len(replace_report.readmitted),
        failovers=failovers,
        recovery_fingerprint_match=bool(replace_report.fingerprint_match),
        replay_match=replay_match,
        transient_faults=transient_faults,
        retries_healed=retries_healed,
        fault_retries=fault_retries,
        audit_errors=audit_errors,
        certificates=certificates,
        invalid_certificates=invalid_certificates,
    )

    if registry.enabled:
        gauges: List[Tuple[str, str, float]] = [
            ("chaos_run_admitted", "Applications resident or admitted at end of the chaos run", float(result.admitted)),
            ("chaos_run_rejected", "Admissions rejected during the chaos run", float(result.rejected)),
            ("chaos_run_rolled_back", "Admissions rolled back on device faults (final status)", float(result.rolled_back)),
            ("chaos_run_shed", "Applications shed during the chaos run", float(result.shed)),
            ("chaos_run_failovers", "Shard failovers performed in the chaos run", float(len(result.failovers))),
            ("chaos_run_recovery_fingerprint_match", "1 when the replace-failover pools matched the failed shard", 1.0 if result.recovery_fingerprint_match else 0.0),
            ("chaos_run_replay_match", "1 when the replacement column's serial replay matched", 1.0 if result.replay_match else 0.0),
            ("chaos_run_transient_faults", "Transient/partial faults injected across the fleet", float(result.transient_faults)),
            ("chaos_run_retries_healed", "Device operations healed by per-op retries", float(result.retries_healed)),
            ("chaos_run_audit_errors", "Invariant-audit violations after recovery (must be 0)", float(result.audit_errors)),
            ("chaos_run_certificates", "Live isolation certificates checked after recovery", float(result.certificates)),
            ("chaos_run_invalid_certificates", "Invalid certificates after recovery (must be 0)", float(result.invalid_certificates)),
            ("chaos_run_failover_readmitted", "Applications re-homed by failovers", float(result.failover_readmitted)),
        ]
        for name, help_text, value in gauges:
            registry.gauge(name, help=help_text).set(value)
    return result


def format_chaos(result: ChaosResult) -> str:
    lines = [
        "Chaos run: churn under injected device faults + shard failover",
        "(deterministic fault schedules; seed-driven, replayable)",
        "",
        f"workload: {result.events} events (Poisson, seed {result.seed}) "
        f"across {result.shards} shards",
        f"faults injected: {result.transient_faults} transient/partial "
        f"({result.retries_healed} ops healed by per-op retries, "
        f"{result.fault_retries} admission-level re-plans)",
        "",
        f"{'outcome':>12} {'count':>6}",
        f"{'resident':>12} {result.admitted:>6}",
        f"{'rejected':>12} {result.rejected:>6}",
        f"{'rolled_back':>12} {result.rolled_back:>6}",
        f"{'shed':>12} {result.shed:>6}  (rate {result.shed_rate:.1%}, "
        f"{result.failover_shed} by failover)",
        "",
    ]
    for report in result.failovers:
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
    lines.append(
        f"replacement-column serial replay: "
        f"{'match' if result.replay_match else 'DIVERGED'}"
    )
    lines.append("")
    lines.append(
        f"post-recovery audit: {result.audit_errors} invariant violation(s); "
        f"{result.certificates - result.invalid_certificates}/"
        f"{result.certificates} isolation certificates valid "
        f"(all must be clean)"
    )
    return "\n".join(lines)


def main(epochs: int = 60, shards: int = 3, seed: int = 7) -> str:
    return format_chaos(run_chaos(epochs=epochs, shards=shards, seed=seed))
