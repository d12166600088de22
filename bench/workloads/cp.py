"""``cp_churn`` and ``cp_faults``: the control plane, data path idle.

``cp_churn`` feeds one arrival/departure stream serially to
``ActiveRmtController.submit``: plan -> verify -> certify -> commit ->
journaled table update, with withdrawals as the write beside the read.
``cp_faults`` feeds the same kind of stream through a three-shard
``Fabric`` whose devices drop and half-apply operations, and kills two
shards on the way: the same layers through their other paths (inline
``AdmissionService`` -> ``commit_plan``, per-operation retries,
``recover`` from the commit log, redistribution).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import (
    ActiveRmtController,
    ActiveSwitch,
    ProvisioningRequest,
    ProvisioningStatus,
    SwitchConfig,
)
from repro.apps import EXEMPLAR_APPS
from repro.controller import replay_commit_log
from repro.device import SimDevice
from repro.fabric import Fabric, replay_shard
from repro.faults import FaultPlan, FaultyDevice, RetryPolicy
from repro.workloads import ArrivalEvent

from bench.device import TimedDevice
from bench.inputs import churn_events
from bench.stats import percentile
from bench.trace import probed
from bench.workloads.common import (
    Round,
    attach_analysis,
    attach_controller,
    control_layers,
    per_call,
    plan_split,
    pools_fingerprint,
)

_perf = time.perf_counter

SHARDS = 3


def _apps() -> Dict[str, Tuple[Any, Any]]:
    return {name: (app.pattern(), app.program()) for name, app in EXEMPLAR_APPS.items()}


def _modeled(report: Any) -> float:
    """Figure 8a's provisioning time without the host-measured compute band."""
    return report.table_update_seconds + report.snapshot_seconds


# ----------------------------------------------------------------------
# cp_churn
# ----------------------------------------------------------------------


def run_churn(scale: str, seed: int, tracer: Any, check: bool) -> Tuple[Round, Dict[str, Optional[float]]]:
    rnd = Round(tracer)
    round_began = _perf()
    epochs = 20 if scale == "smoke" else 300

    start = _perf()
    rnd.setup_speed.read()
    with tracer.span("bench.setup"):
        apps = _apps()
        events = churn_events(seed, epochs, sorted(apps))
        switch = ActiveSwitch(SwitchConfig())
        if tracer.enabled:
            controller = ActiveRmtController(TimedDevice(SimDevice(switch), tracer))
            attach_controller(tracer, controller)
            attach_analysis(tracer, controller)
        else:
            controller = ActiveRmtController(switch)
            if probed(controller.allocator, "plan"):
                raise RuntimeError("a probe is installed in a measured round")
    rnd.setup_speed.read()
    rnd.set_up(start, _perf())

    resident: Dict[int, Any] = {}
    log: List[Tuple[str, int]] = []
    patterns: Dict[int, Any] = {}
    modeled: List[float] = []
    reinstalls = 0
    rolled_back = 0
    rnd.speed.read()
    for event in events:
        rnd.speed.tick()
        try:
            if isinstance(event, ArrivalEvent):
                pattern, program = apps[event.app_name]
                request = ProvisioningRequest.admission(event.fid, pattern, program=program)
                began = _perf()
                with tracer.span("controller.submit"):
                    report = controller.submit(request)
                rnd.timed(_perf() - began)
                rnd.attempted += 1
                rolled_back += report.rolled_back
                if report.success:
                    resident[event.fid] = pattern
                    patterns[event.fid] = pattern
                    log.append(("admit", event.fid))
                    modeled.append(_modeled(report))
                    reinstalls += len(report.reallocated_fids)
            elif event.fid in resident:
                request = ProvisioningRequest.withdrawal(event.fid)
                began = _perf()
                with tracer.span("controller.submit"):
                    report = controller.submit(request)
                rnd.timed_second(_perf() - began, in_stream=True)
                rnd.attempted += 1
                rnd.fail(not report.success, f"withdrawal of fid {event.fid} failed")
                del resident[event.fid]
                log.append(("withdraw", event.fid))
        except Exception:
            rnd.crashed(f"event {event}")
    rnd.speed.read()

    # -- correctness: audit, certificates, serial replay ------------------
    try:
        with tracer.span("controller.audit"):
            audit = controller.audit()
        rnd.check(not audit.has_errors, f"audit: {[str(f) for f in audit.errors[:2]]}")
        with tracer.span("controller.certificates"):
            certificates = controller.certificates()
        invalid = [fid for fid, cert in certificates.items() if not cert.valid]
        rnd.check(not invalid, f"invalid isolation certificates for fids {invalid[:5]}")
        rnd.check(
            sorted(certificates) == sorted(resident),
            "certificates do not cover exactly the resident applications",
        )
        if check:
            with tracer.span("bench.check"):
                fresh = ActiveRmtController(ActiveSwitch(SwitchConfig()))
                replay_commit_log(log, patterns, fresh)
                rnd.check(
                    pools_fingerprint(fresh.allocator) == pools_fingerprint(controller.allocator),
                    "serial replay of the commit log does not reproduce the live pools",
                )
    except Exception:
        rnd.crashed("post-run checks")

    admitted = len(modeled)
    rnd.exact = {
        "events": len(events),
        "admissions": rnd.ops,
        "admitted": admitted,
        "withdrawals": len(rnd.second_us),
        "resident": len(resident),
        "rolled_back": rolled_back,
        "admitted_share": admitted / rnd.ops if rnd.ops else 0.0,
        "modeled_provision_s_p50": percentile(modeled, 50) if modeled else 0.0,
        "reinstalls_per_admit": reinstalls / admitted if admitted else 0.0,
        "table_entries": controller.updater.entries_installed + controller.updater.entries_removed,
    }
    if not tracer.enabled:
        return rnd, {}
    tracer.detach()
    rnd.wall_s = _perf() - round_began
    totals = tracer.totals()
    layers = control_layers(totals, admitted)
    plan_split([controller], layers)
    layers.update(
        {
            "controller.reinstalls_per_admit": rnd.exact["reinstalls_per_admit"],
            "controller.modeled_provision_s_p50": rnd.exact["modeled_provision_s_p50"],
            "controller.admitted_share": rnd.exact["admitted_share"],
            "faults.rolled_back": rolled_back,
        }
    )
    return rnd, layers


# ----------------------------------------------------------------------
# cp_faults
# ----------------------------------------------------------------------


@dataclasses.dataclass
class _Fleet:
    fabric: Any
    faulty: List[Any]
    config: Any


def _build_fleet(seed: int, tracer: Any) -> _Fleet:
    config = SwitchConfig()
    faulty: List[Any] = []

    def factory(index: int) -> Any:
        device = FaultyDevice(
            SimDevice(ActiveSwitch(config), device_id=f"sw{index}"),
            FaultPlan(seed=seed * 31 + index, transient_rate=0.02, partial_rate=0.01),
        )
        faulty.append(device)
        return TimedDevice(device, tracer) if tracer.enabled else device

    # Five attempts against a 3 % fault rate: an operation exhausts its
    # retries once in 4e7, so admissions heal instead of rolling back
    # (a rollback through a faulty device mostly faults again and
    # latches device_failed, which would turn every run into a
    # different failover schedule).  Backoff is microseconds: the run
    # measures work, not sleeping.  The fabric's own seed (hash placement
    # of fids on shards) stays at its default: it is configuration, and
    # seeding it moved a tenth of the tenants between shards from seed to
    # seed (84-108 log entries on shard 0 when it dies; 109-115 now),
    # which tripled the spread of the replay time over ten seeds.
    fabric = Fabric.build(
        SHARDS,
        config=config,
        workers=0,
        device_factory=factory,
        retry=RetryPolicy(max_attempts=5, base_s=1e-6, cap_s=1e-5),
    )
    return _Fleet(fabric, faulty, config)


def _rollback_probe(tracer: Any, apps: Dict[str, Tuple[Any, Any]], count: int = 16) -> int:
    """Admissions that commit, run out of TCAM mid-install and roll back.

    The fault rates above never exhaust five retries, so the journal's
    rollback path stays cold in the scenario itself; this probe drives
    it on a healthy device with an 8-entry TCAM, where the seventh cache
    and every one after it is committed and then exactly undone.
    """
    controller = ActiveRmtController(ActiveSwitch(SwitchConfig(tcam_entries_per_stage=8)))
    # Only the rollback: the probe's plans and commits are not the scenario's.
    tracer.shadow(controller.allocator, "rollback", "core.rollback")
    pattern, program = apps["cache"]
    rolled_back = 0
    with tracer.span("bench.probe_rollback"):
        for fid in range(1, 64):
            report = controller.submit(
                ProvisioningRequest.admission(fid, pattern, program=program)
            )
            rolled_back += report.rolled_back
            if rolled_back >= count:
                break
    return rolled_back


def _attach_shard(tracer: Any, shard: Any) -> None:
    attach_controller(tracer, shard.controller)
    tracer.shadow(shard.controller, "commit_plan", "controller.commit_plan")
    tracer.shadow(shard.service, "submit", "controller.service_inline")


def run_faults(scale: str, seed: int, tracer: Any, check: bool) -> Tuple[Round, Dict[str, Optional[float]]]:
    rnd = Round(tracer)
    round_began = _perf()
    epochs = 18 if scale == "smoke" else 300

    start = _perf()
    rnd.setup_speed.read()
    with tracer.span("bench.setup"):
        apps = _apps()
        events = churn_events(seed, epochs, sorted(apps))
        fleet = _build_fleet(seed, tracer)
        fabric = fleet.fabric
        if tracer.enabled:
            for shard in fabric.shards:
                _attach_shard(tracer, shard)
            attach_analysis(tracer, fabric.shards[0].controller)
        elif probed(fabric.shards[0].service, "submit"):
            raise RuntimeError("a probe is installed in a measured round")
    rnd.setup_speed.read()
    rnd.set_up(start, _perf())

    status: Dict[int, Any] = {}
    patterns: Dict[int, Any] = {}
    modeled: List[float] = []
    rolled_back = 0
    third = max(1, len(events) // 3)

    def drive(segment: List[Any]) -> None:
        nonlocal rolled_back
        for event in segment:
            rnd.speed.tick()
            try:
                if isinstance(event, ArrivalEvent):
                    pattern, program = apps[event.app_name]
                    patterns[event.fid] = pattern
                    request = ProvisioningRequest.admission(event.fid, pattern, program=program)
                    began = _perf()
                    with tracer.span("fabric.submit"):
                        report = fabric.submit_and_wait(request)
                    rnd.timed(_perf() - began)
                    rnd.attempted += 1
                    status[event.fid] = report.status
                    rolled_back += report.rolled_back
                    if report.success:
                        modeled.append(_modeled(report))
                elif (
                    status.get(event.fid) is ProvisioningStatus.ADMITTED
                    and fabric.route_of(event.fid) is not None
                ):
                    request = ProvisioningRequest.withdrawal(event.fid)
                    began = _perf()
                    with tracer.span("fabric.submit"):
                        report = fabric.submit_and_wait(request)
                    rnd.stream_s += rnd.speed.ref(_perf() - began)
                    rnd.attempted += 1
                    rnd.fail(not report.success, f"withdrawal of fid {event.fid} failed")
                    del status[event.fid]
            except Exception:
                rnd.crashed(f"event {event}")

    replaced = moved = None
    replace_s = redistribute_s = 0.0
    recover_entries = 0
    rnd.speed.read()
    try:
        drive(events[:third])
        # -- shard 0 dies; its state is replayed onto a spare ------------
        recover_entries = len(fabric.shards[0].commit_log)
        if tracer.enabled:
            # The recovery path alone, on a device nobody keeps.
            with tracer.span("controller.recover"):
                ActiveRmtController.recover(
                    SimDevice(ActiveSwitch(fleet.config), device_id="probe"),
                    fabric.shards[0].commit_log,
                    patterns,
                )
        fleet.faulty[0].kill()
        spare = SimDevice(ActiveSwitch(fleet.config), device_id="sw0r")
        rnd.speed.read()
        began = _perf()
        with tracer.span("fabric.failover_replace"):
            replaced = fabric.failover(
                0, replacement=TimedDevice(spare, tracer) if tracer.enabled else spare
            )
        replace_s = _perf() - began
        # The second path: one commit-log entry replayed onto the spare.
        rnd.timed_second(replace_s, max(1, recover_entries))
        rnd.check(bool(replaced.fingerprint_match), "recovered pools differ from the failed shard's")
        if tracer.enabled:
            _attach_shard(tracer, fabric.shards[0])
        if check:
            with tracer.span("bench.check"):
                live, replayed = replay_shard(fabric.shards[0], patterns)
                rnd.check(live == replayed, "serial replay of the recovered shard diverges")

        drive(events[third : 2 * third])
        # -- shard 1 dies with no spare; survivors absorb its residents --
        fleet.faulty[1].kill()
        rnd.speed.read()
        began = _perf()
        with tracer.span("fabric.failover_redistribute"):
            moved = fabric.failover(1)
        redistribute_s = _perf() - began
        rnd.speed.read()
        for fid in moved.shed:
            status[fid] = ProvisioningStatus.SHED
        drive(events[2 * third :])

        rnd.attempted += 2

        with tracer.span("fabric.audit"):
            audits = fabric.audit()
        errors = sum(len(report.errors) for report in audits.values())
        rnd.check(errors == 0, f"fleet audit found {errors} invariant violations")
        with tracer.span("fabric.certificates"):
            certificates = fabric.certificates()
        invalid = sum(
            1 for per_shard in certificates.values() for cert in per_shard.values() if not cert.valid
        )
        rnd.check(invalid == 0, f"{invalid} invalid isolation certificates after recovery")
    except Exception:
        rnd.crashed("fault scenario")
    finally:
        fabric.close()

    injected = sum(sum(device.injected.values()) for device in fleet.faulty)
    healed = sum(shard.controller.updater.retries_healed for shard in fabric.shards)
    admitted = len(modeled)
    rnd.exact = {
        "events": len(events),
        "admissions": rnd.ops,
        "admitted": admitted,
        "admitted_share": admitted / rnd.ops if rnd.ops else 0.0,
        "rolled_back": rolled_back,
        "faults_injected": injected,
        "retries_healed": healed,
        "readmitted": len(replaced.readmitted) + len(moved.readmitted) if replaced and moved else 0,
        "shed": len(moved.shed) if moved else 0,
        "recover_entries": recover_entries,
    }
    if not tracer.enabled:
        return rnd, {}
    rnd.check(_rollback_probe(tracer, apps) > 0, "the rollback probe never rolled back")
    tracer.detach()
    rnd.wall_s = _perf() - round_began
    totals = tracer.totals()
    layers = control_layers(totals, admitted)
    plan_split([shard.controller for shard in fabric.shards], layers)
    layers.update(
        {
            "controller.admitted_share": rnd.exact["admitted_share"],
            "controller.modeled_provision_s_p50": percentile(modeled, 50) if modeled else None,
            "controller.recover_ms": per_call(totals, "controller.recover", 1e3),
            "controller.recover_entries": recover_entries,
            "faults.injected": injected,
            "faults.retries_healed": healed,
            "faults.heal_ratio": healed / injected if injected else None,
            "faults.rolled_back": rolled_back,
            "fabric.failover_replace_ms": replace_s * 1e3,
            "fabric.failover_redistribute_ms": redistribute_s * 1e3,
            "fabric.readmitted": rnd.exact["readmitted"],
            "fabric.shed": rnd.exact["shed"],
            "fabric.route_us": per_call(totals, "fabric.submit", 1e6, column=2),
        }
    )
    return rnd, layers
