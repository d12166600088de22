"""Count once: each count lives on its owner, and the registry reads it.

The switch, the controller and its allocator, table engine and
admission service, a faulty device, the fabric and the event loop each
keep their counts (and histograms) as attributes; ``stats()`` and the
registry are two views of them.  A snapshot sums every series over every owner ever
registered.  Each series an owner can export is pinned here by value,
and the last test fails on a new series until it is.
"""

import importlib
import inspect
import pkgutil
from collections import Counter

import repro
from repro import telemetry
from repro.controller import ActiveRmtController, AdmissionService, ProvisioningRequest
from repro.controller.wire import serve_digest
from repro.device import SimDevice
from repro.experiments import chaos, fabric as fabric_experiment
from repro.fabric import Fabric
from repro.faults import FaultKind, FaultyDevice
from repro.packets import ActivePacket, AllocationResponseHeader, ControlFlags
from repro.sim import EventLoop
from repro.switchsim import ActiveSwitch
from repro.telemetry import MetricsRegistry

from tests.test_analysis_verifier import _liar_pattern, _liar_program
from tests.test_core_allocator import hh_pattern
from tests.test_core_constraints import listing1_pattern
from tests.test_faults import ScriptedPlan
from tests.test_switchsim_batch import CLIENT, _switch, _workload


def _series(registry):
    """Counters and gauges of one snapshot, in one dict."""
    snapshot = registry.snapshot()
    return {**snapshot["counters"], **snapshot["gauges"]}


def _histogram_counts(registry):
    """Each histogram series of one snapshot, with its count."""
    return {name: data["count"] for name, data in registry.snapshot()["histograms"].items()}


def _families(series):
    """Each series name's total over its label sets."""
    totals = Counter()
    for name, value in series.items():
        totals[name.split("{")[0]] += value
    return dict(totals)


def test_two_switches_on_one_registry_add_up():
    """Five packets through one of two switches sharing a registry are
    five packets in the export.  A collector per switch that overwrote
    one gauge exported the idle switch's 0."""
    registry = MetricsRegistry()
    busy, _idle = _switch(telemetry=registry), _switch(telemetry=registry)
    for packet, port in _workload()[:5]:
        busy.receive(packet, port)
    series = _series(registry)
    assert series["datapath_packets"] == busy.stats()["packets"] == 5
    assert series["progcache_capacity"] == 2 * 256


#: The data path's whole view after the traffic of
#: :func:`test_switch_series_are_pinned` (one switch busy, one idle).
SWITCH_VIEW = {
    'datapath_fid_packets_total{fid="1"}': 10.0,
    'datapath_fid_recirculations_total{fid="1"}': 2.0,
    "datapath_batched_packets": 7.0,
    "datapath_batches": 1.0,
    "datapath_digest_queue_depth": 2.0,
    "datapath_digested": 2.0,
    "datapath_dropped": 2.0,
    "datapath_faulted": 2.0,
    "datapath_forwarded": 4.0,
    "datapath_packets": 13.0,
    "datapath_plain_forwarded": 1.0,
    "datapath_programs": 10.0,
    "datapath_returned": 2.0,
    "datapath_suppressed": 0.0,
    "pipeline_drops": 2.0,
    "pipeline_faults": 2.0,
    "pipeline_recirculations": 2.0,
    "progcache_capacity": 512.0,
    "progcache_entries": 0.0,
    "progcache_evictions": 0.0,
    "progcache_hits": 4.0,
    "progcache_invalidations": 6.0,
    "progcache_misses": 6.0,
    "progcache_program_hits": 0.0,
    "progcache_program_misses": 6.0,
    "progcache_programs": 0.0,
}


def test_switch_series_are_pinned():
    """The scalar door, the batch door, a plain-forwarded response and
    a cache flush, read through the registry and through ``stats()``."""
    registry = MetricsRegistry()
    busy, _idle = _switch(telemetry=registry), _switch(telemetry=registry)
    for packet, port in _workload()[:5]:
        busy.receive(packet, port)
    busy.receive_batch(_workload())
    response = ActivePacket.alloc_response(
        src=CLIENT, dst=CLIENT, fid=1, response=AllocationResponseHeader.empty()
    )
    busy.receive(response, 2)
    busy.pipeline.invalidate_program_cache(1)
    assert _series(registry) == SWITCH_VIEW
    # The one batch, observed by the busy switch; the idle one's empty
    # histogram is left out.
    assert _histogram_counts(registry) == {"datapath_batch_size": 1}
    stats = busy.stats()
    assert stats["packets"] == stats["programs"] + stats["digested"] + 1
    assert stats["program_cache"]["invalidations"] == 6


#: Every series family of ``chaos --epochs 60`` at seed 7, summed over
#: its label sets (the data path is idle throughout).
CHAOS_FAMILIES = {
    "allocator_apps_displaced_total": 548.0,
    "allocator_blocks_moved_total": 42266.0,
    "allocator_candidates_considered_total": 2659.0,
    "allocator_candidates_feasible_total": 2659.0,
    "allocator_decisions_total": 158.0,
    "allocator_releases_total": 56.0,
    "controller_admissions_total": 158.0,
    "controller_recoveries_total": 1.0,
    "controller_withdrawals_total": 56.0,
    "device_faults_injected_total": 124.0,
    "device_retries_healed_total": 120.0,
    "device_retry_attempts_total": 122.0,
    "fabric_failover_readmitted_total": 31.0,
    "fabric_failovers_total": 2.0,
    "fabric_placements_total": 138.0,
    "fabric_recovery_fingerprint_match": 1.0,
    "fabric_requests_total": 188.0,
    "fabric_shard_commits": 142.0,
    "fabric_shard_resident_fids": 64.0,
    "fabric_shard_used_blocks": 8401.0,
    "isolation_certificates_total": 222.0,
    "table_entries_installed_total": 4730.0,
    "table_entries_removed_total": 648.0,
}


def test_chaos_report_counts_equal_the_registry():
    """The report and the registry count the same things once.

    ``retries_healed`` sums every table engine that served, the one on
    the column the replace failover retired too.  An application is
    *re-admitted* by a failover when it was resident on the dead shard
    and is resident again after it: replayed onto the replacement
    device (replace) or placed on a survivor (redistribute).  The
    parent's report said 116 and 31 where its registry said 120 and 24.
    """
    registry = MetricsRegistry()
    previous = telemetry.set_registry(registry)
    try:
        result = chaos.run_chaos(epochs=60, seed=7)
    finally:
        telemetry.set_registry(previous)
    series = _series(registry)
    families = _families(series)
    assert result.retries_healed == families["device_retries_healed_total"] == 120
    assert result.failover_readmitted == families["fabric_failover_readmitted_total"] == 31
    assert series['fabric_failover_readmitted_total{device="sw0"}'] == 7
    assert series['fabric_failovers_total{device="sw1",mode="redistribute"}'] == 1
    assert series['device_faults_injected_total{device="sw0",kind="permanent",op="kill"}'] == 1
    assert {
        name: value for name, value in families.items() if name in CHAOS_FAMILIES
    } == CHAOS_FAMILIES


def test_fabric_run_gauges_are_its_result_fields():
    """The harness's own gauges (experiment results, registered as one
    owner per result) carry the rows the report prints, one label set
    per shard count."""
    registry = MetricsRegistry()
    previous = telemetry.set_registry(registry)
    try:
        result = fabric_experiment.run_fabric(epochs=40, shard_counts=(1, 2), seed=7)
    finally:
        telemetry.set_registry(previous)
    gauges = registry.snapshot()["gauges"]
    assert gauges["fabric_run_parity"] == 1.0
    for row in result.rows:
        labels = f'{{shards="{row.shards}"}}'
        assert {
            field: gauges[f"fabric_run_{field}{labels}"]
            for field in ("admitted", "rejected", "rolled_back", "shed", "diverged", "throughput")
        } == {
            "admitted": row.outcomes.admitted,
            "rejected": row.outcomes.rejected,
            "rolled_back": 0,
            "shed": 0,
            "diverged": 0,
            "throughput": row.throughput,
        }
    assert gauges['fabric_run_admitted{shards="1"}'] == 78


#: The control-plane series after :func:`test_control_plane_series_are_pinned`.
CONTROL_VIEW = {
    'allocator_decisions_total{outcome="admitted"}': 2.0,
    'allocator_rollbacks_total': 2.0,
    'controller_admissions_total{outcome="admitted"}': 2.0,
    'controller_admissions_total{outcome="device_fault"}': 2.0,
    'controller_admissions_total{outcome="verifier_rejected"}': 1.0,
    'controller_device_failures_total{during="single"}': 1.0,
    'controller_digests_total{kind="alloc_request"}': 1.0,
    'controller_digests_total{kind="control"}': 1.0,
    'controller_whatif_probes_total{feasible="yes"}': 1.0,
    'invariant_violations_total{rule="ARMT012"}': 1.0,
    'verifier_findings_total{plane="controller",rule="ARMT006",severity="error"}': 1.0,
    'verifier_findings_total{plane="controller",rule="ARMT009",severity="info"}': 3.0,
    'verifier_rejections_total{plane="controller"}': 1.0,
    'eventloop_events_processed': 1.0,
    'eventloop_pending': 1.0,
}


def test_control_plane_series_are_pinned():
    """A what-if, a transient-fault rollback and its resubmission, two
    wire digests, a strict verifier rejection, an audit that finds a missing grant, a device
    that dies mid-admission, and an event loop halfway through."""
    registry = MetricsRegistry()
    faulted = []

    def one_transient_install(op, index):
        if op == "install_grant" and not faulted:
            faulted.append(index)
            return FaultKind.TRANSIENT
        return None

    device = FaultyDevice(
        SimDevice(_switch(), device_id="sw9"), ScriptedPlan(one_transient_install)
    )
    controller = ActiveRmtController(device, telemetry=registry, verify="off")
    service = AdmissionService(controller)
    pattern = listing1_pattern()
    assert service.submit(ProvisioningRequest.admission(1, pattern, dry_run=True)).success
    rolled_back = service.submit(ProvisioningRequest.admission(1, pattern))
    assert rolled_back.rolled_back and rolled_back.fault == "transient"
    # Nothing was left behind, so the caller may simply submit it again.
    assert service.submit(ProvisioningRequest.admission(1, pattern)).success
    request = ActivePacket.alloc_request(
        src=CLIENT, dst=controller.mac, fid=2, request=pattern.to_request()
    )
    assert serve_digest(controller, request, service.submit).success
    deallocate = ActivePacket.control(
        src=CLIENT, dst=controller.mac, fid=2, flags=ControlFlags.DEALLOCATE
    )
    assert serve_digest(controller, deallocate, service.submit) is None

    (stage, _range), *_ = [
        (s, r) for s, r in controller.allocator.regions_for(1).items() if r and r.count
    ]
    device.underlying.pipeline.stage(stage).table.remove_grant(1)
    assert controller.audit().errors
    device.kill()
    assert service.submit(ProvisioningRequest.admission(3, pattern)).rolled_back

    strict = ActiveRmtController(ActiveSwitch(), verify="strict", telemetry=registry)
    strict.admit(fid=3, pattern=_liar_pattern(), program=_liar_program())

    loop = EventLoop(telemetry=registry)
    loop.schedule(1.0, print)
    loop.schedule(2.0, print)
    loop.run_until(1.5)

    series = _series(registry)
    pinned = {name: series.get(name) for name in CONTROL_VIEW}
    assert pinned == CONTROL_VIEW
    # Histograms live on their owners: one observation per decision,
    # per recorded admission or withdrawal, and per request the service
    # served, none of them labelled.
    assert _histogram_counts(registry) == {
        "admission_latency_seconds": 6,
        "allocator_allocation_seconds": 2,
        "controller_provisioning_seconds": 5,
        "controller_table_update_seconds": 6,
    }


def test_failover_shed_is_counted_off_the_report():
    """A redistribute onto a full survivor sheds; the fabric's counts
    are read off its :class:`FailoverReport` list."""
    registry = MetricsRegistry()
    fabric = Fabric.build(2, telemetry=registry)
    for fid in range(40):
        fabric.submit(ProvisioningRequest.admission(fid, hh_pattern()))
    report = fabric.failover(0)
    assert report.shed and report.readmitted == []
    series = _series(registry)
    assert series['fabric_failover_shed_total{device="sw0"}'] == len(report.shed)
    assert 'fabric_failover_readmitted_total{device="sw0"}' not in series
    assert series['fabric_failovers_total{device="sw0",mode="redistribute"}'] == 1
    assert 'fabric_recovery_fingerprint_match{device="sw0"}' not in series


#: The five histogram series, each on its one owner.
HISTOGRAMS = (
    "admission_latency_seconds",
    "allocator_allocation_seconds",
    "controller_provisioning_seconds",
    "controller_table_update_seconds",
    "datapath_batch_size",
)


class _Recording(MetricsRegistry):
    """A registry that remembers who registered."""

    def __init__(self):
        super().__init__()
        self.owners = []

    def register(self, owner):
        super().register(owner)
        self.owners.append(owner)


def _owner_classes():
    """Every class under ``repro`` with its own ``metrics()`` view."""
    classes = set()
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.endswith("__main__"):
            continue
        for _name, cls in inspect.getmembers(importlib.import_module(module.name), inspect.isclass):
            if "metrics" in cls.__dict__ and cls.__module__.startswith("repro."):
                classes.add(cls)
    return classes


def test_every_exported_series_is_pinned():
    registry = _Recording()
    fabric = Fabric.build(
        1,
        telemetry=registry,
        device_factory=lambda index: FaultyDevice(
            SimDevice(ActiveSwitch(telemetry=registry)), ScriptedPlan(lambda op, i: None),
            telemetry=registry,
        ),
    )
    EventLoop(telemetry=registry)
    assert {type(owner) for owner in registry.owners} == _owner_classes()
    exported = {
        spec.split("{")[0] for owner in registry.owners for spec in owner.metrics()
    }
    pinned = {
        name.split("{")[0]
        for name in [
            *SWITCH_VIEW, *CHAOS_FAMILIES, *CONTROL_VIEW, *HISTOGRAMS, "fabric_failover_shed_total"
        ]
    }
    assert exported == pinned
    assert fabric.shards[0].controller in registry.owners
