"""Focused tests for the time-staggered provisioner."""

from repro.apps import heavy_hitter_pattern, heavy_hitter_program
from repro.client import ClientShim
from repro.controller import ActiveRmtController
from repro.packets import ControlFlags, MacAddress
from repro.sim import EventLoop, SimNetwork, SimProvisioner
from repro.sim.network import Host
from repro.switchsim import ActiveSwitch

from tests.test_core_constraints import listing1_pattern, LISTING_1
from repro.isa import assemble

CLIENT = MacAddress.from_host_id(1)


class _RecordingHost(Host):
    def __init__(self, mac):
        super().__init__(mac)
        self.received = []

    def on_packet(self, packet):
        super().on_packet(packet)
        self.received.append(packet)


def _world():
    loop = EventLoop()
    switch = ActiveSwitch()
    controller = ActiveRmtController(switch)
    network = SimNetwork(loop, switch)
    host = _RecordingHost(CLIENT)
    network.attach(host, 1)
    provisioner = SimProvisioner(loop, network, controller, horizon_s=30.0)
    return loop, switch, controller, network, provisioner, host


def test_response_arrives_after_provisioning_delay():
    loop, _switch, controller, _network, provisioner, host = _world()
    shim = ClientShim(
        mac=CLIENT,
        switch_mac=controller.mac,
        fid=1,
        program=assemble(LISTING_1, name="cache-query"),
    )
    host.send(shim.request_allocation())
    loop.run_until(0.01)
    # Compute + install takes modeled time; no response yet at t ~= 0.
    responses = [p for p in host.received if p.response is not None]
    admitted_at = provisioner.provisioning_log
    assert admitted_at, "request must have been polled"
    loop.run_until(2.0)
    responses = [p for p in host.received if p.response is not None]
    assert len(responses) == 1
    assert not responses[0].has_flag(ControlFlags.ALLOC_FAILED)


def test_pattern_override_reaches_allocator():
    loop, _switch, controller, _network, provisioner, host = _world()
    fid = 5
    shim = ClientShim(
        mac=CLIENT,
        switch_mac=controller.mac,
        fid=fid,
        program=heavy_hitter_program(),
        demands=[16] * 6,
    )
    # The wire request cannot carry the alias; override it locally.
    provisioner.pattern_overrides[fid] = heavy_hitter_pattern()
    host.send(shim.request_allocation())
    loop.run_until(2.0)
    record = controller.allocator.apps[fid]
    assert record.pattern.aliases == (-1, -1, -1, -1, -1, 2)
    # The aliased accesses share a physical stage.
    stages = record.mutant.physical_stages
    assert len(stages) == 5  # 6 accesses, one aliased pair


def test_failed_admission_gets_failure_response():
    loop, _switch, controller, _network, provisioner, host = _world()
    # Exhaust the device first (synchronously).
    import dataclasses

    greedy = dataclasses.replace(listing1_pattern(), demands=(255, 255, 255))
    fid = 100
    while controller.admit(fid=fid, pattern=greedy).success:
        fid += 1
    shim = ClientShim(
        mac=CLIENT,
        switch_mac=controller.mac,
        fid=1,
        program=assemble(LISTING_1, name="cache-query"),
        demands=[255, 255, 255],
    )
    host.send(shim.request_allocation())
    loop.run_until(2.0)
    failures = [
        p for p in host.received if p.has_flag(ControlFlags.ALLOC_FAILED)
    ]
    assert len(failures) == 1
    log = provisioner.provisioning_log[-1]
    assert not log["success"]


def test_deallocate_via_control_packet():
    loop, _switch, controller, _network, _provisioner, host = _world()
    shim = ClientShim(
        mac=CLIENT,
        switch_mac=controller.mac,
        fid=3,
        program=assemble(LISTING_1, name="cache-query"),
    )
    host.send(shim.request_allocation())
    loop.run_until(2.0)
    assert 3 in controller.allocator.apps
    host.send(shim.deallocate())
    loop.run_until(3.0)
    assert 3 not in controller.allocator.apps
