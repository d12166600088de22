"""The Section 4.3 wire protocol: one decoder for both clocks.

A digested ``ALLOC_REQUEST`` is an admission and a ``DEALLOCATE``
control digest is a withdrawal.  ``ActiveRmtController.serve_digest``
decodes both; the instant path (``process_pending``) and the
simulated-time path (``SimProvisioner``) differ only in when they send
the replies.  These tests pin what that buys: wire tenants reach the
admission service's commit log, a refused wire admission says so, and
both clocks end in the same state with the same replies.
"""

from collections import Counter

from repro.controller import (
    ActiveRmtController,
    AdmissionService,
    ProvisioningStatus,
    replay_commit_log,
)
from repro.controller.service import pools_fingerprint
from repro.core import AllocationScheme, AccessPattern
from repro.packets import ActivePacket, ControlFlags, MacAddress, PacketType
from repro.sim import EventLoop, SimProvisioner
from repro.switchsim import ActiveSwitch

from tests.test_core_allocator import hh_pattern
from tests.test_core_constraints import listing1_pattern

CLIENTS = {1: MacAddress.from_host_id(1), 50: MacAddress.from_host_id(2)}


def _switch():
    switch = ActiveSwitch()
    for port, mac in enumerate(CLIENTS.values(), start=1):
        switch.register_host(mac, port)
    return switch


def _request(controller, fid, pattern):
    return ActivePacket.alloc_request(
        src=CLIENTS.get(fid, CLIENTS[1]),
        dst=controller.mac,
        fid=fid,
        request=pattern.to_request(),
    )


def _control(controller, fid, flags):
    return ActivePacket.control(
        src=CLIENTS[1], dst=controller.mac, fid=fid, flags=flags
    )


def test_wire_tenants_land_in_the_commit_log():
    switch = _switch()
    controller = ActiveRmtController(switch)
    service = AdmissionService(controller)
    switch.receive(_request(controller, 7, listing1_pattern()), in_port=1)
    switch.receive(_request(controller, 8, listing1_pattern()), in_port=1)
    switch.receive(_control(controller, 7, ControlFlags.DEALLOCATE), in_port=1)
    for digest in switch.poll_digests():
        controller.serve_digest(digest, service.submit_and_wait)

    assert service.commit_log == [("admit", 7), ("admit", 8), ("withdraw", 7)]
    replayed = ActiveRmtController(ActiveSwitch())
    wire = listing1_pattern().to_request()
    patterns = {fid: AccessPattern.from_request(wire, name=f"fid{fid}") for fid in (7, 8)}
    replay_commit_log(service.commit_log, patterns, replayed)
    assert pools_fingerprint(replayed.allocator) == pools_fingerprint(
        controller.allocator
    )


def test_refused_wire_admission_reports_rejected():
    switch = _switch()
    controller = ActiveRmtController(switch)
    fid = 0
    while True:
        switch.receive(_request(controller, fid, hh_pattern()), in_port=1)
        (digest,) = switch.poll_digests()
        report = controller.serve_digest(digest)
        if not report.success:
            break
        assert report.status is ProvisioningStatus.ADMITTED
        fid += 1

    assert fid == 16
    assert report.status is ProvisioningStatus.REJECTED
    assert fid not in controller.allocator.resident_fids()
    (reply,) = controller.allocation_replies(report, digest)
    assert reply.has_flag(ControlFlags.ALLOC_FAILED)


def _script(controller):
    """Two admissions (the second reallocates the first), a departure
    and a snapshot notice -- one digest each, in arrival order."""
    return [
        _request(controller, 1, listing1_pattern()),
        _request(controller, 50, listing1_pattern()),
        _control(controller, 1, ControlFlags.DEALLOCATE),
        _control(controller, 50, ControlFlags.SNAPSHOT_COMPLETE),
    ]


def _reply_keys(replies):
    return Counter((int(r.ptype), r.fid, int(r.initial.flags)) for r in replies)


class _RecordingNetwork:
    def __init__(self):
        self.sent = []

    def inject(self, packet):
        self.sent.append(packet)


def _instant():
    switch = _switch()
    controller = ActiveRmtController(switch, scheme=AllocationScheme.FIRST_FIT)
    replies = []
    for packet in _script(controller):
        switch.receive(packet, in_port=1)
        replies.extend(controller.process_pending())
    return controller, replies


def _simulated():
    switch = _switch()
    controller = ActiveRmtController(switch, scheme=AllocationScheme.FIRST_FIT)
    loop = EventLoop()
    network = _RecordingNetwork()
    provisioner = SimProvisioner(
        loop, network, controller, poll_interval_s=1e-3, horizon_s=4.0
    )
    for when, packet in enumerate(_script(controller)):
        loop.schedule_at(float(when), lambda p=packet: switch.receive(p, in_port=1))
    loop.run()  # to quiescence: polling stops at the horizon
    return controller, network.sent, provisioner


def test_both_clocks_serve_the_same_protocol():
    instant, instant_replies = _instant()
    simulated, sim_replies, provisioner = _simulated()

    assert instant.allocator.resident_fids() == [50]
    assert simulated.allocator.resident_fids() == [50]
    assert pools_fingerprint(simulated.allocator) == pools_fingerprint(
        instant.allocator
    )
    # The snapshot notice is counted, and nothing else happens.
    assert instant.digests == simulated.digests == Counter(
        alloc_request=2, control=2
    )
    assert _reply_keys(sim_replies) == _reply_keys(instant_replies)
    # The script's second admission reallocated the first tenant.
    assert (int(PacketType.ALLOC_RESPONSE), 1, int(ControlFlags.REALLOC_NOTICE)) in (
        _reply_keys(instant_replies)
    )
    assert [entry["reallocated"] for entry in provisioner.provisioning_log] == [
        [],
        [1],
    ]
    assert simulated.commit_log == instant.commit_log == [
        ("admit", 1),
        ("admit", 50),
        ("withdraw", 1),
    ]
