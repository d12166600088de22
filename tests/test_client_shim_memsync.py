"""Integration tests: shim state machine and memory-sync primitives
running against a real switch + controller."""

import itertools

import pytest

from repro.client import (
    ClientShim,
    ShimError,
    ShimState,
    build_multi_read_packet,
    build_read_packet,
    build_write_packet,
    extract_read_value,
)
from repro.client.memsync import MemSyncError, _template, multi_read_slots
from repro.controller import ActiveRmtController
from repro.isa import assemble
from repro.packets import ControlFlags, MacAddress, encode_packet
from repro.switchsim import ActiveSwitch, StageGrant, SwitchConfig

from tests.oracles import memsync as oracle
from tests.test_core_constraints import LISTING_1
from tests.test_switchsim_codegen import _python_calls

CLIENT = MacAddress.from_host_id(1)
SERVER = MacAddress.from_host_id(2)


@pytest.fixture
def network():
    """A switch with a controller and two registered hosts."""
    switch = ActiveSwitch()
    switch.register_host(CLIENT, 1)
    switch.register_host(SERVER, 2)
    controller = ActiveRmtController(switch)
    switch.register_host(controller.mac, 3)
    return switch, controller


def _make_shim(fid=1):
    return ClientShim(
        mac=CLIENT,
        switch_mac=MacAddress.from_host_id(0xC0FFEE),
        fid=fid,
        program=assemble(LISTING_1, name="cache-query"),
    )


def test_shim_allocation_handshake(network):
    switch, controller = network
    shim = _make_shim()
    assert shim.state is ShimState.IDLE
    request = shim.request_allocation()
    assert shim.state is ShimState.NEGOTIATING
    switch.receive(request, in_port=1)
    replies = controller.process_pending()
    for reply in replies:
        shim.handle_packet(reply)
    assert shim.state is ShimState.OPERATIONAL
    assert shim.synthesized is not None
    assert shim.can_transmit


def test_shim_rejects_activation_before_allocation():
    shim = _make_shim()
    with pytest.raises(ShimError):
        shim.activate(args=[1, 2, 3, 4])


def test_shim_failed_allocation(network):
    switch, controller = network
    # Exhaust every reachable stage with whole-stage inelastic caches.
    from tests.test_core_constraints import listing1_pattern
    import dataclasses

    greedy = dataclasses.replace(
        listing1_pattern(), demands=(255, 255, 255)
    )
    fid = 1000
    while controller.admit(fid=fid, pattern=greedy).success:
        fid += 1
        assert fid < 1100
    shim = _make_shim(fid=7)
    # The same whole-stage demand can no longer fit anywhere.
    shim.pattern = shim.compiler.derive_pattern(
        shim.program, demands=[255, 255, 255]
    )
    failures = []
    shim.on_failed = failures.append
    switch.receive(shim.request_allocation(), in_port=1)
    for reply in controller.process_pending():
        shim.handle_packet(reply)
    assert shim.state is ShimState.FAILED
    assert failures


def test_shim_snapshot_complete_flow(network):
    switch, controller = network
    shim = _make_shim()
    switch.receive(shim.request_allocation(), in_port=1)
    for reply in controller.process_pending():
        shim.handle_packet(reply)
    # Simulate a reallocation notice arriving as a control packet.
    from repro.packets import ActivePacket

    notice = ActivePacket.control(
        src=controller.mac,
        dst=CLIENT,
        fid=1,
        flags=ControlFlags.REALLOC_NOTICE,
    )
    shim.handle_packet(notice)
    assert shim.state is ShimState.MEMORY_MANAGEMENT
    assert not shim.can_transmit
    done = shim.snapshot_complete()
    assert done.has_flag(ControlFlags.SNAPSHOT_COMPLETE)
    assert shim.state is ShimState.OPERATIONAL


def test_shim_relink_on_realloc_response(network):
    switch, controller = network
    shim = _make_shim()
    switch.receive(shim.request_allocation(), in_port=1)
    for reply in controller.process_pending():
        shim.handle_packet(reply)
    before = shim.synthesized
    # A second tenant arrives on the same stages; the controller sends
    # the incumbent an updated response flagged REALLOC_NOTICE.
    for fid in range(2, 18):
        controller.admit(fid=fid, pattern=shim.pattern)
    from repro.packets import ActivePacket

    updated = ActivePacket.alloc_response(
        src=controller.mac,
        dst=CLIENT,
        fid=1,
        response=controller.allocator.response_for(1),
        flags=ControlFlags.REALLOC_NOTICE,
    )
    shim.handle_packet(updated)
    assert shim.state is ShimState.OPERATIONAL
    assert shim.synthesized.mutant == before.mutant


def test_memsync_write_then_read(network):
    switch, _controller = network
    switch.pipeline.stage(6).table.install_grant(
        StageGrant(fid=1, start=0, end=2048)
    )
    write = build_write_packet(
        src=CLIENT, dst=SERVER, fid=1, stage=6, address=100, value=0xBEEF
    )
    outputs = switch.receive(write, in_port=1)
    assert len(outputs) == 1  # RTS ack
    assert outputs[0].port == 1
    read = build_read_packet(src=CLIENT, dst=SERVER, fid=1, stage=6, address=100)
    outputs = switch.receive(read, in_port=1)
    assert extract_read_value(outputs[0].packet) == 0xBEEF


@pytest.mark.parametrize("stage", [1, 2, 3, 10, 15, 20])
def test_memsync_reaches_every_stage(network, stage):
    """Including stage 1 via the PRELOAD trick (Appendix C)."""
    switch, _controller = network
    switch.pipeline.stage(stage).table.install_grant(
        StageGrant(fid=1, start=0, end=2048)
    )
    write = build_write_packet(
        src=CLIENT, dst=SERVER, fid=1, stage=stage, address=7, value=42
    )
    assert switch.receive(write, in_port=1), f"write to stage {stage} dropped"
    assert switch.pipeline.stage(stage).registers.read(7) == 42
    read = build_read_packet(src=CLIENT, dst=SERVER, fid=1, stage=stage, address=7)
    outputs = switch.receive(read, in_port=1)
    assert extract_read_value(outputs[0].packet) == 42


def test_memsync_multi_read(network):
    switch, _controller = network
    for stage in (2, 5, 9):
        switch.pipeline.stage(stage).table.install_grant(
            StageGrant(fid=1, start=0, end=2048)
        )
        switch.pipeline.stage(stage).registers.write(33, stage * 1000)
    packet = build_multi_read_packet(
        src=CLIENT, dst=SERVER, fid=1, stages=(2, 5, 9), address=33
    )
    outputs = switch.receive(packet, in_port=1)
    reply = outputs[0].packet
    slots = multi_read_slots(3)
    values = [extract_read_value(reply, slot) for slot in slots]
    assert values == [2000, 5000, 9000]


def test_memsync_protection_still_enforced(network):
    """A sync read outside the granted region is dropped, not answered."""
    switch, _controller = network
    switch.pipeline.stage(6).table.install_grant(
        StageGrant(fid=1, start=0, end=128)
    )
    read = build_read_packet(src=CLIENT, dst=SERVER, fid=1, stage=6, address=500)
    assert switch.receive(read, in_port=1) == []


def test_multi_read_limits():
    with pytest.raises(MemSyncError):
        build_multi_read_packet(
            src=CLIENT, dst=SERVER, fid=1, stages=tuple(range(1, 9)), address=0
        )
    with pytest.raises(MemSyncError):
        build_multi_read_packet(src=CLIENT, dst=SERVER, fid=1, stages=(), address=0)


def test_deallocate_goes_idle():
    shim = _make_shim()
    packet = shim.deallocate()
    assert packet.has_flag(ControlFlags.DEALLOCATE)
    assert shim.state is ShimState.IDLE


# ----------------------------------------------------------------------
# Templates: one program per packet shape, checked against the oracle
# ----------------------------------------------------------------------


def _built_alike(new, old, **kwargs):
    """Both builders' packets for *kwargs*, or both refusals, must agree."""
    try:
        expected = old(src=CLIENT, dst=SERVER, fid=3, address=77, seq=5, **kwargs)
    except MemSyncError as refusal:
        kept = _template.cache_info().currsize
        with pytest.raises(MemSyncError) as raised:
            new(src=CLIENT, dst=SERVER, fid=3, address=77, seq=5, **kwargs)
        assert str(raised.value) == str(refusal)
        assert _template.cache_info().currsize == kept  # never cached
        return
    for _ in range(2):  # the template's miss, then its hit
        packet = new(src=CLIENT, dst=SERVER, fid=3, address=77, seq=5, **kwargs)
        assert encode_packet(packet) == encode_packet(expected)
        assert (packet.code, packet.args, packet.initial, packet.eth) == (
            expected.code, expected.args, expected.initial, expected.eth,
        )


@pytest.mark.parametrize("ack", [True, False])
def test_writes_and_reads_match_the_parent_builders(ack):
    for stage in range(-1, 2 * SwitchConfig().num_stages + 1):
        _built_alike(
            build_write_packet, oracle.build_write_packet,
            stage=stage, value=0xBEEF, ack=ack,
        )
        _built_alike(build_read_packet, oracle.build_read_packet, stage=stage)


def test_multi_reads_match_the_parent_builder():
    for size in range(4):
        for stages in itertools.combinations(range(1, 13), size):
            for order in (stages, stages[::-1] + stages[:1]):  # unsorted, repeated
                _built_alike(
                    build_multi_read_packet, oracle.build_multi_read_packet,
                    stages=order,
                )
    _built_alike(
        build_multi_read_packet, oracle.build_multi_read_packet,
        stages=range(1, 24, 3),
    )


def test_python_calls_per_warm_write_packet():
    """One stage-9 populate write with its template warm.

    Measured: **5** Python-level calls (the builder,
    ``ActivePacket.program``, its shared header memo, ``ActivePacket()``,
    and ``write`` itself); the template memo is C.  Validating an
    ``EthernetHeader`` and an ``InitialHeader`` per packet took **8**;
    rebuilding and encoding the NOP-padded ``Instruction`` list per
    packet took **46**.  A per-packet ``Instruction`` fails here.
    """
    measured, parent = 5, 46

    def write():
        build_write_packet(src=CLIENT, dst=SERVER, fid=1, stage=9, address=7, value=42)

    write()
    calls = _python_calls(write)
    assert calls <= 15
    assert calls <= measured * 1.2 < parent
