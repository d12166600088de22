"""Unit tests for the top-level switch: forwarding, digests, latency."""

import math

import pytest

from repro.isa import assemble
from repro.packets import (
    AccessConstraintEntry,
    ActivePacket,
    AllocationRequestHeader,
    ControlFlags,
    MacAddress,
    PacketType,
)
from repro.switchsim import (
    L2_FORWARDING,
    ActiveSwitch,
    ExecutionResult,
    LatencyModel,
    PacketDisposition,
    Phv,
    SwitchConfig,
    extend_config,
    extend_latency,
)

CLIENT = MacAddress.from_host_id(1)
SERVER = MacAddress.from_host_id(2)


@pytest.fixture
def switch():
    sw = ActiveSwitch()
    sw.register_host(CLIENT, 1)
    sw.register_host(SERVER, 2)
    return sw


def _program_packet(source, args=None, fid=1):
    return ActivePacket.program(
        src=CLIENT,
        dst=SERVER,
        fid=fid,
        instructions=list(assemble(source)),
        args=args or [],
    )


def test_forwarding_to_registered_port(switch):
    outputs = switch.receive(_program_packet("NOP\nRETURN"), in_port=1)
    assert len(outputs) == 1
    assert outputs[0].port == 2


def test_rts_goes_back_out_arrival_port(switch):
    outputs = switch.receive(_program_packet("RTS\nRETURN"), in_port=1)
    assert len(outputs) == 1
    assert outputs[0].port == 1
    assert outputs[0].packet.eth.dst == CLIENT
    assert outputs[0].packet.has_flag(ControlFlags.FROM_SWITCH)


def test_unknown_destination_dropped(switch):
    stranger = MacAddress.from_host_id(99)
    packet = ActivePacket.program(
        src=CLIENT, dst=stranger, fid=1, instructions=list(assemble("NOP\nRETURN"))
    )
    assert switch.receive(packet, in_port=1) == []


def test_alloc_request_digested_not_forwarded(switch):
    request = AllocationRequestHeader(
        program_length=11,
        accesses=(AccessConstraintEntry(2, 1, 0),),
        ingress_bound_position=8,
    )
    packet = ActivePacket.alloc_request(src=CLIENT, dst=SERVER, fid=5, request=request)
    assert switch.receive(packet, in_port=1) == []
    assert switch.digests_pending == 1
    drained = switch.poll_digests()
    assert len(drained) == 1
    assert drained[0].ptype == PacketType.ALLOC_REQUEST
    assert switch.digests_pending == 0


def test_control_packet_digested(switch):
    packet = ActivePacket.control(
        src=CLIENT, dst=SERVER, fid=5, flags=ControlFlags.SNAPSHOT_COMPLETE
    )
    switch.receive(packet, in_port=1)
    assert switch.digests_pending == 1


def test_poll_digests_respects_limit(switch):
    for _ in range(3):
        switch.receive(
            ActivePacket.control(src=CLIENT, dst=SERVER, fid=1, flags=0), in_port=1
        )
    assert len(switch.poll_digests(limit=2)) == 2
    assert switch.digests_pending == 1


def test_inject_controller_packet(switch):
    from repro.packets import AllocationResponseHeader

    packet = ActivePacket.alloc_response(
        src=SERVER, dst=CLIENT, fid=5, response=AllocationResponseHeader.empty()
    )
    outputs = switch.inject(packet)
    assert len(outputs) == 1
    assert outputs[0].port == 1


def test_port_stats_counted(switch):
    switch.receive(_program_packet("NOP\nRETURN"), in_port=1)
    assert switch.port_stats[1].rx_packets == 1
    assert switch.port_stats[2].tx_packets == 1
    assert switch.port_stats[1].rx_bytes > 0


def test_register_host_rejects_bad_port(switch):
    with pytest.raises(ValueError):
        switch.register_host(CLIENT, 1000)


def test_latency_grows_with_program_length(switch):
    """Figure 8b shape: longer programs -> strictly higher RTT."""
    model = LatencyModel()
    config = SwitchConfig()
    rtts = []
    for n in (10, 20, 30):
        # The paper's probe programs are NOPs plus an RTS; the compiler
        # maps the RTS to the ingress pipeline (Section 6.2).
        source = "\n".join(["RTS"] + ["NOP"] * (n - 2) + ["RETURN"])
        outputs = switch.receive(_program_packet(source), in_port=1)
        assert outputs, f"{n}-instruction program should be returned"
        rtts.append(model.rtt_us(outputs[0].result, config))
    assert rtts[0] < rtts[1] < rtts[2]
    # All active RTTs exceed the echo baseline.
    assert all(rtt > model.echo_rtt_us() for rtt in rtts)


def test_latency_30_instructions_recirculates(switch):
    source = "\n".join(["RTS"] + ["NOP"] * 28 + ["RETURN"])
    outputs = switch.receive(_program_packet(source), in_port=1)
    assert outputs[0].result.passes == 2


def _reference_latency_us(model, config, logical_stage, disposition, rts_at_egress):
    """The forwarding-latency formula as first written (float division
    and ``math.ceil``); the model now does it in integers."""
    logical_stages = max(logical_stage - 1, 1)
    halves = math.ceil(logical_stages / (config.num_stages // 2))
    if disposition.value == "rts":
        if rts_at_egress:
            halves += 1
    else:
        halves = math.ceil(halves / 2) * 2
    return max(halves, 1) * model.half_pipe_us


@pytest.mark.parametrize(
    "config",
    [SwitchConfig(), extend_config(SwitchConfig(), L2_FORWARDING),
     SwitchConfig(num_stages=6, ingress_stages=3, max_recirculations=2)],
    ids=["paper", "19-stage", "6-stage"],
)
def test_switch_latency_is_bit_identical_to_the_reference_formula(config):
    """``SwitchOutput.latency_us`` feeds simulated time (the cache case
    study's hit counts, Figure 8b), so the cheaper arithmetic must give
    the same float for every stopping point a packet can reach."""
    for model in (LatencyModel(), extend_latency(LatencyModel(), L2_FORWARDING)):
        for logical_stage in range(1, config.max_logical_stages + 2):
            for disposition in (
                PacketDisposition.FORWARD, PacketDisposition.RETURN_TO_SENDER
            ):
                for rts_at_egress in (False, True):
                    result = ExecutionResult(
                        packet=None,
                        phv=Phv(logical_stage=logical_stage, rts_at_egress=rts_at_egress),
                        disposition=disposition,
                    )
                    assert model.switch_latency_us(result, config) == (
                        _reference_latency_us(
                            model, config, logical_stage, disposition, rts_at_egress
                        )
                    )


def test_emitted_latency_matches_the_reference_formula(switch):
    """End to end: what ``receive`` stamps on an output is the formula
    applied to that output's own execution result."""
    model, config = switch.latency, switch.config
    for length in range(1, 46):
        for rts_at in (None, 0, length - 1):
            lines = ["NOP"] * length + ["RETURN"]
            if rts_at is not None:
                lines[rts_at] = "RTS"
            (output,) = switch.receive(_program_packet("\n".join(lines)), in_port=1)
            phv = output.result.phv
            assert output.latency_us == _reference_latency_us(
                model, config, phv.logical_stage, output.result.disposition,
                phv.rts_at_egress,
            )


# ----------------------------------------------------------------------
# stats() schema and perf-counter lifecycle
# ----------------------------------------------------------------------

#: The pinned stats() key schema.  Exporters and dashboards key off
#: these names; changing them is a breaking change that must be made
#: deliberately (update this list AND the consumers).
STATS_SCHEMA = [
    "batched_packets",
    "batches",
    "digested",
    "digests_delivered",
    "digests_pending",
    "dropped",
    "elapsed_seconds",
    "faulted",
    "forwarded",
    "governor_suppressed",
    "packets",
    "packets_per_second",
    "pipeline",
    "plain_forwarded",
    "program_cache",
    "programs",
    "returned",
    "suppressed",
]


def test_stats_key_schema_is_stable(switch):
    switch.receive(_program_packet("NOP\nRETURN"), in_port=1)
    stats = switch.stats()
    assert sorted(stats) == STATS_SCHEMA
    # Nested sections are pinned too.
    assert sorted(stats["pipeline"]) == [
        "drops",
        "faults",
        "total_recirculations",
    ]
    assert sorted(stats["program_cache"]) == [
        "capacity",
        "entries",
        "evictions",
        "hit_rate",
        "hits",
        "invalidations",
        "misses",
        "program_hits",
        "program_misses",
        "programs",
    ]


def test_stats_schema_identical_with_cache_disabled():
    cached = ActiveSwitch(SwitchConfig())
    uncached = ActiveSwitch(SwitchConfig(program_cache_entries=0))
    assert sorted(cached.stats()) == sorted(uncached.stats())
    assert sorted(cached.stats()["program_cache"]) == sorted(
        uncached.stats()["program_cache"]
    )
    assert isinstance(uncached.stats()["program_cache"], dict)
    assert uncached.stats()["program_cache"]["capacity"] == 0


def test_perf_counters_reset(switch):
    switch.receive(_program_packet("NOP\nRETURN"), in_port=1)
    switch.receive(_program_packet("RTS\nRETURN"), in_port=1)
    perf = switch.perf
    assert perf.packets == 2
    assert perf.elapsed_seconds >= 0.0
    perf.reset()
    assert perf.packets == 0
    assert perf.forwarded == 0
    assert perf.returned == 0
    assert perf.elapsed_seconds == 0.0
    assert perf.packets_per_second == 0.0
    # A fresh window starts cleanly after the reset.
    switch.receive(_program_packet("NOP\nRETURN"), in_port=1)
    assert perf.packets == 1
    snapshot = perf.snapshot()
    assert snapshot["packets"] == 1
    assert isinstance(snapshot["packets"], int)
    assert isinstance(snapshot["packets_per_second"], float)
