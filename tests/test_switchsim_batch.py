"""Tests for the batched data path, the switch's counts, and its stats.

The invariant: ``receive_batch`` is observably identical to calling
``receive`` per packet -- same outputs in the same order, same port
statistics, same digest queue -- only the bookkeeping is amortized.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import Instruction, Opcode, assemble
from repro.packets import ActivePacket, ControlFlags, HeaderError, MacAddress
from repro.packets.codec import encode_packet
from repro.switchsim import (
    ActiveSwitch,
    BatchResult,
    RecirculationGovernor,
    StageGrant,
    SwitchConfig,
)
from repro.telemetry import MetricsRegistry

from tests.test_switchsim_differential import _instructions, _programs, _words

CLIENT = MacAddress.from_host_id(1)
SERVER = MacAddress.from_host_id(2)


def _switch(**kwargs):
    sw = ActiveSwitch(**kwargs)
    sw.register_host(CLIENT, 1)
    sw.register_host(SERVER, 2)
    return sw


def _program(source, fid=1, args=None):
    return ActivePacket.program(
        src=CLIENT,
        dst=SERVER,
        fid=fid,
        instructions=list(assemble(source)),
        args=args or [],
    )


def _workload():
    return [
        (_program("NOP\nRETURN"), 1),
        (_program("RTS\nRETURN"), 1),
        (_program("MBR_LOAD $0\nCRETI\nDROP\nRETURN", args=[1, 0, 0, 0]), 1),
        (_program("MAR_LOAD $0\nMEM_READ\nRETURN", args=[0, 0, 0, 0]), 1),
        (ActivePacket.control(src=CLIENT, dst=SERVER, fid=5, flags=0), 1),
        (_program("FORK\nNOP\nRETURN"), 2),
        (_program("\n".join(["NOP"] * 25 + ["RETURN"])), 2),
    ]


def test_receive_batch_matches_sequential():
    sequential = _switch()
    batched = _switch()

    seq_outputs = []
    for packet, port in _workload():
        seq_outputs.extend(sequential.receive(packet, port))
    result = batched.receive_batch(_workload())

    assert [o.port for o in result.outputs] == [o.port for o in seq_outputs]
    assert [encode_packet(o.packet) for o in result.outputs] == [
        encode_packet(o.packet) for o in seq_outputs
    ]
    assert [o.latency_us for o in result.outputs] == [
        o.latency_us for o in seq_outputs
    ]
    assert batched.port_stats.keys() == sequential.port_stats.keys()
    for port, stats in sequential.port_stats.items():
        assert batched.port_stats[port] == stats
    assert batched.digests_pending == sequential.digests_pending
    assert [encode_packet(p) for p in batched.poll_digests()] == [
        encode_packet(p) for p in sequential.poll_digests()
    ]


def test_batch_result_counters():
    switch = _switch()
    result = switch.receive_batch(_workload())
    assert isinstance(result, BatchResult)
    assert result.packets == 7
    assert result.programs == 6  # the FAULT program still executed
    assert result.digested == 1
    assert result.plain_forwarded == 0
    assert result.faulted == 1  # ungranted MEM_READ
    assert result.dropped == 1  # CRETI on a non-zero MBR -> DROP
    assert result.returned == 1  # RTS
    assert result.forwarded == 3
    assert len(result) == len(result.outputs)
    assert list(iter(result)) == result.outputs


def test_receive_batch_uniform_port():
    pairs = _switch()
    uniform = _switch()
    packets = [_program("NOP\nRETURN") for _ in range(3)]
    a = pairs.receive_batch([(p, 1) for p in packets])
    b = uniform.receive_batch(
        [_program("NOP\nRETURN") for _ in range(3)], in_port=1
    )
    assert a.packets == b.packets == 3
    assert [o.port for o in a] == [o.port for o in b]
    assert pairs.port_stats[1].rx_packets == uniform.port_stats[1].rx_packets


def test_perf_counters_track_dispositions():
    switch = _switch()
    switch.receive_batch(_workload())
    assert switch.packets == 7
    assert switch.programs == 6
    assert switch.batches == 1
    assert switch.batched_packets == 7
    assert switch.returned == 1
    assert switch.dropped == 1
    assert switch.faulted == 1
    # Scalar path counts into the same counters.
    switch.receive(_program("NOP\nRETURN"), in_port=1)
    assert switch.packets == 8
    assert switch.batched_packets == 7


def test_stats_surface():
    switch = _switch()
    switch.receive_batch(_workload())
    stats = switch.stats()
    for key in (
        "packets",
        "programs",
        "digests_pending",
        "digests_delivered",
        "pipeline",
        "program_cache",
        "governor_suppressed",
    ):
        assert key in stats
    assert stats["program_cache"]["misses"] > 0
    assert stats["pipeline"]["faults"] == 1
    # Cache disabled: same schema, all-zero values (no None branch).
    uncached = ActiveSwitch(SwitchConfig(program_cache_entries=0)).stats()[
        "program_cache"
    ]
    assert uncached == {
        "entries": 0,
        "capacity": 0,
        "hits": 0,
        "misses": 0,
        "hit_rate": 0.0,
        "evictions": 0,
        "invalidations": 0,
        "programs": 0,
        "program_hits": 0,
        "program_misses": 0,
    }
    assert sorted(uncached) == sorted(stats["program_cache"])


# ----------------------------------------------------------------------
# FORK trees: every packet that executed is emitted and accounted
# ----------------------------------------------------------------------


def _tree(result):
    """A result and its clones, each clone right after its original."""
    yield result
    for clone in result.clones:
        yield from _tree(clone)


@pytest.mark.parametrize("door", ["receive", "receive_batch"])
@pytest.mark.parametrize("cache_entries", [256, 0])
@pytest.mark.parametrize("forks", [1, 2, 3])
def test_fork_tree_is_emitted_and_accounted_whole(forks, cache_entries, door):
    """``FORK; NOP`` *forks* times runs as 2**forks packets -- clones of
    clones included -- and every one of them must leave the switch and
    be charged its recirculations."""
    registry = MetricsRegistry()
    switch = _switch(
        config=SwitchConfig(program_cache_entries=cache_entries), telemetry=registry
    )
    packet = _program("FORK\nNOP\n" * forks + "RETURN", fid=7)
    if door == "receive":
        outputs = switch.receive(packet, 1)
    else:
        outputs = switch.receive_batch([(packet, 1)]).outputs
    results = list(_tree(outputs[0].result))
    assert len(results) == 2**forks
    assert [output.result for output in outputs] == results
    assert all(output.port == 2 for output in outputs)
    assert switch.port_stats[2].tx_packets == 2**forks
    recirculations = sum(result.recirculations for result in results)
    assert recirculations >= 2**forks - 1  # every clone recirculates
    assert switch.pipeline.total_recirculations == recirculations
    counters = registry.snapshot()["counters"]
    assert counters['datapath_fid_recirculations_total{fid="7"}'] == recirculations
    assert counters['datapath_fid_packets_total{fid="7"}'] == 1


# ----------------------------------------------------------------------
# receive == receive_batch, over the differential fuzzer's programs
# ----------------------------------------------------------------------

_FORK = Instruction(Opcode.FORK)
#: The fuzzer's instruction mix with one header in four a FORK, capped
#: so a tree stays at most 16 packets.
_forky_programs = st.lists(
    st.one_of(_instructions(), _instructions(), _instructions(), st.just(_FORK)),
    min_size=1,
    max_size=14,
).filter(lambda program: sum(instr.opcode is Opcode.FORK for instr in program) <= 4)


def _observable(switch, registry):
    """What both front doors must agree on: every count but the batch
    counts."""
    stats = switch.stats()
    for key in ("batches", "batched_packets"):
        del stats[key]
    counters = registry.snapshot()["counters"]
    return stats, switch.port_stats, counters


@settings(max_examples=60, deadline=None)
@given(
    programs=st.lists(st.one_of(_programs, _forky_programs), min_size=1, max_size=4),
    sends=st.lists(
        st.tuples(
            st.integers(0, 3),  # program
            st.sampled_from([1, 2, 3]),  # fid
            st.lists(_words, max_size=8),  # args
            st.sampled_from([1, 2]),  # arrival port
            st.sampled_from([CLIENT, SERVER, MacAddress.from_host_id(9)]),  # dst
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_receive_matches_receive_batch_on_fuzzed_programs(programs, sends):
    def build():
        registry = MetricsRegistry()
        switch = _switch(config=SwitchConfig(words_per_stage=256), telemetry=registry)
        for fid in (1, 2):
            for stage in (1, 2, 3, 5, 8):
                switch.pipeline.stage(stage).table.install_grant(
                    StageGrant(fid=fid, start=0, end=200, mask=0x7F, offset=fid)
                )
        packets = [
            (
                ActivePacket.program(
                    src=CLIENT, dst=dst, fid=fid, args=list(args),
                    instructions=list(programs[index % len(programs)]),
                ),
                port,
            )
            for index, fid, args, port, dst in sends
        ]
        return switch, registry, packets

    scalar, scalar_registry, packets = build()
    one_by_one = [
        output for packet, port in packets for output in scalar.receive(packet, port)
    ]
    batched, batched_registry, packets = build()
    together = batched.receive_batch(packets).outputs

    assert len(together) == len(one_by_one)
    for a, b in zip(together, one_by_one):
        assert (a.port, a.latency_us) == (b.port, b.latency_us)
        assert encode_packet(a.packet) == encode_packet(b.packet)
        assert a.result.phv == b.result.phv
        assert a.result.disposition is b.result.disposition
    assert _observable(batched, batched_registry) == _observable(scalar, scalar_registry)
    for warm, cold in zip(batched.pipeline.stages, scalar.pipeline.stages):
        assert warm.registers._cells == cold.registers._cells


# ----------------------------------------------------------------------
# poll_digests semantics
# ----------------------------------------------------------------------


@pytest.fixture
def loaded_switch():
    switch = _switch()
    for _ in range(3):
        switch.receive(
            ActivePacket.control(src=CLIENT, dst=SERVER, fid=1, flags=0), 1
        )
    return switch


def test_poll_digests_none_drains_all(loaded_switch):
    assert len(loaded_switch.poll_digests()) == 3
    assert loaded_switch.digests_pending == 0


def test_poll_digests_zero_is_a_real_bound(loaded_switch):
    assert loaded_switch.poll_digests(limit=0) == []
    assert loaded_switch.digests_pending == 3


def test_poll_digests_partial_limit(loaded_switch):
    assert len(loaded_switch.poll_digests(limit=2)) == 2
    assert loaded_switch.digests_pending == 1


# ----------------------------------------------------------------------
# Constructor injection (governor, clock)
# ----------------------------------------------------------------------


def test_governor_and_clock_constructor_injection():
    governor = RecirculationGovernor(rate_per_second=1e-9, burst=1.0)
    times = iter([0.0, 0.001, 0.002])
    switch = _switch(governor=governor, clock=lambda: next(times))
    long_program = "\n".join(["NOP"] * 25 + ["RETURN"])  # 1 recirculation
    first = switch.receive(_program(long_program), in_port=1)
    assert first[0].result is not None  # admitted: burst covers it
    second = switch.receive(_program(long_program), in_port=1)
    assert second[0].result is None  # suppressed -> plain forwarding
    assert switch.suppressed == 1
    assert switch.stats()["governor_suppressed"] == governor.suppressed


def test_suppressed_counted_in_batch():
    governor = RecirculationGovernor(rate_per_second=1e-9, burst=0.5)
    switch = _switch(governor=governor)
    long_program = "\n".join(["NOP"] * 25 + ["RETURN"])
    result = switch.receive_batch([(_program(long_program), 1)])
    assert result.suppressed == 1
    assert result.programs == 0


# ----------------------------------------------------------------------
# Byte counters and a packet that raises
# ----------------------------------------------------------------------

CACHE_QUERY = """
    MAR_LOAD $2
    MEM_READ
    MBR_EQUALS_DATA_1
    CRET
    MEM_READ
    MBR_EQUALS_DATA_2
    CRET
    RTS
    MEM_READ
    MBR_STORE $0
    RETURN
"""


def _cache_switch():
    switch = _switch()
    for stage, word in ((2, 0xAAAA0001), (5, 0xBBBB0002), (9, 0xCAFED00D)):
        switch.pipeline.stage(stage).table.install_grant(
            StageGrant(fid=1, start=0, end=1024)
        )
        switch.pipeline.stage(stage).registers.write(17, word)
    return switch


def _query(flags=0):
    return ActivePacket.program(
        src=CLIENT, dst=SERVER, fid=1, flags=flags,
        instructions=assemble(CACHE_QUERY), args=[0xAAAA0001, 0xBBBB0002, 17, 0],
    )


@pytest.mark.parametrize("door", ["receive", "receive_batch"])
def test_tx_bytes_charge_the_frame_the_deparser_emits(door):
    """A cache hit's eleven headers all ran, and the deparser drops
    executed headers unless NO_SHRINK is set (Section 3.1): the 64 B
    query leaves as a 42 B reply, and tx charges the 42."""
    for flags, emitted in ((0, 42), (ControlFlags.NO_SHRINK, 64)):
        switch = _cache_switch()
        switch.receive(_query(flags), in_port=1)  # warm: built and bound
        before = switch.port_stats[1].tx_bytes
        if door == "receive":
            (out,) = switch.receive(_query(flags), in_port=1)
        else:
            (out,) = switch.receive_batch([(_query(flags), 1)]).outputs
        assert out.port == 1 and out.packet.wire_size() == 64
        assert len(encode_packet(out.packet, shrink=True)) == emitted
        assert out.packet.shrunk_size() == emitted
        assert switch.port_stats[1].tx_bytes - before == emitted
        assert switch.port_stats[1].rx_bytes == 2 * 64


def test_receive_batch_keeps_what_it_handled_when_a_packet_raises():
    """Thirteen arguments need four argument headers, one more than the
    wire has: the third packet raises.  The control packet's digest,
    the program's outputs and every counter survive it, as they do
    when the same packets arrive one ``receive`` at a time."""

    def arrivals():
        return [
            (ActivePacket.control(src=CLIENT, dst=SERVER, fid=5, flags=0), 1),
            (_program("RTS\nRETURN"), 1),
            (_program("NOP\nRETURN", args=list(range(13))), 1),
        ]

    scalar, batched = _switch(), _switch()
    for packet, port in arrivals():
        try:
            scalar.receive(packet, port)
        except HeaderError:
            pass
    with pytest.raises(HeaderError, match="too many argument headers"):
        batched.receive_batch(arrivals())
    assert batched.digests_pending == scalar.digests_pending == 1
    assert [encode_packet(p) for p in batched.poll_digests()] == [
        encode_packet(p) for p in scalar.poll_digests()
    ]
    assert batched.packets == scalar.packets == 2
    assert batched.programs == scalar.programs == 1
    assert batched.digested == scalar.digested == 1
    assert batched.returned == scalar.returned == 1
    assert batched.port_stats == scalar.port_stats
    assert batched.port_stats[1].rx_packets == 3
    assert batched.port_stats[1].tx_packets == 1
