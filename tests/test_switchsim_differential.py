"""Differential tests of the cached engine against the reference interpreter.

The two-level program cache shares one lowered program between every
tenant that sends it and keeps tenant state as a per-FID binding.  What
must never happen is one FID's binding being served to another, or a
binding outliving the table entries it was read from.  So every packet
here runs through a cached pipeline and through a pipeline with
``program_cache_entries=0`` (the generic ``Pipeline._run``) and the two
must agree on everything observable.  A wire leg does the same for
frames: bytes in through the one-pass codec and the cached switch, bytes
out, against the reference codec and the cache-disabled switch.
"""

from hypothesis import given, settings, strategies as st

from repro.isa import Instruction, Opcode, assemble
from repro.isa.opcodes import BRANCH_OPCODES, has_operand
from repro.packets import ActivePacket, ControlFlags, MacAddress, decode_packet, encode_packet
from repro.switchsim import (
    ActiveSwitch,
    PacketDisposition,
    Pipeline,
    StageGrant,
    SwitchConfig,
)
from tests.test_packets_codec import reference_decode_packet, reference_encode_packet

CLIENT = MacAddress.from_host_id(1)
SERVER = MacAddress.from_host_id(2)

#: Two device shapes: a short pipeline whose 18-header budget the drawn
#: programs exceed, and the paper's 20 stages where they recirculate.
_SHAPES = [
    dict(num_stages=6, ingress_stages=3, max_recirculations=2),
    dict(num_stages=20, ingress_stages=10, max_recirculations=8),
]
_WORDS = 256
_FIDS = [1, 2, 3]
#: Opcodes that never stop a packet, drawn more often than the rest so
#: that long programs reach their tail (and the recirculation budget).
_BENIGN = [
    Opcode.NOP, Opcode.MBR_LOAD, Opcode.MBR2_LOAD, Opcode.MAR_LOAD,
    Opcode.MBR_STORE, Opcode.MBR_ADD_MBR2, Opcode.MAR_ADD_MBR,
    Opcode.SWAP_MBR_MBR2, Opcode.MBR_NOT, Opcode.COPY_HASHDATA_MBR, Opcode.HASH,
]
#: Every opcode a packet can carry, EOF included (it has no decode entry).
_OPCODES = list(Opcode) + _BENIGN * 5


def _packet(instructions, fid, args=(), flags=0, payload=b""):
    return ActivePacket.program(
        src=CLIENT, dst=SERVER, fid=fid, instructions=list(instructions),
        args=list(args), flags=flags, payload=payload,
    )


def _assert_identical(cached, cold):
    """Equal ExecutionResults, clones included, down to the wire bytes."""
    assert cached.disposition is cold.disposition
    assert cached.phv == cold.phv
    assert cached.passes == cold.passes
    assert cached.recirculations == cold.recirculations
    assert cached.executed_instructions == cold.executed_instructions
    for shrink in (False, True):
        assert encode_packet(cached.packet, shrink=shrink) == encode_packet(
            cold.packet, shrink=shrink
        )
    assert len(cached.clones) == len(cold.clones)
    for sub_cached, sub_cold in zip(cached.clones, cold.clones):
        _assert_identical(sub_cached, sub_cold)


def _assert_same_registers(warm, cold):
    for warm_stage, cold_stage in zip(warm.stages, cold.stages):
        assert warm_stage.registers._cells == cold_stage.registers._cells


# ----------------------------------------------------------------------
# The fuzzer
# ----------------------------------------------------------------------


@st.composite
def _instructions(draw):
    opcode = draw(st.sampled_from(_OPCODES))
    operand = draw(st.integers(0, 7)) if has_operand(opcode) else 0
    if opcode in BRANCH_OPCODES:
        label = draw(st.integers(0, 3))  # 0: a skip nothing ever ends
    else:
        label = draw(st.sampled_from([0, 0, 0, 1, 2, 3]))
    return Instruction(opcode, operand=operand, label=label)


#: Lengths drawn uniformly: a plain ``lists`` strategy favours short ones.
_programs = st.integers(1, 30).flatmap(
    lambda n: st.lists(_instructions(), min_size=n, max_size=n)
)
#: Small words land inside grants and on their edges; the rest is any u32.
_words = st.one_of(st.integers(0, _WORDS + 8), st.integers(0, 0xFFFFFFFF))


@st.composite
def _mutations(draw):
    """One direct StageTable call, as ``(method name, args)``."""
    fid = draw(st.sampled_from(_FIDS))
    kind = draw(st.sampled_from(["grant", "ungrant", "translate", "untranslate"]))
    if kind == "grant":
        start = draw(st.integers(0, _WORDS - 1))
        end = draw(st.integers(start, _WORDS))
        mask = draw(st.sampled_from([0, 0xF, 0x3F, 0xFF]))
        grant = StageGrant(fid=fid, start=start, end=end, mask=mask, offset=start)
        return "install_grant", (grant,)
    if kind == "ungrant":
        return "remove_grant", (fid,)
    if kind == "translate":
        mask = draw(st.sampled_from([0x7, 0x1F, 0xFF]))
        return "install_translation", (fid, mask, draw(st.integers(0, _WORDS)))
    return "remove_translation", (fid,)


@st.composite
def _steps(draw):
    """A table mutation at a stage, a cache flush, or a packet."""
    kind = draw(st.sampled_from(["packet"] * 4 + ["mutate"] * 2 + ["flush"]))
    if kind == "mutate":
        return kind, draw(st.integers(0, 5)), draw(_mutations())
    if kind == "flush":
        return kind, draw(st.sampled_from(_FIDS + [None]))
    return (
        kind,
        draw(st.sampled_from(_FIDS)),
        draw(st.integers(0, 2)),
        draw(st.lists(_words, min_size=0, max_size=8)),
        draw(st.sampled_from([0, 0, ControlFlags.PRELOAD])),
    )


@settings(max_examples=250, deadline=None)
@given(
    shape=st.sampled_from(_SHAPES),
    capacity=st.sampled_from([1, 2, 256]),
    programs=st.lists(_programs, min_size=1, max_size=3),
    initial=st.lists(st.tuples(st.integers(0, 5), _mutations()), max_size=12),
    steps=st.lists(_steps(), min_size=4, max_size=14),
)
def test_cached_engine_matches_reference_interpreter(
    shape, capacity, programs, initial, steps
):
    warm = Pipeline(
        SwitchConfig(words_per_stage=_WORDS, program_cache_entries=capacity, **shape)
    )
    cold = Pipeline(
        SwitchConfig(words_per_stage=_WORDS, program_cache_entries=0, **shape)
    )

    def mutate(stage, call):
        method, args = call
        for pipeline in (warm, cold):
            # Stages 1..6 exist in both shapes; every program starts there.
            getattr(pipeline.stage(stage + 1).table, method)(*args)

    for stage, call in initial:
        mutate(stage, call)
    for step in steps:
        if step[0] == "mutate":
            mutate(step[1], step[2])
        elif step[0] == "flush":
            for pipeline in (warm, cold):
                pipeline.invalidate_program_cache(step[1])
        else:
            _kind, fid, index, args, flags = step
            program = programs[index % len(programs)]
            _assert_identical(
                warm.execute(_packet(program, fid, args, flags)),
                cold.execute(_packet(program, fid, args, flags)),
            )
    _assert_same_registers(warm, cold)
    assert (warm.drops, warm.faults, warm.total_recirculations) == (
        cold.drops, cold.faults, cold.total_recirculations,
    )
    cache = warm.program_cache
    assert len(cache) <= capacity
    assert cache.stats()["programs"] <= len(cache)
    assert set(cache._keys_by_fid) == {key[0] for key in cache._entries}


# ----------------------------------------------------------------------
# The wire leg: bytes in, bytes out
# ----------------------------------------------------------------------

_wire_packets = st.tuples(
    st.sampled_from(_FIDS),
    st.integers(0, 2),
    st.lists(_words, min_size=0, max_size=8),
    st.sampled_from([0, 0, ControlFlags.PRELOAD, ControlFlags.NO_SHRINK]),
    st.binary(max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(_SHAPES),
    capacity=st.sampled_from([1, 2, 256]),
    programs=st.lists(_programs, min_size=1, max_size=3),
    initial=st.lists(st.tuples(st.integers(0, 5), _mutations()), max_size=12),
    batches=st.lists(
        st.tuples(
            st.lists(st.tuples(st.integers(0, 5), _mutations()), max_size=2),
            st.lists(_wire_packets, min_size=1, max_size=6),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_wire_path_matches_reference_codec_and_interpreter(
    shape, capacity, programs, initial, batches
):
    """encode -> decode -> cached ``receive_batch`` -> shrunk encode emits
    the bytes the reference codec and the cache-disabled switch emit."""
    warm = ActiveSwitch(
        SwitchConfig(words_per_stage=_WORDS, program_cache_entries=capacity, **shape)
    )
    cold = ActiveSwitch(SwitchConfig(words_per_stage=_WORDS, program_cache_entries=0, **shape))

    def mutate(calls):
        for stage, (method, args) in calls:
            for switch in (warm, cold):
                getattr(switch.pipeline.stage(stage + 1).table, method)(*args)

    for switch in (warm, cold):
        switch.register_host(CLIENT, 1)
        switch.register_host(SERVER, 2)
    mutate(initial)
    for calls, sends in batches:
        mutate(calls)
        sent = [
            _packet(programs[index % len(programs)], fid, args, flags, payload)
            for fid, index, args, flags, payload in sends
        ]
        frames = [encode_packet(packet) for packet in sent]
        assert frames == [reference_encode_packet(packet) for packet in sent]
        mine = warm.receive_batch([decode_packet(frame) for frame in frames], in_port=1)
        theirs = cold.receive_batch(
            [reference_decode_packet(frame) for frame in frames], in_port=1
        )
        assert [
            (output.port, encode_packet(output.packet, shrink=True)) for output in mine.outputs
        ] == [
            (output.port, reference_encode_packet(output.packet, shrink=True))
            for output in theirs.outputs
        ]
    assert warm.port_stats == cold.port_stats
    _assert_same_registers(warm.pipeline, cold.pipeline)


# ----------------------------------------------------------------------
# Sharing: many tenants, one program
# ----------------------------------------------------------------------

_SHARED = (
    "MBR_LOAD $1\nCOPY_HASHDATA_MBR\nHASH\nADDR_MASK\nADDR_OFFSET\n"
    "MEM_INCREMENT\nMBR_STORE $0\nRTS\nRETURN"
)


def test_tenants_share_one_program_and_match_uncached():
    tenants = 12
    warm = Pipeline(SwitchConfig())
    cold = Pipeline(SwitchConfig(program_cache_entries=0))
    for pipeline in (warm, cold):
        for fid in range(1, tenants + 1):
            for stage in (4, 5, 6):
                pipeline.stage(stage).table.install_grant(
                    StageGrant(
                        fid=fid, start=64 * fid, end=64 * fid + 64,
                        mask=0x3F, offset=64 * fid,
                    )
                )
    program = assemble(_SHARED)
    for round_ in range(2):
        for fid in range(1, tenants + 1):
            args = [0, 1000 * fid + round_, 0, 0]
            _assert_identical(
                warm.execute(_packet(program, fid, args)),
                cold.execute(_packet(program, fid, args)),
            )
    stats = warm.program_cache.stats()
    assert stats["programs"] == 1
    assert (stats["program_misses"], stats["program_hits"]) == (1, tenants - 1)
    assert (stats["misses"], stats["hits"]) == (tenants, tenants)
    bindings = list(warm.program_cache._entries.values())
    assert len({id(binding.program) for binding in bindings}) == 1
    assert len({id(binding.args) for binding in bindings}) == tenants
    _assert_same_registers(warm, cold)


def _two_tenants(capacity):
    """FID 1 owns [0, 100) and FID 2 [100, 200) of stage 2."""
    pipeline = Pipeline(SwitchConfig(program_cache_entries=capacity))
    table = pipeline.stage(2).table
    table.install_grant(StageGrant(fid=1, start=0, end=100))
    table.install_grant(StageGrant(fid=2, start=100, end=200))
    return pipeline


def test_shared_program_keeps_each_tenants_bounds():
    """Same program, same MAR: FID 1 forwards, FID 2 faults under its
    own name -- whichever arrives first, and across an eviction."""
    program = assemble("MAR_LOAD $0\nMEM_READ\nRETURN")
    filler = assemble("NOP\nRETURN")
    for capacity in (256, 1):  # capacity 1: each packet evicts the last
        for order in ((1, 2, 1, 2), (2, 1, 2, 1)):
            warm, cold = _two_tenants(capacity), _two_tenants(0)
            for fid in order:
                result = warm.execute(_packet(program, fid, [50, 0, 0, 0]))
                _assert_identical(
                    result, cold.execute(_packet(program, fid, [50, 0, 0, 0]))
                )
                if fid == 1:
                    assert result.disposition is PacketDisposition.FORWARD
                else:
                    assert result.disposition is PacketDisposition.FAULT
                    assert result.phv.fault_reason == (
                        "stage 2: fid 2 denied access to index 50"
                    )
                warm.execute(_packet(filler, 3))
            stats = warm.program_cache.stats()
            assert stats["evictions"] == (0 if capacity == 256 else 7)
            assert stats["program_misses"] == (2 if capacity == 256 else 8)


# ----------------------------------------------------------------------
# Cache bookkeeping: rebind instead of rebuild, no leaks
# ----------------------------------------------------------------------


def test_stale_stamp_rebinds_the_same_program():
    pipeline = _two_tenants(256)
    cache = pipeline.program_cache
    program = assemble("MAR_LOAD $0\nMEM_READ\nRETURN")
    pipeline.execute(_packet(program, 1, [50, 0, 0, 0]))
    (first,) = cache._entries.values()
    pipeline.stage(2).table.install_grant(StageGrant(fid=1, start=0, end=10))
    denied = pipeline.execute(_packet(program, 1, [50, 0, 0, 0]))
    assert denied.disposition is PacketDisposition.FAULT
    (second,) = cache._entries.values()
    assert second is not first and second.program is first.program
    stats = cache.stats()
    assert (stats["misses"], stats["invalidations"]) == (2, 1)
    assert (stats["program_misses"], stats["program_hits"]) == (1, 1)
    # A table the program never reads does not stale its bindings.
    pipeline.stage(3).table.install_grant(StageGrant(fid=1, start=0, end=10))
    pipeline.execute(_packet(program, 1, [5, 0, 0, 0]))
    assert cache.stats()["hits"] == 1


def test_programs_live_exactly_as_long_as_their_bindings():
    pipeline = Pipeline(SwitchConfig(program_cache_entries=2))
    cache = pipeline.program_cache
    programs = [assemble("\n".join(["NOP"] * n + ["RETURN"])) for n in (1, 2, 3)]
    for fid in (1, 2):
        pipeline.execute(_packet(programs[0], fid))
    assert cache.stats()["programs"] == 1
    pipeline.execute(_packet(programs[1], 1))  # evicts (1, programs[0])
    assert cache.stats()["programs"] == 2
    pipeline.execute(_packet(programs[2], 1))  # evicts (2, programs[0])
    assert cache.stats()["programs"] == 2
    assert cache.invalidate_all() == 2
    assert cache.stats()["programs"] == 0


def test_fid_index_drops_fids_without_bindings():
    pipeline = _two_tenants(2)
    cache = pipeline.program_cache
    program = assemble("MAR_LOAD $0\nMEM_READ\nRETURN")

    def resident():
        assert set(cache._keys_by_fid) == {key[0] for key in cache._entries}
        assert all(cache._keys_by_fid.values())
        return sorted(cache._keys_by_fid)

    for fid in (1, 2, 3, 4):  # two evictions
        pipeline.execute(_packet(program, fid, [150, 0, 0, 0]))
    assert resident() == [3, 4]
    pipeline.stage(2).table.remove_grant(2)  # stale stamps for 3 and 4
    pipeline.execute(_packet(program, 3, [150, 0, 0, 0]))
    assert resident() == [3, 4]
    assert pipeline.invalidate_program_cache(4) == 1
    assert pipeline.invalidate_program_cache(4) == 0
    assert resident() == [3]
    pipeline.execute(_packet(program, 5, [150, 0, 0, 0]))
    pipeline.execute(_packet(program, 6, [150, 0, 0, 0]))  # evicts 3
    assert resident() == [5, 6]
    assert pipeline.invalidate_program_cache(None) == 2
    assert resident() == []
