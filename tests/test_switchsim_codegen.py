"""Tests for the generated engine: one Python function per cached program.

``tests/test_switchsim_differential.py`` fuzzes the generated functions
against the reference interpreter; the tests here are its deterministic
companions -- the things a random draw may take a while to reach (an
opcode present in one engine only, 32-bit wrap-around in each ALU
template, FORK with live registers) and the things no fuzzer checks
(readable tracebacks, the number of Python calls a packet costs).
"""

import gc
import sys
import traceback

import pytest

from repro.isa import Instruction, Opcode, assemble
from repro.isa.opcodes import has_operand
from repro.packets import ActivePacket, ControlFlags, MacAddress
from repro.switchsim import (
    ActiveSwitch,
    Pipeline,
    RegisterFault,
    StageGrant,
    SwitchConfig,
)
from repro.switchsim.progcache import _TEMPLATES
from repro.switchsim.stage import _HANDLERS

from tests.test_switchsim_differential import _assert_identical, _assert_same_registers

CLIENT = MacAddress.from_host_id(1)
SERVER = MacAddress.from_host_id(2)

CACHE_QUERY = (
    "MAR_LOAD $2\nMEM_READ\nMBR_EQUALS_DATA_1\nCRET\nMEM_READ\n"
    "MBR_EQUALS_DATA_2\nCRET\nRTS\nMEM_READ\nMBR_STORE $0\nRETURN"
)


def _packet(instructions, args=(), fid=1, flags=0):
    return ActivePacket.program(
        src=CLIENT, dst=SERVER, fid=fid, instructions=list(instructions),
        args=list(args), flags=flags,
    )


def _pair(**shape):
    """A cached and an uncached pipeline with identical grants."""
    pipelines = (
        Pipeline(SwitchConfig(**shape)),
        Pipeline(SwitchConfig(program_cache_entries=0, **shape)),
    )
    for pipeline in pipelines:
        for stage in pipeline.stages:
            stage.table.install_grant(
                StageGrant(fid=1, start=0, end=64, mask=0x3F, offset=0xFFFFFFF0)
            )
    return pipelines


# ----------------------------------------------------------------------
# The opcode tables agree
# ----------------------------------------------------------------------


def test_every_opcode_is_in_both_engines_or_in_neither():
    """An opcode added to one engine only fails here, without waiting
    for the fuzzer to draw it.  EOF has no decode entry in either."""
    for opcode in Opcode:
        assert (opcode in _HANDLERS) == (opcode in _TEMPLATES), opcode.name
    assert set(Opcode) - set(_TEMPLATES) == {Opcode.EOF}


#: Register values at the 32-bit edges, as (MBR, MBR2, MAR) preloads.
_EDGES = [
    (0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
    (0xFFFFFFFF, 1, 0xFFFFFFFE),
    (0, 1, 3),
    (0, 0xFFFFFFFF, 0),
    (7, 7, 7),
    (0x80000000, 0x80000000, 0x80000000),
    # Nothing validates a locally built packet's arguments: a LOAD wraps.
    (0x100000003, 0x200000001, 0x300000002),
]


@pytest.mark.parametrize("opcode", sorted(_TEMPLATES), ids=lambda op: op.name)
def test_each_template_matches_its_handler_at_the_32_bit_edges(opcode):
    """One header of *opcode*, on both engines, with every register at a
    value where a missing wrap-around shows in the final PHV, the
    argument list or the registers."""
    warm, cold = _pair()
    program = [
        Instruction(Opcode.COPY_HASHDATA_MBR),
        Instruction(opcode, operand=1 if has_operand(opcode) else 0),
        Instruction(Opcode.RETURN),
    ]
    for mbr, mbr2, mar in _EDGES:
        for small_mar in (False, True):  # inside the grant, for memory opcodes
            args = [mbr, mbr2, mar & 0x3F if small_mar else mar, 0]
            cached = warm.execute(_packet(program, args, flags=ControlFlags.PRELOAD))
            reference = cold.execute(_packet(program, args, flags=ControlFlags.PRELOAD))
            _assert_identical(cached, reference)
            assert cached.packet.args == reference.packet.args
    _assert_same_registers(warm, cold)


def test_short_argument_lists_read_zero_and_grow_on_store():
    """LOADs beyond the argument list read 0; a STORE there pads it --
    and a later LOAD in the same program sees the padded list."""
    warm, cold = _pair()
    program = assemble("MBR_LOAD $6\nMBR_NOT\nMBR_STORE $5\nMBR2_LOAD $5\nMBR_STORE $7\nRETURN")
    for pipeline in (warm, cold):
        packet = _packet(program)
        assert packet.args == []
        result = pipeline.execute(packet)
        assert result.packet.args == [0, 0, 0, 0, 0, 0xFFFFFFFF, 0, 0xFFFFFFFF]
        assert result.phv.mbr2 == 0xFFFFFFFF


def test_fork_clones_the_registers_as_of_the_fork():
    """The generated function keeps MAR/MBR/MBR2 in locals: a FORK must
    flush them, or the clone resumes with the values at switch entry."""
    warm, cold = _pair()
    program = assemble(
        "MBR_LOAD $0\nMBR2_LOAD $1\nMAR_LOAD $2\nMBR_ADD_MBR2\nFORK\n"
        "MEM_WRITE\nMBR_STORE $3\nCOPY_MBR_MAR\nMBR_STORE $4\nRETURN"
    )
    args = [40, 2, 9, 0, 0, 0, 0, 0]
    result = warm.execute(_packet(program, args))
    _assert_identical(result, cold.execute(_packet(program, args)))
    (clone,) = result.clones
    assert clone.packet.args[3:5] == [42, 9]
    _assert_same_registers(warm, cold)


# ----------------------------------------------------------------------
# Generated code is debuggable
# ----------------------------------------------------------------------


def test_source_is_kept_and_names_every_instruction():
    pipeline = Pipeline(SwitchConfig())
    pipeline.execute(_packet(assemble(CACHE_QUERY), [0, 0, 17, 0]))
    (binding,) = pipeline.program_cache._entries.values()
    source = binding.program.source
    assert source.startswith("def run(pipeline, packet, phv, args):")
    for pc, (mnemonic, stage) in enumerate(
        [("MAR_LOAD $2", 1), ("MEM_READ", 2), ("MBR_EQUALS_DATA_1", 3), ("CRET", 4)]
    ):
        assert f"# {pc}: {mnemonic} @ stage {stage}" in source
    assert binding.program.run.__code__.co_filename.startswith("<activermt program ")


def test_traceback_through_a_generated_function_names_the_instruction():
    """A RegisterFault (a grant wider than the array: a runtime bug) is
    raised inside the generated function; its traceback line shows the
    statement and, in the comment, which instruction it was."""
    pipeline = Pipeline(SwitchConfig(words_per_stage=256))
    pipeline.stage(3).table.install_grant(StageGrant(fid=1, start=0, end=1024))
    packet = _packet(assemble("MAR_LOAD $0\nNOP\nMEM_READ\nRETURN"), [500, 0, 0, 0])
    with pytest.raises(RegisterFault) as excinfo:
        pipeline.execute(packet)
    text = "".join(
        traceback.format_exception(excinfo.type, excinfo.value, excinfo.tb)
    )
    assert 'File "<activermt program ' in text
    assert "mbr = regs3.read(mar)  # 2: MEM_READ @ stage 3" in text
    assert "index 500 outside array of 256 words" in text


# ----------------------------------------------------------------------
# The gain, pinned without a clock
# ----------------------------------------------------------------------


def _python_calls(function):
    """Python-level calls made while *function* runs (C calls excluded)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return calls


def _cache_query_switch():
    """A switch with the cache-query program's three stages granted and
    the queried key's bucket filled."""
    switch = ActiveSwitch(SwitchConfig())
    switch.register_host(CLIENT, 1)
    switch.register_host(SERVER, 2)
    for stage, word in ((2, 0xAAAA0001), (5, 0xBBBB0002), (9, 0xCAFED00D)):
        switch.pipeline.stage(stage).table.install_grant(
            StageGrant(fid=1, start=0, end=1024)
        )
        switch.pipeline.stage(stage).registers.write(17, word)
    return switch


def _cache_queries(size, key=0xAAAA0001):
    """Cache-query packets for *key*: a hit (returned) for the filled one."""
    program = assemble(CACHE_QUERY)
    return [(_packet(program, [key, 0xBBBB0002, 17, 0]), 1) for _ in range(size)]


def _per_warm_packet(measure, key=0xAAAA0001):
    """What *measure* counts for one more cache query through a warm
    ``receive_batch``: its count over 512 packets less that over 256, per
    packet, so the batch's own calls and objects cancel.  The collector is
    off throughout: a collection runs other objects' finalizers.  Returns
    it and the two batches' results."""
    switch = _cache_query_switch()
    switch.receive_batch(_cache_queries(8))  # warm: the function is built, the FID bound
    counts, results = [], []
    gc.collect()
    gc.disable()
    try:
        for size in (256, 512):
            packets = _cache_queries(size, key)
            counts.append(measure(lambda: results.append(switch.receive_batch(packets))))
    finally:
        gc.enable()
    return (counts[1] - counts[0]) / 256, results


def test_python_calls_per_warm_cache_query_packet():
    """Cache-query hits through ``receive_batch``, program cache warm.

    Measured: **20.0** Python-level calls per packet (one size pass each
    for rx and tx, ``_process``, ``execute``, ``Phv()``, ``entry_for``,
    the generated function, three register reads with their bounds
    check, ``return_to_sender``'s three, ``_finish`` +
    ``ExecutionResult()``, ``_emit`` + ``SwitchOutput()``); the digest is
    a byte operation on the packet's wire words, the binding check one
    int compare, and the output's latency is worked out only when read.
    Before that: 26.0 (the latency model's two calls, the binding's stamp
    walk, the tx size re-entering the rx one and the deparser, and
    ``return_to_sender``'s ``set_flag``).  The
    interpreter the generated functions replaced -- a handler call per
    instruction, every PHV write a setter call -- needs **64.05** for the
    same batch.  The data-path twin of the device-writes-per-admission
    pin: a later change that re-adds a per-packet helper fails here, not
    in a benchmark.
    """
    measured, parent = 20.0, 64.05
    per_packet, results = _per_warm_packet(_python_calls)
    assert [result.returned for result in results] == [256, 512]
    assert per_packet <= measured
    assert per_packet <= parent * 0.6


def _tracked_objects(function):
    """Net gc-tracked objects *function* leaves alive: the generation-0
    count delta (the collector must be off)."""
    before = gc.get_count()[0]
    function()
    return gc.get_count()[0] - before


@pytest.mark.parametrize(
    "key,measured,parent", [(0xAAAA0001, 5.0, 7.0), (0xDEAD0000, 3.0, 5.0)], ids=["hit", "miss"]
)
def test_tracked_objects_per_warm_cache_query_packet(key, measured, parent):
    """A warm cache query keeps alive only what its batch hands back: the
    ``Phv``, the ``ExecutionResult`` and the ``SwitchOutput`` (a miss is
    forwarded), plus the two headers a hit's RTS rewrites (swapped
    Ethernet, FROM_SWITCH flag).  No empty ``clones`` or ``hashdata``
    list: those are allocated only when a FORK or a COPY_HASHDATA fires
    (*parent* counts them).
    """
    per_packet, results = _per_warm_packet(_tracked_objects, key)
    assert [len(result.outputs) for result in results] == [256, 512]
    assert results[0].returned == (256 if key == 0xAAAA0001 else 0)
    assert per_packet <= measured
    assert per_packet <= parent - 2
