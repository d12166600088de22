"""Tests for the generated engine: one Python function per cached program.

``tests/test_switchsim_differential.py`` fuzzes the generated functions
against the reference interpreter; the tests here are its deterministic
companions -- the things a random draw may take a while to reach (an
opcode present in one engine only, 32-bit wrap-around in each ALU
template, FORK with live registers) and the things no fuzzer checks
(readable tracebacks, the number of Python calls a packet costs).
"""

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


def test_python_calls_per_warm_cache_query_packet():
    """One ``receive_batch`` of 256 cache-query hits, program cache warm.

    Measured: **25.0** Python-level calls per packet (``wire_size`` for
    rx, ``shrunk_size`` + its ``wire_size`` for tx, ``_process``,
    ``execute``, ``Phv()``, ``entry_for`` + stamp check, the generated
    function, three register reads with their bounds check,
    ``return_to_sender``'s four, ``_finish`` + ``ExecutionResult()``,
    ``_emit`` + the latency model's two + ``SwitchOutput()``); the
    digest is a byte operation on the packet's wire words, no call.
    The interpreter the generated functions replaced -- a handler call
    per instruction, every PHV write a setter call -- needs **64.05**
    for the same batch.  The data-path twin of the
    device-writes-per-admission pin: a later change that re-adds a
    per-packet helper fails here, not in a benchmark.
    """
    measured, parent = 25.0, 64.05
    switch = ActiveSwitch(SwitchConfig())
    switch.register_host(CLIENT, 1)
    switch.register_host(SERVER, 2)
    for stage, word in ((2, 0xAAAA0001), (5, 0xBBBB0002), (9, 0xCAFED00D)):
        switch.pipeline.stage(stage).table.install_grant(
            StageGrant(fid=1, start=0, end=1024)
        )
        switch.pipeline.stage(stage).registers.write(17, word)
    program = assemble(CACHE_QUERY)

    def batch(size):
        return [
            (_packet(program, [0xAAAA0001, 0xBBBB0002, 17, 0]), 1) for _ in range(size)
        ]

    switch.receive_batch(batch(8))  # warm: the function is built, the FID bound
    packets = batch(256)
    results = []
    calls = _python_calls(lambda: results.append(switch.receive_batch(packets)))
    assert results[0].returned == 256
    per_packet = calls / 256
    assert per_packet <= measured * 1.2
    assert per_packet <= parent * 0.6
