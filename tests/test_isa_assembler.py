"""Unit + property tests for the assembler and wire encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    ActiveProgram,
    AssemblyError,
    EncodingError,
    Instruction,
    Opcode,
    assemble,
    decode_program,
    disassemble,
    encode_program,
)

LISTING_1 = """
    MAR_LOAD $2        ; locate bucket
    MEM_READ           ; first 4 bytes
    MBR_EQUALS_DATA_1  ; compare bytes
    CRET               ; partial match?
    MEM_READ           ; next 4 bytes
    MBR_EQUALS_DATA_2  ; compare bytes
    CRET               ; full match?
    RTS                ; create reply
    MEM_READ           ; read the value
    MBR_STORE          ; write to packet
    RETURN             ; fin.
"""


def test_assemble_listing_1():
    program = assemble(LISTING_1, name="cache-query")
    assert len(program) == 11
    assert program.memory_access_positions() == [2, 5, 9]
    assert program[0].operand == 2


def test_comments_and_blank_lines_ignored():
    program = assemble("NOP\n\n; comment only\n// another\nRETURN\n")
    assert len(program) == 2


def test_labels_resolved():
    program = assemble(
        """
        CJUMP @hit
        DROP
        hit: RTS
        RETURN
        """
    )
    assert program[0].is_branch
    assert program[0].label == program[2].label != 0


def test_unknown_opcode_rejected():
    with pytest.raises(AssemblyError):
        assemble("FROBNICATE")


def test_undefined_label_rejected():
    with pytest.raises(AssemblyError):
        assemble("CJUMP @nowhere\nRETURN")


def test_duplicate_label_rejected():
    with pytest.raises(AssemblyError):
        assemble("a: NOP\na: NOP")


def test_branch_without_label_rejected():
    with pytest.raises(AssemblyError):
        assemble("CJUMP")


def test_operand_on_wrong_opcode_rejected():
    with pytest.raises(AssemblyError):
        assemble("MEM_READ $1")


def test_label_on_branch_rejected():
    with pytest.raises(AssemblyError):
        assemble("x: CJUMP @y\ny: NOP")


def test_empty_source_rejected():
    with pytest.raises(AssemblyError):
        assemble("; nothing here")


def test_disassemble_round_trip_listing_1():
    program = assemble(LISTING_1, name="cache-query")
    again = assemble(disassemble(program), name="cache-query")
    assert again.instructions == program.instructions


def test_encode_decode_round_trip():
    program = assemble(LISTING_1, name="cache-query")
    wire = encode_program(program)
    # 11 instructions + EOF, 2 bytes each
    assert len(wire) == (11 + 1) * 2
    decoded = decode_program(wire)
    assert decoded.instructions == program.instructions


def test_shrink_drops_executed_instructions():
    program = assemble("NOP\nNOP\nRETURN")
    executed = [program[0].with_executed(), program[1], program[2]]
    from repro.isa.encoding import encode_instructions

    wire = encode_instructions(tuple(executed), shrink=True)
    assert len(wire) == (2 + 1) * 2  # two remaining + EOF


def test_truncated_stream_rejected():
    program = assemble("NOP\nRETURN")
    wire = encode_program(program)
    with pytest.raises(EncodingError):
        decode_program(wire[:-2])  # EOF removed


def test_eof_only_stream_rejected():
    with pytest.raises(EncodingError):
        decode_program(bytes((0, 0)))


def test_stream_decodes_at_an_offset_without_slicing():
    from repro.isa.encoding import decode_instructions

    program = assemble("MBR_LOAD $2\nCJUMP @end\nNOP\nend: RETURN")
    wire = encode_program(program)
    framed = b"\xAA\xBB\xCC" + wire + b"payload"
    instructions, consumed = decode_instructions(framed, 3)
    assert (tuple(instructions), consumed) == (program.instructions, len(wire))
    assert decode_instructions(wire) == (instructions, consumed)
    # Offsets in errors stay relative to the start of the stream.
    bad = b"\xAA" + wire[:4] + b"\x99\x00" + wire[4:]
    with pytest.raises(EncodingError, match="bad instruction at byte 4"):
        decode_instructions(bad, 1)
    for cut in (len(wire) - 1, len(wire) - 2, 0):  # half an EOF, none, nothing
        with pytest.raises(EncodingError, match="truncated before EOF"):
            decode_instructions(b"\xAA" + wire[:cut], 1)


_SIMPLE_OPCODES = [
    Opcode.NOP,
    Opcode.MEM_READ,
    Opcode.MEM_WRITE,
    Opcode.HASH,
    Opcode.MBR_ADD_MBR2,
    Opcode.MAX,
    Opcode.MIN,
    Opcode.RTS,
    Opcode.CRET,
]


@st.composite
def straightline_programs(draw):
    body = draw(
        st.lists(st.sampled_from(_SIMPLE_OPCODES), min_size=1, max_size=40)
    )
    body.append(Opcode.RETURN)
    return ActiveProgram([Instruction(op) for op in body], name="prop")


@given(straightline_programs())
def test_wire_round_trip_property(program):
    assert decode_program(encode_program(program)).instructions == program.instructions


@given(straightline_programs())
def test_disassembly_round_trip_property(program):
    assert assemble(disassemble(program)).instructions == program.instructions
