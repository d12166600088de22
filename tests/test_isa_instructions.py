"""Unit + property tests for the 2-byte instruction header."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import Instruction, InstructionFlags, Opcode
from repro.isa.opcodes import BRANCH_OPCODES, OPERAND_OPCODES


def test_flag_byte_packing():
    instr = Instruction(Opcode.MBR_LOAD, operand=3, label=5)
    flags = instr.flag_byte()
    assert flags & InstructionFlags.OPERAND_MASK == 3
    assert (flags >> InstructionFlags.LABEL_SHIFT) & InstructionFlags.LABEL_MASK == 5
    assert not flags & InstructionFlags.EXECUTED


def test_executed_bit_round_trip():
    instr = Instruction(Opcode.NOP).with_executed()
    assert instr.executed
    decoded = Instruction.from_bytes(int(Opcode.NOP), instr.flag_byte())
    assert decoded.executed


def test_operand_rejected_on_non_operand_opcode():
    with pytest.raises(ValueError):
        Instruction(Opcode.MEM_READ, operand=1)


def test_operand_range_enforced():
    with pytest.raises(ValueError):
        Instruction(Opcode.MBR_LOAD, operand=8)


def test_label_range_enforced():
    with pytest.raises(ValueError):
        Instruction(Opcode.CJUMP, label=16)


def test_branch_label_is_destination():
    instr = Instruction(Opcode.CJUMP, label=2)
    assert instr.is_branch
    assert not instr.is_label_target


def test_non_branch_label_marks_target():
    instr = Instruction(Opcode.NOP, label=2)
    assert not instr.is_branch
    assert instr.is_label_target


def test_str_rendering():
    assert str(Instruction(Opcode.MBR_LOAD, operand=1)) == "MBR_LOAD $1"
    assert str(Instruction(Opcode.CJUMP, label=3)) == "CJUMP @L3"
    assert str(Instruction(Opcode.NOP, label=3)) == "L3: NOP"


@st.composite
def instructions(draw):
    opcode = draw(st.sampled_from(sorted(Opcode, key=int)))
    if opcode is Opcode.EOF:
        opcode = Opcode.NOP
    operand = draw(st.integers(0, 7)) if opcode in OPERAND_OPCODES else 0
    label = draw(st.integers(0, 15))
    if opcode in BRANCH_OPCODES and label == 0:
        label = 1
    return Instruction(opcode, operand=operand, label=label)


@given(instructions())
def test_byte_round_trip(instr):
    decoded = Instruction.from_bytes(int(instr.opcode), instr.flag_byte())
    assert decoded == instr


@given(instructions())
def test_with_executed_preserves_everything_else(instr):
    done = instr.with_executed()
    assert done.opcode == instr.opcode
    assert done.operand == instr.operand
    assert done.label == instr.label
    assert done.executed


# ----------------------------------------------------------------------
# Interned decoding
# ----------------------------------------------------------------------


@given(instructions())
def test_decoding_is_interned_but_values_are_unchanged(instr):
    wire = int(instr.opcode), instr.flag_byte()
    decoded = Instruction.from_bytes(*wire)
    assert decoded is Instruction.from_bytes(*wire)
    done = Instruction.from_bytes(wire[0], wire[1] | InstructionFlags.EXECUTED)
    assert done is decoded.with_executed() is instr.with_executed()
    assert done.with_executed() is done
    # Identity is all that changed: still value-equal to a fresh object.
    assert decoded == instr and hash(decoded) == hash(instr)
    assert done == Instruction(instr.opcode, instr.operand, instr.label, True)
    assert decoded.key == instr.key == done.key


def test_interned_instruction_stays_frozen():
    instr = Instruction.from_bytes(int(Opcode.NOP), 0)
    with pytest.raises(AttributeError):
        instr.label = 3


def test_key_is_a_function_of_opcode_operand_label_only():
    seen = {}
    for opcode in Opcode:
        for operand in range(8 if opcode in OPERAND_OPCODES else 1):
            for label in range(16):
                if label and opcode in BRANCH_OPCODES and opcode in OPERAND_OPCODES:
                    continue
                instr = Instruction(opcode, operand, label)
                assert seen.setdefault(instr.key, instr) == instr
                assert instr.with_executed().key == instr.key


@pytest.mark.parametrize("opcode_byte, flag_byte", [(0x99, 0), (0xFF, 0x85), (0x05, 1)])
def test_decode_failures_raise_every_time(opcode_byte, flag_byte):
    for _ in range(2):  # a failure must not be memoised as a success
        with pytest.raises(ValueError, match="not a valid Opcode"):
            Instruction.from_bytes(opcode_byte, flag_byte)


def test_operand_bits_of_operandless_opcodes_are_ignored():
    assert Instruction.from_bytes(int(Opcode.NOP), 0x05) == Instruction(Opcode.NOP)
