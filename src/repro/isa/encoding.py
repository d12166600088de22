"""Byte-level encoding of instruction sequences (Section 3.3).

Each instruction occupies two bytes (opcode, flag); a program is
terminated by an ``EOF`` header (opcode 0, flag 0).  Instructions whose
EXECUTED bit is set are *discarded* when decoding a packet that has
traversed the switch with shrinking enabled -- the switch encoder simply
omits them, mirroring the parser-driven shrink optimization.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.isa.instructions import INTERNED, Instruction, InstructionFlags
from repro.isa.opcodes import Opcode
from repro.isa.program import ActiveProgram

#: Width of one instruction header in bytes.
INSTRUCTION_WIDTH = 2

#: On-wire EOF marker.
EOF_BYTES = bytes((Opcode.EOF, 0))


class EncodingError(ValueError):
    """Raised on malformed instruction byte streams."""


def encode_instructions(
    instructions: Tuple[Instruction, ...], shrink: bool = False
) -> bytes:
    """Encode instructions followed by the EOF marker.

    Args:
        instructions: the instruction sequence.
        shrink: drop instructions whose EXECUTED bit is set (the packet
            shrinking optimization of Section 3.1).
    """
    out = bytearray()
    for instr in instructions:
        if shrink and instr.executed:
            continue
        out.append(int(instr.opcode))
        out.append(instr.flag_byte())
    out.extend(EOF_BYTES)
    return bytes(out)


def encode_program(program: ActiveProgram, shrink: bool = False) -> bytes:
    """Encode an :class:`ActiveProgram` to wire bytes (with EOF)."""
    return encode_instructions(program.instructions, shrink=shrink)


def decode_instructions(data: bytes, offset: int = 0) -> Tuple[List[Instruction], int]:
    """Decode the instructions starting at *offset*, until EOF.

    Returns:
        ``(instructions, consumed)`` where *consumed* counts the bytes
        read including the EOF marker.

    Raises:
        EncodingError: if the stream ends before EOF or contains an
            unknown opcode.
    """
    instructions: List[Instruction] = []
    semantic = InstructionFlags.SEMANTIC
    last = len(data) - INSTRUCTION_WIDTH
    pos = offset
    while pos <= last:
        opcode_byte = data[pos]
        if not opcode_byte:  # Opcode.EOF
            return instructions, pos + INSTRUCTION_WIDTH - offset
        flag_byte = data[pos + 1]
        try:
            pair = INTERNED[opcode_byte << 8 | flag_byte & semantic]
        except ValueError as exc:
            raise EncodingError(
                f"bad instruction at byte {pos - offset}: {exc}"
            ) from exc
        instructions.append(pair[flag_byte >> 7])
        pos += INSTRUCTION_WIDTH
    raise EncodingError("instruction stream truncated before EOF")


def decode_program(data: bytes, name: str = "decoded") -> ActiveProgram:
    """Decode wire bytes into an :class:`ActiveProgram` (EOF required)."""
    instructions, _consumed = decode_instructions(data)
    if not instructions:
        raise EncodingError("empty program (EOF only)")
    return ActiveProgram(instructions, name=name)
