"""Byte-level encoding of instruction sequences (Section 3.3).

Each instruction occupies two bytes (opcode, flag); a program is
terminated by an ``EOF`` header (opcode 0, flag 0).  Instructions whose
EXECUTED bit is set are *discarded* when decoding a packet that has
traversed the switch with shrinking enabled -- the switch encoder simply
omits them, mirroring the parser-driven shrink optimization.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from repro.isa.instructions import INTERNED, Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import ActiveProgram

#: Width of one instruction header in bytes.
INSTRUCTION_WIDTH = 2


class EncodingError(ValueError):
    """Raised on malformed instruction byte streams."""


def encode_instructions(
    instructions: Sequence[Instruction], shrink: bool = False
) -> bytes:
    """Encode instructions followed by the EOF marker, in one pack.

    Args:
        instructions: the instruction sequence.
        shrink: drop instructions whose EXECUTED bit is set (the packet
            shrinking optimization of Section 3.1).
    """
    if shrink:  # what is left is unexecuted: each word is its key
        words = [instr.key for instr in instructions if not instr.executed]
    else:
        words = [instr.word for instr in instructions]
    return struct.pack(f">{len(words) + 1}H", *words, Opcode.EOF)


def encode_program(program: ActiveProgram, shrink: bool = False) -> bytes:
    """Encode an :class:`ActiveProgram` to wire bytes (with EOF)."""
    return encode_instructions(program.instructions, shrink=shrink)


def decode_instructions(data: bytes, offset: int = 0) -> Tuple[List[Instruction], int]:
    """Decode the instructions starting at *offset*, until EOF.

    The EOF header is the first zero in the opcode stride; the words
    before it map through ``INTERNED`` in one comprehension.

    Returns:
        ``(instructions, consumed)`` where *consumed* counts the bytes
        read including the EOF marker.

    Raises:
        EncodingError: if the stream ends before EOF or contains an
            unknown opcode.
    """
    whole = max(len(data) - offset, 0) // INSTRUCTION_WIDTH
    eof = data[offset::INSTRUCTION_WIDTH].find(Opcode.EOF, 0, whole)
    count = whole if eof < 0 else eof
    words = struct.unpack_from(f">{count}H", data, offset) if count else ()
    try:
        instructions = [INTERNED[word] for word in words]
    except ValueError as exc:
        # Failures are never interned, and every word before the first
        # failure was: the first word missing from the memo is the culprit.
        at = next(index for index, word in enumerate(words) if word not in INTERNED)
        raise EncodingError(
            f"bad instruction at byte {at * INSTRUCTION_WIDTH}: {exc}"
        ) from exc
    if eof < 0:
        raise EncodingError("instruction stream truncated before EOF")
    return instructions, (eof + 1) * INSTRUCTION_WIDTH


def decode_program(data: bytes, name: str = "decoded") -> ActiveProgram:
    """Decode wire bytes into an :class:`ActiveProgram` (EOF required)."""
    instructions, _consumed = decode_instructions(data)
    if not instructions:
        raise EncodingError("empty program (EOF only)")
    return ActiveProgram(instructions, name=name)
