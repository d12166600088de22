"""Instruction headers: the 2-byte on-wire unit of an active program.

Each instruction header consists of a one-byte opcode and a one-byte
flag (Section 3.3).  The flag byte is packed as::

    bit 7      EXECUTED   set by the switch once the instruction has run;
                          tells the parser to discard the field (packet
                          shrinking, Section 3.1)
    bits 6..3  LABEL      label id (1-15, 0 = none).  For branch opcodes
                          this is the *destination* label; for any other
                          opcode it marks the instruction as the *target*
                          of that label.
    bits 2..0  OPERAND    argument-slot index for LOAD/STORE/hashdata
                          opcodes (0-7)

The split keeps the header at the paper's two bytes while supporting the
branch labelling and argument addressing the listings require.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.isa.opcodes import (
    Opcode,
    is_branch,
    has_operand,
)


class InstructionFlags:
    """Bit layout of the instruction flag byte."""

    EXECUTED = 0x80
    LABEL_SHIFT = 3
    LABEL_MASK = 0x0F
    OPERAND_MASK = 0x07

    MAX_LABEL = LABEL_MASK
    MAX_OPERAND = OPERAND_MASK


@dataclasses.dataclass(frozen=True)
class Instruction:
    """A single decoded active instruction.

    Attributes:
        opcode: the operation to perform.
        operand: argument-slot index for operand-taking opcodes.
        label: label id.  Destination label for branches; own label (as a
            branch target) for other opcodes.  Zero means "no label".
        executed: mirror of the on-wire EXECUTED bit; only meaningful on
            instructions decoded from a packet that already traversed the
            switch.
        key: the two wire bytes as one int, EXECUTED masked out -- a
            pure function of ``(opcode, operand, label)``, precomputed
            because the program cache digests every packet with it.
    """

    opcode: Opcode
    operand: int = 0
    label: int = 0
    executed: bool = False
    key: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.operand <= InstructionFlags.MAX_OPERAND:
            raise ValueError(f"operand {self.operand} out of range 0..7")
        if not 0 <= self.label <= InstructionFlags.MAX_LABEL:
            raise ValueError(f"label {self.label} out of range 0..15")
        if self.operand and not has_operand(self.opcode):
            raise ValueError(f"{self.opcode.name} does not take an operand")
        if self.label and is_branch(self.opcode) and has_operand(self.opcode):
            raise ValueError("branch opcodes cannot take operands")
        object.__setattr__(
            self,
            "key",
            self.opcode << 8 | self.label << InstructionFlags.LABEL_SHIFT | self.operand,
        )

    @property
    def is_branch(self) -> bool:
        """True if this instruction's label is a jump destination."""
        return is_branch(self.opcode)

    @property
    def is_label_target(self) -> bool:
        """True if this instruction is the target of a branch label."""
        return bool(self.label) and not is_branch(self.opcode)

    @property
    def word(self) -> int:
        """The two wire bytes as one int: ``key`` plus the EXECUTED bit.

        ``flag_byte``, the encoder and the ``INTERNED`` keys all read it;
        computed, as a stored field grew peak memory measurably.
        """
        return self.key | InstructionFlags.EXECUTED * self.executed

    def flag_byte(self) -> int:
        """The on-wire flag byte: operand, label and EXECUTED."""
        return self.word & 0xFF

    @classmethod
    def from_bytes(cls, opcode_byte: int, flag_byte: int) -> "Instruction":
        """Decode an instruction from its two on-wire bytes.

        Decoded instructions are interned: the same two bytes yield the
        same immutable object (failures raise every time).
        """
        return INTERNED[opcode_byte << 8 | flag_byte]

    def with_executed(self) -> "Instruction":
        """The interned twin of this instruction with EXECUTED set."""
        return INTERNED[self.key | InstructionFlags.EXECUTED]

    def __str__(self) -> str:
        parts = [self.opcode.name]
        if has_operand(self.opcode) and self.operand:
            parts.append(f"${self.operand}")
        if self.is_branch and self.label:
            parts.append(f"@L{self.label}")
        text = " ".join(parts)
        if self.is_label_target:
            text = f"L{self.label}: {text}"
        return text


class _Interned(Dict[int, Instruction]):
    """``Instruction.word`` -> its immutable Instruction, built on first sight.

    Keys are the 16 wire bits, EXECUTED included (operand bits of
    opcodes that take none are ignored, as on the wire).  A pattern
    that fails validation raises and is never stored.
    """

    def __missing__(self, word: int) -> Instruction:
        opcode = Opcode(word >> 8)
        operand = word & InstructionFlags.OPERAND_MASK if has_operand(opcode) else 0
        label = (word >> InstructionFlags.LABEL_SHIFT) & InstructionFlags.LABEL_MASK
        executed = bool(word & InstructionFlags.EXECUTED)
        # setdefault: two threads racing here still agree on one object.
        return self.setdefault(word, Instruction(opcode, operand, label, executed))


#: The one instruction memo: ``from_bytes``, ``with_executed`` and the
#: stream decoder all read it, so equal instructions decoded from the
#: wire are one object.
INTERNED = _Interned()
