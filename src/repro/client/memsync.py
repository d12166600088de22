"""RDMA-style remote memory access (Section 4.3, Appendix C).

Clients extract and restore switch state with active packets that read
or write specific register indices.  Reads reply via ``RTS`` so the
client observes success; failed packets are dropped and -- reads and
writes being idempotent -- can simply be retransmitted.

Packet layouts (argument slots):

- read:  slot 2 = physical word address; the value arrives in slot 0
  of the returned packet.
- write: slot 0 = value, slot 2 = physical word address.
- multi-read: slot 2 = shared word address; stage ``i``'s value comes
  back in slot ``i`` of the reply (stages must be sorted; at most 6 per
  packet given the 8-slot argument budget).

Stage-1 accesses use the PRELOAD flag (the compiler's "preloading"
trick) because a ``MAR_LOAD`` cannot precede a stage-1 access.  A
program depends only on its packet's shape, so each is built once.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Sequence, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import ActiveProgram
from repro.packets.codec import ActivePacket
from repro.packets.ethernet import MacAddress
from repro.packets.headers import ControlFlags


class MemSyncError(ValueError):
    """Raised for unbuildable memory-sync packets."""

#: Argument slot carrying the word address.
ADDRESS_SLOT = 2
#: Argument slot carrying the value (writes) / receiving it (reads).
VALUE_SLOT = 0
#: Maximum stages a multi-read can cover (slots 0..5; 2 is the address,
#: so stage results for slot 2's stage shadow the address -- we simply
#: cap at 6 and skip slot 2).
MULTI_READ_MAX_STAGES = 6
#: Packet shapes whose program is kept (see :func:`_template`).
_TEMPLATE_ENTRIES = 256


def _pad_to_stage(instructions: List[Instruction], target_position: int) -> None:
    """Append NOPs so the next instruction lands at *target_position*."""
    while len(instructions) + 1 < target_position:
        instructions.append(Instruction(Opcode.NOP))


@functools.lru_cache(maxsize=_TEMPLATE_ENTRIES)
def _template(
    listing: Callable[..., Tuple[List[Instruction], int]], *shape: Any
) -> Tuple[ActiveProgram, int]:
    """The program and initial-header flags of one packet shape.

    A memory-sync packet differs from the next only in its headers and
    arguments, so its program is built, and its wire words encoded,
    once per shape.  A shape the listing refuses raises and is not kept.
    """
    instructions, flags = listing(*shape)
    return ActiveProgram(instructions, name="memsync"), flags


def _read_listing(stage: int) -> Tuple[List[Instruction], int]:
    instructions: List[Instruction] = []
    flags = 0
    if stage == 1:
        flags |= ControlFlags.PRELOAD  # MAR preloaded from slot 2
    else:
        _pad_to_stage(instructions, stage - 1)
        instructions.append(Instruction(Opcode.MAR_LOAD, operand=ADDRESS_SLOT))
    _pad_to_stage(instructions, stage)
    instructions.append(Instruction(Opcode.MEM_READ))
    instructions.append(Instruction(Opcode.MBR_STORE, operand=VALUE_SLOT))
    instructions.append(Instruction(Opcode.RTS))
    instructions.append(Instruction(Opcode.RETURN))
    return instructions, flags


def _write_listing(stage: int, ack: bool) -> Tuple[List[Instruction], int]:
    instructions: List[Instruction] = []
    flags = 0
    if stage == 1:
        flags |= ControlFlags.PRELOAD  # MAR and MBR preloaded
    else:
        if stage == 2:
            # Only one slot before the access: preload MBR, load MAR.
            flags |= ControlFlags.PRELOAD
            instructions.append(
                Instruction(Opcode.MAR_LOAD, operand=ADDRESS_SLOT)
            )
        else:
            _pad_to_stage(instructions, stage - 2)
            instructions.append(Instruction(Opcode.MBR_LOAD, operand=VALUE_SLOT))
            instructions.append(Instruction(Opcode.MAR_LOAD, operand=ADDRESS_SLOT))
    _pad_to_stage(instructions, stage)
    instructions.append(Instruction(Opcode.MEM_WRITE))
    if ack:
        instructions.append(Instruction(Opcode.RTS))
    instructions.append(Instruction(Opcode.RETURN))
    return instructions, flags


def _multi_read_listing(*ordered: int) -> Tuple[List[Instruction], int]:
    if not ordered:
        raise MemSyncError("no stages requested")
    if len(ordered) > MULTI_READ_MAX_STAGES:
        raise MemSyncError(
            f"{len(ordered)} stages exceed the per-packet limit "
            f"({MULTI_READ_MAX_STAGES})"
        )
    slots = [slot for slot in range(8) if slot != ADDRESS_SLOT]
    instructions: List[Instruction] = []
    flags = 0
    if ordered[0] <= 2:
        flags |= ControlFlags.PRELOAD
    else:
        _pad_to_stage(instructions, ordered[0] - 1)
        instructions.append(Instruction(Opcode.MAR_LOAD, operand=ADDRESS_SLOT))
    for index, stage in enumerate(ordered):
        # MEM_READ at `stage`, MBR_STORE right after; both consume
        # stages, so consecutive targets need a gap of >= 2.
        if instructions and len(instructions) + 1 > stage:
            raise MemSyncError(
                f"stages {list(ordered)} too tightly packed for one packet"
            )
        _pad_to_stage(instructions, stage)
        instructions.append(Instruction(Opcode.MEM_READ))
        instructions.append(Instruction(Opcode.MBR_STORE, operand=slots[index]))
    instructions.append(Instruction(Opcode.RTS))
    instructions.append(Instruction(Opcode.RETURN))
    return instructions, flags


def build_read_packet(
    src: MacAddress,
    dst: MacAddress,
    fid: int,
    stage: int,
    address: int,
    seq: int = 0,
) -> ActivePacket:
    """A Listing-5 style packet reading ``stage[address]``.

    The reply (RTS'd back to *src*) carries the value in slot 0.
    """
    if stage < 1:
        raise MemSyncError(f"stage {stage} out of range")
    program, flags = _template(_read_listing, stage)
    return ActivePacket.program(
        src=src,
        dst=dst,
        fid=fid,
        instructions=program,
        args=[0, 0, address, 0],
        seq=seq,
        flags=flags,
    )


def build_write_packet(
    src: MacAddress,
    dst: MacAddress,
    fid: int,
    stage: int,
    address: int,
    value: int,
    seq: int = 0,
    ack: bool = True,
) -> ActivePacket:
    """A Listing-6 style packet writing ``stage[address] = value``.

    With *ack* (the default) the packet returns to the sender after the
    write so the client can confirm success (Section 4.3).
    """
    if stage < 1:
        raise MemSyncError(f"stage {stage} out of range")
    program, flags = _template(_write_listing, stage, ack)
    return ActivePacket.program(
        src=src,
        dst=dst,
        fid=fid,
        instructions=program,
        args=[value, 0, address, 0],
        seq=seq,
        flags=flags,
    )


def build_multi_read_packet(
    src: MacAddress,
    dst: MacAddress,
    fid: int,
    stages: Sequence[int],
    address: int,
    seq: int = 0,
) -> ActivePacket:
    """Read the same word index from several stages in one packet.

    This is the bulk state-extraction primitive of Section 4.3; the
    value read in the i-th requested stage returns in argument slot i
    (slot 2 skipped -- it carries the address).
    """
    program, flags = _template(_multi_read_listing, *sorted(set(stages)))
    return ActivePacket.program(
        src=src,
        dst=dst,
        fid=fid,
        instructions=program,
        args=[0, 0, address, 0, 0, 0, 0, 0],
        seq=seq,
        flags=flags,
    )


def multi_read_slots(count: int) -> List[int]:
    """Argument slots carrying the results of a multi-read, in stage order."""
    if count > MULTI_READ_MAX_STAGES:
        raise MemSyncError(f"{count} stages exceed the per-packet limit")
    return [slot for slot in range(8) if slot != ADDRESS_SLOT][:count]


def extract_read_value(reply: ActivePacket, slot: int = VALUE_SLOT) -> int:
    """Pull the value out of a returned read packet."""
    if not reply.has_flag(ControlFlags.FROM_SWITCH):
        raise MemSyncError("reply did not come back from the switch")
    return reply.get_arg(slot)
