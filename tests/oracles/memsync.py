"""The memory-sync packet builders as of commit bb9cf6a (the packet carries
its program as wire words), kept verbatim as an oracle.

Each call pads an ``Instruction`` list to the target stage and encodes
it; the builders in :mod:`repro.client.memsync` now reuse one program
per packet shape instead, and ``tests/test_client_shim_memsync.py``
checks them against these byte for byte, refusals included.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.client.memsync import (
    ADDRESS_SLOT,
    MULTI_READ_MAX_STAGES,
    VALUE_SLOT,
    MemSyncError,
)
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.packets.codec import ActivePacket
from repro.packets.ethernet import MacAddress
from repro.packets.headers import ControlFlags


def _pad_to_stage(instructions: List[Instruction], target_position: int) -> None:
    """Append NOPs so the next instruction lands at *target_position*."""
    while len(instructions) + 1 < target_position:
        instructions.append(Instruction(Opcode.NOP))


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
    packet = ActivePacket.program(
        src=src,
        dst=dst,
        fid=fid,
        instructions=instructions,
        args=[0, 0, address, 0],
        seq=seq,
        flags=flags,
    )
    return packet


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
    return ActivePacket.program(
        src=src,
        dst=dst,
        fid=fid,
        instructions=instructions,
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
    ordered = sorted(set(stages))
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
                f"stages {ordered} too tightly packed for one packet"
            )
        _pad_to_stage(instructions, stage)
        instructions.append(Instruction(Opcode.MEM_READ))
        instructions.append(Instruction(Opcode.MBR_STORE, operand=slots[index]))
    instructions.append(Instruction(Opcode.RTS))
    instructions.append(Instruction(Opcode.RETURN))
    return ActivePacket.program(
        src=src,
        dst=dst,
        fid=fid,
        instructions=instructions,
        args=[0, 0, address, 0, 0, 0, 0, 0],
        seq=seq,
        flags=flags,
    )
