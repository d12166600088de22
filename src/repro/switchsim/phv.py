"""The packet header vector carried through the pipeline.

ActiveRMT maintains three 32-bit variables in the PHV -- the memory
address register (MAR) and two general-purpose accumulators MBR and
MBR2 -- plus hash metadata, an increment operand, and the control flags
that drive sequential execution (``complete``, ``disabled``;
Section 3.1).  All arithmetic wraps at 32 bits like the ALUs it models.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

_MASK32 = 0xFFFFFFFF


def u32(value: int) -> int:
    """Truncate to an unsigned 32-bit value (ALU wrap-around)."""
    return value & _MASK32


@dataclasses.dataclass
class Phv:
    """Per-packet execution state (reset on every switch entry).

    Attributes:
        mar: memory address register.
        mbr: memory buffer register (primary accumulator).
        mbr2: secondary accumulator.
        inc: increment operand for ``MEM_INCREMENT``-family actions.
        hashdata: words fed to the hash unit by ``COPY_HASHDATA_*`` (a tuple).
        pc: index of the next instruction header to consume.
        complete: set by RETURN-family instructions; stops execution.
        disabled: true while skipping a not-taken branch arm.
        pending_label: the label that re-enables execution.
        logical_stage: 1-indexed logical stage about to execute.
        passes: pipeline passes consumed so far (1 = first pass).
        pass_offset: extra passes charged up front (FORK clones enter
            the pipeline via recirculation).
        rts_taken: an RTS/CRTS fired for this packet.
        rts_at_egress: the RTS fired in the egress half (costs one
            recirculation to change ports on a Tofino).
        drop: packet should be discarded.
        faulted: a protection or decode fault occurred (implies drop).
        fork_requested: a FORK fired in the current stage.
        dst_override: egress port chosen by SET_DST, if any.
    """

    mar: int = 0
    mbr: int = 0
    mbr2: int = 0
    inc: int = 1
    hashdata: Tuple[int, ...] = ()
    pc: int = 0
    complete: bool = False
    disabled: bool = False
    pending_label: int = 0
    logical_stage: int = 1
    passes: int = 1
    pass_offset: int = 0
    rts_taken: bool = False
    rts_at_egress: bool = False
    drop: bool = False
    faulted: bool = False
    fault_reason: str = ""
    fork_requested: bool = False
    dst_override: int = -1

    def set_mar(self, value: int) -> None:
        self.mar = u32(value)

    def set_mbr(self, value: int) -> None:
        self.mbr = u32(value)

    def set_mbr2(self, value: int) -> None:
        self.mbr2 = u32(value)

    def push_hashdata(self, value: int) -> None:
        self.hashdata += (u32(value),)

    def mark_complete(self) -> None:
        self.complete = True

    def fault(self, reason: str) -> None:
        """Record a fault; faulted packets are dropped by the runtime."""
        self.faulted = True
        self.drop = True
        self.fault_reason = reason

    def begin_skip(self, label: int) -> None:
        """Enter branch-skip mode until *label* is encountered."""
        self.disabled = True
        self.pending_label = label

    def maybe_end_skip(self, label: int) -> bool:
        """Leave skip mode if *label* matches; returns True if re-enabled."""
        if self.disabled and label and label == self.pending_label:
            self.disabled = False
            self.pending_label = 0
            return True
        return False
