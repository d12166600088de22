"""A match-action stage: decode one instruction and run its primitive.

A stage owns its match table (decode + protection), its register array
(stateful memory pool), and its hash unit.  ``execute`` performs what
one physical stage does to one packet: consume exactly one instruction
header, matching on (FID, opcode, MAR, control flags) and invoking the
corresponding P4 action (Section 3.1, Figure 2).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.packets.codec import ActivePacket
from repro.switchsim.hashing import hash_engine
from repro.switchsim.phv import Phv
from repro.switchsim.registers import RegisterArray
from repro.switchsim.tables import StageTable


class MatchActionStage:
    """One physical stage of the ActiveRMT pipeline."""

    def __init__(
        self,
        index: int,
        is_ingress: bool,
        table: StageTable,
        registers: RegisterArray,
    ) -> None:
        self.index = index
        self.is_ingress = is_ingress
        self.table = table
        self.registers = registers

    # ------------------------------------------------------------------

    def execute(self, instr: Instruction, phv: Phv, packet: ActivePacket) -> None:
        """Process one instruction header in this stage.

        Handles branch-skip state, then dispatches to the primitive.
        Mutates *phv*, *packet* and (for memory opcodes) this stage's
        register array.  Faults are recorded on the PHV.
        """
        if phv.disabled:
            # Skipped instructions still consume the stage; execution
            # resumes at (and including) the pending label (Section 3.1).
            if not phv.maybe_end_skip(instr.label if not instr.is_branch else 0):
                return
        self._dispatch(instr, phv, packet)

    # ------------------------------------------------------------------

    def _dispatch(self, instr: Instruction, phv: Phv, packet: ActivePacket) -> None:
        op = instr.opcode
        handler = _HANDLERS.get(op)
        if handler is None:
            phv.fault(f"stage {self.index}: no decode entry for {op.name}")
            return
        handler(self, instr, phv, packet)

    # --- special ------------------------------------------------------

    def _op_nop(self, instr, phv, packet) -> None:
        return None

    def _translation(self, packet: ActivePacket) -> Optional[Tuple[int, int]]:
        """Resolve the (mask, offset) operand for address translation.

        Prefers an explicit translation entry (installed by the
        controller at the stages where ADDR_MASK/ADDR_OFFSET execute);
        falls back to this stage's own grant, whose mask/offset describe
        its own region.
        """
        pair = self.table.translation_for(packet.fid)
        if pair is not None:
            return pair
        grant = self.table.grant_for(packet.fid)
        if grant is not None:
            return grant.mask, grant.offset
        return None

    def _op_addr_mask(self, instr, phv, packet) -> None:
        pair = self._translation(packet)
        if pair is None:
            phv.fault(f"stage {self.index}: ADDR_MASK without translation")
            return
        phv.set_mar(phv.mar & pair[0])

    def _op_addr_offset(self, instr, phv, packet) -> None:
        pair = self._translation(packet)
        if pair is None:
            phv.fault(f"stage {self.index}: ADDR_OFFSET without translation")
            return
        phv.set_mar(phv.mar + pair[1])

    def _op_hash(self, instr, phv, packet) -> None:
        engine = hash_engine(instr.operand)
        phv.set_mar(engine.digest(phv.hashdata))

    # --- data copy ----------------------------------------------------

    def _op_mbr_load(self, instr, phv, packet) -> None:
        phv.set_mbr(packet.get_arg(instr.operand))

    def _op_mbr_store(self, instr, phv, packet) -> None:
        packet.set_arg(instr.operand, phv.mbr)

    def _op_mbr2_load(self, instr, phv, packet) -> None:
        phv.set_mbr2(packet.get_arg(instr.operand))

    def _op_mar_load(self, instr, phv, packet) -> None:
        phv.set_mar(packet.get_arg(instr.operand))

    def _op_copy_mbr_mbr2(self, instr, phv, packet) -> None:
        phv.set_mbr(phv.mbr2)

    def _op_copy_mbr2_mbr(self, instr, phv, packet) -> None:
        phv.set_mbr2(phv.mbr)

    def _op_copy_mar_mbr(self, instr, phv, packet) -> None:
        phv.set_mar(phv.mbr)

    def _op_copy_mbr_mar(self, instr, phv, packet) -> None:
        phv.set_mbr(phv.mar)

    def _op_copy_hashdata_mbr(self, instr, phv, packet) -> None:
        phv.push_hashdata(phv.mbr)

    def _op_copy_hashdata_mbr2(self, instr, phv, packet) -> None:
        phv.push_hashdata(phv.mbr2)

    # --- data manipulation --------------------------------------------

    def _op_mbr_add_mbr2(self, instr, phv, packet) -> None:
        phv.set_mbr(phv.mbr + phv.mbr2)

    def _op_mar_add_mbr(self, instr, phv, packet) -> None:
        phv.set_mar(phv.mar + phv.mbr)

    def _op_mar_add_mbr2(self, instr, phv, packet) -> None:
        phv.set_mar(phv.mar + phv.mbr2)

    def _op_mar_mbr_add_mbr2(self, instr, phv, packet) -> None:
        phv.set_mar(phv.mbr + phv.mbr2)

    def _op_mbr_subtract_mbr2(self, instr, phv, packet) -> None:
        phv.set_mbr(phv.mbr - phv.mbr2)

    def _op_bit_and_mar_mbr(self, instr, phv, packet) -> None:
        phv.set_mar(phv.mar & phv.mbr)

    def _op_bit_or_mbr_mbr2(self, instr, phv, packet) -> None:
        phv.set_mbr(phv.mbr | phv.mbr2)

    def _op_mbr_equals_mbr2(self, instr, phv, packet) -> None:
        phv.set_mbr(phv.mbr ^ phv.mbr2)

    def _op_mbr_equals_data_1(self, instr, phv, packet) -> None:
        phv.set_mbr(phv.mbr ^ packet.get_arg(0))

    def _op_mbr_equals_data_2(self, instr, phv, packet) -> None:
        phv.set_mbr(phv.mbr ^ packet.get_arg(1))

    def _op_max(self, instr, phv, packet) -> None:
        phv.set_mbr(max(phv.mbr, phv.mbr2))

    def _op_min(self, instr, phv, packet) -> None:
        phv.set_mbr(min(phv.mbr, phv.mbr2))

    def _op_revmin(self, instr, phv, packet) -> None:
        phv.set_mbr2(min(phv.mbr, phv.mbr2))

    def _op_swap(self, instr, phv, packet) -> None:
        phv.mbr, phv.mbr2 = phv.mbr2, phv.mbr

    def _op_mbr_not(self, instr, phv, packet) -> None:
        phv.set_mbr(~phv.mbr)

    # --- control flow ---------------------------------------------------

    def _op_return(self, instr, phv, packet) -> None:
        phv.mark_complete()

    def _op_cret(self, instr, phv, packet) -> None:
        if phv.mbr != 0:
            phv.mark_complete()

    def _op_creti(self, instr, phv, packet) -> None:
        if phv.mbr == 0:
            phv.mark_complete()

    def _op_cjump(self, instr, phv, packet) -> None:
        if phv.mbr != 0:
            phv.begin_skip(instr.label)

    def _op_cjumpi(self, instr, phv, packet) -> None:
        if phv.mbr == 0:
            phv.begin_skip(instr.label)

    def _op_ujump(self, instr, phv, packet) -> None:
        phv.begin_skip(instr.label)

    # --- memory access --------------------------------------------------

    def _authorized_index(self, phv: Phv, packet: ActivePacket) -> Optional[int]:
        """TCAM range match on MAR; fault the packet on violation."""
        if not self.table.authorize(packet.fid, phv.mar):
            phv.fault(
                f"stage {self.index}: fid {packet.fid} denied access to "
                f"index {phv.mar}"
            )
            return None
        return phv.mar

    def _op_mem_read(self, instr, phv, packet) -> None:
        index = self._authorized_index(phv, packet)
        if index is not None:
            phv.set_mbr(self.registers.read(index))

    def _op_mem_write(self, instr, phv, packet) -> None:
        index = self._authorized_index(phv, packet)
        if index is not None:
            self.registers.write(index, phv.mbr)

    def _op_mem_increment(self, instr, phv, packet) -> None:
        index = self._authorized_index(phv, packet)
        if index is not None:
            phv.set_mbr(self.registers.increment(index, phv.inc))

    def _op_mem_minread(self, instr, phv, packet) -> None:
        index = self._authorized_index(phv, packet)
        if index is not None:
            phv.set_mbr(self.registers.min_read(index, phv.mbr))

    def _op_mem_minreadinc(self, instr, phv, packet) -> None:
        index = self._authorized_index(phv, packet)
        if index is not None:
            count, running_min = self.registers.min_read_increment(
                index, phv.mbr2, phv.inc
            )
            phv.set_mbr(count)
            phv.set_mbr2(running_min)

    # --- forwarding -----------------------------------------------------

    def _op_drop(self, instr, phv, packet) -> None:
        phv.drop = True
        phv.mark_complete()

    def _op_fork(self, instr, phv, packet) -> None:
        phv.fork_requested = True

    def _op_set_dst(self, instr, phv, packet) -> None:
        phv.dst_override = phv.mbr & 0xFFFF
        if not self.is_ingress:
            phv.rts_at_egress = True  # port changes at egress recirculate

    def _do_rts(self, phv: Phv, packet: ActivePacket) -> None:
        phv.rts_taken = True
        if not self.is_ingress:
            phv.rts_at_egress = True
        packet.return_to_sender()

    def _op_rts(self, instr, phv, packet) -> None:
        self._do_rts(phv, packet)

    def _op_crts(self, instr, phv, packet) -> None:
        if phv.mbr != 0:
            self._do_rts(phv, packet)


_HANDLERS = {
    Opcode.NOP: MatchActionStage._op_nop,
    Opcode.ADDR_MASK: MatchActionStage._op_addr_mask,
    Opcode.ADDR_OFFSET: MatchActionStage._op_addr_offset,
    Opcode.HASH: MatchActionStage._op_hash,
    Opcode.MBR_LOAD: MatchActionStage._op_mbr_load,
    Opcode.MBR_STORE: MatchActionStage._op_mbr_store,
    Opcode.MBR2_LOAD: MatchActionStage._op_mbr2_load,
    Opcode.MAR_LOAD: MatchActionStage._op_mar_load,
    Opcode.COPY_MBR_MBR2: MatchActionStage._op_copy_mbr_mbr2,
    Opcode.COPY_MBR2_MBR: MatchActionStage._op_copy_mbr2_mbr,
    Opcode.COPY_MAR_MBR: MatchActionStage._op_copy_mar_mbr,
    Opcode.COPY_MBR_MAR: MatchActionStage._op_copy_mbr_mar,
    Opcode.COPY_HASHDATA_MBR: MatchActionStage._op_copy_hashdata_mbr,
    Opcode.COPY_HASHDATA_MBR2: MatchActionStage._op_copy_hashdata_mbr2,
    Opcode.MBR_ADD_MBR2: MatchActionStage._op_mbr_add_mbr2,
    Opcode.MAR_ADD_MBR: MatchActionStage._op_mar_add_mbr,
    Opcode.MAR_ADD_MBR2: MatchActionStage._op_mar_add_mbr2,
    Opcode.MAR_MBR_ADD_MBR2: MatchActionStage._op_mar_mbr_add_mbr2,
    Opcode.MBR_SUBTRACT_MBR2: MatchActionStage._op_mbr_subtract_mbr2,
    Opcode.BIT_AND_MAR_MBR: MatchActionStage._op_bit_and_mar_mbr,
    Opcode.BIT_OR_MBR_MBR2: MatchActionStage._op_bit_or_mbr_mbr2,
    Opcode.MBR_EQUALS_MBR2: MatchActionStage._op_mbr_equals_mbr2,
    Opcode.MBR_EQUALS_DATA_1: MatchActionStage._op_mbr_equals_data_1,
    Opcode.MBR_EQUALS_DATA_2: MatchActionStage._op_mbr_equals_data_2,
    Opcode.MAX: MatchActionStage._op_max,
    Opcode.MIN: MatchActionStage._op_min,
    Opcode.REVMIN: MatchActionStage._op_revmin,
    Opcode.SWAP_MBR_MBR2: MatchActionStage._op_swap,
    Opcode.MBR_NOT: MatchActionStage._op_mbr_not,
    Opcode.RETURN: MatchActionStage._op_return,
    Opcode.CRET: MatchActionStage._op_cret,
    Opcode.CRETI: MatchActionStage._op_creti,
    Opcode.CJUMP: MatchActionStage._op_cjump,
    Opcode.CJUMPI: MatchActionStage._op_cjumpi,
    Opcode.UJUMP: MatchActionStage._op_ujump,
    Opcode.MEM_READ: MatchActionStage._op_mem_read,
    Opcode.MEM_WRITE: MatchActionStage._op_mem_write,
    Opcode.MEM_INCREMENT: MatchActionStage._op_mem_increment,
    Opcode.MEM_MINREAD: MatchActionStage._op_mem_minread,
    Opcode.MEM_MINREADINC: MatchActionStage._op_mem_minreadinc,
    Opcode.DROP: MatchActionStage._op_drop,
    Opcode.FORK: MatchActionStage._op_fork,
    Opcode.SET_DST: MatchActionStage._op_set_dst,
    Opcode.RTS: MatchActionStage._op_rts,
    Opcode.CRTS: MatchActionStage._op_crts,
}
