"""The logical pipeline: sequential execution with recirculation.

Program execution proceeds one instruction per stage (Section 3.1);
programs longer than the pipeline recirculate, consuming additional
passes.  The pipeline also realizes FORK cloning (the clone costs a
recirculation) and accounts the recirculation charged when RTS or
SET_DST fires in the egress half (ports cannot change at egress).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional, Set, Tuple

from repro.packets.codec import ActivePacket
from repro.packets.headers import ControlFlags
from repro.switchsim.config import SwitchConfig
from repro.switchsim.phv import Phv
from repro.switchsim.progcache import ProgramCache
from repro.switchsim.registers import RegisterArray
from repro.switchsim.stage import MatchActionStage
from repro.switchsim.tables import StageTable


class PacketDisposition(enum.Enum):
    """Fate of a packet after pipeline execution."""

    FORWARD = "forward"  # send toward the resolved destination
    RETURN_TO_SENDER = "rts"  # send back out the arrival port
    DROP = "drop"  # intentionally dropped (DROP instruction)
    FAULT = "fault"  # protection/decode fault or budget exhaustion


@dataclasses.dataclass
class ExecutionResult:
    """Outcome of running one packet through the pipeline.

    Attributes:
        packet: the (mutated) packet.
        phv: final PHV state (useful for tests and diagnostics).
        disposition: what the switch should do with the packet.
        passes: pipeline passes consumed (1 = no recirculation).
        recirculations: recirculations charged, including the extra one
            for egress-half port changes.
        clones: results for FORK-created clones, in creation order (a tuple).
        executed_instructions: instruction headers actually executed
            (skipped branch arms and never-reached tails excluded).
    """

    packet: ActivePacket
    phv: Phv
    disposition: PacketDisposition
    passes: int = 1
    recirculations: int = 0
    clones: Tuple["ExecutionResult", ...] = ()
    executed_instructions: int = 0


class Pipeline:
    """The 20-stage logical pipeline of the ActiveRMT runtime."""

    def __init__(self, config: Optional[SwitchConfig] = None) -> None:
        self.config = config or SwitchConfig()
        #: The table epoch, advanced by every stage table's every mutation
        #: (see :class:`StageTable`): one cell the tables share.
        self.table_epoch = [0]
        self.stages: List[MatchActionStage] = [
            MatchActionStage(
                index=stage,
                is_ingress=self.config.is_ingress(stage),
                table=StageTable(self.config.tcam_entries_per_stage, self.table_epoch),
                registers=RegisterArray(self.config.words_per_stage),
            )
            for stage in range(1, self.config.num_stages + 1)
        ]
        self.deactivated_fids: Set[int] = set()
        self.drops = 0
        self.faults = 0
        self.total_recirculations = 0
        #: Hot-path decode/trace cache; None when disabled via config.
        self.program_cache: Optional[ProgramCache] = (
            ProgramCache(self, self.config.program_cache_entries)
            if self.config.program_cache_entries > 0
            else None
        )

    # ------------------------------------------------------------------

    def stage(self, physical_stage: int) -> MatchActionStage:
        """1-indexed physical stage accessor."""
        return self.stages[physical_stage - 1]

    def deactivate_fid(self, fid: int) -> None:
        """Suspend active processing for *fid* (Section 4.3 realloc)."""
        self.deactivated_fids.add(fid)

    def reactivate_fid(self, fid: int) -> None:
        self.deactivated_fids.discard(fid)

    def is_active(self, fid: int) -> bool:
        return fid not in self.deactivated_fids

    def invalidate_program_cache(self, fid: Optional[int] = None) -> int:
        """Flush cached schedules for *fid* (or everything when None).

        Called by the controller's table updater whenever a FID's match
        tables are rewritten; returns the number of entries dropped.
        """
        if self.program_cache is None:
            return 0
        if fid is None:
            return self.program_cache.invalidate_all()
        return self.program_cache.invalidate_fid(fid)

    # ------------------------------------------------------------------

    def execute(self, packet: ActivePacket) -> ExecutionResult:
        """Run an active-program packet through the pipeline.

        Deactivated FIDs bypass execution entirely: the packet is
        forwarded unprocessed, which is how reallocation avoids
        inconsistent memory views while the client snapshots state.
        """
        initial = packet.initial
        if initial.fid in self.deactivated_fids:
            return ExecutionResult(
                packet=packet,
                phv=Phv(),
                disposition=PacketDisposition.FORWARD,
            )
        phv = Phv()
        if initial.flags & ControlFlags.PRELOAD:
            # Appendix C "preloading": the parser seeds MAR/MBR/MBR2
            # from argument slots so stage-1 memory is reachable.
            phv.set_mar(packet.get_arg(2))
            phv.set_mbr(packet.get_arg(0))
            phv.set_mbr2(packet.get_arg(1))
        cache = self.program_cache
        if cache is not None:
            # The cached engine: the binding's generated program under the
            # binding's table operands, the same as _run for a packet
            # entering at pc 0 (clones resume mid-program in _run).
            binding = cache.entry_for(packet)
            return binding.program.run(self, packet, phv, binding.args)
        return self._run(packet, phv)

    # ------------------------------------------------------------------

    def _run(self, packet: ActivePacket, phv: Phv) -> ExecutionResult:
        clones: Tuple[ExecutionResult, ...] = ()
        executed = 0
        max_passes = 1 + self.config.max_recirculations
        instructions = packet.instructions
        while not phv.complete and not phv.drop and phv.pc < len(instructions):
            if phv.passes > max_passes:
                phv.fault(
                    f"recirculation budget exhausted after {max_passes} passes"
                )
                break
            physical = self.config.physical_stage(phv.logical_stage)
            stage = self.stage(physical)
            instr = instructions[phv.pc]
            was_disabled = phv.disabled
            stage.execute(instr, phv, packet)
            if phv.faulted:
                break
            if not was_disabled or not phv.disabled:
                executed += 1
            if phv.fork_requested:
                phv.fork_requested = False
                # The clone carries this header's mark.
                packet.executed = max(packet.executed, phv.pc + 1)
                clones += (self._fork(packet, phv),)
            phv.pc += 1
            phv.logical_stage += 1
            phv.passes = self.config.pass_of(phv.logical_stage) + phv.pass_offset
        # Mark the consumed headers so the deparser can shrink the
        # packet; skipped branch arms are dead and shrink too.
        packet.executed = max(packet.executed, phv.pc)
        return self._finish(packet, phv, clones, executed)

    def _finish(
        self,
        packet: ActivePacket,
        phv: Phv,
        clones: Tuple[ExecutionResult, ...],
        executed: int,
    ) -> ExecutionResult:
        """Account one finished packet -- the original or a clone.

        Every result of a FORK tree passes through here exactly once, so
        the pipeline totals cover clones of clones too.
        """
        if phv.faulted:
            disposition = PacketDisposition.FAULT
            self.faults += 1
        elif phv.drop:
            disposition = PacketDisposition.DROP
            self.drops += 1
        elif phv.rts_taken:
            disposition = PacketDisposition.RETURN_TO_SENDER
        else:
            disposition = PacketDisposition.FORWARD
        passes = phv.passes
        recirculations = passes if phv.rts_at_egress else passes - 1
        self.total_recirculations += recirculations
        return ExecutionResult(
            packet, phv, disposition, passes, recirculations, clones, executed
        )

    def _fork(self, packet: ActivePacket, phv: Phv) -> ExecutionResult:
        """Clone the packet; the clone resumes on a recirculated pass."""
        clone_packet = packet.clone()
        clone_phv = Phv(
            mar=phv.mar,
            mbr=phv.mbr,
            mbr2=phv.mbr2,
            inc=phv.inc,
            hashdata=phv.hashdata,
            pc=phv.pc + 1,
            logical_stage=phv.logical_stage + 1,
            # Cloned packets always recirculate (Section 3.1): charge
            # the clone one extra pass up front.
            pass_offset=phv.pass_offset + 1,
        )
        clone_phv.passes = (
            self.config.pass_of(clone_phv.logical_stage) + clone_phv.pass_offset
        )
        return self._run(clone_packet, clone_phv)
