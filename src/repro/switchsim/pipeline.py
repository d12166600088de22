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
from typing import List, Optional, Set

from repro.packets.codec import ActivePacket
from repro.packets.headers import ControlFlags
from repro.switchsim.config import SwitchConfig
from repro.switchsim.hashing import stage_hash_unit
from repro.switchsim.phv import Phv
from repro.switchsim.progcache import ProgramBinding, ProgramCache
from repro.switchsim.registers import RegisterArray
from repro.switchsim.stage import MatchActionStage
from repro.switchsim.tables import StageTable
from repro.telemetry import MetricsRegistry, resolve


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
        clones: results for FORK-created clones, in creation order.
        executed_instructions: instruction headers actually executed
            (skipped branch arms and never-reached tails excluded).
    """

    packet: ActivePacket
    phv: Phv
    disposition: PacketDisposition
    passes: int = 1
    recirculations: int = 0
    clones: List["ExecutionResult"] = dataclasses.field(default_factory=list)
    executed_instructions: int = 0


class Pipeline:
    """The 20-stage logical pipeline of the ActiveRMT runtime."""

    def __init__(
        self,
        config: Optional[SwitchConfig] = None,
        telemetry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or SwitchConfig()
        self.telemetry = resolve(telemetry)
        self.stages: List[MatchActionStage] = [
            MatchActionStage(
                index=stage,
                is_ingress=self.config.is_ingress(stage),
                table=StageTable(self.config.tcam_entries_per_stage),
                registers=RegisterArray(self.config.words_per_stage),
                hash_unit=stage_hash_unit(stage),
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
            dropped = self.program_cache.invalidate_all()
        else:
            dropped = self.program_cache.invalidate_fid(fid)
        if dropped and self.telemetry.enabled:
            self.telemetry.counter(
                "progcache_invalidations_total",
                help="Program-cache entries flushed by control-plane updates",
            ).inc(dropped)
        return dropped

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
        if self.program_cache is not None:
            return self._run_bound(packet, phv, self.program_cache.entry_for(packet))
        return self._run(packet, phv)

    # ------------------------------------------------------------------

    def _run(self, packet: ActivePacket, phv: Phv) -> ExecutionResult:
        clones: List[ExecutionResult] = []
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
            # Mark the header consumed so the deparser can shrink the
            # packet; skipped branch arms are dead and shrink too.
            instructions[phv.pc] = instr.with_executed()
            if not was_disabled or not phv.disabled:
                executed += 1
            if phv.fork_requested:
                phv.fork_requested = False
                clones.append(self._fork(packet, phv))
            phv.pc += 1
            phv.logical_stage += 1
            phv.passes = self.config.pass_of(phv.logical_stage) + phv.pass_offset
        return self._finish(packet, phv, clones, executed)

    def _run_bound(
        self, packet: ActivePacket, phv: Phv, binding: ProgramBinding
    ) -> ExecutionResult:
        """Run a packet through a cached program under one FID's binding.

        Semantically identical to :meth:`_run` for first-entry packets
        (``pc == 0``, no pass offset) -- the only kind the cache serves;
        FORK clones resume mid-program and take the generic path.  The
        program is one generated function
        (:class:`~repro.switchsim.progcache.CachedProgram`); the binding
        supplies the operands it reads from this FID's table entries.
        """
        return binding.program.run(self, packet, phv, binding.args)

    def _finish(
        self,
        packet: ActivePacket,
        phv: Phv,
        clones: List[ExecutionResult],
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
            hashdata=list(phv.hashdata),
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
