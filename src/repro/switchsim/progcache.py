"""Two-level program cache: compile once per program, bind per tenant.

The paper's switch holds the instruction-decode runtime once for every
tenant; the only per-FID state in a stage is the handful of entries for
memory protection and ADDR_MASK/ADDR_OFFSET translation (Sections 3.1,
4.3).  The simulator's hot path is split the same way:

* **Level 1**, :class:`CachedProgram`, is the FID-free lowering of one
  instruction stream, keyed by its digest and shared by every tenant
  that runs that mutant: physical stages, action handlers, interned
  EXECUTED copies, skip labels, the recirculation budget, and which
  positions read match tables.
* **Level 2**, :class:`ProgramBinding`, is what ``(fid, digest)`` adds:
  a reference to the level-1 program, the table-derived operands at
  those positions (translation pair, grant bounds) and the version
  stamps of the tables they were read from.

:class:`ProgramCache` is an LRU over bindings whose capacity comes from
``SwitchConfig.program_cache_entries`` (0 disables caching entirely,
which is how the differential tests get their reference interpreter).
Programs have no capacity of their own: bindings hold the only strong
references, so a program lives exactly as long as some tenant is bound
to it.  A binding whose stamps are stale, or whose FID the controller's
:class:`~repro.controller.table_updater.TableUpdateEngine` flushed, is
re-*bound* -- a few table reads -- never rebuilt, so stale execution is
impossible even when tables are mutated behind the controller's back.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Callable, Dict, List, Set, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import BRANCH_OPCODES, Opcode
from repro.packets.codec import ActivePacket
from repro.switchsim.hashing import hash_engine
from repro.switchsim.phv import Phv

_MASK32 = 0xFFFFFFFF

#: A cached digest key: ``Instruction.key`` per instruction header.  The
#: EXECUTED bit is deliberately excluded -- it never affects execution,
#: only deparser shrinking.
ProgramDigest = Tuple[int, ...]

#: Signature of every action the cached engine calls.  The second
#: argument is the instruction for generic stage handlers and the bound
#: operand for the handlers below.
Handler = Callable[[object, object, Phv, ActivePacket], None]


def infer_recirculations(program_len: int, num_stages: int) -> int:
    """Recirculations a straight-line program of *program_len* needs.

    The switch can infer this from the program length alone (Section
    7.2): a program consumes one stage per instruction, so it needs
    ``ceil(program_len / num_stages)`` passes, the first of which is
    free.  The recirculation governor's admission check.
    """
    if num_stages <= 0:
        raise ValueError("num_stages must be positive")
    if program_len <= 0:
        return 0
    return (program_len + num_stages - 1) // num_stages - 1


def program_digest(instructions: List[Instruction]) -> ProgramDigest:
    """Digest of the semantic content of an instruction stream."""
    return tuple([instr.key for instr in instructions])


# ----------------------------------------------------------------------
# Actions whose operand is resolved ahead of the packet.  They must
# reproduce the generic stage handlers' semantics *exactly* (including
# fault messages): the differential tests pin cached-vs-uncached byte
# identity.  HASH takes its engine from level 1; the rest take what a
# binding read from the stage's match table for one FID.
# ----------------------------------------------------------------------


def _no_decode(stage, instr, phv, packet):
    phv.fault(f"stage {stage.index}: no decode entry for {instr.opcode.name}")


def _hash(stage, engine, phv, packet):
    phv.mar = engine.digest(phv.hashdata) & _MASK32


def _addr_mask(stage, pair, phv, packet):
    if pair is None:
        phv.fault(f"stage {stage.index}: ADDR_MASK without translation")
    else:
        phv.mar &= pair[0]


def _addr_offset(stage, pair, phv, packet):
    if pair is None:
        phv.fault(f"stage {stage.index}: ADDR_OFFSET without translation")
    else:
        phv.mar = (phv.mar + pair[1]) & _MASK32


def _denied(stage, fid, phv):
    phv.fault(f"stage {stage.index}: fid {fid} denied access to index {phv.mar}")


def _mem_read(stage, grant, phv, packet):
    lo, hi, fid = grant
    mar = phv.mar
    if lo <= mar < hi:
        phv.mbr = stage.registers.read(mar)
    else:
        _denied(stage, fid, phv)


def _mem_write(stage, grant, phv, packet):
    lo, hi, fid = grant
    mar = phv.mar
    if lo <= mar < hi:
        stage.registers.write(mar, phv.mbr)
    else:
        _denied(stage, fid, phv)


def _mem_increment(stage, grant, phv, packet):
    lo, hi, fid = grant
    mar = phv.mar
    if lo <= mar < hi:
        phv.mbr = stage.registers.increment(mar, phv.inc)
    else:
        _denied(stage, fid, phv)


def _mem_minread(stage, grant, phv, packet):
    lo, hi, fid = grant
    mar = phv.mar
    if lo <= mar < hi:
        phv.mbr = stage.registers.min_read(mar, phv.mbr)
    else:
        _denied(stage, fid, phv)


def _mem_minreadinc(stage, grant, phv, packet):
    lo, hi, fid = grant
    mar = phv.mar
    if lo <= mar < hi:
        phv.mbr, phv.mbr2 = stage.registers.min_read_increment(
            mar, phv.mbr2, phv.inc
        )
    else:
        _denied(stage, fid, phv)


#: Opcodes bound to the FID's translation pair / protection grant.
_TRANSLATED: Dict[Opcode, Handler] = {
    Opcode.ADDR_MASK: _addr_mask,
    Opcode.ADDR_OFFSET: _addr_offset,
}
_PROTECTED: Dict[Opcode, Handler] = {
    Opcode.MEM_READ: _mem_read,
    Opcode.MEM_WRITE: _mem_write,
    Opcode.MEM_INCREMENT: _mem_increment,
    Opcode.MEM_MINREAD: _mem_minread,
    Opcode.MEM_MINREADINC: _mem_minreadinc,
}
_HASH = Opcode.HASH


class CachedProgram:
    """Level 1: the FID-free lowering of one instruction stream.

    Position *pc* runs ``handlers[pc](stages[pc], args[pc], phv,
    packet)``; nothing here depends on who sent the packet.

    Attributes:
        handlers, stages: the bound action and the pre-resolved
            physical stage object per instruction header.
        args: the handler's second argument -- the decoded instruction,
            the hash engine for HASH, and None at the positions a
            binding fills in.
        done: the interned EXECUTED copy of every header.
        skip_labels: the label that ends branch skipping at each header.
        table_reads: ``(pc, table, translated)`` per position whose
            operand comes from a match table (*translated*: the
            ADDR_MASK/ADDR_OFFSET pair, else the protection grant).
        limit: headers runnable within the recirculation budget.
        passes: the pipeline pass a packet is on after *n* headers.
        budget_fault: the fault a packet takes on reaching *limit* still
            running; None when the whole program fits the budget.
    """

    __slots__ = (
        "handlers", "stages", "args", "done", "skip_labels", "table_reads",
        "limit", "passes", "budget_fault", "__weakref__",
    )

    def __init__(self, pipeline, instructions: List[Instruction]) -> None:
        # Imported here: stage.py owns the generic handler table and
        # must stay importable without pipeline machinery.
        from repro.switchsim.stage import _HANDLERS

        config = pipeline.config
        self.handlers: List[Handler] = []
        self.stages = [
            pipeline.stage(config.physical_stage(pc + 1))
            for pc in range(len(instructions))
        ]
        self.args: List[object] = list(instructions)
        self.done = [instr.with_executed() for instr in instructions]
        self.skip_labels = [
            0 if instr.opcode in BRANCH_OPCODES else instr.label
            for instr in instructions
        ]
        self.table_reads: List[Tuple[int, object, bool]] = []
        budget = config.max_logical_stages
        self.limit = min(len(instructions), budget)
        self.passes = [config.pass_of(n + 1) for n in range(self.limit + 1)]
        self.budget_fault = (
            f"recirculation budget exhausted after "
            f"{1 + config.max_recirculations} passes"
            if len(instructions) > budget
            else None
        )
        for pc, instr in enumerate(instructions):
            opcode = instr.opcode
            handler = _TRANSLATED.get(opcode) or _PROTECTED.get(opcode)
            if handler is not None:
                table = self.stages[pc].table
                self.table_reads.append((pc, table, opcode in _TRANSLATED))
                self.args[pc] = None
            elif opcode == _HASH:
                handler = _hash
                self.args[pc] = hash_engine(instr.operand)
            else:
                handler = _HANDLERS.get(opcode, _no_decode)
            self.handlers.append(handler)

    def bind(self, fid: int) -> "ProgramBinding":
        """Read *fid*'s operands from the tables this program consults."""
        args = list(self.args)
        stamps = {}
        for pc, table, translated in self.table_reads:
            stamps[table] = table.version
            grant = table.grant_for(fid)
            if translated:
                pair = table.translation_for(fid)
                if pair is None and grant is not None:
                    pair = (grant.mask, grant.offset)
                args[pc] = pair
            elif grant is not None:
                args[pc] = (grant.start, grant.end, fid)
            else:
                args[pc] = (1, 0, fid)  # an empty range: every access is denied
        return ProgramBinding(self, args, stamps)


class ProgramBinding:
    """Level 2: one FID's table-derived operands for a level-1 program.

    Attributes:
        program: the shared :class:`CachedProgram`.
        args: ``program.args`` with every table-read position filled:
            ``(mask, offset)`` or None for translation, ``(lo, hi,
            fid)`` for protection (the FID is there for fault strings).
    """

    __slots__ = ("program", "args", "_stamps")

    def __init__(
        self, program: CachedProgram, args: List[object], stamps: Dict[object, int]
    ) -> None:
        self.program = program
        self.args = args
        self._stamps = stamps

    def is_current(self) -> bool:
        """Do the observed table versions still hold?"""
        for table, version in self._stamps.items():
            if table.version != version:
                return False
        return True


class ProgramCache:
    """LRU cache of :class:`ProgramBinding` entries for one pipeline.

    Args:
        pipeline: the owning :class:`~repro.switchsim.pipeline.Pipeline`
            (stages are resolved against it at build time).
        capacity: maximum resident bindings; the least recently used
            one is evicted beyond it.
    """

    def __init__(self, pipeline, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.pipeline = pipeline
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, ProgramDigest], ProgramBinding]" = (
            OrderedDict()
        )
        self._keys_by_fid: Dict[int, Set[Tuple[int, ProgramDigest]]] = {}
        #: Level 1, by digest.  Weak: a program dies with its last binding.
        self._programs: "weakref.WeakValueDictionary[ProgramDigest, CachedProgram]" = (
            weakref.WeakValueDictionary()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.program_hits = 0
        self.program_misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Data-plane lookup
    # ------------------------------------------------------------------

    def entry_for(self, packet: ActivePacket) -> ProgramBinding:
        """Return the binding for *packet*, binding (and lowering) on a miss.

        A hit whose table-version stamps are stale counts as an
        invalidation followed by a miss: the FID is bound again, to the
        same level-1 program, against current table state.
        """
        fid = packet.fid
        digest = program_digest(packet.instructions)
        key = (fid, digest)
        entry = self._entries.get(key)
        if entry is not None:
            if entry.is_current():
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            del self._entries[key]  # re-bound below, as most recently used
            self.invalidations += 1
        self.misses += 1
        program = entry.program if entry is not None else self._programs.get(digest)
        if program is None:
            self.program_misses += 1
            program = CachedProgram(self.pipeline, packet.instructions)
            self._programs[digest] = program
        else:
            self.program_hits += 1
        self._entries[key] = entry = program.bind(fid)
        self._keys_by_fid.setdefault(fid, set()).add(key)
        if len(self._entries) > self.capacity:
            old_key, _old = self._entries.popitem(last=False)
            keys = self._keys_by_fid[old_key[0]]
            keys.discard(old_key)
            if not keys:  # the index holds no FID without a binding
                del self._keys_by_fid[old_key[0]]
            self.evictions += 1
        return entry

    # ------------------------------------------------------------------
    # Invalidation (wired into the controller's table updater)
    # ------------------------------------------------------------------

    def invalidate_fid(self, fid: int) -> int:
        """Flush every binding cached for *fid*; returns bindings dropped."""
        keys = self._keys_by_fid.pop(fid, None)
        if not keys:
            return 0
        for key in keys:
            del self._entries[key]
        self.invalidations += len(keys)
        return len(keys)

    def invalidate_all(self) -> int:
        """Flush the whole cache (e.g. on a config-level change)."""
        dropped = len(self._entries)
        self._entries.clear()
        self._keys_by_fid.clear()
        self.invalidations += dropped
        return dropped

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Counters of both levels; ``hit_rate`` is the binding (L2) rate."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "programs": len(self._programs),
            "program_hits": self.program_hits,
            "program_misses": self.program_misses,
        }

    @staticmethod
    def empty_stats() -> Dict[str, float]:
        """The all-zero :meth:`stats` shape, for when caching is off.

        ``ActiveSwitch.stats`` returns this instead of None so that
        consumers (exporters, dashboards) read one stable schema
        whether or not the cache exists.
        """
        return {
            "entries": 0,
            "capacity": 0,
            "hits": 0,
            "misses": 0,
            "hit_rate": 0.0,
            "evictions": 0,
            "invalidations": 0,
            "programs": 0,
            "program_hits": 0,
            "program_misses": 0,
        }
