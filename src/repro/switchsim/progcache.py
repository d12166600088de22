"""Two-level program cache: compile once per program, bind per tenant.

The paper's switch holds the instruction-decode runtime once for every
tenant; the only per-FID state in a stage is the handful of entries for
memory protection and ADDR_MASK/ADDR_OFFSET translation (Sections 3.1,
4.3).  The simulator's hot path is split the same way:

* **Level 1**, :class:`CachedProgram`, is one instruction stream
  compiled to one straight-line Python function, keyed by its digest
  and shared by every tenant that runs that mutant: the stage mapping,
  each stage's register array, the hash engines, the interned EXECUTED
  copies and the recirculation budget are fixed ahead of the packet
  (Packet Transactions' whole-transaction compilation).
* **Level 2**, :class:`ProgramBinding`, is what ``(fid, digest)`` adds:
  a reference to the level-1 program, the table-derived operands its
  function reads (translation pair, grant bounds) and the version
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

import linecache
import weakref
import zlib
from collections import OrderedDict
from typing import Dict, List, Set, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import (
    BRANCH_OPCODES,
    MEMORY_OPCODES,
    TABLE_OPERAND_OPCODES,
    Opcode,
)
from repro.packets.codec import ActivePacket
from repro.switchsim.hashing import NUM_HASH_ENGINES, hash_engine

#: A cached digest key: ``Instruction.key`` per instruction header.  The
#: EXECUTED bit is deliberately excluded -- it never affects execution,
#: only deparser shrinking.
ProgramDigest = Tuple[int, ...]


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
# The template table: the statement each opcode becomes in a generated
# function.  Each must reproduce its generic stage handler's semantics
# *exactly* (including fault messages): the differential tests pin
# cached-vs-uncached byte identity.  ``mar`` / ``mbr`` / ``mbr2`` are
# locals holding u32 values, ``pargs`` is the packet's argument list
# (``nargs`` long) and ``args[k]`` the binding's k-th table operand.
# Placeholders: {pc} and {nxt} (the header's index and its successor),
# {s} (physical stage), {op} (operand), {label}, {k} (table-read
# ordinal), {name} (mnemonic) and {egress} (empty in the ingress half;
# changing ports in the egress half costs a recirculation).  Every way
# out of a program sets ``pc`` to the headers consumed and breaks to the
# function's one exit.
# ----------------------------------------------------------------------

_ARG = "(pargs[{op}] if nargs > {op} else 0) & 0xFFFFFFFF"
_RETURN = "phv.complete = True; pc = {nxt}; break"
_FAULT = 'phv.fault(f"stage {s}: %s"); pc = {pc}; break'
_NO_DECODE = _FAULT % "no decode entry for {name}"
_TRANSLATED = (
    "pair = args[{k}]\nif pair is None:\n    "
    + _FAULT % "{name} without translation"
    + "\nelse:\n    %s"
)
_PROTECTED = (
    "lo, hi, fid = args[{k}]\nif lo <= mar < hi:\n    %s\nelse:\n    "
    + _FAULT % "fid {{fid}} denied access to index {{mar}}"
)
_SKIP = "disabled = True; pending = {label}"
_RTS = "phv.rts_taken = True{egress}; packet.return_to_sender()"

_TEMPLATES: Dict[Opcode, str] = {
    Opcode.NOP: "pass",
    Opcode.ADDR_MASK: _TRANSLATED % "mar &= pair[0]",
    Opcode.ADDR_OFFSET: _TRANSLATED % "mar = mar + pair[1] & 0xFFFFFFFF",
    Opcode.HASH: "mar = hash{op}(hashdata)",  # a HashUnit digest is 32 bits
    Opcode.MBR_LOAD: "mbr = " + _ARG,
    # Padding a short argument list stays where it is defined, in set_arg.
    Opcode.MBR_STORE: (
        "if nargs > {op}:\n    pargs[{op}] = mbr\n"
        "else:\n    packet.set_arg({op}, mbr); nargs = len(pargs)"
    ),
    Opcode.MBR2_LOAD: "mbr2 = " + _ARG,
    Opcode.MAR_LOAD: "mar = " + _ARG,
    Opcode.COPY_MBR_MBR2: "mbr = mbr2",
    Opcode.COPY_MBR2_MBR: "mbr2 = mbr",
    Opcode.COPY_MAR_MBR: "mar = mbr",
    Opcode.COPY_MBR_MAR: "mbr = mar",
    Opcode.COPY_HASHDATA_MBR: "hashdata.append(mbr)",
    Opcode.COPY_HASHDATA_MBR2: "hashdata.append(mbr2)",
    Opcode.MBR_ADD_MBR2: "mbr = mbr + mbr2 & 0xFFFFFFFF",
    Opcode.MAR_ADD_MBR: "mar = mar + mbr & 0xFFFFFFFF",
    Opcode.MAR_ADD_MBR2: "mar = mar + mbr2 & 0xFFFFFFFF",
    Opcode.MAR_MBR_ADD_MBR2: "mar = mbr + mbr2 & 0xFFFFFFFF",
    Opcode.MBR_SUBTRACT_MBR2: "mbr = mbr - mbr2 & 0xFFFFFFFF",
    Opcode.BIT_AND_MAR_MBR: "mar &= mbr",
    Opcode.BIT_OR_MBR_MBR2: "mbr |= mbr2",
    Opcode.MBR_EQUALS_MBR2: "mbr ^= mbr2",
    Opcode.MBR_EQUALS_DATA_1: "mbr ^= " + _ARG.format(op=0),
    Opcode.MBR_EQUALS_DATA_2: "mbr ^= " + _ARG.format(op=1),
    Opcode.MAX: "if mbr2 > mbr:\n    mbr = mbr2",
    Opcode.MIN: "if mbr2 < mbr:\n    mbr = mbr2",
    Opcode.REVMIN: "if mbr < mbr2:\n    mbr2 = mbr",
    Opcode.SWAP_MBR_MBR2: "mbr, mbr2 = mbr2, mbr",
    Opcode.MBR_NOT: "mbr ^= 0xFFFFFFFF",
    Opcode.RETURN: _RETURN,
    Opcode.CRET: "if mbr != 0:\n    " + _RETURN,
    Opcode.CRETI: "if mbr == 0:\n    " + _RETURN,
    Opcode.CJUMP: "if mbr != 0:\n    " + _SKIP,
    Opcode.CJUMPI: "if mbr == 0:\n    " + _SKIP,
    Opcode.UJUMP: _SKIP,
    Opcode.MEM_READ: _PROTECTED % "mbr = regs{s}.read(mar)",
    Opcode.MEM_WRITE: _PROTECTED % "regs{s}.write(mar, mbr)",
    Opcode.MEM_INCREMENT: _PROTECTED % "mbr = regs{s}.increment(mar, phv.inc)",
    Opcode.MEM_MINREAD: _PROTECTED % "mbr = regs{s}.min_read(mar, mbr)",
    Opcode.MEM_MINREADINC: _PROTECTED
    % "mbr, mbr2 = regs{s}.min_read_increment(mar, mbr2, phv.inc)",
    Opcode.DROP: "phv.drop = True; " + _RETURN,
    # The clone copies the packet and PHV as of this header, so both are
    # brought up to date first.
    Opcode.FORK: (
        "phv.mar = mar; phv.mbr = mbr; phv.mbr2 = mbr2\n"
        "packet.instructions[:{nxt}] = done[:{nxt}]\n"
        "phv.pc = {pc}; phv.logical_stage = {nxt}\n"
        "clones.append(pipeline._fork(packet, phv))"
    ),
    Opcode.SET_DST: "phv.dst_override = mbr & 0xFFFF{egress}",
    Opcode.RTS: _RTS,
    Opcode.CRTS: "if mbr != 0:\n    " + _RTS,
}
#: Opcodes that end a program whenever they execute.
_FINAL = frozenset({Opcode.RETURN, Opcode.DROP})
#: What a function sets up on entry, and writes back on exit, only when
#: its body mentions the name (mnemonics in comments are upper case).
_ENTRY = {
    "pargs": "pargs = packet.args; nargs = len(pargs)",
    "hashdata": "hashdata = phv.hashdata",
    "clones": "clones = []",
    "disabled": "disabled = False; pending = skipped = 0",
}


class CachedProgram:
    """Level 1: one instruction stream compiled to one Python function.

    ``run(pipeline, packet, phv, args)`` executes a first-entry packet
    (``pc == 0``, no pass offset -- the only kind the cache serves; FORK
    clones resume mid-program in the generic interpreter) and returns
    its :class:`~repro.switchsim.pipeline.ExecutionResult`.  Nothing in
    it depends on who sent the packet.  MAR/MBR/MBR2 live in locals,
    each header is the statement its opcode's template gives, branch
    skipping is tracked only where a skip can be pending, and there is
    no budget test: headers beyond the recirculation budget are not
    emitted, and a program that has any ends in the budget fault.  Where
    the packet stopped is written to the PHV once, on the way out.

    Attributes:
        run: the generated function.
        source: its source text, registered with :mod:`linecache` under
            a pseudo-filename made of a CRC of the program's digest and
            the pipeline shape (together they determine the text), so a
            traceback through ``run`` shows the line that raised and, in
            its comment, the instruction.  The entry goes when the
            program does; a same-shaped pipeline still holding the same
            program then shows that traceback without source text.
        table_reads: ``(table, translated)`` per operand the function
            takes from a match table, in ``args`` order (*translated*:
            the ADDR_MASK/ADDR_OFFSET pair, else the protection grant).
    """

    __slots__ = ("run", "source", "table_reads", "__weakref__")

    def __init__(self, pipeline, instructions: List[Instruction]) -> None:
        config = pipeline.config
        limit = min(len(instructions), config.max_logical_stages)
        self.table_reads: List[Tuple[object, bool]] = []
        body: List[str] = []
        #: Labels a skip in progress may be waiting for; empty: none is.
        pending: Set[int] = set()
        live = True  # can execution fall through the last emitted header?
        for pc, instr in enumerate(instructions[:limit]):
            opcode, label = instr.opcode, instr.label
            stage = pipeline.stage(config.physical_stage(pc + 1))
            text = _TEMPLATES.get(opcode, _NO_DECODE).format(
                pc=pc, nxt=pc + 1, s=stage.index, op=instr.operand, label=label,
                k=len(self.table_reads), name=opcode.name,
                egress="" if stage.is_ingress else "; phv.rts_at_egress = True",
            )
            if opcode in MEMORY_OPCODES or opcode in TABLE_OPERAND_OPCODES:
                self.table_reads.append(
                    (stage.table, opcode in TABLE_OPERAND_OPCODES)
                )
            if pending:
                # A dead branch arm still consumes its stage; execution
                # resumes at (and including) the pending label.
                ends = label != 0 and label in pending and opcode not in BRANCH_OPCODES
                text = (
                    (f"if disabled and pending != {label}:" if ends else "if disabled:")
                    + "\n    skipped += 1\nelse:\n"
                    + ("    disabled = False; pending = 0\n" if ends else "")
                    + "    " + text.replace("\n", "\n    ")
                )
                if ends:
                    pending.discard(label)
            if opcode in BRANCH_OPCODES:
                pending.add(label)
            note = f"  # {pc}: {instr} @ stage {stage.index}"
            body.extend(line + note for line in text.split("\n"))
            live = bool(pending) or (opcode in _TEMPLATES and opcode not in _FINAL)
            if not live:
                break
        if live:
            if len(instructions) > limit:
                body.append(
                    "phv.fault('recirculation budget exhausted after "
                    f"{1 + config.max_recirculations} passes')"
                )
            body.append(f"pc = {limit}; break")
        code = "\n".join(body)
        used = [name for name in _ENTRY if name in code]
        lines = ["def run(pipeline, packet, phv, args):"]
        lines.append("    mar = phv.mar; mbr = phv.mbr; mbr2 = phv.mbr2")
        lines.extend("    " + _ENTRY[name] for name in used)
        lines.append("    while True:")
        lines.extend("        " + line for line in body)
        lines.append("    phv.mar = mar; phv.mbr = mbr; phv.mbr2 = mbr2")
        if "disabled" in used:
            lines.append("    phv.disabled = disabled; phv.pending_label = pending")
        # Mark the consumed headers so the deparser can shrink the packet
        # (skipped branch arms are dead and shrink too).
        lines.append("    packet.instructions[:pc] = done[:pc]")
        lines.append("    phv.pc = pc; phv.logical_stage = pc + 1; phv.passes = passes[pc]")
        lines.append(
            "    return pipeline._finish(packet, phv, "
            + ("clones, " if "clones" in used else "[], ")
            + ("pc - skipped)" if "disabled" in used else "pc)")
        )
        self.source = "\n".join(lines) + "\n"
        wire = b"".join(instr.key.to_bytes(2, "big") for instr in instructions)
        filename = "<activermt program {:08x} on {}/{}/{} stages>".format(
            zlib.crc32(wire),
            config.ingress_stages, config.num_stages, config.max_logical_stages,
        )
        namespace: Dict[str, object] = {
            "done": [instr.with_executed() for instr in instructions],
            "passes": [config.pass_of(n + 1) for n in range(limit + 1)],
        }
        for stage in pipeline.stages:
            namespace[f"regs{stage.index}"] = stage.registers
        for index in range(NUM_HASH_ENGINES):
            namespace[f"hash{index}"] = hash_engine(index).digest
        exec(compile(self.source, filename, "exec"), namespace)
        self.run = namespace["run"]
        linecache.cache[filename] = (
            len(self.source), None, self.source.splitlines(True), filename,
        )
        weakref.finalize(self, linecache.cache.pop, filename, None)

    def bind(self, fid: int) -> "ProgramBinding":
        """Read *fid*'s operands from the tables this program consults."""
        args: List[object] = []
        stamps = {}
        for table, translated in self.table_reads:
            stamps[table] = table.version
            grant = table.grant_for(fid)
            if translated:
                pair = table.translation_for(fid)
                if pair is None and grant is not None:
                    pair = (grant.mask, grant.offset)
                args.append(pair)
            elif grant is not None:
                args.append((grant.start, grant.end, fid))
            else:
                args.append((1, 0, fid))  # an empty range: every access is denied
        return ProgramBinding(self, args, stamps)


class ProgramBinding:
    """Level 2: one FID's table-derived operands for a level-1 program.

    Attributes:
        program: the shared :class:`CachedProgram`.
        args: one operand per entry of ``program.table_reads``: ``(mask,
            offset)`` or None for translation, ``(lo, hi, fid)`` for
            protection (the FID is there for fault strings).
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
        fid = packet.initial.fid
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
