"""Abstract interpretation of the PHV over an active program's CFG.

The pass tracks, per program position, a small abstract state:

- **MAR provenance** -- a flat lattice recording *where the memory
  address came from*: never written, a client argument, a raw hash
  digest, a hash masked by ``ADDR_MASK``, a fully translated
  (masked + offset) address, or an arbitrary computed value.  This is
  what lets the memory-safety pass distinguish "provably lands in the
  granted region" (translated), "provably faults" (raw hash), and
  "only the runtime TCAM can tell" (argument/computed).
- **MBR/MBR2 written-ness** -- must-analysis: a register counts as
  written only when every path to the position wrote it, so a read of
  a maybe-unwritten register is reported (ARMT002) without false
  negatives.
- **hashdata depth** -- minimum number of words pushed, to catch
  ``HASH`` over empty hash input.

Joins happen at label targets (the only merge points on a forward-only
pipeline); ascending-position iteration reaches the fixpoint in one
sweep because every edge goes forward.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.findings import Finding
from repro.isa.opcodes import MEMORY_OPCODES, Opcode
from repro.isa.program import ActiveProgram
from repro.switchsim.config import SwitchConfig


class MarValue(enum.Enum):
    """Provenance of the memory address register at one point."""

    UNWRITTEN = "unwritten"  # parser zero-initialisation
    ARG = "arg"  # MAR_LOAD from a client argument slot
    HASH_RAW = "hash-raw"  # HASH digest, unmasked
    HASH_MASKED = "hash-masked"  # digest after ADDR_MASK, no offset yet
    TRANSLATED = "translated"  # masked + offset: inside the region
    COMPUTED = "computed"  # arithmetic over registers
    UNKNOWN = "unknown"  # join of disagreeing paths


def _join_mar(a: MarValue, b: MarValue) -> MarValue:
    return a if a is b else MarValue.UNKNOWN


@dataclasses.dataclass(frozen=True)
class AbstractState:
    """PHV abstraction at one program point."""

    mar: MarValue = MarValue.UNWRITTEN
    mbr_written: bool = False
    mbr2_written: bool = False
    hashdata_depth: int = 0

    def join(self, other: "AbstractState") -> "AbstractState":
        return AbstractState(
            mar=_join_mar(self.mar, other.mar),
            mbr_written=self.mbr_written and other.mbr_written,
            mbr2_written=self.mbr2_written and other.mbr2_written,
            hashdata_depth=min(self.hashdata_depth, other.hashdata_depth),
        )


#: Opcodes that read MBR before (possibly) writing it.
_READS_MBR = frozenset(
    {
        Opcode.MBR_STORE,
        Opcode.COPY_MBR2_MBR,
        Opcode.COPY_HASHDATA_MBR,
        Opcode.MBR_ADD_MBR2,
        Opcode.MAR_ADD_MBR,
        Opcode.MAR_MBR_ADD_MBR2,
        Opcode.MBR_SUBTRACT_MBR2,
        Opcode.BIT_AND_MAR_MBR,
        Opcode.BIT_OR_MBR_MBR2,
        Opcode.MBR_EQUALS_MBR2,
        Opcode.MBR_EQUALS_DATA_1,
        Opcode.MBR_EQUALS_DATA_2,
        Opcode.MAX,
        Opcode.MIN,
        Opcode.REVMIN,
        Opcode.SWAP_MBR_MBR2,
        Opcode.MBR_NOT,
        Opcode.CRET,
        Opcode.CRETI,
        Opcode.CJUMP,
        Opcode.CJUMPI,
        Opcode.CRTS,
        Opcode.SET_DST,
        Opcode.MEM_WRITE,
        Opcode.MEM_MINREAD,
    }
)

#: Opcodes that write MBR.
_WRITES_MBR = frozenset(
    {
        Opcode.MBR_LOAD,
        Opcode.COPY_MBR_MBR2,
        Opcode.COPY_MBR_MAR,
        Opcode.MBR_ADD_MBR2,
        Opcode.MBR_SUBTRACT_MBR2,
        Opcode.BIT_OR_MBR_MBR2,
        Opcode.MBR_EQUALS_MBR2,
        Opcode.MBR_EQUALS_DATA_1,
        Opcode.MBR_EQUALS_DATA_2,
        Opcode.MAX,
        Opcode.MIN,
        Opcode.SWAP_MBR_MBR2,
        Opcode.MBR_NOT,
        Opcode.MEM_READ,
        Opcode.MEM_INCREMENT,
        Opcode.MEM_MINREAD,
        Opcode.MEM_MINREADINC,
    }
)

#: Opcodes that read MBR2 before (possibly) writing it.
_READS_MBR2 = frozenset(
    {
        Opcode.COPY_MBR_MBR2,
        Opcode.COPY_HASHDATA_MBR2,
        Opcode.MBR_ADD_MBR2,
        Opcode.MAR_ADD_MBR2,
        Opcode.MAR_MBR_ADD_MBR2,
        Opcode.MBR_SUBTRACT_MBR2,
        Opcode.BIT_OR_MBR_MBR2,
        Opcode.MBR_EQUALS_MBR2,
        Opcode.MAX,
        Opcode.MIN,
        Opcode.REVMIN,
        Opcode.SWAP_MBR_MBR2,
        Opcode.MEM_MINREADINC,
    }
)

#: Opcodes that write MBR2.
_WRITES_MBR2 = frozenset(
    {
        Opcode.MBR2_LOAD,
        Opcode.COPY_MBR2_MBR,
        Opcode.REVMIN,
        Opcode.SWAP_MBR_MBR2,
        Opcode.MEM_MINREADINC,
    }
)

@dataclasses.dataclass(frozen=True)
class DataflowResult:
    """Per-position entry states plus the register-use diagnostics."""

    entry_states: Dict[int, AbstractState]
    findings: Tuple[Finding, ...]

    def mar_at(self, position: int) -> MarValue:
        """MAR provenance on entry to a 1-indexed position (UNKNOWN if
        the position was unreachable)."""
        state = self.entry_states.get(position)
        return state.mar if state is not None else MarValue.UNKNOWN


def _transfer_mar(state: AbstractState, op: Opcode) -> MarValue:
    """New MAR provenance after executing *op*."""
    if op is Opcode.MAR_LOAD:
        return MarValue.ARG
    if op is Opcode.HASH:
        return MarValue.HASH_RAW
    if op is Opcode.ADDR_MASK:
        if state.mar in (MarValue.HASH_RAW, MarValue.HASH_MASKED):
            return MarValue.HASH_MASKED
        return MarValue.COMPUTED
    if op is Opcode.ADDR_OFFSET:
        if state.mar is MarValue.HASH_MASKED:
            return MarValue.TRANSLATED
        return MarValue.COMPUTED
    if op in (
        Opcode.COPY_MAR_MBR,
        Opcode.MAR_ADD_MBR,
        Opcode.MAR_ADD_MBR2,
        Opcode.MAR_MBR_ADD_MBR2,
        Opcode.BIT_AND_MAR_MBR,
    ):
        return MarValue.COMPUTED
    return state.mar


def analyze_dataflow(
    program: ActiveProgram, cfg: Optional[ControlFlowGraph] = None
) -> DataflowResult:
    """Run the abstract interpretation; returns entry states + findings.

    Findings emitted here are all ARMT002 (undefined reads / empty
    hashdata); address-safety rules consume :meth:`DataflowResult.mar_at`
    from the verifier instead, where region knowledge is available.
    """
    graph = cfg if cfg is not None else ControlFlowGraph.build(program)
    entry: Dict[int, AbstractState] = {}
    findings: List[Finding] = []
    if graph.num_positions:
        entry[1] = AbstractState()
    # Ascending-position sweep: every CFG edge points forward, so each
    # position's entry state is final before it is visited.
    for idx, instr in enumerate(program):
        position = idx + 1
        state = entry.get(position)
        if state is None or position not in graph.reachable:
            continue  # unreachable: reported by the CFG pass, not here
        op = instr.opcode
        findings.extend(_register_findings(state, op, position))
        new_state = AbstractState(
            mar=_transfer_mar(state, op),
            mbr_written=state.mbr_written or op in _WRITES_MBR,
            mbr2_written=state.mbr2_written or op in _WRITES_MBR2,
            hashdata_depth=state.hashdata_depth
            + (
                1
                if op in (Opcode.COPY_HASHDATA_MBR, Opcode.COPY_HASHDATA_MBR2)
                else 0
            ),
        )
        for successor in graph.successors[position]:
            incoming = entry.get(successor)
            entry[successor] = (
                new_state if incoming is None else incoming.join(new_state)
            )
    return DataflowResult(entry_states=entry, findings=tuple(findings))


def _register_findings(
    state: AbstractState, op: Opcode, position: int
) -> List[Finding]:
    """ARMT002 diagnostics for one instruction's register reads."""
    found: List[Finding] = []
    if op in _READS_MBR and not state.mbr_written:
        found.append(
            Finding.of(
                "ARMT002",
                f"{op.name} at {position} reads MBR, which no path has "
                "written (value is the parser's zero)",
                position=position,
            )
        )
    if op in _READS_MBR2 and not state.mbr2_written:
        found.append(
            Finding.of(
                "ARMT002",
                f"{op.name} at {position} reads MBR2, which no path has "
                "written (value is the parser's zero)",
                position=position,
            )
        )
    if op is Opcode.HASH and state.hashdata_depth == 0:
        found.append(
            Finding.of(
                "ARMT002",
                f"HASH at {position} runs over empty hashdata; the digest "
                "is a constant (no COPY_HASHDATA_* precedes it)",
                position=position,
            )
        )
    if (
        op in MEMORY_OPCODES or op in (Opcode.ADDR_MASK, Opcode.ADDR_OFFSET)
    ) and state.mar is MarValue.UNWRITTEN:
        found.append(
            Finding.of(
                "ARMT002",
                f"{op.name} at {position} consumes MAR before any "
                "instruction writes it (address is always 0)",
                position=position,
            )
        )
    return found


# ----------------------------------------------------------------------
# Concrete address-interval analysis (the isolation certifier's input)
# ----------------------------------------------------------------------

#: The MAR is a 32-bit PHV field; every interval lives in [0, _WORD_MAX].
_WORD_MAX = 0xFFFFFFFF


@dataclasses.dataclass(frozen=True)
class AddressInterval:
    """Inclusive interval ``[lo, hi]`` of possible MAR values.

    ``TOP`` (the full 32-bit range) means "statically unbounded"; the
    certifier classifies such accesses as runtime-checked rather than
    statically proven.  Joins take the convex hull -- sound because the
    concrete MAR transfer functions (``&``, ``+``) are monotone over
    intervals.
    """

    lo: int
    hi: int

    @classmethod
    def top(cls) -> "AddressInterval":
        return cls(0, _WORD_MAX)

    @classmethod
    def exact(cls, value: int) -> "AddressInterval":
        return cls(value, value)

    @property
    def is_top(self) -> bool:
        return self.lo == 0 and self.hi == _WORD_MAX

    @property
    def bounded(self) -> bool:
        """Did the analysis learn anything beyond the PHV width?"""
        return not self.is_top

    def join(self, other: "AddressInterval") -> "AddressInterval":
        return AddressInterval(
            min(self.lo, other.lo), max(self.hi, other.hi)
        )

    def within(self, start: int, end: int) -> bool:
        """Is every value of the interval inside ``[start, end)``?"""
        return start <= self.lo and self.hi < end

    def disjoint(self, start: int, end: int) -> bool:
        """Is no value of the interval inside ``[start, end)``?"""
        return start >= end or self.hi < start or self.lo >= end

    def masked(self, mask: int) -> "AddressInterval":
        """Interval after ``mar & mask`` (mask is all-ones: 2**k - 1)."""
        if self.hi <= mask:
            return self  # the AND is the identity on every value
        return AddressInterval(0, mask)

    def offset(self, amount: int) -> "AddressInterval":
        """Interval after ``mar + amount`` (TOP on 32-bit wraparound)."""
        if self.hi + amount > _WORD_MAX:
            return AddressInterval.top()
        return AddressInterval(self.lo + amount, self.hi + amount)

    def __str__(self) -> str:
        return "[TOP]" if self.is_top else f"[{self.lo}, {self.hi}]"


def _transfer_interval(
    interval: AddressInterval,
    op: Opcode,
    translation: Optional[Tuple[int, int]],
) -> AddressInterval:
    """New MAR interval after executing *op* in a stage whose effective
    translation entry is *translation* (``(mask, offset)`` or None).

    Mirrors the runtime exactly (``switchsim/stage.py``): ADDR_MASK is
    ``mar &= mask``, ADDR_OFFSET is ``mar += offset``; both fault when
    no translation resolves, so the post-state is unreachable and TOP
    is a sound (if loose) stand-in.
    """
    if op is Opcode.ADDR_MASK:
        if translation is None:
            return AddressInterval.top()
        return interval.masked(translation[0])
    if op is Opcode.ADDR_OFFSET:
        if translation is None:
            return AddressInterval.top()
        return interval.offset(translation[1])
    if op in (
        Opcode.MAR_LOAD,  # client argument: any 32-bit value
        Opcode.HASH,  # uniform digest: any 32-bit value
        Opcode.COPY_MAR_MBR,
        Opcode.MAR_ADD_MBR,
        Opcode.MAR_ADD_MBR2,
        Opcode.MAR_MBR_ADD_MBR2,
        Opcode.BIT_AND_MAR_MBR,
    ):
        return AddressInterval.top()
    return interval


def analyze_address_intervals(
    program: ActiveProgram,
    translations: Mapping[int, Tuple[int, int]],
    cfg: Optional[ControlFlowGraph] = None,
    *,
    config: SwitchConfig,
) -> Dict[int, AddressInterval]:
    """Per-position entry intervals of the MAR over *program*'s CFG.

    *translations* maps each physical stage to the effective
    ``(mask, offset)`` pair ADDR_MASK/ADDR_OFFSET would resolve there --
    the explicit table entry when one is installed, else the stage's
    own grant (the runtime's fallback).  *config* is the switch whose
    stages the positions map to.  Positions missing from the result were
    unreachable.
    """
    graph = cfg if cfg is not None else ControlFlowGraph.build(program)
    entry: Dict[int, AddressInterval] = {}
    if graph.num_positions:
        entry[1] = AddressInterval.exact(0)  # parser zero-initialisation
    for idx, instr in enumerate(program):
        position = idx + 1
        interval = entry.get(position)
        if interval is None or position not in graph.reachable:
            continue
        stage = config.physical_stage(position)
        new_interval = _transfer_interval(
            interval, instr.opcode, translations.get(stage)
        )
        for successor in graph.successors[position]:
            incoming = entry.get(successor)
            entry[successor] = (
                new_interval
                if incoming is None
                else incoming.join(new_interval)
            )
    return entry
