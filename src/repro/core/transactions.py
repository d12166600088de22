"""Transactional primitives for the allocation control plane.

The paper's reallocation protocol (Section 4.3) is all-or-nothing from
the client's point of view: incumbents are deactivated, snapshot their
state, and observe either the full new layout or the untouched old one
-- never a half-applied mixture.  *Packet Transactions* (Sivaraman et
al.) makes the general argument that switch state changes want
transactional semantics; this module supplies the pieces:

- :class:`AllocationPlan` -- the side-effect-free output of
  :meth:`~repro.core.allocator.ActiveRmtAllocator.plan`: everything an
  admission *would* do, computed against copy-on-write shadows of the
  stage pools.  Plans are committed, aborted, or simply discarded; a
  committed plan is the admission's one record of what it decided.
- :class:`PoolSnapshot` -- a byte-identical capture of one
  :class:`~repro.core.blocks.StagePool` population.  Restoring a
  snapshot reproduces the exact deterministic layout, block for block.
- :class:`AllocatorCheckpoint` / :class:`CommitResult` -- what a commit
  (and, the checkpoint, a release) hands back so the caller can later
  undo it *exactly* (pools, app record, arrival counter, version stamp),
  without release-and-reinstall approximations.
- :class:`TableUpdateJournal` -- an undo log of reversible switch-state
  operations (table entries, activations, register scrubs).  Replaying
  it backwards restores the pre-transaction switch state; the RBFRT
  line of work shows fast runtime control planes hinge on exactly this
  kind of safely-revertible batched update.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.blocks import BlockRange, StagePool
from repro.telemetry.tracing import NULL_TRACER, AnyTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.allocator import AppRecord
    from repro.core.constraints import AccessPattern
    from repro.core.mutants import MutantCandidate


class TransactionError(Exception):
    """Raised on transactional misuse (double commit, journal reuse)."""


class StalePlanError(TransactionError):
    """A plan's basis version no longer matches the allocator's.

    Raised by :meth:`~repro.core.allocator.ActiveRmtAllocator.commit`
    (and the controller's plan-commit entry points) when some other
    commit, release, or rollback moved the state on after the plan was
    computed.  Nothing re-plans it: the control plane commits each plan
    against the version it was made on, so this names a caller that
    let the state move in between.
    """


#: fid -> physical stage -> (old range or None, new range or None).
#: Mirrors :data:`repro.core.allocator.ReallocationMap`; duplicated here
#: so the transaction types do not import the allocator module.
ReallocationMap = Dict[int, Dict[int, Tuple[Optional[BlockRange], Optional[BlockRange]]]]


class PlanState(enum.Enum):
    """Lifecycle of an :class:`AllocationPlan`."""

    PENDING = "pending"  # planned, not yet committed or aborted
    COMMITTED = "committed"  # applied to the real pools
    ABORTED = "aborted"  # discarded (or rolled back after commit)


# ----------------------------------------------------------------------
# Pool snapshots
# ----------------------------------------------------------------------

#: One resident's full state: (fid, elastic, demand, arrival).
ResidentState = Tuple[int, bool, Optional[int], int]


@dataclasses.dataclass(frozen=True)
class PoolSnapshot:
    """Byte-identical capture of one stage pool's population.

    A stage's block layout is a pure function of its resident set
    (fids, elasticity, demands, arrival order), so capturing that set
    is enough to reproduce the layout exactly on restore.
    """

    total_blocks: int
    residents: Tuple[ResidentState, ...]

    @classmethod
    def capture(cls, pool: StagePool) -> "PoolSnapshot":
        return cls(
            total_blocks=pool.total_blocks,
            residents=pool.export_residents(),
        )

    def restore(self, pool: StagePool) -> None:
        """Overwrite *pool*'s population with the captured one."""
        if pool.total_blocks != self.total_blocks:
            raise TransactionError(
                f"snapshot of a {self.total_blocks}-block pool cannot "
                f"restore a {pool.total_blocks}-block pool"
            )
        pool.load_residents(self.residents)

    def matches(self, pool: StagePool) -> bool:
        """Is *pool*'s current population identical to the capture?"""
        return (
            pool.total_blocks == self.total_blocks
            and pool.export_residents() == self.residents
        )


# ----------------------------------------------------------------------
# Allocation plans
# ----------------------------------------------------------------------


@dataclasses.dataclass
class AllocationPlan:
    """A fully computed admission -- the decision, once committed.

    Produced by :meth:`ActiveRmtAllocator.plan` without touching any
    real state; consumed by :meth:`~ActiveRmtAllocator.commit` or
    :meth:`~ActiveRmtAllocator.abort`.  All region and reallocation
    fields are computed against copy-on-write shadows of the stage
    pools, so a plan can be inspected, compared, or thrown away freely
    (the ``dry_run`` admission mode is exactly that).

    Attributes:
        fid: the requesting application.
        pattern: its memory-access pattern.
        feasible: whether any mutant fit under current occupancy.
        reason: failure explanation when not feasible.
        mutant: the winning mutant (None when infeasible).
        demand_by_stage: physical stage -> merged block demand
            (None = elastic) the commit will apply.
        regions: physical stage -> block range the newcomer would get.
        reallocations: ranges of *other* applications that would change.
        candidates_considered: mutants enumerated during the search.
        candidates_feasible: mutants that passed feasibility.
        search_seconds: time spent enumerating and scoring.
        assign_seconds: time spent computing the shadow assignment
            and, once committed, applying it (the dominant term in the
            paper's Figure 5).
        basis_version: allocator version the plan was computed against;
            commits of stale plans are refused.
        planned_arrival: arrival stamp the commit will assign.
        state: PENDING until committed/aborted.
    """

    fid: int
    pattern: "AccessPattern"
    feasible: bool
    reason: str = ""
    mutant: Optional["MutantCandidate"] = None
    demand_by_stage: Dict[int, Optional[int]] = dataclasses.field(
        default_factory=dict
    )
    regions: Dict[int, BlockRange] = dataclasses.field(default_factory=dict)
    reallocations: ReallocationMap = dataclasses.field(default_factory=dict)
    candidates_considered: int = 0
    candidates_feasible: int = 0
    search_seconds: float = 0.0
    assign_seconds: float = 0.0
    basis_version: int = 0
    planned_arrival: int = 0
    state: PlanState = PlanState.PENDING
    #: Each touched stage's layout with the plan applied, as its shadow
    #: pool computed it: the commit adopts these instead of laying the
    #: pools out again, and the plan gives them up once applied or
    #: aborted, so a kept plan holds none.
    layouts: Optional[Dict[int, Mapping[int, BlockRange]]] = dataclasses.field(
        default=None, compare=False, repr=False
    )

    @property
    def total_seconds(self) -> float:
        return self.search_seconds + self.assign_seconds

    @property
    def reallocated_fids(self) -> List[int]:
        return sorted(self.reallocations)

    # ------------------------------------------------------------------
    # Plan-vs-program cross-checks (consumed by repro.analysis)
    # ------------------------------------------------------------------

    def granted_stages(self) -> List[int]:
        """Physical stages where this plan grants a non-empty region."""
        return sorted(
            stage
            for stage, block_range in self.regions.items()
            if block_range.count > 0
        )

    def word_regions(self, block_words: int) -> Dict[int, Tuple[int, int]]:
        """Granted regions as ``{stage: (start_word, end_word)}``.

        The word-level view the protection TCAM enforces -- what the
        verifier checks translated addresses against.
        """
        out: Dict[int, Tuple[int, int]] = {}
        for stage, block_range in self.regions.items():
            if block_range.count <= 0:
                continue
            words = block_range.to_words(block_words)
            out[stage] = (words.start, words.end)
        return out


@dataclasses.dataclass(frozen=True)
class AllocatorCheckpoint:
    """Exact allocator state before a commit or a release of *fid*, for
    the stages it touches: what :meth:`~ActiveRmtAllocator.rollback`
    puts back."""

    version: int
    arrival_counter: int
    pools: Mapping[int, PoolSnapshot]
    fid: int
    #: *fid*'s app record before the change (None before an admission:
    #: rolling one back removes the record, rolling a release back
    #: restores it).
    record: Optional["AppRecord"]


@dataclasses.dataclass
class CommitResult:
    """Outcome of committing an :class:`AllocationPlan`.

    Carries the committed plan -- the decision itself -- plus the
    checkpoint needed to undo the commit byte-for-byte via
    :meth:`~ActiveRmtAllocator.rollback`.
    """

    plan: AllocationPlan
    checkpoint: AllocatorCheckpoint


# ----------------------------------------------------------------------
# Reversible switch-state journal
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class JournalEntry:
    """One operation and the closure that reverses it."""

    description: str
    undo: Callable[[], None]


class TableUpdateJournal:
    """Undo log for switch-state mutations within one transaction.

    Every forward operation (one FID's table delta, an activation
    flip of a set of FIDs, a register scrub) records an entry *before*
    it is applied: a device write whose response is lost has landed all
    the same, and only a record that is already in the journal undoes
    it.  That asks each undo to be idempotent -- to put back the state
    before the operation whether all, part or none of it landed --
    which every recorded undo is.  :meth:`rollback` replays the undos
    in reverse order, walking the switch back through the exact
    intermediate states to the pre-transaction one.  Because the
    forward sequence never exceeded any capacity limit, neither does
    its reversal.

    A journal is single-use: after :meth:`commit_entries` or
    :meth:`rollback` it refuses further recording.

    Args:
        tracer: optional span tracer (inert when omitted).
            :meth:`rollback` records a ``journal.rollback`` span (the
            *journal-replay* event every anomaly reconstruction hinges
            on) and :meth:`commit_entries` a ``journal.commit`` span,
            both under the open span of the transaction it covers.
    """

    def __init__(self, tracer: Optional[AnyTracer] = None) -> None:
        self._entries: List[JournalEntry] = []
        self._closed = False
        self._tracer: AnyTracer = tracer if tracer is not None else NULL_TRACER

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def entries(self) -> Tuple[JournalEntry, ...]:
        return tuple(self._entries)

    def record(self, description: str, undo: Callable[[], None]) -> None:
        """Log one operation, about to be applied, and how to reverse it."""
        if self._closed:
            raise TransactionError(
                f"journal is closed; cannot record {description!r}"
            )
        self._entries.append(JournalEntry(description=description, undo=undo))

    def rollback(self) -> int:
        """Undo every recorded operation, newest first.

        Returns the number of operations reversed.  The journal is
        closed afterwards.
        """
        if self._closed:
            raise TransactionError("journal already closed")
        with self._tracer.span("journal.rollback", entries=len(self._entries)):
            self._closed = True
            reversed_count = 0
            entries, self._entries = self._entries, []
            for entry in reversed(entries):
                entry.undo()
                reversed_count += 1
            return reversed_count

    def commit_entries(self) -> int:
        """Discard the undo log (the transaction succeeded).

        Returns the number of operations that were covered.
        """
        if self._closed:
            raise TransactionError("journal already closed")
        self._closed = True
        count = len(self._entries)
        self._entries = []
        with self._tracer.span("journal.commit", entries=count):
            return count
