"""The online memory allocator (Sections 4.2-4.3).

Admission is first-come-first-serve: a new application presents its
access pattern; the allocator reads the pattern's mutants under the
active policy (enumerated once, on the pattern's first plan), filters
them by per-stage feasibility, scores them
with the configured scheme, and applies the winner.  Existing
applications never move across stages ("our online allocation mechanism
does not consider relocating existing applications"), but elastic
applications sharing a stage are resized by progressive filling, which
the plan reports as reallocations (each costs the affected client a
snapshot/restore cycle, Section 4.3).

Admission is transactional: :meth:`ActiveRmtAllocator.plan` computes
the whole decision against copy-on-write shadows of the stage pools --
zero mutation during the search -- and :meth:`~ActiveRmtAllocator.commit`
/ :meth:`~ActiveRmtAllocator.abort` apply or discard it.  A committed
admission can be undone byte-for-byte with
:meth:`~ActiveRmtAllocator.rollback` (the controller uses this when the
switch rejects the table updates).  The committed plan is the
admission's one record; the legacy single-call
:meth:`~ActiveRmtAllocator.allocate` survives as a plan+commit wrapper.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from repro.core.blocks import BlockRange, StagePool
from repro.core.constraints import AccessPattern, AllocationPolicy, MOST_CONSTRAINED
from repro.core.mutants import MutantCandidate, MutantTable, mutant_table
from repro.core.schemes import AllocationScheme
from repro.core.transactions import (
    AllocationPlan,
    AllocatorCheckpoint,
    CommitResult,
    PlanState,
    PoolSnapshot,
    StalePlanError,
    TransactionError,
)
from repro.packets.headers import AllocationResponseHeader
from repro.switchsim.config import SwitchConfig
from repro.telemetry import (
    AnyTracer,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    resolve,
    resolve_tracer,
)


class AllocationError(Exception):
    """Raised on misuse of the allocator (duplicate FID, unknown FID)."""


@dataclasses.dataclass
class AppRecord:
    """Bookkeeping for one admitted application."""

    fid: int
    pattern: AccessPattern
    mutant: MutantCandidate
    arrival: int
    demand_by_stage: Dict[int, Optional[int]]

    @property
    def elastic(self) -> bool:
        return self.pattern.elastic


#: fid -> physical stage -> (old range or None, new range or None)
ReallocationMap = Dict[int, Dict[int, Tuple[Optional[BlockRange], Optional[BlockRange]]]]


def _moved_blocks(reallocations: ReallocationMap) -> int:
    """Blocks whose placement changed -- each one a client must re-page."""
    moved = 0
    for per_stage in reallocations.values():
        for old, new in per_stage.values():
            if old is not None and old != new:
                moved += old.count
    return moved


class ActiveRmtAllocator:
    """Online, block-granular, per-stage memory allocator.

    Its counts start as these class-level zeros, so a shadow starts with
    none; :meth:`metrics` is the registry's view of the live allocator's
    counts and of :attr:`allocation_seconds`.
    """

    admitted = rejected = releases = rollbacks = 0
    candidates_considered = candidates_feasible = apps_displaced = blocks_moved = 0

    def __init__(
        self,
        config: Optional[SwitchConfig] = None,
        scheme: AllocationScheme = AllocationScheme.WORST_FIT,
        policy: AllocationPolicy = MOST_CONSTRAINED,
        telemetry: Optional[MetricsRegistry] = None,
        tracer: Optional[AnyTracer] = None,
    ) -> None:
        self.config = config or SwitchConfig()
        self.scheme = scheme
        self.policy = policy
        self.telemetry = resolve(telemetry)
        self.tracer = resolve_tracer(tracer)
        self.pools: Dict[int, StagePool] = {
            stage: StagePool(self.config.blocks_per_stage)
            for stage in range(1, self.config.num_stages + 1)
        }
        self.apps: Dict[int, AppRecord] = {}
        #: Each pattern's mutants, enumerated on its first plan and
        #: shared by reference with every shadow.
        self._mutant_tables: Dict[Hashable, MutantTable] = {}
        self._arrival_counter = 0
        #: Monotonic state version: bumped by every commit, release, and
        #: rollback.  Plans stamp the version they were computed against
        #: and cannot be committed once it has moved on.
        self._version = 0
        #: Decision latency (search + assign) of each counted decision.
        self.allocation_seconds = Histogram()
        self.telemetry.register(self)

    def metrics(self) -> Dict[str, object]:
        return {
            "allocator_decisions_total{outcome}": {
                "admitted": self.admitted, "rejected": self.rejected
            },
            "allocator_candidates_considered_total": self.candidates_considered,
            "allocator_candidates_feasible_total": self.candidates_feasible,
            "allocator_apps_displaced_total": self.apps_displaced,
            "allocator_blocks_moved_total": self.blocks_moved,
            "allocator_releases_total": self.releases,
            "allocator_rollbacks_total": self.rollbacks,
            "allocator_allocation_seconds": self.allocation_seconds,
        }

    @property
    def version(self) -> int:
        """Current state version (the basis stamp for new plans)."""
        return self._version

    # ------------------------------------------------------------------
    # Admission: plan -> validate -> commit
    # ------------------------------------------------------------------

    def plan(self, fid: int, pattern: AccessPattern) -> AllocationPlan:
        """Compute what admitting *fid* would do -- without doing it.

        The mutant search only reads pool state (feasibility checks and
        scheme scoring are pure); the assignment is then computed on
        copy-on-write shadow pools, so no allocator or pool state
        mutates before -- or after -- a feasible winner is chosen.  The
        returned plan is committed with :meth:`commit`, discarded with
        :meth:`abort`, or inspected as a what-if probe.

        The search is recorded as an ``allocator.plan`` span, under the
        caller's open span.
        """
        with self.tracer.span("allocator.plan", fid=fid) as span:
            plan = self._plan_impl(fid, pattern)
            span.set(
                feasible=plan.feasible,
                basis_version=plan.basis_version,
                candidates_considered=plan.candidates_considered,
            )
            return plan

    def _plan_impl(self, fid: int, pattern: AccessPattern) -> AllocationPlan:
        if fid in self.apps:
            raise AllocationError(f"fid {fid} already admitted")
        search_start = time.perf_counter()
        rows = mutant_table(self._mutant_tables, pattern, self.policy, self.config)
        scheme = self.scheme
        # One pass over the pools: each stage's slack (exactly what
        # fits_elastic / fits_inelastic test: an elastic newcomer needs
        # one block of it, an inelastic one its demand) and its score input.
        slack: Dict[int, int] = {}
        values: Dict[int, Any] = {}
        for stage, pool in self.pools.items():
            slack[stage] = pool.total_blocks - pool.pinned_blocks - pool.elastic_count
            values[stage] = scheme.stage_value(pool)
        best: Optional[MutantCandidate] = None
        best_score: Optional[Tuple] = None
        best_demands: Tuple[Optional[int], ...] = ()
        considered = 0
        feasible = 0
        for order, (candidate, demands) in enumerate(rows):
            considered += 1
            for stage, demand in zip(candidate.physical_stages, demands):
                if slack[stage] < (demand or 1):
                    break
            else:
                feasible += 1
                score = scheme.rank(candidate, values, order)
                if best_score is None or score < best_score:
                    best, best_score, best_demands = candidate, score, demands
                if scheme is AllocationScheme.FIRST_FIT:
                    break
        search_seconds = time.perf_counter() - search_start
        if best is None:
            return AllocationPlan(
                fid=fid,
                pattern=pattern,
                feasible=False,
                # An empty table is the pattern's fault, whatever the occupancy.
                reason="no feasible mutant under current occupancy" if rows else
                f"no mutant of {pattern.name!r} under the {self.policy.name} policy",
                candidates_considered=considered,
                candidates_feasible=feasible,
                search_seconds=search_seconds,
                basis_version=self._version,
            )

        assign_start = time.perf_counter()
        planned_arrival = self._arrival_counter + 1
        demand_by_stage = dict(zip(best.physical_stages, best_demands))
        before = self._layout_snapshot(demand_by_stage)
        shadows = {
            stage: self.pools[stage].clone() for stage in demand_by_stage
        }
        for stage, demand in demand_by_stage.items():
            shadows[stage].add(fid, demand, planned_arrival)
        after = {stage: shadows[stage].layout() for stage in shadows}
        regions, reallocations = self._diff_layouts(fid, before, after)
        assign_seconds = time.perf_counter() - assign_start
        return AllocationPlan(
            fid=fid,
            pattern=pattern,
            feasible=True,
            mutant=best,
            demand_by_stage=demand_by_stage,
            regions=regions,
            reallocations=reallocations,
            candidates_considered=considered,
            candidates_feasible=feasible,
            search_seconds=search_seconds,
            assign_seconds=assign_seconds,
            basis_version=self._version,
            planned_arrival=planned_arrival,
            layouts=after,
        )

    def commit(self, plan: AllocationPlan) -> CommitResult:
        """Apply a feasible plan to the real pools.

        Validates the plan first: it must be PENDING, feasible, and
        computed against the current state version (any commit, release,
        or rollback since planning invalidates it).  The committed plan
        is the decision: its ``assign_seconds`` grows by the apply time,
        so ``total_seconds`` is search + assign + apply.  Returns a
        :class:`CommitResult` whose checkpoint allows an exact undo via
        :meth:`rollback`.  Counts nothing: the caller calls
        :meth:`record_decision` once the switch has taken the admission
        too, so a rolled-back one never pollutes the decision counts.

        The apply is recorded as an ``allocator.commit`` span; a
        stale-plan rejection records the span with an ``error``
        attribute before raising.
        """
        with self.tracer.span(
            "allocator.commit", fid=plan.fid,
            basis_version=plan.basis_version,
        ) as span:
            self._validate(plan, "commit")
            apply_start = time.perf_counter()
            checkpoint = self._checkpoint(plan.fid, plan.demand_by_stage)
            self._apply_plan(plan)
            plan.state = PlanState.COMMITTED
            plan.assign_seconds += time.perf_counter() - apply_start
            span.set(version=self._version)
            return CommitResult(plan.fid, {}, plan.regions, plan.reallocations, checkpoint, plan)

    def _validate(self, plan: AllocationPlan, verb: str) -> None:
        """Refuse a spent, infeasible or stale *plan* before anything --
        a checkpoint included -- is spent on it."""
        if plan.state is not PlanState.PENDING:
            raise TransactionError(
                f"plan for fid {plan.fid} already {plan.state.value}"
            )
        if not plan.feasible:
            raise TransactionError(
                f"cannot {verb} infeasible plan for fid {plan.fid}"
            )
        if plan.basis_version != self._version:
            raise StalePlanError(
                f"stale plan for fid {plan.fid}: computed against version "
                f"{plan.basis_version}, allocator is at {self._version}"
            )

    def _apply_plan(self, plan: AllocationPlan) -> None:
        """Apply a validated *plan* to the pools and the app table: the
        one body :meth:`commit` and :meth:`rehearse` share."""
        self._arrival_counter += 1
        arrival = self._arrival_counter
        assert arrival == plan.planned_arrival
        # The validated basis is the one the shadow laid out against, so
        # its layouts are these pools' next ones; the plan gives them up.
        layouts, plan.layouts = plan.layouts or {}, None
        for stage, demand in plan.demand_by_stage.items():
            self.pools[stage].add(plan.fid, demand, arrival, layouts.get(stage))
        self.apps[plan.fid] = AppRecord(
            fid=plan.fid,
            pattern=plan.pattern,
            mutant=plan.mutant,
            arrival=arrival,
            demand_by_stage=dict(plan.demand_by_stage),
        )
        self._version += 1

    def shadow(self) -> "ActiveRmtAllocator":
        """A copy-on-write planning twin of this allocator.

        The shadow owns cloned stage pools and a copied app table but
        shares the immutable config/scheme/policy and the mutant tables
        (:data:`~repro.core.mutants.MutantTable`); plans computed
        against it carry this allocator's current version stamp, so
        they commit cleanly here as long as no other commit, release,
        or rollback intervened -- and raise :class:`StalePlanError`
        otherwise.  A group plans on one, and a what-if probe may.

        A shadow is not registered with the telemetry, and its decision
        histogram is its own: its planning is speculative and may be
        discarded.
        """
        twin = ActiveRmtAllocator.__new__(ActiveRmtAllocator)
        twin.config = self.config
        twin.scheme = self.scheme
        twin.policy = self.policy
        twin.telemetry = NULL_REGISTRY
        twin.allocation_seconds = Histogram()
        # Shadows *do* share the tracer: speculative planning is
        # exactly what the causal story needs to show (a retried
        # request's abandoned plan spans stay in its tree).
        twin.tracer = self.tracer
        twin.pools = {stage: pool.clone() for stage, pool in self.pools.items()}
        twin.apps = dict(self.apps)
        twin._mutant_tables = self._mutant_tables
        twin._arrival_counter = self._arrival_counter
        twin._version = self._version
        return twin

    def rehearse(self, plan: AllocationPlan) -> None:
        """Apply a feasible plan to *this* allocator without spending it.

        Batched admission plans several fids against one shadow:
        rehearsing each plan onto the shadow lets later plans see
        earlier grants, while every plan stays ``PENDING`` so the real
        allocator can still :meth:`commit` it.  Rehearsal advances the
        shadow's version and arrival counter exactly as the real commit
        will, keeping the whole group's basis stamps consistent.
        """
        self._validate(plan, "rehearse")
        self._apply_plan(plan)

    def abort(self, plan: AllocationPlan) -> None:
        """Discard a pending plan.  Nothing to undo: plans are pure."""
        if plan.state is PlanState.COMMITTED:
            raise TransactionError(
                f"plan for fid {plan.fid} is committed; use rollback()"
            )
        plan.state = PlanState.ABORTED
        plan.layouts = None

    def rollback(self, change: CommitResult) -> None:
        """Undo a commit or a release (the :class:`CommitResult` it
        handed back), restoring the exact state before it.

        Pools are restored from the checkpoint's byte-identical
        snapshots (not by release-and-relayout), the arrival counter
        and version stamps rewind, and the app record disappears -- or,
        for a release, comes back.  The only count touched is
        :attr:`rollbacks` -- a rollback is not a release and moves no
        client state.  An ``allocator.rollback`` span
        lands under the open span, so the undo is part of the request's
        causal tree.
        """
        checkpoint, plan = change.checkpoint, change.plan
        with self.tracer.span(
            "allocator.rollback", fid=checkpoint.fid,
            restored_version=checkpoint.version,
        ):
            if plan is not None:
                if plan.state is not PlanState.COMMITTED:
                    raise TransactionError(
                        f"plan for fid {plan.fid} is {plan.state.value}, "
                        "not committed; nothing to roll back"
                    )
                plan.state = PlanState.ABORTED
            if checkpoint.record is None:
                self.apps.pop(checkpoint.fid, None)
            else:
                self.apps[checkpoint.fid] = checkpoint.record
            for stage, snapshot in checkpoint.pools.items():
                snapshot.restore(self.pools[stage])
            self._arrival_counter = checkpoint.arrival_counter
            self._version = checkpoint.version
            self.rollbacks += 1

    def allocate(self, fid: int, pattern: AccessPattern) -> AllocationPlan:
        """Attempt to admit *fid* with the given access pattern.

        Legacy single-call admission: exactly ``plan()`` followed by
        ``commit()`` (or ``abort()`` when infeasible), returning the
        plan either way -- committed, or carrying the planner's verdict.
        """
        plan = self.plan(fid, pattern)
        if plan.feasible:
            self.commit(plan)
        else:
            self.abort(plan)
        self.record_decision(plan)
        return plan

    def release(self, fid: int) -> CommitResult:
        """Remove an application; elastic co-residents expand.

        Returns the departure's record, the type a commit returns: the
        regions *fid* held (*new* is empty), the reallocation map of
        applications whose ranges changed as a result, and the
        checkpoint :meth:`rollback` undoes the release with -- the one a
        commit takes, over the stages *fid* held.  Counts nothing: the
        caller calls :meth:`record_release` once the switch has taken
        the departure too.
        """
        app = self.apps.get(fid)
        if app is None:
            raise AllocationError(f"fid {fid} not admitted")
        stages = list(app.demand_by_stage)
        checkpoint = self._checkpoint(fid, stages)
        del self.apps[fid]
        before = self._layout_snapshot(stages)
        old = {s: r for s in stages if (r := before[s].get(fid)) is not None and r.count > 0}
        for stage in stages:
            self.pools[stage].remove(fid)
        self._version += 1
        after = self._layout_snapshot(stages)
        _regions, reallocations = self._diff_layouts(fid, before, after)
        return CommitResult(fid, old, {}, reallocations, checkpoint)

    def record_release(self, change: CommitResult) -> None:
        """Count one departure the switch has taken too."""
        self.releases += 1
        self.apps_displaced += len(change.reallocations)
        self.blocks_moved += _moved_blocks(change.reallocations)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def utilization(self) -> float:
        """Fraction of total switch register memory currently allocated."""
        used = sum(pool.used_blocks for pool in self.pools.values())
        total = self.config.blocks_per_stage * self.config.num_stages
        return used / total

    def resident_fids(self) -> List[int]:
        return sorted(self.apps)

    def app_total_blocks(self, fid: int) -> int:
        """Total blocks currently held by *fid* across all stages."""
        record = self.apps.get(fid)
        if record is None:
            raise AllocationError(f"fid {fid} not admitted")
        total = 0
        for stage in record.demand_by_stage:
            block_range = self.pools[stage].range_for(fid)
            if block_range is not None:
                total += block_range.count
        return total

    def regions_for(self, fid: int) -> Dict[int, BlockRange]:
        """Current per-stage block ranges of an admitted application."""
        record = self.apps.get(fid)
        if record is None:
            raise AllocationError(f"fid {fid} not admitted")
        return {
            stage: self.pools[stage].range_for(fid)
            for stage in record.demand_by_stage
        }

    def response_for(self, fid: int) -> AllocationResponseHeader:
        """Allocation-response header for an admitted application."""
        block_words = self.config.block_words
        regions = {
            stage: block_range.to_words(block_words)
            for stage, block_range in self.regions_for(fid).items()
            if block_range is not None and block_range.count > 0
        }
        return AllocationResponseHeader.from_map(regions)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _checkpoint(self, fid: int, stages: Iterable[int]) -> AllocatorCheckpoint:
        """Exact state before a commit or release of *fid* touches *stages*."""
        return AllocatorCheckpoint(
            version=self._version,
            arrival_counter=self._arrival_counter,
            pools={
                stage: PoolSnapshot.capture(self.pools[stage])
                for stage in stages
            },
            fid=fid,
            record=self.apps.get(fid),
        )

    def record_decision(self, plan: AllocationPlan) -> None:
        """Count one admission attempt: a committed or an infeasible plan."""
        self.candidates_considered += plan.candidates_considered
        self.candidates_feasible += plan.candidates_feasible
        if plan.feasible:
            self.admitted += 1
            self.apps_displaced += len(plan.reallocations)
            self.blocks_moved += _moved_blocks(plan.reallocations)
        else:
            self.rejected += 1
        self.allocation_seconds.observe(plan.total_seconds)

    def _layout_snapshot(
        self, stages: Iterable[int]
    ) -> Dict[int, Mapping[int, BlockRange]]:
        return {stage: self.pools[stage].layout() for stage in stages}

    def _diff_layouts(
        self,
        new_fid: int,
        before: Mapping[int, Mapping[int, BlockRange]],
        after: Mapping[int, Mapping[int, BlockRange]],
    ) -> Tuple[Dict[int, BlockRange], ReallocationMap]:
        """*new_fid*'s regions in *after*, and every other FID's ranges
        that differ between the two, stage by stage in *after*'s order."""
        regions: Dict[int, BlockRange] = {}
        reallocations: ReallocationMap = {}
        for stage, new_layout in after.items():
            old_layout = before.get(stage, {})
            kept = 0
            for fid, new in new_layout.items():
                if fid == new_fid:
                    regions[stage] = new
                    continue
                old = old_layout.get(fid)
                if old is None:
                    reallocations.setdefault(fid, {})[stage] = (None, new)
                    continue
                kept += 1
                if old.start != new.start or old.count != new.count:
                    reallocations.setdefault(fid, {})[stage] = (old, new)
            # Walk the old layout only when some FID other than new_fid left it.
            if kept + (new_fid in old_layout) < len(old_layout):
                for fid, old in old_layout.items():
                    if fid != new_fid and fid not in new_layout:
                        reallocations.setdefault(fid, {})[stage] = (old, None)
        return regions, reallocations
