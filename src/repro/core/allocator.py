"""The online memory allocator (Sections 4.2-4.3).

Admission is first-come-first-serve: a new application presents its
access pattern; the allocator enumerates the pattern's mutants under
the active policy, filters them by per-stage feasibility, scores them
with the configured scheme, and applies the winner.  Existing
applications never move across stages ("our online allocation mechanism
does not consider relocating existing applications"), but elastic
applications sharing a stage are resized by progressive filling, which
the decision reports as reallocations (each costs the affected client a
snapshot/restore cycle, Section 4.3).

Admission is transactional: :meth:`ActiveRmtAllocator.plan` computes
the whole decision against copy-on-write shadows of the stage pools --
zero mutation during the search -- and :meth:`~ActiveRmtAllocator.commit`
/ :meth:`~ActiveRmtAllocator.abort` apply or discard it.  A committed
admission can be undone byte-for-byte with
:meth:`~ActiveRmtAllocator.rollback` (the controller uses this when the
switch rejects the table updates).  The legacy single-call
:meth:`~ActiveRmtAllocator.allocate` survives as a plan+commit wrapper.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.blocks import BlockRange, StagePool
from repro.core.constraints import AccessPattern, AllocationPolicy, MOST_CONSTRAINED
from repro.core.mutants import MutantCandidate, enumerate_mutants
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
from repro.packets.headers import AllocationResponseHeader, StageRegion
from repro.switchsim.config import SwitchConfig
from repro.telemetry import (
    LATENCY_BUCKETS_S,
    AnyTracer,
    MetricsRegistry,
    NULL_REGISTRY,
    resolve,
    resolve_tracer,
)
from repro.telemetry.tracing import ParentLike


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


@dataclasses.dataclass
class AllocationDecision:
    """Outcome of one admission attempt.

    Attributes:
        success: whether the application was admitted.
        fid: the requesting application.
        reason: failure explanation when not admitted.
        mutant: the chosen mutant (None on failure).
        regions: physical stage -> block range granted to the new app.
        reallocations: resized/moved ranges of *other* applications.
        candidates_considered: mutants enumerated during the search.
        candidates_feasible: mutants that passed feasibility.
        search_seconds: time spent enumerating and scoring.
        assign_seconds: time spent computing final assignments
            (the dominant term in the paper's Figure 5).
    """

    success: bool
    fid: int
    reason: str = ""
    mutant: Optional[MutantCandidate] = None
    regions: Dict[int, BlockRange] = dataclasses.field(default_factory=dict)
    reallocations: ReallocationMap = dataclasses.field(default_factory=dict)
    candidates_considered: int = 0
    candidates_feasible: int = 0
    search_seconds: float = 0.0
    assign_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.search_seconds + self.assign_seconds

    @property
    def reallocated_fids(self) -> List[int]:
        return sorted(self.reallocations)


def _moved_blocks(reallocations: ReallocationMap) -> int:
    """Blocks whose placement changed -- each one a client must re-page."""
    moved = 0
    for per_stage in reallocations.values():
        for old, new in per_stage.values():
            if old is not None and old != new:
                moved += old.count
    return moved


def merge_demands(
    left: Optional[int], right: Optional[int]
) -> Optional[int]:
    """Combine demands of two accesses that share a physical stage.

    Elastic (None) merges with anything by yielding to the inelastic
    demand; two inelastic demands take the max (the accesses address
    the same region).
    """
    if left is None:
        return right
    if right is None:
        return left
    return max(left, right)


class ActiveRmtAllocator:
    """Online, block-granular, per-stage memory allocator."""

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
        self._arrival_counter = 0
        #: Monotonic state version: bumped by every commit, release, and
        #: rollback.  Plans stamp the version they were computed against
        #: and cannot be committed once it has moved on.
        self._version = 0

    @property
    def version(self) -> int:
        """Current state version (the basis stamp for new plans)."""
        return self._version

    # ------------------------------------------------------------------
    # Admission: plan -> validate -> commit
    # ------------------------------------------------------------------

    def plan(
        self, fid: int, pattern: AccessPattern, ctx: ParentLike = None
    ) -> AllocationPlan:
        """Compute what admitting *fid* would do -- without doing it.

        The mutant search only reads pool state (feasibility checks and
        scheme scoring are pure); the assignment is then computed on
        copy-on-write shadow pools, so no allocator or pool state
        mutates before -- or after -- a feasible winner is chosen.  The
        returned plan is committed with :meth:`commit`, discarded with
        :meth:`abort`, or inspected as a what-if probe.

        The search is recorded as an ``allocator.plan`` span under
        *ctx* (the caller's trace context, threaded explicitly from the
        admission request).
        """
        with self.tracer.span("allocator.plan", parent=ctx, fid=fid) as span:
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
        best: Optional[MutantCandidate] = None
        best_score: Optional[Tuple] = None
        best_demands: Dict[int, Optional[int]] = {}
        considered = 0
        feasible = 0
        for order, candidate in enumerate(
            enumerate_mutants(pattern, self.policy, self.config)
        ):
            considered += 1
            demands = self._stage_demands(candidate, pattern)
            if not self._is_feasible(demands):
                continue
            feasible += 1
            score = self.scheme.score(candidate, self.pools, order)
            if best_score is None or score < best_score:
                best, best_score, best_demands = candidate, score, demands
            if self.scheme is AllocationScheme.FIRST_FIT:
                break
        search_seconds = time.perf_counter() - search_start
        if best is None:
            return AllocationPlan(
                fid=fid,
                pattern=pattern,
                feasible=False,
                reason="no feasible mutant under current occupancy",
                candidates_considered=considered,
                candidates_feasible=feasible,
                search_seconds=search_seconds,
                basis_version=self._version,
            )

        assign_start = time.perf_counter()
        planned_arrival = self._arrival_counter + 1
        before = self._layout_snapshot(best_demands.keys())
        shadows = {
            stage: self.pools[stage].clone() for stage in best_demands
        }
        for stage, demand in best_demands.items():
            shadows[stage].add(fid, demand, planned_arrival)
        after = {stage: shadows[stage].layout() for stage in shadows}
        regions, reallocations = self._diff_layouts(fid, before, after)
        assign_seconds = time.perf_counter() - assign_start
        return AllocationPlan(
            fid=fid,
            pattern=pattern,
            feasible=True,
            mutant=best,
            demand_by_stage=dict(best_demands),
            regions=regions,
            reallocations=reallocations,
            candidates_considered=considered,
            candidates_feasible=feasible,
            search_seconds=search_seconds,
            assign_seconds=assign_seconds,
            basis_version=self._version,
            planned_arrival=planned_arrival,
        )

    def commit(
        self,
        plan: AllocationPlan,
        record: bool = True,
        ctx: ParentLike = None,
    ) -> CommitResult:
        """Apply a feasible plan to the real pools.

        Validates the plan first: it must be PENDING, feasible, and
        computed against the current state version (any commit, release,
        or rollback since planning invalidates it).  Returns a
        :class:`CommitResult` whose checkpoint allows an exact undo via
        :meth:`rollback`.

        The apply is recorded as an ``allocator.commit`` span under
        *ctx*; a stale-plan rejection records the span with an
        ``error`` attribute before raising.

        Args:
            plan: the plan to apply.
            record: publish decision telemetry now.  Two-phase callers
                (the controller) pass False and call
                :meth:`record_decision` only once the switch-side
                updates have also succeeded, so rolled-back admissions
                never pollute the decision counters.
            ctx: optional trace context this commit belongs to.
        """
        with self.tracer.span(
            "allocator.commit", parent=ctx, fid=plan.fid,
            basis_version=plan.basis_version,
        ) as span:
            result = self._commit_impl(plan, record)
            span.set(version=self._version)
            return result

    def _commit_impl(self, plan: AllocationPlan, record: bool) -> CommitResult:
        self._validate(plan, "commit")
        apply_start = time.perf_counter()
        checkpoint = self._checkpoint(plan.fid, plan.demand_by_stage)
        self._apply_plan(plan)
        plan.state = PlanState.COMMITTED
        apply_seconds = time.perf_counter() - apply_start
        decision = self.decision_from_plan(plan)
        decision.assign_seconds += apply_seconds
        if record:
            self.record_decision(decision)
        return CommitResult(
            plan=plan,
            decision=decision,
            checkpoint=checkpoint,
            apply_seconds=apply_seconds,
        )

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
        for stage, demand in plan.demand_by_stage.items():
            self.pools[stage].add(plan.fid, demand, arrival)
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
        shares the immutable config/scheme/policy; plans computed
        against it carry this allocator's current version stamp, so
        they commit cleanly here as long as no other commit, release,
        or rollback intervened -- and raise :class:`StalePlanError`
        otherwise.  This is the speculative half of the optimistic
        plan/commit pipeline: many shadows can plan in parallel while
        only the short commit path serializes.

        Shadows record no telemetry (their planning is speculative and
        may be discarded), and taking one must be serialized with
        commits -- the caller snapshots under the same lock that
        guards :meth:`commit`.
        """
        twin = ActiveRmtAllocator.__new__(ActiveRmtAllocator)
        twin.config = self.config
        twin.scheme = self.scheme
        twin.policy = self.policy
        twin.telemetry = NULL_REGISTRY
        # Shadows *do* share the tracer: speculative planning is
        # exactly what the causal story needs to show (a retried
        # request's abandoned plan spans stay in its tree).
        twin.tracer = self.tracer
        twin.pools = {stage: pool.clone() for stage, pool in self.pools.items()}
        twin.apps = dict(self.apps)
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

    def rollback(
        self,
        result: Union[CommitResult, AllocatorCheckpoint],
        ctx: ParentLike = None,
    ) -> None:
        """Undo a commit (its :class:`CommitResult`) or a release (the
        checkpoint it handed back), restoring the exact state before it.

        Pools are restored from the checkpoint's byte-identical
        snapshots (not by release-and-relayout), the arrival counter
        and version stamps rewind, and the app record disappears -- or,
        for a release, comes back.  The only telemetry touched is
        ``allocator_rollbacks_total`` -- a rollback is not a release
        and moves no client state.  An ``allocator.rollback`` span
        lands under *ctx*, so the undo is part of the request's causal
        tree.
        """
        checkpoint, plan = result, None
        if isinstance(result, CommitResult):
            checkpoint, plan = result.checkpoint, result.plan
        with self.tracer.span(
            "allocator.rollback", parent=ctx, fid=checkpoint.fid,
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
            tel = self.telemetry
            if tel.enabled:
                tel.counter(
                    "allocator_rollbacks_total",
                    help="Committed layout changes undone after switch-side failure",
                ).inc()

    def allocate(self, fid: int, pattern: AccessPattern) -> AllocationDecision:
        """Attempt to admit *fid* with the given access pattern.

        Legacy single-call admission: exactly ``plan()`` followed by
        ``commit()`` (or ``abort()`` when infeasible), returning the
        same :class:`AllocationDecision` either way.
        """
        plan = self.plan(fid, pattern)
        if not plan.feasible:
            self.abort(plan)
            decision = self.decision_from_plan(plan)
            self.record_decision(decision)
            return decision
        return self.commit(plan).decision

    def decision_from_plan(self, plan: AllocationPlan) -> AllocationDecision:
        """Materialize the decision a plan describes (copies, not views)."""
        return AllocationDecision(
            success=plan.feasible,
            fid=plan.fid,
            reason=plan.reason,
            mutant=plan.mutant,
            regions=dict(plan.regions),
            reallocations={
                fid: dict(per_stage)
                for fid, per_stage in plan.reallocations.items()
            },
            candidates_considered=plan.candidates_considered,
            candidates_feasible=plan.candidates_feasible,
            search_seconds=plan.search_seconds,
            assign_seconds=plan.assign_seconds,
        )

    def release(self, fid: int) -> Tuple[ReallocationMap, AllocatorCheckpoint]:
        """Remove an application; elastic co-residents expand.

        Returns the reallocation map of applications whose ranges
        changed as a result of the departure, and the checkpoint
        :meth:`rollback` undoes the release with -- the one a commit
        takes, over the stages *fid* held.  Publishes no telemetry: the
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
        for stage in stages:
            self.pools[stage].remove(fid)
        self._version += 1
        after = self._layout_snapshot(stages)
        _regions, reallocations = self._diff_layouts(fid, before, after)
        return reallocations, checkpoint

    def record_release(self, reallocations: ReallocationMap) -> None:
        """Publish one departure into the telemetry registry."""
        tel = self.telemetry
        if tel.enabled:
            tel.counter(
                "allocator_releases_total",
                help="Applications released from the allocator",
            ).inc()
            tel.counter(
                "allocator_apps_displaced_total",
                help="Incumbent apps resized or moved per decision",
            ).inc(len(reallocations))
            tel.counter(
                "allocator_blocks_moved_total",
                help="Memory blocks whose placement changed (snapshot/restore cost)",
            ).inc(_moved_blocks(reallocations))

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

    def word_region(self, stage: int, block_range: BlockRange) -> StageRegion:
        return block_range.to_words(self.config.block_words)

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

    def record_decision(self, decision: AllocationDecision) -> None:
        """Publish one admission attempt into the telemetry registry."""
        tel = self.telemetry
        if not tel.enabled:
            return
        outcome = "admitted" if decision.success else "rejected"
        tel.counter(
            "allocator_decisions_total",
            help="Admission attempts by outcome",
            outcome=outcome,
        ).inc()
        tel.histogram(
            "allocator_allocation_seconds",
            buckets=LATENCY_BUCKETS_S,
            help="End-to-end allocation decision latency (search + assign)",
        ).observe(decision.total_seconds)
        tel.counter(
            "allocator_candidates_considered_total",
            help="Mutants enumerated during admission searches",
        ).inc(decision.candidates_considered)
        tel.counter(
            "allocator_candidates_feasible_total",
            help="Enumerated mutants that passed per-stage feasibility",
        ).inc(decision.candidates_feasible)
        if decision.success:
            tel.counter(
                "allocator_apps_displaced_total",
                help="Incumbent apps resized or moved per decision",
            ).inc(len(decision.reallocations))
            tel.counter(
                "allocator_blocks_moved_total",
                help="Memory blocks whose placement changed (snapshot/restore cost)",
            ).inc(_moved_blocks(decision.reallocations))

    def _stage_demands(
        self, candidate: MutantCandidate, pattern: AccessPattern
    ) -> Dict[int, Optional[int]]:
        demands: Dict[int, Optional[int]] = {}
        for stage, demand in zip(candidate.stages, pattern.demands):
            physical = self.config.physical_stage(stage)
            if physical in demands:
                demands[physical] = merge_demands(demands[physical], demand)
            else:
                demands[physical] = demand
        return demands

    def _is_feasible(self, demands: Dict[int, Optional[int]]) -> bool:
        for stage, demand in demands.items():
            pool = self.pools[stage]
            if demand is None:
                if not pool.fits_elastic():
                    return False
            elif not pool.fits_inelastic(demand):
                return False
        return True

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
        regions: Dict[int, BlockRange] = {}
        reallocations: ReallocationMap = {}
        for stage in after:
            old_layout = before.get(stage, {})
            new_layout = after[stage]
            fids = set(old_layout) | set(new_layout)
            for fid in fids:
                old = old_layout.get(fid)
                new = new_layout.get(fid)
                if fid == new_fid:
                    if new is not None:
                        regions[stage] = new
                    continue
                if old != new:
                    reallocations.setdefault(fid, {})[stage] = (old, new)
        return regions, reallocations
