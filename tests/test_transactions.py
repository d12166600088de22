"""Transactional control-plane tests: plan/commit/abort/rollback.

The contract under test (Section 4.3's all-or-nothing reallocation,
via the plan -> validate -> commit pipeline):

- planning mutates nothing, ever;
- plan + commit is indistinguishable from the legacy single-call
  ``allocate``;
- an aborted or rolled-back admission leaves pools, table entries,
  TCAM occupancy, activation state, and register contents
  byte-identical to the pre-plan snapshot;
- the controller has one commit path: an admission behaves the same
  through ``admit``, ``commit_plan(plan)`` and ``commit_batch([plan])``
  (only the reason prefix and the anomaly scope name the entry point).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller import ActiveRmtController
from repro.core import (
    ActiveRmtAllocator,
    AllocationScheme,
    PlanState,
    PoolSnapshot,
    TableUpdateJournal,
    TransactionError,
)
from repro.switchsim import ActiveSwitch, SwitchConfig

from tests.test_core_allocator import hh_pattern, lb_pattern
from tests.test_core_constraints import listing1_pattern


# ----------------------------------------------------------------------
# State fingerprints (byte-identity helpers)
# ----------------------------------------------------------------------


def allocator_fingerprint(allocator: ActiveRmtAllocator) -> tuple:
    """Full allocator state: populations, layouts, apps, counters."""
    return (
        tuple(
            (stage, pool.export_residents(), tuple(sorted(pool.layout().items())))
            for stage, pool in sorted(allocator.pools.items())
        ),
        tuple(sorted(allocator.apps)),
        allocator.version,
    )


def switch_fingerprint(controller: ActiveRmtController) -> tuple:
    """Full switch state: grants, translations, TCAM, registers, activation."""
    pipeline = controller.switch.pipeline
    stages = []
    for stage in pipeline.stages:
        table = stage.table
        stages.append(
            (
                stage.index,
                table.tcam_used,
                tuple((fid, table.grant_for(fid)) for fid in table.fids),
                tuple(
                    (fid, table.translation_for(fid))
                    for fid in table.fids
                    if table.translation_for(fid) is not None
                ),
                tuple(stage.registers.snapshot(0, len(stage.registers))),
            )
        )
    return (tuple(stages), tuple(sorted(pipeline.deactivated_fids)))


def full_fingerprint(controller: ActiveRmtController) -> tuple:
    return (
        allocator_fingerprint(controller.allocator),
        switch_fingerprint(controller),
    )


def tiny_controller(tcam_entries: int = 2) -> ActiveRmtController:
    """Small device so register fingerprints stay cheap."""
    config = SwitchConfig(
        words_per_stage=1024, tcam_entries_per_stage=tcam_entries
    )
    return ActiveRmtController(ActiveSwitch(config))


#: The three ways into the controller's single commit path.
ENTRY_POINTS = ("admit", "commit_plan", "commit_batch")


def admit_via(controller, entry, fid, pattern, program=None):
    """One admission of *fid* through the named commit entry point."""
    if entry == "admit":
        return controller.admit(fid=fid, pattern=pattern, program=program)
    plan = controller.allocator.plan(fid, pattern)
    if entry == "commit_plan":
        return controller.commit_plan(plan, program=program)
    (report,) = controller.commit_batch([plan], [program])
    return report


def outcome_fingerprint(controller, report) -> tuple:
    """What an admission did, comparable across entry points.

    Every report field but the host timings and ``reason`` (whose
    prefix names the entry point), plus the full allocator and switch
    state (pools, table surface, registers, activation) afterwards.
    """
    fields = dataclasses.asdict(
        dataclasses.replace(
            report, reason="", compute_seconds=0.0, plan=None, decision=None
        )
    )
    decision = report.decision
    if decision is not None:
        fields["decision"] = (
            decision.success,
            decision.mutant,
            decision.regions,
            decision.reallocations,
            decision.candidates_considered,
            decision.candidates_feasible,
        )
    plan = report.plan
    return (
        fields,
        None if plan is None else (plan.state, plan.regions, plan.reallocations),
        full_fingerprint(controller),
    )


def assert_entry_points_agree(outcomes: dict) -> None:
    """*outcomes*: ``{entry: outcome_fingerprint(...)}`` for one scenario."""
    assert sorted(outcomes) == sorted(ENTRY_POINTS)
    for entry in ENTRY_POINTS[1:]:
        assert outcomes[entry] == outcomes["admit"], entry


PATTERNS = {
    "cache": listing1_pattern,
    "lb": lb_pattern,
    "hh": hh_pattern,
}


# ----------------------------------------------------------------------
# Planner purity and plan/commit equivalence
# ----------------------------------------------------------------------


def test_plan_mutates_nothing():
    allocator = ActiveRmtAllocator(SwitchConfig())
    for fid in range(4):
        allocator.allocate(fid, listing1_pattern())
    before = allocator_fingerprint(allocator)
    plan = allocator.plan(100, listing1_pattern())
    assert plan.feasible
    assert plan.regions  # the whole decision is there...
    assert allocator_fingerprint(allocator) == before  # ...and nothing moved


def test_plan_commit_equals_legacy_allocate():
    """The same admission sequence, one side plan+commit, one side
    allocate(), produces identical decisions (timings aside)."""
    legacy = ActiveRmtAllocator(SwitchConfig())
    staged = ActiveRmtAllocator(SwitchConfig())
    for fid in range(14):
        pattern = listing1_pattern() if fid % 3 else lb_pattern()
        expected = legacy.allocate(fid, pattern)
        plan = staged.plan(fid, pattern)
        assert plan.feasible == expected.success
        if plan.feasible:
            got = staged.commit(plan).decision
        else:
            staged.abort(plan)
            got = staged.decision_from_plan(plan)
        assert got.success == expected.success
        assert got.mutant == expected.mutant
        assert got.regions == expected.regions
        assert got.reallocations == expected.reallocations
        assert got.candidates_feasible == expected.candidates_feasible
    assert allocator_fingerprint(legacy) == allocator_fingerprint(staged)


def test_abort_leaves_no_trace():
    allocator = ActiveRmtAllocator(SwitchConfig())
    allocator.allocate(1, listing1_pattern())
    before = allocator_fingerprint(allocator)
    plan = allocator.plan(2, listing1_pattern())
    allocator.abort(plan)
    assert plan.state is PlanState.ABORTED
    assert allocator_fingerprint(allocator) == before
    # An aborted plan cannot be committed.
    with pytest.raises(TransactionError):
        allocator.commit(plan)


def test_stale_plan_refused():
    allocator = ActiveRmtAllocator(SwitchConfig())
    plan = allocator.plan(1, listing1_pattern())
    allocator.allocate(2, listing1_pattern())  # moves the version on
    with pytest.raises(TransactionError):
        allocator.commit(plan)


def test_rollback_restores_exact_allocator_state():
    allocator = ActiveRmtAllocator(SwitchConfig())
    for fid in range(6):
        allocator.allocate(fid, listing1_pattern())
    before = allocator_fingerprint(allocator)
    plan = allocator.plan(50, listing1_pattern())
    result = allocator.commit(plan)
    assert allocator_fingerprint(allocator) != before
    allocator.rollback(result)
    assert allocator_fingerprint(allocator) == before
    # Rolled-back plans are spent.
    with pytest.raises(TransactionError):
        allocator.rollback(result)


def test_release_rollback_round_trips_the_full_fingerprint():
    """A release is undone by the checkpoint it hands back, exactly as a
    commit is: pools, app record, version and arrival counter -- so a
    plan computed before the release commits after the rollback."""
    controller = tiny_controller(tcam_entries=64)
    for fid in range(6):
        assert controller.admit(fid=fid, pattern=listing1_pattern()).success
    allocator = controller.allocator
    before = full_fingerprint(controller)
    counters = (allocator.version, allocator._arrival_counter)
    record = allocator.apps[2]
    plan = allocator.plan(50, listing1_pattern())

    reallocations, checkpoint = allocator.release(2)
    assert reallocations and 2 not in allocator.apps
    assert allocator.version == counters[0] + 1
    assert checkpoint.fid == 2 and checkpoint.record is record
    allocator.rollback(checkpoint)

    assert full_fingerprint(controller) == before
    assert (allocator.version, allocator._arrival_counter) == counters
    assert allocator.apps[2] is record
    assert controller.commit_plan(plan).success  # no StalePlanError


def test_pool_snapshot_roundtrip():
    allocator = ActiveRmtAllocator(SwitchConfig())
    for fid in range(5):
        allocator.allocate(fid, listing1_pattern())
    pool = allocator.pools[2]
    snapshot = PoolSnapshot.capture(pool)
    layout_before = dict(pool.layout())
    pool.add(99, None, arrival=1000)
    pool.remove(1)
    assert dict(pool.layout()) != layout_before
    assert not snapshot.matches(pool)
    snapshot.restore(pool)
    assert snapshot.matches(pool)
    assert dict(pool.layout()) == layout_before


# ----------------------------------------------------------------------
# Journal semantics
# ----------------------------------------------------------------------


def test_journal_rolls_back_in_reverse_order():
    journal = TableUpdateJournal()
    trace = []
    journal.record("first", lambda: trace.append("first"))
    journal.record("second", lambda: trace.append("second"))
    assert len(journal) == 2
    assert journal.rollback() == 2
    assert trace == ["second", "first"]
    with pytest.raises(TransactionError):
        journal.record("late", lambda: None)
    with pytest.raises(TransactionError):
        journal.rollback()


def test_journal_commit_discards_undos():
    journal = TableUpdateJournal()
    journal.record("op", lambda: pytest.fail("must not run"))
    assert journal.commit_entries() == 1
    assert journal.closed


# ----------------------------------------------------------------------
# Controller dry runs
# ----------------------------------------------------------------------


def test_dry_run_returns_committable_plan_without_mutation():
    controller = tiny_controller(tcam_entries=64)
    for fid in range(3):
        assert controller.admit(fid=fid, pattern=listing1_pattern()).success
    before = full_fingerprint(controller)
    probe = controller.admit(fid=77, pattern=listing1_pattern(), dry_run=True)
    assert probe.dry_run
    assert probe.success
    assert probe.plan is not None and probe.plan.feasible
    assert full_fingerprint(controller) == before
    assert 77 not in controller.allocator.apps
    # The real admission does exactly what the probe predicted.
    real = controller.admit(fid=77, pattern=listing1_pattern())
    assert real.success
    assert real.decision.regions == probe.plan.regions
    assert real.decision.reallocations == probe.plan.reallocations


def test_what_if_helper():
    controller = tiny_controller(tcam_entries=64)
    plan = controller.what_if(fid=5, pattern=lb_pattern())
    assert plan.feasible
    assert controller.allocator.resident_fids() == []


# ----------------------------------------------------------------------
# Property: admissions that fail switch-side are invisible
# ----------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    order=st.lists(
        st.sampled_from(sorted(PATTERNS)), min_size=4, max_size=16
    ),
    tcam_entries=st.integers(1, 3),
)
def test_failed_admissions_leave_state_byte_identical(order, tcam_entries):
    """Any admit sequence in which an admission is denied -- whether at
    planning (infeasible) or switch-side (TCAM, commit rolled back) --
    leaves all stage layouts, TCAM entry counts, register contents, and
    activation state byte-identical to the pre-request snapshot.  The
    sequence runs in lockstep through every commit entry point, and
    every step -- admitted, infeasible, or rolled back -- must come out
    the same through all three."""
    controllers = {
        entry: tiny_controller(tcam_entries=tcam_entries)
        for entry in ENTRY_POINTS
    }

    def step(fid, pattern_factory):
        outcomes = {}
        for entry, controller in controllers.items():
            before = full_fingerprint(controller)
            report = admit_via(controller, entry, fid, pattern_factory())
            if not report.success:
                assert full_fingerprint(controller) == before
                if report.rolled_back:
                    assert report.reason.startswith("batch rolled back: ") == (
                        entry == "commit_batch"
                    )
            outcomes[entry] = outcome_fingerprint(controller, report)
        assert_entry_points_agree(outcomes)
        return report.rolled_back

    saw_rollback = False
    for fid, name in enumerate(order):
        saw_rollback = step(fid, PATTERNS[name]) or saw_rollback
    # Keep admitting caches until a TCAM rollback occurs so the
    # journal path is exercised in every example.
    fid = len(order)
    while not saw_rollback and fid < len(order) + 64:
        saw_rollback = step(fid, listing1_pattern)
        fid += 1
    assert saw_rollback, "TCAM exhaustion must eventually trigger rollback"


def test_aborted_commit_property_explicit_plan():
    """Plan -> commit -> rollback round-trip on a controller-owned
    allocator is invisible at every layer."""
    controller = tiny_controller(tcam_entries=64)
    for fid in range(4):
        controller.admit(fid=fid, pattern=listing1_pattern())
    before = full_fingerprint(controller)
    allocator = controller.allocator
    plan = allocator.plan(123, listing1_pattern())
    result = allocator.commit(plan, record=False)
    allocator.rollback(result)
    assert full_fingerprint(controller) == before


def test_first_fit_plan_commit_round_trip():
    """Schemes with early-exit search plan/commit identically too."""
    legacy = ActiveRmtAllocator(
        SwitchConfig(), scheme=AllocationScheme.FIRST_FIT
    )
    staged = ActiveRmtAllocator(
        SwitchConfig(), scheme=AllocationScheme.FIRST_FIT
    )
    for fid in range(6):
        expected = legacy.allocate(fid, listing1_pattern())
        got = staged.commit(staged.plan(fid, listing1_pattern())).decision
        assert got.regions == expected.regions
        assert got.reallocations == expected.reallocations
