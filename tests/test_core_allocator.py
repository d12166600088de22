"""Unit, integration, and property tests for the online allocator."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.service import pools_fingerprint
from repro.core import (
    AccessPattern,
    ActiveRmtAllocator,
    AllocationError,
    AllocationScheme,
    BlockRange,
    LEAST_CONSTRAINED,
    MOST_CONSTRAINED,
    StagePool,
    enumerate_mutants,
)
from repro.core import mutants as mutants_module
from repro.core.mutants import merge_demands
from repro.switchsim import SwitchConfig
from repro.telemetry import MetricsRegistry

from tests.test_core_constraints import listing1_pattern


def lb_pattern():
    """The Cheetah LB's inelastic pattern (repro.apps.cheetah_lb)."""
    from repro.apps import lb_pattern as _lb_pattern

    return _lb_pattern()


def hh_pattern():
    """The heavy hitter's inelastic, aliased pattern (repro.apps)."""
    from repro.apps import heavy_hitter_pattern

    return heavy_hitter_pattern()


@pytest.fixture
def allocator():
    return ActiveRmtAllocator(SwitchConfig())


def test_first_cache_gets_whole_stages(allocator):
    decision = allocator.allocate(fid=1, pattern=listing1_pattern())
    assert decision.feasible
    assert decision.mutant.stages == (2, 5, 9)
    assert set(decision.regions) == {2, 5, 9}
    for block_range in decision.regions.values():
        assert block_range == BlockRange(0, 256)  # whole stage
    assert decision.reallocations == {}
    assert allocator.app_total_blocks(1) == 3 * 256


def test_second_cache_avoids_contention(allocator):
    """Figure 4: worst-fit mutates P2 away from P1's stages."""
    allocator.allocate(fid=1, pattern=listing1_pattern())
    decision = allocator.allocate(fid=2, pattern=listing1_pattern())
    assert decision.feasible
    assert not set(decision.regions) & {2, 5, 9}
    assert decision.reallocations == {}  # nobody disturbed


def test_sharing_begins_when_stages_exhausted(allocator):
    """Once all 9 mc-reachable stages hold cache instances, instances
    share stages and incumbent caches are reallocated (resized)."""
    decisions = [
        allocator.allocate(fid=i, pattern=listing1_pattern()) for i in range(12)
    ]
    assert all(d.feasible for d in decisions)
    disturbed = [d for d in decisions if d.reallocations]
    assert disturbed, "sharing must eventually resize incumbents"
    # Shares within a stage are max-min fair (within one block).
    totals = [allocator.app_total_blocks(i) for i in range(12)]
    assert max(totals) > 0


def test_inelastic_pinned_and_never_reallocated(allocator):
    lb_decision = allocator.allocate(fid=1, pattern=lb_pattern())
    assert lb_decision.feasible
    for block_range in lb_decision.regions.values():
        assert block_range.start == 0  # pinned at the pool bottom
        assert block_range.count == 1  # LB_DEMAND_BLOCKS
    # Subsequent elastic arrivals never disturb the inelastic app.
    for fid in range(2, 10):
        decision = allocator.allocate(fid=fid, pattern=listing1_pattern())
        assert decision.feasible
        assert 1 not in decision.reallocations


def test_elastic_squeezed_by_inelastic_arrival(allocator):
    # Saturate every stage with elastic caches so the LB must overlap.
    for fid in range(20):
        assert allocator.allocate(fid=fid, pattern=listing1_pattern()).feasible
    lb = allocator.allocate(fid=100, pattern=lb_pattern())
    assert lb.feasible
    assert lb.reallocations, "incumbent caches must be squeezed"
    for block_range in lb.regions.values():
        assert block_range.start == 0  # pinned below every elastic app
        assert block_range.count == 1
    # Squeezed caches lost blocks or moved up, never overlapping the LB.
    for fid, stage_changes in lb.reallocations.items():
        for stage, (old, new) in stage_changes.items():
            if stage in lb.regions and new is not None:
                assert new.start >= lb.regions[stage].end


def test_failure_leaves_state_unchanged(allocator):
    # Fill the device with heavy hitters until one fails.
    fid = 0
    while True:
        decision = allocator.allocate(fid=fid, pattern=hh_pattern())
        if not decision.feasible:
            break
        fid += 1
        assert fid < 500, "device must eventually fill"
    residents_before = allocator.resident_fids()
    utilization_before = allocator.utilization()
    retry = allocator.allocate(fid=9999, pattern=hh_pattern())
    assert not retry.feasible
    assert retry.reason
    assert allocator.resident_fids() == residents_before
    assert allocator.utilization() == utilization_before
    assert 9999 not in allocator.apps


def test_failed_allocations_are_fast(allocator):
    """Figure 5a: epochs with failed allocations are brief -- the search
    finds no feasible mutant and skips assignment entirely."""
    fid = 0
    while allocator.allocate(fid=fid, pattern=hh_pattern()).feasible:
        fid += 1
    failure = allocator.allocate(fid=777, pattern=hh_pattern())
    assert failure.assign_seconds == 0.0


def test_release_expands_elastic_neighbors(allocator):
    allocator.allocate(fid=1, pattern=listing1_pattern())
    # Place nine more caches so stages are shared.
    for fid in range(2, 11):
        allocator.allocate(fid=fid, pattern=listing1_pattern())
    before = allocator.app_total_blocks(2)
    change = allocator.release(1)
    after = allocator.app_total_blocks(2)
    assert after >= before
    assert 1 not in allocator.apps
    # Departure must have expanded someone.
    assert change.reallocations


def test_blocks_moved_counts_the_displaced_ranges():
    """The fourth cache halves the first one's ranges in stages 2 and 5,
    and its release restores them: ``allocator_blocks_moved_total``
    counts each displaced range's blocks, before the move."""
    registry = MetricsRegistry()
    allocator = ActiveRmtAllocator(SwitchConfig(), telemetry=registry)
    for fid in range(3):
        assert allocator.allocate(fid=fid, pattern=listing1_pattern()).reallocations == {}
    assert allocator.blocks_moved == 0
    whole, half = BlockRange(0, 256), BlockRange(0, 128)
    decision = allocator.allocate(fid=3, pattern=listing1_pattern())
    assert decision.reallocations == {0: {2: (whole, half), 5: (whole, half)}}
    assert allocator.blocks_moved == 2 * 256
    change = allocator.release(3)
    allocator.record_release(change)
    assert change.reallocations == {0: {2: (half, whole), 5: (half, whole)}}
    assert allocator.blocks_moved == 2 * 256 + 2 * 128
    counters = registry.snapshot()["counters"]
    assert counters["allocator_blocks_moved_total"] == 2 * 256 + 2 * 128


def test_release_unknown_fid_raises(allocator):
    with pytest.raises(AllocationError):
        allocator.release(42)


def test_duplicate_fid_raises(allocator):
    allocator.allocate(fid=1, pattern=listing1_pattern())
    with pytest.raises(AllocationError):
        allocator.allocate(fid=1, pattern=listing1_pattern())


def test_utilization_bounds(allocator):
    assert allocator.utilization() == 0.0
    allocator.allocate(fid=1, pattern=listing1_pattern())
    # One elastic cache fills exactly its three stages.
    assert allocator.utilization() == pytest.approx(3 / 20)


def test_least_constrained_places_more_heavy_hitters():
    """Section 6.1: HH exhausts resources at 23 (mc) vs 57 (lc)."""
    results = {}
    for policy in (MOST_CONSTRAINED, LEAST_CONSTRAINED):
        allocator = ActiveRmtAllocator(SwitchConfig(), policy=policy)
        fid = 0
        while allocator.allocate(fid=fid, pattern=hh_pattern()).feasible:
            fid += 1
            if fid > 400:
                break
        results[policy.name] = fid
    assert results["least-constrained"] > results["most-constrained"]


def test_response_header_round_trips(allocator):
    allocator.allocate(fid=1, pattern=listing1_pattern())
    response = allocator.response_for(1)
    assert response.allocated_stages() == [2, 5, 9]
    region = response.region_for_stage(2)
    assert region.start == 0
    assert region.end == 256 * 256  # 256 blocks x 256 words


def test_first_fit_takes_compact_mutant():
    allocator = ActiveRmtAllocator(
        SwitchConfig(), scheme=AllocationScheme.FIRST_FIT
    )
    allocator.allocate(fid=1, pattern=listing1_pattern())
    second = allocator.allocate(fid=2, pattern=listing1_pattern())
    # First-fit does not avoid contention: it shares P1's stages.
    assert second.mutant.stages == (2, 5, 9)
    assert second.reallocations


def test_scheme_from_name():
    assert AllocationScheme.from_name("wf") is AllocationScheme.WORST_FIT
    assert AllocationScheme.from_name("best_fit") is AllocationScheme.BEST_FIT
    with pytest.raises(ValueError):
        AllocationScheme.from_name("magic")


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    steps=st.integers(5, 40),
)
def test_allocator_invariants_under_churn(seed, steps):
    """Property: random arrival/departure churn preserves invariants."""
    import random

    rng = random.Random(seed)
    allocator = ActiveRmtAllocator(SwitchConfig())
    patterns = [listing1_pattern(), lb_pattern(), hh_pattern()]
    next_fid = 0
    live = []
    for _ in range(steps):
        if live and rng.random() < 0.33:
            fid = live.pop(rng.randrange(len(live)))
            allocator.release(fid)
        else:
            pattern = rng.choice(patterns)
            decision = allocator.allocate(next_fid, pattern)
            if decision.feasible:
                live.append(next_fid)
            next_fid += 1
        # Invariants: per-stage layouts never overlap or overflow.
        for stage, pool in allocator.pools.items():
            layout = pool.layout()
            ranges = sorted(layout.values(), key=lambda r: r.start)
            for left, right in zip(ranges, ranges[1:]):
                assert left.end <= right.start
            if ranges:
                assert ranges[-1].end <= pool.total_blocks
        assert 0.0 <= allocator.utilization() <= 1.0
        assert sorted(live) == allocator.resident_fids()


# ----------------------------------------------------------------------
# Planning from mutant tables: parity with the enumerate-and-test loop
# ----------------------------------------------------------------------


def reference_score(scheme, candidate, pools, order):
    """The schemes' scores read straight off the pools, as they were
    before the planner precomputed per-stage values."""
    stages = candidate.physical_stages
    if scheme is AllocationScheme.FIRST_FIT:
        return (order,)
    if scheme is AllocationScheme.WORST_FIT:
        headroom = sum(pools[s].fungible_share for s in stages)
        return (-headroom, candidate.recirculations, order)
    if scheme is AllocationScheme.BEST_FIT:
        headroom = sum(pools[s].fungible_share for s in stages)
        return (headroom, candidate.recirculations, order)
    disturbed = set()
    for stage in stages:
        disturbed.update(pools[stage].elastic_fids)
    return (len(disturbed), candidate.recirculations, order)


def reference_plan(allocator, fid, pattern):
    """The planner before mutant tables, kept as the oracle: enumerate
    every mutant, test each stage with ``fits_*``, score with
    :func:`reference_score`, then lay the winner out on fresh pools."""
    config, pools, scheme = allocator.config, allocator.pools, allocator.scheme
    best = best_score = None
    best_demands = {}
    considered = feasible = 0
    for order, candidate in enumerate(enumerate_mutants(pattern, allocator.policy, config)):
        considered += 1
        demands = {}
        for stage, demand in zip(candidate.stages, pattern.demands):
            physical = config.physical_stage(stage)
            demands[physical] = (
                merge_demands(demands[physical], demand) if physical in demands else demand
            )
        if not all(
            pools[s].fits_elastic() if d is None else pools[s].fits_inelastic(d)
            for s, d in demands.items()
        ):
            continue
        feasible += 1
        score = reference_score(scheme, candidate, pools, order)
        if best_score is None or score < best_score:
            best, best_score, best_demands = candidate, score, demands
        if scheme is AllocationScheme.FIRST_FIT:
            break
    if best is None:
        reason = (
            "no feasible mutant under current occupancy" if considered else
            f"no mutant of {pattern.name!r} under the {allocator.policy.name} policy"
        )
        return best, [], {}, {}, considered, feasible, reason
    regions, reallocations = {}, {}
    for stage, demand in best_demands.items():
        before = dict(pools[stage].layout())
        pool = StagePool(pools[stage].total_blocks)
        pool.load_residents(pools[stage].export_residents())
        pool.add(fid, demand, 10**9)  # arrives after every resident
        after = pool.layout()
        regions[stage] = after[fid]
        for other in set(before) | set(after):
            if other != fid and before.get(other) != after.get(other):
                reallocations.setdefault(other, {})[stage] = (before.get(other), after.get(other))
    return best, list(best_demands.items()), regions, reallocations, considered, feasible, ""


@st.composite
def small_patterns(draw):
    """Patterns for an 8-stage switch: elastic and inelastic demands,
    sometimes an ingress-bound instruction or a same-stage alias."""
    m = draw(st.integers(1, 3))
    positions, cursor = [], 0
    for _ in range(m):
        cursor += draw(st.integers(1, 4))
        positions.append(cursor)
    length = positions[-1] + draw(st.integers(0, 3))
    aliases = ()
    if m >= 2 and draw(st.booleans()):
        aliases = (-1,) * (m - 1) + (draw(st.integers(0, m - 2)),)
    return AccessPattern(
        program_length=length,
        lower_bounds=tuple(positions),
        min_distances=tuple([1] + [b - a for a, b in zip(positions, positions[1:])]),
        demands=tuple(draw(st.sampled_from([None, None, 1, 2])) for _ in range(m)),
        ingress_bound_position=draw(st.sampled_from([0, 0, 1, length])),
        aliases=aliases,
        name="p",
    )


#: Four blocks a stage: stages fill, and slack hits zero, within a few steps.
SMALL = SwitchConfig(num_stages=8, ingress_stages=4, words_per_stage=1024)


@pytest.mark.parametrize("policy", [MOST_CONSTRAINED, LEAST_CONSTRAINED], ids=lambda p: p.name)
@pytest.mark.parametrize("scheme", list(AllocationScheme), ids=lambda s: s.value)
@settings(max_examples=12, deadline=None)
@given(
    patterns=st.lists(small_patterns(), min_size=1, max_size=3),
    steps=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 99)), min_size=4, max_size=24),
)
def test_plan_matches_reference_planner(scheme, policy, patterns, steps):
    """Random admit/release churn on a small switch: every plan equals
    the enumerate-and-test planner's, field by field."""
    allocator = ActiveRmtAllocator(SMALL, scheme=scheme, policy=policy)
    live, next_fid = [], 0
    for kind, pick in steps:
        if kind == 0 and live:
            allocator.release(live.pop(pick % len(live)))
            continue
        pattern = patterns[pick % len(patterns)]
        expected = reference_plan(allocator, next_fid, pattern)
        plan = allocator.plan(next_fid, pattern)
        assert (
            plan.mutant,
            list(plan.demand_by_stage.items()),
            plan.regions,
            plan.reallocations,
            plan.candidates_considered,
            plan.candidates_feasible,
            plan.reason,
        ) == expected
        if plan.feasible:
            allocator.commit(plan)
            live.append(next_fid)
        next_fid += 1


def test_shadow_and_live_allocator_stay_isolated():
    """Shadows share frozen resident records, cached layouts and mutant
    tables with the live allocator, and none of it leaks either way."""
    live = ActiveRmtAllocator(SwitchConfig())
    for fid in range(12):  # enough caches to share stages
        live.allocate(fid, listing1_pattern())
    live_before = pools_fingerprint(live)  # also caches every layout
    shadow = live.shadow()
    shadow.rehearse(shadow.plan(100, listing1_pattern()))
    shadow.rehearse(shadow.plan(101, lb_pattern()))
    assert pools_fingerprint(live) == live_before
    shadow_before = pools_fingerprint(shadow)
    live.commit(live.plan(200, lb_pattern()))
    live.release(3)
    assert pools_fingerprint(shadow) == shadow_before
    resident = next(iter(live.pools[2]._residents.values()))
    with pytest.raises(dataclasses.FrozenInstanceError):
        resident.demand = 7


def test_each_pattern_is_enumerated_once_per_allocator(monkeypatch):
    """Plans of one pattern -- renamed, or on a shadow -- share a table;
    a new allocator builds its own."""
    calls = []
    real = mutants_module.enumerate_mutants

    def counting(pattern, policy, config):
        calls.append(pattern.name)
        return real(pattern, policy, config)

    monkeypatch.setattr(mutants_module, "enumerate_mutants", counting)
    allocator = ActiveRmtAllocator(SwitchConfig())
    allocator.allocate(1, listing1_pattern())
    allocator.allocate(2, dataclasses.replace(listing1_pattern(), name="fid2"))
    allocator.shadow().plan(3, listing1_pattern())
    assert len(calls) == 1
    ActiveRmtAllocator(SwitchConfig()).plan(1, listing1_pattern())
    assert len(calls) == 2
