"""Unit, integration, and property tests for the online allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AccessPattern,
    ActiveRmtAllocator,
    AllocationError,
    AllocationScheme,
    BlockRange,
    LEAST_CONSTRAINED,
    MOST_CONSTRAINED,
)
from repro.switchsim import SwitchConfig

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
    assert decision.success
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
    assert decision.success
    assert not set(decision.regions) & {2, 5, 9}
    assert decision.reallocations == {}  # nobody disturbed


def test_sharing_begins_when_stages_exhausted(allocator):
    """Once all 9 mc-reachable stages hold cache instances, instances
    share stages and incumbent caches are reallocated (resized)."""
    decisions = [
        allocator.allocate(fid=i, pattern=listing1_pattern()) for i in range(12)
    ]
    assert all(d.success for d in decisions)
    disturbed = [d for d in decisions if d.reallocations]
    assert disturbed, "sharing must eventually resize incumbents"
    # Shares within a stage are max-min fair (within one block).
    totals = [allocator.app_total_blocks(i) for i in range(12)]
    assert max(totals) > 0


def test_inelastic_pinned_and_never_reallocated(allocator):
    lb_decision = allocator.allocate(fid=1, pattern=lb_pattern())
    assert lb_decision.success
    for block_range in lb_decision.regions.values():
        assert block_range.start == 0  # pinned at the pool bottom
        assert block_range.count == 1  # LB_DEMAND_BLOCKS
    # Subsequent elastic arrivals never disturb the inelastic app.
    for fid in range(2, 10):
        decision = allocator.allocate(fid=fid, pattern=listing1_pattern())
        assert decision.success
        assert 1 not in decision.reallocations


def test_elastic_squeezed_by_inelastic_arrival(allocator):
    # Saturate every stage with elastic caches so the LB must overlap.
    for fid in range(20):
        assert allocator.allocate(fid=fid, pattern=listing1_pattern()).success
    lb = allocator.allocate(fid=100, pattern=lb_pattern())
    assert lb.success
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
        if not decision.success:
            break
        fid += 1
        assert fid < 500, "device must eventually fill"
    residents_before = allocator.resident_fids()
    utilization_before = allocator.utilization()
    retry = allocator.allocate(fid=9999, pattern=hh_pattern())
    assert not retry.success
    assert retry.reason
    assert allocator.resident_fids() == residents_before
    assert allocator.utilization() == utilization_before
    assert 9999 not in allocator.apps


def test_failed_allocations_are_fast(allocator):
    """Figure 5a: epochs with failed allocations are brief -- the search
    finds no feasible mutant and skips assignment entirely."""
    fid = 0
    while allocator.allocate(fid=fid, pattern=hh_pattern()).success:
        fid += 1
    failure = allocator.allocate(fid=777, pattern=hh_pattern())
    assert failure.assign_seconds == 0.0


def test_release_expands_elastic_neighbors(allocator):
    allocator.allocate(fid=1, pattern=listing1_pattern())
    # Place nine more caches so stages are shared.
    for fid in range(2, 11):
        allocator.allocate(fid=fid, pattern=listing1_pattern())
    before = allocator.app_total_blocks(2)
    reallocations, _checkpoint = allocator.release(1)
    after = allocator.app_total_blocks(2)
    assert after >= before
    assert 1 not in allocator.apps
    # Departure must have expanded someone.
    assert reallocations


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
        while allocator.allocate(fid=fid, pattern=hh_pattern()).success:
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
            if decision.success:
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
