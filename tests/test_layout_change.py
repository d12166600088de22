"""A layout change's host side: its definitions, its adopted layouts, its cost.

- ``implied_bounds`` and ``ActiveRmtAllocator._diff_layouts`` agree with
  their earlier forms in :mod:`tests.oracles.layout` over random inputs
  (the diff's per-FID stage maps in the same order, too).
- A commit adopts the layouts its plan's shadow pools computed: after
  every commit, on the live allocator and on a batch's rehearsal shadow,
  each touched pool's layout is the plan's and equals a fresh layout of
  the pool's residents, and no plan a report keeps holds a layout.
- Python calls per displaced neighbour of one ``apply_layout``, pinned.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.isolation import TRANSLATION_WINDOW, implied_bounds
from repro.controller import ActiveRmtController, AdmissionService, ProvisioningRequest
from repro.core.allocator import ActiveRmtAllocator
from repro.core.blocks import BlockRange, StagePool
from repro.experiments.common import exemplar_patterns
from repro.switchsim import ActiveSwitch, SwitchConfig
from repro.workloads.arrivals import ArrivalEvent, poisson_events

from tests.oracles import layout as oracle
from tests.test_switchsim_codegen import _python_calls

# ----------------------------------------------------------------------
# The definitions against their oracles
# ----------------------------------------------------------------------

word_maps = st.dictionaries(
    st.integers(1, 20),
    st.tuples(st.integers(0, 1 << 16), st.integers(0, 4096)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(regions=word_maps)
def test_implied_bounds_matches_the_oracle(regions):
    grants, translations = implied_bounds(regions)
    expected_grants, expected_translations = oracle.implied_bounds(regions, TRANSLATION_WINDOW)
    assert list(grants.items()) == list(expected_grants.items())
    assert list(translations.items()) == list(expected_translations.items())


ranges = st.builds(BlockRange, st.integers(0, 64), st.integers(0, 16))
fids = st.integers(1, 8)


@st.composite
def layout_pairs(draw):
    """Per-stage layouts before and after, FIDs kept (an equal, distinct
    range), moved, vanished or appearing; a stage may be new in *after*."""
    before, after = {}, {}
    for stage in draw(st.lists(st.integers(1, 20), unique=True, max_size=6)):
        old = draw(st.dictionaries(fids, ranges, max_size=6))
        new = {}
        for fid, block_range in old.items():
            fate = draw(st.sampled_from(["keep", "keep", "move", "vanish"]))
            if fate == "keep":
                new[fid] = BlockRange(block_range.start, block_range.count)
            elif fate == "move":
                new[fid] = draw(ranges)
        new.update(draw(st.dictionaries(fids, ranges, max_size=3)))
        if old or draw(st.booleans()):
            before[stage] = old
        after[stage] = new
    return before, after


ALLOCATOR = ActiveRmtAllocator()


@settings(max_examples=300, deadline=None)
@given(new_fid=fids, layouts=layout_pairs())
def test_diff_layouts_matches_the_oracle(new_fid, layouts):
    before, after = layouts
    regions, reallocations = ALLOCATOR._diff_layouts(new_fid, before, after)
    expected_regions, expected_reallocations = oracle.diff_layouts(new_fid, before, after)
    assert list(regions.items()) == list(expected_regions.items())
    assert reallocations == expected_reallocations
    for fid, per_stage in reallocations.items():
        assert list(per_stage) == list(expected_reallocations[fid])


# ----------------------------------------------------------------------
# Adopted layouts are the layouts
# ----------------------------------------------------------------------


def _fresh_layout(pool):
    twin = StagePool(pool.total_blocks)
    twin.load_residents(pool.export_residents())
    return dict(twin.layout())


@pytest.fixture
def adoption_log(monkeypatch):
    """Wraps plan application on every allocator (shadows included):
    the plan gives its layouts up; each touched pool's layout equals a
    fresh one and, when the plan still carried layouts (a rehearsal
    spends them on its shadow), is the very one it carried."""
    log = {"commit": 0, "rehearse": 0, "adopted": 0}

    def checked(verb):
        inner = getattr(ActiveRmtAllocator, verb)

        def apply(allocator, plan, *args, **kwargs):
            layouts = plan.layouts
            result = inner(allocator, plan, *args, **kwargs)
            assert plan.layouts is None
            for stage in plan.demand_by_stage:
                pool = allocator.pools[stage]
                if layouts is not None:
                    assert pool.layout() is layouts[stage]
                assert dict(pool.layout()) == _fresh_layout(pool)
            log[verb] += 1
            log["adopted"] += layouts is not None
            return result

        monkeypatch.setattr(ActiveRmtAllocator, verb, apply)

    checked("commit")
    checked("rehearse")
    return log


def _churn(seed, epochs):
    patterns = exemplar_patterns()
    for event in poisson_events(epochs=epochs, arrival_mean=2.0, departure_mean=1.0, seed=seed):
        yield event, patterns.get(getattr(event, "app_name", None))


def _no_kept_layouts(controller):
    return all(r.plan is None or r.plan.layouts is None for r in controller.reports)


def test_submit_commits_adopt_the_plans_layouts(adoption_log):
    controller = ActiveRmtController(ActiveSwitch(SwitchConfig()))
    resident = set()
    for event, pattern in _churn(7, 80):
        if isinstance(event, ArrivalEvent):
            request = ProvisioningRequest.admission(event.fid, pattern)
        elif event.fid in resident:
            request = ProvisioningRequest.withdrawal(event.fid)
        else:
            continue
        report = controller.submit(request)
        if report.success and isinstance(event, ArrivalEvent):
            resident.add(event.fid)
        elif report.success:
            resident.discard(event.fid)
        assert _no_kept_layouts(controller)
    assert adoption_log["commit"] >= 100
    assert adoption_log["adopted"] == adoption_log["commit"]
    assert sorted(resident) == controller.allocator.resident_fids()


def test_batched_commits_adopt_on_the_shadow_and_the_pools(adoption_log):
    controller = ActiveRmtController(ActiveSwitch(SwitchConfig()))
    service = AdmissionService(controller)
    resident, group = set(), []
    for event, pattern in _churn(7, 80):
        if isinstance(event, ArrivalEvent):
            group.append(ProvisioningRequest.admission(event.fid, pattern))
            if len(group) < 3:
                continue
            for report in service.submit_many(group).reports:
                if report.success:
                    resident.add(report.fid)
            group = []
        elif event.fid in resident:
            request = ProvisioningRequest.withdrawal(event.fid)
            if service.submit(request).success:
                resident.discard(event.fid)
        assert _no_kept_layouts(controller)
    assert adoption_log["rehearse"] >= 80
    assert adoption_log["commit"] >= 100
    # Every rehearsal and each group's last commit adopt.
    assert adoption_log["adopted"] >= adoption_log["rehearse"] + 30
    assert sorted(resident) == controller.allocator.resident_fids()


# ----------------------------------------------------------------------
# Host cost per displaced neighbour
# ----------------------------------------------------------------------


def test_python_calls_per_displaced_neighbour():
    """One seed-7 admission's ``apply_layout``: the first that displaces
    at least ten neighbours (fid 58, 13 of them).

    Measured: **31.3** Python-level calls per displaced neighbour in a
    fresh process (the delta and its two ``implied_bounds``, each grant's
    ``StageGrant``, two calls per device write, four for the two
    activation flips and their reads, the undo group; about two more are
    first-time TCAM prefix counts, cached after).  The staging it
    replaced -- word maps by comprehension, a ``_pow2_mask`` per granted
    stage, an op maker per write, a generator per group for the span's
    write count, and each write through ``pipeline.stage()`` and two
    ``tcam_cost()`` -- needs **53.15**.  A later change that re-adds a
    per-write helper fails here, not in a benchmark.
    """
    measured, parent = 31.3, 53.15
    controller = ActiveRmtController(ActiveSwitch(SwitchConfig()))
    engine = controller.updater
    apply_layout = engine.apply_layout
    sample = []

    def profiled(*args, **kwargs):
        moves = args[5] if len(args) > 5 else kwargs.get("moves", ())
        if sample or len(moves) < 10:
            return apply_layout(*args, **kwargs)
        seconds = []
        calls = _python_calls(lambda: seconds.append(apply_layout(*args, **kwargs)))
        sample.append((calls, len(moves)))
        return seconds[0]

    engine.apply_layout = profiled
    for event, pattern in _churn(7, 80):
        if isinstance(event, ArrivalEvent):
            controller.submit(ProvisioningRequest.admission(event.fid, pattern))
        if sample:
            break
    (calls, moves), = sample
    per_neighbour = calls / moves
    assert per_neighbour <= measured * 1.2
    assert per_neighbour <= parent * 0.6
