"""Unit tests for the client compiler: synthesis and linking."""

import dataclasses
import sys

import pytest

from repro.apps import EXEMPLAR_APPS
from repro.client import ActiveCompiler, CompilationError, compile_mutant
from repro.client.compiler import SYNTHESIS_POLICY, _granted_mutant
from repro.core import ActiveRmtAllocator, MOST_CONSTRAINED, enumerate_mutants
from repro.core.mutants import insertions_for, mutant_table
from repro.isa import assemble
from repro.packets import AllocationResponseHeader, StageRegion
from repro.switchsim import SwitchConfig

from tests.test_core_constraints import LISTING_1, listing1_pattern


@pytest.fixture
def compiler():
    return ActiveCompiler(SwitchConfig())


def _program():
    return assemble(LISTING_1, name="cache-query")


def test_derive_pattern_matches_paper(compiler):
    pattern = compiler.derive_pattern(_program())
    assert pattern.lower_bounds == (2, 5, 9)
    assert pattern.ingress_bound_position == 8


def test_synthesize_compact_when_granted(compiler):
    response = AllocationResponseHeader.from_map(
        {2: StageRegion(0, 1024), 5: StageRegion(0, 1024), 9: StageRegion(0, 1024)}
    )
    synthesized = compiler.synthesize(_program(), listing1_pattern(), response)
    assert synthesized.mutant.stages == (2, 5, 9)
    assert len(synthesized.program) == 11  # no padding needed
    assert synthesized.access_stages == (2, 5, 9)


def test_synthesize_pads_to_granted_stages(compiler):
    response = AllocationResponseHeader.from_map(
        {3: StageRegion(0, 1024), 6: StageRegion(0, 1024), 10: StageRegion(0, 1024)}
    )
    synthesized = compiler.synthesize(_program(), listing1_pattern(), response)
    assert synthesized.mutant.stages == (3, 6, 10)
    assert len(synthesized.program) == 12  # one NOP inserted
    assert tuple(synthesized.program.memory_access_positions()) == (3, 6, 10)


def test_synthesize_prefers_no_recirculation(compiler):
    # Granting many stages: the compiler must pick a one-pass mutant.
    response = AllocationResponseHeader.from_map(
        {stage: StageRegion(0, 1024) for stage in range(2, 19)}
    )
    synthesized = compiler.synthesize(_program(), listing1_pattern(), response)
    assert synthesized.mutant.recirculations == 0
    assert synthesized.mutant.stages == (2, 5, 9)


def test_synthesize_unreachable_raises(compiler):
    response = AllocationResponseHeader.from_map({1: StageRegion(0, 1024)})
    with pytest.raises(CompilationError):
        compiler.synthesize(_program(), listing1_pattern(), response)


def test_synthesize_empty_response_raises(compiler):
    with pytest.raises(CompilationError):
        compiler.synthesize(
            _program(), listing1_pattern(), AllocationResponseHeader.empty()
        )


def test_translate_addresses_into_region(compiler):
    response = AllocationResponseHeader.from_map(
        {
            2: StageRegion(512, 1024),
            5: StageRegion(512, 1024),
            9: StageRegion(512, 1024),
        }
    )
    synthesized = compiler.synthesize(_program(), listing1_pattern(), response)
    assert synthesized.translate(0, 0) == 512
    assert synthesized.translate(0, 511) == 1023
    with pytest.raises(CompilationError):
        synthesized.translate(0, 512)  # beyond the region
    assert synthesized.min_region_words == 512


def test_relink_after_reallocation(compiler):
    original = AllocationResponseHeader.from_map(
        {2: StageRegion(0, 1024), 5: StageRegion(0, 1024), 9: StageRegion(0, 1024)}
    )
    synthesized = compiler.synthesize(_program(), listing1_pattern(), original)
    updated = AllocationResponseHeader.from_map(
        {2: StageRegion(512, 768), 5: StageRegion(512, 768), 9: StageRegion(512, 768)}
    )
    relinked = compiler.relink(synthesized, updated)
    assert relinked.mutant == synthesized.mutant  # stages unchanged
    assert relinked.translate(0, 0) == 512
    assert relinked.min_region_words == 256


def test_relink_missing_stage_raises(compiler):
    original = AllocationResponseHeader.from_map(
        {2: StageRegion(0, 1024), 5: StageRegion(0, 1024), 9: StageRegion(0, 1024)}
    )
    synthesized = compiler.synthesize(_program(), listing1_pattern(), original)
    dropped = AllocationResponseHeader.from_map(
        {2: StageRegion(0, 1024), 5: StageRegion(0, 1024)}
    )
    with pytest.raises(CompilationError):
        compiler.relink(synthesized, dropped)


def test_end_to_end_with_allocator(compiler):
    """Compiler synthesis agrees with whatever the allocator grants."""
    allocator = ActiveRmtAllocator(SwitchConfig())
    pattern = listing1_pattern()
    for fid in range(10):
        decision = allocator.allocate(fid, pattern)
        assert decision.feasible
        response = allocator.response_for(fid)
        synthesized = compiler.synthesize(_program(), pattern, response)
        granted = set(response.allocated_stages())
        assert set(synthesized.access_stages) <= granted


# ----------------------------------------------------------------------
# The mutant choice is memoized per (shape, policy, config, granted stages)
# ----------------------------------------------------------------------


def _grant(stages):
    return AllocationResponseHeader.from_map(
        {stage: StageRegion(0, 1024) for stage in stages}
    )


def _enumerate_calls(function):
    """Entries into ``enumerate_mutants``' frame (its first call and each
    resumption, one per emitted mutant) while *function* runs."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is enumerate_mutants.__code__:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("app", sorted(EXEMPLAR_APPS))
def test_memoized_choice_equals_the_plain_search(compiler, app):
    """Every grant an allocator can make from the app's most-constrained
    table: a cold and a warm memo give the same linked program, and its
    mutant is the plain search's -- the fewest recirculations, then the
    most compact, over every mutant the policy enumerates."""
    spec = EXEMPLAR_APPS[app]
    pattern, program = spec.pattern(), spec.program()
    everything = list(
        enumerate_mutants(pattern, SYNTHESIS_POLICY, compiler.config)
    )
    rows = mutant_table({}, pattern, MOST_CONSTRAINED, compiler.config)
    assert rows
    chosen = {}
    for candidate, _demands in rows:
        response = _grant(candidate.physical_stages)
        granted = set(candidate.physical_stages)
        expected = min(
            (c for c in everything if granted.issuperset(c.physical_stages)),
            key=lambda c: (c.recirculations, c.stages),
        )
        _granted_mutant.cache_clear()
        cold = compiler.synthesize(program, pattern, response)
        warm = compiler.synthesize(program, pattern, response)
        assert cold == warm
        assert cold.mutant == expected
        assert cold.program == program.with_nops_before(
            insertions_for(pattern, expected.stages)
        )
        chosen[candidate.physical_stages] = cold
    # Every grant again, the memo warm with the others: no entry answers
    # for another grant.
    for stages, cold in chosen.items():
        assert compiler.synthesize(program, pattern, _grant(stages)) == cold


def test_unreachable_grant_raises_on_every_call(compiler):
    _granted_mutant.cache_clear()
    for _ in range(2):
        with pytest.raises(CompilationError, match="no mutant of 'cache-query'"):
            compiler.synthesize(_program(), listing1_pattern(), _grant([1]))


def test_patterns_differing_only_in_name_share_one_entry(compiler):
    _granted_mutant.cache_clear()
    response = _grant([3, 6, 10])
    first = compiler.synthesize(_program(), listing1_pattern(), response)
    renamed = dataclasses.replace(listing1_pattern(), name="fid7")
    second = compiler.synthesize(_program(), renamed, response)
    assert second == first
    info = _granted_mutant.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def test_second_compile_of_a_shape_and_grant_emits_no_mutant():
    """A cold ``compile_mutant`` of the cache query on a padded grant
    enters the search 467 times (once per mutant it emits up to
    (3, 6, 10)); the same shape and grant again -- another tenant of
    the app, under a new name -- enters it 0 times."""
    _granted_mutant.cache_clear()
    program = EXEMPLAR_APPS["cache"].program()
    response = _grant([3, 6, 10])
    cold = _enumerate_calls(lambda: compile_mutant(program, response, name="fid1"))
    warm = _enumerate_calls(lambda: compile_mutant(program, response, name="fid2"))
    assert cold == 467
    assert warm == 0
