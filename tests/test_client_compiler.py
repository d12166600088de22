"""Unit tests for the client compiler: synthesis and linking."""

import pytest

from repro.client import ActiveCompiler, CompilationError
from repro.core import ActiveRmtAllocator
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
