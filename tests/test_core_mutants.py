"""Unit + property tests for mutant enumeration (Section 4.1-4.2)."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import EXEMPLAR_APPS
from repro.core import (
    AccessPattern,
    ActiveRmtAllocator,
    LEAST_CONSTRAINED,
    MOST_CONSTRAINED,
    NO_MUTATION,
    count_mutants,
    enumerate_mutants,
)
from repro.core.mutants import insertions_for, merge_demands, mutant_table
from repro.isa import assemble
from repro.switchsim import SwitchConfig

from tests.oracles import mutants as oracle
from tests.test_core_constraints import LISTING_1, listing1_pattern

CONFIG = SwitchConfig()


def test_compact_mutant_enumerated_first():
    pattern = listing1_pattern()
    first = next(iter(enumerate_mutants(pattern, MOST_CONSTRAINED, CONFIG)))
    assert first.stages == (2, 5, 9)
    assert first.passes == 1
    assert first.recirculations == 0


def test_most_constrained_respects_ingress_window():
    """RTS must stay in stages 1-10: x2 <= 7 for every mc mutant."""
    pattern = listing1_pattern()
    mutants = list(enumerate_mutants(pattern, MOST_CONSTRAINED, CONFIG))
    assert mutants, "cache must have mc mutants"
    for mutant in mutants:
        x1, x2, x3 = mutant.stages
        assert 2 <= x1 <= 4
        assert 5 <= x2 <= 7
        assert x2 - x1 >= 3
        assert x3 - x2 >= 4
        assert x3 <= 18
        assert mutant.passes == 1
        assert not mutant.ingress_violation


def test_least_constrained_superset_of_most_constrained():
    pattern = listing1_pattern()
    mc = {m.stages for m in enumerate_mutants(pattern, MOST_CONSTRAINED, CONFIG)}
    lc = {m.stages for m in enumerate_mutants(pattern, LEAST_CONSTRAINED, CONFIG)}
    assert mc < lc  # strictly more flexibility


def test_least_constrained_reaches_all_stages():
    """Section 6.1: the cache's lc mutants can use memory in all stages."""
    pattern = listing1_pattern()
    reachable = set()
    for mutant in enumerate_mutants(pattern, LEAST_CONSTRAINED, CONFIG):
        reachable.update(mutant.physical_stages)
    assert reachable == set(range(1, 21))


def test_most_constrained_cannot_reach_stage_8():
    """For Listing 1 under mc, stage 8 is unreachable: the ingress
    constraint caps x2 at 7, and x3 >= x2 + 4 >= 9."""
    pattern = listing1_pattern()
    reachable = set()
    for mutant in enumerate_mutants(pattern, MOST_CONSTRAINED, CONFIG):
        reachable.update(mutant.physical_stages)
    assert 8 not in reachable
    assert 1 not in reachable
    # x1 in [2,4], x2 in [5,7], x3 in [9,18] (x3 is free to stretch to
    # UB=18 because padding after the RTS does not move the RTS).
    assert reachable == set(range(2, 8)) | set(range(9, 19))


def test_recirculating_mutants_count_passes():
    pattern = listing1_pattern()
    deep = [
        m
        for m in enumerate_mutants(pattern, LEAST_CONSTRAINED, CONFIG)
        if m.stages[-1] > 18
    ]
    assert deep
    assert all(m.passes == 2 for m in deep)
    assert all(m.recirculations >= 1 for m in deep)


def test_physical_stage_dedup_on_recirculation():
    """Accesses on different passes can share a physical stage."""
    pattern = AccessPattern(
        program_length=30,
        lower_bounds=(5, 25),
        min_distances=(1, 20),
        demands=(None, None),
        name="wrap",
    )
    mutants = list(enumerate_mutants(pattern, LEAST_CONSTRAINED, CONFIG))
    wrapped = [m for m in mutants if m.stages == (5, 25)]
    assert wrapped and wrapped[0].physical_stages == (5,)


def test_count_matches_enumeration():
    pattern = listing1_pattern()
    mutants = list(enumerate_mutants(pattern, MOST_CONSTRAINED, CONFIG))
    assert count_mutants(pattern, MOST_CONSTRAINED, CONFIG) == len(mutants)


def test_candidate_cap_respected():
    pattern = listing1_pattern()
    capped = dataclasses.replace(LEAST_CONSTRAINED, max_candidates=5)
    assert count_mutants(pattern, capped, CONFIG) == 5


def test_infeasible_pattern_yields_nothing():
    # An RTS pinned at position 15 (no access before it, so it never
    # shifts) can never reach the ingress window without recirculating:
    # the most-constrained policy admits no mutant at all.
    pattern = AccessPattern(
        program_length=20,
        lower_bounds=(17,),
        min_distances=(1,),
        demands=(None,),
        ingress_bound_position=15,
        name="egress-rts",
    )
    assert count_mutants(pattern, MOST_CONSTRAINED, CONFIG) == 0
    # The least-constrained policy tolerates it (one recirculation).
    assert count_mutants(pattern, LEAST_CONSTRAINED, CONFIG) > 0
    # On an empty switch the planner blames the pattern, not occupancy.
    plan = ActiveRmtAllocator(CONFIG, policy=MOST_CONSTRAINED).plan(1, pattern)
    assert not plan.feasible
    assert plan.candidates_considered == 0
    assert plan.reason == "no mutant of 'egress-rts' under the most-constrained policy"


def test_programming_error_in_bounds_propagates(monkeypatch):
    """Only a ConstraintError from upper_bounds means "no mutants"."""

    def broken(self, horizon):
        raise TypeError("bug")

    monkeypatch.setattr(AccessPattern, "upper_bounds", broken)
    with pytest.raises(TypeError):
        list(enumerate_mutants(listing1_pattern(), MOST_CONSTRAINED, CONFIG))
    tables = {}
    with pytest.raises(TypeError):
        mutant_table(tables, listing1_pattern(), MOST_CONSTRAINED, CONFIG)
    assert tables == {}  # a failed build leaves no empty table behind


def _oracle_rows(pattern, policy):
    """The generator's mutants with their merged per-stage demands."""
    rows = []
    for candidate in enumerate_mutants(pattern, policy, CONFIG):
        merged = {}
        for stage, demand in zip(candidate.stages, pattern.demands):
            physical = CONFIG.physical_stage(stage)
            merged[physical] = (
                merge_demands(merged[physical], demand) if physical in merged else demand
            )
        assert tuple(merged) == candidate.physical_stages
        rows.append((candidate, tuple(merged.values())))
    return rows


POLICIES = {
    "mc": MOST_CONSTRAINED,
    "lc": LEAST_CONSTRAINED,
    "none": NO_MUTATION,
    "lc-cap5": dataclasses.replace(LEAST_CONSTRAINED, max_candidates=5),
}


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("app", sorted(EXEMPLAR_APPS))
def test_table_rows_equal_the_generator(app, policy):
    """The generator is the oracle: same rows, same order, same cap."""
    pattern = EXEMPLAR_APPS[app].pattern()
    expected = _oracle_rows(pattern, POLICIES[policy])
    assert list(mutant_table({}, pattern, POLICIES[policy], CONFIG)) == expected


def test_table_is_keyed_by_constraints_not_name():
    tables = {}
    table = mutant_table(tables, listing1_pattern(), MOST_CONSTRAINED, CONFIG)
    renamed = dataclasses.replace(listing1_pattern(), name="fid7")
    assert mutant_table(tables, renamed, MOST_CONSTRAINED, CONFIG) is table
    assert mutant_table(tables, listing1_pattern(), LEAST_CONSTRAINED, CONFIG) is not table
    assert len(tables) == 2


def test_alias_constrains_to_same_physical_stage():
    """aliases[j] = i forces access j onto access i's physical stage."""
    pattern = AccessPattern(
        program_length=30,
        lower_bounds=(5, 25),
        min_distances=(1, 20),
        demands=(None, None),
        aliases=(-1, 0),
        name="aliased",
    )
    mutants = list(enumerate_mutants(pattern, MOST_CONSTRAINED, CONFIG))
    assert mutants
    for mutant in mutants:
        assert CONFIG.physical_stage(mutant.stages[0]) == CONFIG.physical_stage(
            mutant.stages[1]
        )
        assert len(mutant.physical_stages) == 1


def _aliased_pattern(rng):
    """A random pattern whose later accesses may alias earlier ones."""
    m = rng.randint(2, 5)
    positions = sorted(rng.sample(range(1, 40), m))
    aliases = tuple([-1] + [rng.choice([-1, rng.randrange(j)]) for j in range(1, m)])
    return AccessPattern(
        program_length=positions[-1] + rng.randint(0, 4),
        lower_bounds=tuple(positions),
        min_distances=tuple([1] + [b - a for a, b in zip(positions, positions[1:])]),
        demands=(None,) * m,
        ingress_bound_position=rng.choice([0, rng.randint(1, positions[-1])]),
        aliases=aliases,
        name="random-aliased",
    )


ORACLE_POLICIES = ("mc", "lc", "none")


@pytest.mark.parametrize("policy", ORACLE_POLICIES)
@pytest.mark.parametrize("app", sorted(EXEMPLAR_APPS))
def test_alias_stepping_equals_the_filtering_oracle(app, policy):
    """Stepping an aliased access through its congruent stages emits the
    filter-after-range search's mutants, in its order."""
    pattern = EXEMPLAR_APPS[app].pattern()
    expected = list(oracle.enumerate_mutants(pattern, POLICIES[policy], CONFIG))
    assert list(enumerate_mutants(pattern, POLICIES[policy], CONFIG)) == expected


@pytest.mark.parametrize("seed", range(8))
def test_alias_stepping_equals_the_oracle_on_random_aliased_patterns(seed):
    rng = random.Random(seed)
    for config in (CONFIG, SwitchConfig(num_stages=8, ingress_stages=4)):
        for _ in range(6):
            pattern = _aliased_pattern(rng)
            for policy in ORACLE_POLICIES:
                expected = list(oracle.enumerate_mutants(pattern, POLICIES[policy], config))
                assert list(enumerate_mutants(pattern, POLICIES[policy], config)) == expected


def test_heavy_hitter_has_exactly_one_mc_mutant():
    """Section 6.1's census: the heavy hitter has a single mutant under
    the most-constrained policy -- its cross-pass alias pins everything."""
    from repro.apps import heavy_hitter_pattern

    pattern = heavy_hitter_pattern()
    assert count_mutants(pattern, MOST_CONSTRAINED, CONFIG) == 1
    assert count_mutants(pattern, LEAST_CONSTRAINED, CONFIG) > 1


def test_insertions_realize_mutants():
    """Applying insertions_for to the program lands accesses on target."""
    pattern = listing1_pattern()
    program = assemble(LISTING_1, name="cache-query")
    for mutant in enumerate_mutants(pattern, MOST_CONSTRAINED, CONFIG):
        padded = program.with_nops_before(insertions_for(pattern, mutant.stages))
        assert tuple(padded.memory_access_positions()) == mutant.stages
        assert len(padded) == pattern.mutant_length(mutant.stages)
        # The shifted RTS stays in the ingress window under mc.
        rts_position = padded.ingress_bound_positions()[0]
        assert rts_position <= CONFIG.ingress_stages


def test_insertions_reject_backward_mutants():
    pattern = listing1_pattern()
    with pytest.raises(ValueError):
        insertions_for(pattern, (3, 5, 9))  # access 2 would shift backwards


@st.composite
def random_patterns(draw):
    m = draw(st.integers(1, 4))
    positions = []
    cursor = 0
    for _ in range(m):
        cursor += draw(st.integers(1, 4))
        positions.append(cursor)
    trailing = draw(st.integers(0, 3))
    distances = [1] + [b - a for a, b in zip(positions, positions[1:])]
    return AccessPattern(
        program_length=positions[-1] + trailing,
        lower_bounds=tuple(positions),
        min_distances=tuple(distances),
        demands=tuple([None] * m),
        name="random",
    )


@settings(max_examples=40, deadline=None)
@given(random_patterns())
def test_enumeration_invariants_property(pattern):
    """Every emitted mutant satisfies LB/UB/B and is unique."""
    seen = set()
    ubs = pattern.upper_bounds(MOST_CONSTRAINED.horizon(CONFIG.num_stages))
    for mutant in enumerate_mutants(pattern, MOST_CONSTRAINED, CONFIG):
        assert mutant.stages not in seen
        seen.add(mutant.stages)
        previous = 0
        for x, lb, ub, dist in zip(
            mutant.stages, pattern.lower_bounds, ubs, pattern.min_distances
        ):
            assert lb <= x <= ub
            assert x - previous >= (dist if previous else 0)
            previous = x
