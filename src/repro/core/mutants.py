"""Mutant enumeration: the systematic search of Section 4.2.

A *mutant* is an integer vector ``x`` of logical stages for a program's
memory accesses satisfying ``LB <= x <= UB`` and ``A x >= B`` (pairwise
spacing).  It is realized by inserting NOPs: access ``i`` shifted by
``x_i - LB_i`` positions (Figure 4).  Enumeration is lexicographic, so
the most compact mutants (fewest added NOPs, fewest recirculations)
come first -- the systematic enumeration order the first-fit scheme
relies on.

An allocator (shared with its shadows) enumerates a pattern once into a
:data:`MutantTable`; :func:`enumerate_mutants` is the table's builder
and the oracle it is tested against.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.core.constraints import AccessPattern, AllocationPolicy, ConstraintError
from repro.switchsim.config import SwitchConfig


@dataclasses.dataclass(frozen=True)
class MutantCandidate:
    """One feasible mutant of an access pattern.

    Attributes:
        stages: logical stages of the accesses (the vector ``x``).
        physical_stages: deduplicated physical stages, in order of
            first use -- where memory must actually be allocated.
        passes: pipeline passes the padded program consumes.
        ingress_violation: True when the policy tolerates an
            ingress-bound instruction landing in the egress half (one
            extra recirculation at runtime).
    """

    stages: Tuple[int, ...]
    physical_stages: Tuple[int, ...]
    passes: int
    ingress_violation: bool = False

    @property
    def recirculations(self) -> int:
        return self.passes - 1 + (1 if self.ingress_violation else 0)


def _ingress_ok(position: int, config: SwitchConfig) -> bool:
    """Is a logical position inside some pass's ingress window?"""
    if position < 1:
        return False
    return (position - 1) % config.num_stages < config.ingress_stages


def enumerate_mutants(
    pattern: AccessPattern,
    policy: AllocationPolicy,
    config: SwitchConfig,
) -> Iterator[MutantCandidate]:
    """Yield feasible mutants in lexicographic (most compact first) order.

    The generator stops after ``policy.max_candidates`` mutants as a
    safety bound; the paper's programs stay well below it.
    """
    horizon = policy.horizon(
        config.num_stages, pattern.compact_passes(config.num_stages)
    )
    try:
        ubs = pattern.upper_bounds(horizon)
    except ConstraintError:
        return
    lbs = pattern.lower_bounds
    dists = pattern.min_distances
    m = pattern.num_accesses
    def emit(stages: Tuple[int, ...]) -> Optional[MutantCandidate]:
        end_stage = stages[-1] + pattern.trailing_instructions
        passes = config.pass_of(max(end_stage, 1))
        ingress_violation = False
        if pattern.ingress_bound_position:
            shifted = pattern.shifted_ingress_position(stages)
            if not _ingress_ok(shifted, config):
                if policy.enforce_ingress:
                    return None
                ingress_violation = True
        physical = []
        for stage in stages:
            phys = config.physical_stage(stage)
            if phys not in physical:
                physical.append(phys)
        return MutantCandidate(
            stages=stages,
            physical_stages=tuple(physical),
            passes=passes,
            ingress_violation=ingress_violation,
        )

    def search(index: int, prefix: Tuple[int, ...]) -> Iterator[MutantCandidate]:
        if index == m:
            candidate = emit(prefix)
            if candidate is not None:
                yield candidate
            return
        low = lbs[index]
        if index > 0:
            low = max(low, prefix[index - 1] + dists[index])
        alias = pattern.alias_of(index)
        for value in range(low, ubs[index] + 1):
            if alias >= 0 and config.physical_stage(
                value
            ) != config.physical_stage(prefix[alias]):
                continue  # must revisit the aliased access's stage
            yield from search(index + 1, prefix + (value,))

    emitted = 0
    for candidate in search(0, ()):
        yield candidate
        emitted += 1
        if emitted >= policy.max_candidates:
            return


def merge_demands(left: Optional[int], right: Optional[int]) -> Optional[int]:
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


#: A mutant and the merged demand (None: elastic) of each of its ``physical_stages``.
MutantRow = Tuple[MutantCandidate, Tuple[Optional[int], ...]]


def _rows(
    pattern: AccessPattern, policy: AllocationPolicy, config: SwitchConfig
) -> Iterator[MutantRow]:
    demands = pattern.demands
    for candidate in enumerate_mutants(pattern, policy, config):
        if len(candidate.physical_stages) == len(demands):
            # No stage shared: the pattern's own tuple, allocated once.
            yield candidate, demands
            continue
        merged: Dict[int, Optional[int]] = {}
        for stage, demand in zip(candidate.stages, demands):
            physical = config.physical_stage(stage)
            merged[physical] = merge_demands(merged.get(physical), demand)
        yield candidate, tuple(merged.values())


#: A pattern's mutants under one policy and device, enumerated once: rows
#: in enumeration order, capped at the policy's ``max_candidates``.
MutantTable = Tuple[MutantRow, ...]


def mutant_table(tables: Dict[Hashable, MutantTable], pattern: AccessPattern,
                 policy: AllocationPolicy, config: SwitchConfig) -> MutantTable:
    """*pattern*'s table in an owner's *tables*, built there on first use.

    The key is the pattern's constraints, the policy and the config --
    not its diagnostic ``name``, which the wire path sets per FID.  A
    build that raises adds nothing; two threads that race build twice.
    """
    key = (pattern.program_length, pattern.lower_bounds, pattern.min_distances,
           pattern.demands, pattern.ingress_bound_position, pattern.aliases, policy, config)
    table = tables.get(key)
    if table is None:
        table = tables.setdefault(key, tuple(_rows(pattern, policy, config)))
    return table


def insertions_for(
    pattern: AccessPattern, stages: Tuple[int, ...]
) -> List[Tuple[int, int]]:
    """NOP insertions realizing a mutant (for ActiveProgram.with_nops_before).

    Returns ``(compact_position, count)`` pairs: *count* NOPs inserted
    immediately before the access at *compact_position* shift it (and
    everything after it) to the mutant's stage.
    """
    insertions: List[Tuple[int, int]] = []
    previous_shift = 0
    for lb, stage in zip(pattern.lower_bounds, stages):
        shift = stage - lb
        if shift < previous_shift:
            raise ValueError(
                f"stages {stages} are not a forward-padded mutant of "
                f"LB {pattern.lower_bounds}"
            )
        if shift > previous_shift:
            insertions.append((lb, shift - previous_shift))
        previous_shift = shift
    return insertions


def count_mutants(
    pattern: AccessPattern,
    policy: AllocationPolicy,
    config: SwitchConfig,
) -> int:
    """Number of feasible mutants under a policy (Section 6.1 table)."""
    return sum(1 for _ in enumerate_mutants(pattern, policy, config))
