"""Mutant enumeration as of commit 3bf1e2c, kept verbatim as an oracle.

That search stepped an aliased access through every stage between its
bounds and skipped the ones off its alias's physical stage;
:func:`repro.core.mutants.enumerate_mutants` now steps through only the
congruent ones.  ``tests/test_core_mutants.py`` checks the two emit the
same mutants in the same order.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.core.constraints import AccessPattern, AllocationPolicy, ConstraintError
from repro.core.mutants import MutantCandidate
from repro.switchsim.config import SwitchConfig


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
            if shifted < 1 or not config.is_ingress(config.physical_stage(shifted)):
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
