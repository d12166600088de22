"""Allocation schemes (Sections 4.2 and 6.4).

A scheme scores each feasible mutant candidate; the allocator picks the
candidate with the lowest score (ties broken by enumeration order, i.e.
most compact mutant first).

- **worst-fit** (the prototype's default) prefers stages with the most
  fungible memory, maximizing utilization headroom.
- **best-fit** does the opposite, packing stages tightly.
- **first-fit** greedily takes the first feasible candidate in the
  systematic enumeration sequence.
- **realloc** minimizes the number of existing applications whose
  allocations would change.
"""

from __future__ import annotations

import enum
from typing import Any, Mapping, Tuple

from repro.core.blocks import StagePool
from repro.core.mutants import MutantCandidate


class AllocationScheme(enum.Enum):
    """Candidate-scoring policies compared in Figure 11."""

    WORST_FIT = "wf"
    BEST_FIT = "bf"
    FIRST_FIT = "ff"
    MIN_REALLOC = "realloc"

    @classmethod
    def from_name(cls, name: str) -> "AllocationScheme":
        for scheme in cls:
            if name in (scheme.value, scheme.name.lower()):
                return cls(scheme.value)
        raise ValueError(f"unknown allocation scheme {name!r}")

    def stage_value(self, pool: StagePool) -> Any:
        """What this scheme reads of one stage: a planner takes it once
        per stage per plan, not once per candidate."""
        if self is AllocationScheme.FIRST_FIT:
            return None
        if self is AllocationScheme.MIN_REALLOC:
            return pool.elastic_fids
        return pool.fungible_share

    def rank(
        self, candidate: MutantCandidate, values: Mapping[int, Any], order: int
    ) -> Tuple:
        """A candidate's score: lower is better; the tuple's tail breaks
        ties deterministically.

        Args:
            candidate: the mutant under consideration.
            values: physical stage -> :meth:`stage_value` of its pool.
            order: the candidate's index in enumeration order.
        """
        stages = candidate.physical_stages
        if self is AllocationScheme.FIRST_FIT:
            return (order,)
        if self is AllocationScheme.MIN_REALLOC:
            # Disturb as few resident applications as possible.
            disturbed = set().union(*(values[stage] for stage in stages))
            return (len(disturbed), candidate.recirculations, order)
        headroom = sum(map(values.__getitem__, stages))
        if self is AllocationScheme.WORST_FIT:
            headroom = -headroom
        return (headroom, candidate.recirculations, order)
