"""Dynamic memory allocation -- the paper's primary contribution.

This package implements Section 4 of the paper:

- :mod:`repro.core.constraints` -- the LB/UB/B constraint model derived
  from a program's memory-access pattern (Section 4.2's problem
  formulation) and the allocation policies (most/least constrained).
- :mod:`repro.core.mutants` -- systematic enumeration of program
  mutants: NOP-padded variants whose memory accesses land in different
  stages (Section 4.1, Figure 4).
- :mod:`repro.core.blocks` -- per-stage block pools with inelastic
  pinning and deterministic layout.
- :mod:`repro.core.fairness` -- progressive filling (approximate
  max-min fairness) and Jain's fairness index.
- :mod:`repro.core.schemes` -- allocation schemes: worst-fit (default),
  best-fit, first-fit, and reallocation-minimizing (Section 6.4).
- :mod:`repro.core.allocator` -- the online allocator: admission
  control, candidate search, assignment, and reallocation accounting.
- :mod:`repro.core.transactions` -- transactional admission: pure
  plans, byte-identical pool snapshots, and the reversible-operation
  journal the controller replays backwards on switch-side failure.
"""

from repro.core.constraints import (
    AccessPattern,
    AllocationPolicy,
    MOST_CONSTRAINED,
    LEAST_CONSTRAINED,
    NO_MUTATION,
    ConstraintError,
)
from repro.core.mutants import enumerate_mutants, count_mutants, MutantCandidate
from repro.core.blocks import BlockRange, StagePool
from repro.core.fairness import jain_index, progressive_fill
from repro.core.schemes import AllocationScheme
from repro.core.allocator import (
    ActiveRmtAllocator,
    AppRecord,
    AllocationError,
)
from repro.core.transactions import (
    AllocationPlan,
    AllocatorCheckpoint,
    CommitResult,
    PlanState,
    PoolSnapshot,
    StalePlanError,
    TableUpdateJournal,
    TransactionError,
)

__all__ = [
    "AccessPattern",
    "AllocationPolicy",
    "MOST_CONSTRAINED",
    "LEAST_CONSTRAINED",
    "NO_MUTATION",
    "ConstraintError",
    "enumerate_mutants",
    "count_mutants",
    "MutantCandidate",
    "BlockRange",
    "StagePool",
    "jain_index",
    "progressive_fill",
    "AllocationScheme",
    "ActiveRmtAllocator",
    "AppRecord",
    "AllocationError",
    "AllocationPlan",
    "AllocatorCheckpoint",
    "CommitResult",
    "PlanState",
    "PoolSnapshot",
    "StalePlanError",
    "TableUpdateJournal",
    "TransactionError",
]
