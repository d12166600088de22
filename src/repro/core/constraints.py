"""The constraint model of Section 4.2.

Each admission candidate is encoded as a fixed-length sequence of
constraints on memory-stage indices: a lower bound ``LB``, an upper
bound ``UB``, and a minimum distance ``B`` between consecutive
accesses.  For Listing 1 (M = 3 accesses at lines 2, 5 and 9 of an
11-instruction program):

- ``LB = [2, 5, 9]`` (the most compact mutant),
- ``B  = [1, 3, 4]`` (pairwise spacing, measured from position 1),
- with n = 20 stages, ``UB = [11, 14, 18]`` -- computed backwards from
  the last stage that still lets the program finish,
- restricting RTS to the ingress pipeline tightens UB to ``[4, 7, 11]``.

An :class:`AllocationPolicy` selects the logical-stage horizon (how
many recirculations mutants may consume) and whether ingress-preferred
instructions must actually land in the ingress half.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Optional, Sequence, Tuple

from repro.isa.program import ActiveProgram
from repro.packets.headers import (
    AccessConstraintEntry,
    AllocationRequestHeader,
    MAX_REQUEST_ACCESSES,
)


class ConstraintError(ValueError):
    """Raised for inconsistent access patterns or policies."""


@dataclasses.dataclass(frozen=True)
class AllocationPolicy:
    """How aggressively mutants may stretch a program.

    Attributes:
        name: short identifier used in experiment output.
        extra_passes: recirculations a mutant may add beyond the first
            pass purely to reach later memory stages.  The
            most-constrained policy of Section 6.1 sets 0; the
            least-constrained policy allows more passes.
        enforce_ingress: if True, ingress-preferred instructions (RTS)
            must land within an ingress half-pipeline window.
        max_candidates: enumeration safety cap (documented deviation:
            the paper enumerates exhaustively; we bound the search to
            keep pathological patterns polynomial in practice).
    """

    name: str
    extra_passes: int
    enforce_ingress: bool
    max_candidates: int = 50000

    def horizon(self, num_stages: int, base_passes: int = 1) -> int:
        """Last usable logical stage under this policy.

        ``base_passes`` is the pass count of the compact program: a
        program that already recirculates (like the 29-instruction
        frequent-item monitor) keeps its inherent passes even under the
        most-constrained policy -- "most constrained" forbids
        *additional* recirculations, not pre-existing ones.
        """
        return num_stages * (base_passes + self.extra_passes)


#: Mutants must avoid any additional recirculation (Section 6.1).
MOST_CONSTRAINED = AllocationPolicy(
    name="most-constrained", extra_passes=0, enforce_ingress=True
)

#: Maximum flexibility at the cost of extra passes (Section 6.1).
LEAST_CONSTRAINED = AllocationPolicy(
    name="least-constrained", extra_passes=1, enforce_ingress=False
)

#: Ablation baseline: no mutation at all -- only the compact program
#: can be placed (Figure 4's flexibility switched off).  Enumeration in
#: lexicographic order makes the compact mutant the single candidate.
NO_MUTATION = AllocationPolicy(
    name="no-mutation", extra_passes=0, enforce_ingress=True, max_candidates=1
)


@dataclasses.dataclass(frozen=True)
class AccessPattern:
    """A program's memory-access pattern, as the allocator sees it.

    This is exactly the information carried by an allocation-request
    packet (Section 3.3): program length, per-access lower bounds and
    spacing, per-access block demands, and the position of the
    ingress-bound instruction (if any).

    Attributes:
        program_length: instruction count of the compact program.
        lower_bounds: LB -- 1-indexed stage of each access in the most
            compact mutant, strictly increasing.
        min_distances: B -- minimum distance from the previous access
            (from the program start for the first access).
        demands: blocks demanded in each access's stage; ``None`` means
            elastic demand.
        ingress_bound_position: compact-mutant position of the RTS-like
            instruction (0 = none).  Mutant padding shifts it together
            with the accesses that precede it.
        aliases: per-access same-stage constraints; ``aliases[j] = i``
            (with ``i < j``) forces access *j* onto the same *physical*
            stage as access *i* -- how a recirculating program re-reads
            memory it wrote on an earlier pass (the frequent-item
            monitor's threshold stage, Section 6.3).  -1 means
            unconstrained.  In-memory extension: not carried on the
            wire (the paper's 3-byte request entries have no room), so
            it applies to locally-submitted patterns only.
        name: diagnostic label.
    """

    program_length: int
    lower_bounds: Tuple[int, ...]
    min_distances: Tuple[int, ...]
    demands: Tuple[Optional[int], ...]
    ingress_bound_position: int = 0
    aliases: Tuple[int, ...] = ()
    name: str = "app"

    def __post_init__(self) -> None:
        m = len(self.lower_bounds)
        if m == 0:
            raise ConstraintError(f"{self.name}: no memory accesses")
        if m > MAX_REQUEST_ACCESSES:
            raise ConstraintError(
                f"{self.name}: {m} accesses exceed the wire limit "
                f"({MAX_REQUEST_ACCESSES})"
            )
        if len(self.min_distances) != m or len(self.demands) != m:
            raise ConstraintError(f"{self.name}: vector lengths disagree")
        if list(self.lower_bounds) != sorted(set(self.lower_bounds)):
            raise ConstraintError(
                f"{self.name}: lower bounds must be strictly increasing"
            )
        if self.lower_bounds[-1] > self.program_length:
            raise ConstraintError(
                f"{self.name}: access beyond the end of the program"
            )
        previous = 0
        for lb, dist in zip(self.lower_bounds, self.min_distances):
            if dist < 1:
                raise ConstraintError(f"{self.name}: distances must be >= 1")
            if lb - previous < dist:
                raise ConstraintError(
                    f"{self.name}: LB {self.lower_bounds} violates its own "
                    f"distance vector {self.min_distances}"
                )
            previous = lb
        for demand in self.demands:
            if demand is not None and demand < 1:
                raise ConstraintError(
                    f"{self.name}: inelastic demand must be >= 1 block"
                )
        if self.aliases:
            if len(self.aliases) != m:
                raise ConstraintError(f"{self.name}: alias vector length")
            for j, i in enumerate(self.aliases):
                if i >= j:
                    raise ConstraintError(
                        f"{self.name}: alias {j} -> {i} must point backwards"
                    )

    # ------------------------------------------------------------------

    @property
    def num_accesses(self) -> int:
        return len(self.lower_bounds)

    @functools.cached_property
    def shape(self) -> "AccessPattern":
        """This pattern as the mutant search reads it: ``name`` and
        ``demands`` erased.  Equal shapes enumerate equal mutants, so
        every memo of the search keys on this."""
        return dataclasses.replace(self, demands=(None,) * self.num_accesses, name="shape")

    @property
    def elastic(self) -> bool:
        """An application is elastic iff every demand is elastic."""
        return all(demand is None for demand in self.demands)

    @property
    def trailing_instructions(self) -> int:
        """Instructions after the last access (fixes the last UB)."""
        return self.program_length - self.lower_bounds[-1]

    def compact_passes(self, num_stages: int) -> int:
        """Passes the unpadded program needs on *num_stages* stages."""
        return -(-self.program_length // num_stages)

    def alias_of(self, access_index: int) -> int:
        """Alias target for an access (-1 when unconstrained)."""
        if not self.aliases:
            return -1
        return self.aliases[access_index]

    def upper_bounds(self, horizon: int) -> Tuple[int, ...]:
        """UB computed backwards from the policy's stage horizon."""
        m = self.num_accesses
        ubs: List[int] = [0] * m
        ubs[m - 1] = horizon - self.trailing_instructions
        for i in range(m - 2, -1, -1):
            ubs[i] = ubs[i + 1] - self.min_distances[i + 1]
        if any(ub < lb for ub, lb in zip(ubs, self.lower_bounds)):
            raise ConstraintError(
                f"{self.name}: horizon {horizon} leaves no feasible mutant"
            )
        return tuple(ubs)

    def ingress_shift_anchor(self) -> int:
        """Index of the last access at/before the ingress-bound position.

        NOP padding is inserted immediately before memory accesses; the
        RTS therefore shifts by the cumulative padding in front of it,
        which equals the shift of the last access that precedes it.
        Returns -1 when no access precedes the RTS (it never shifts).
        """
        if not self.ingress_bound_position:
            return -1
        anchor = -1
        for index, lb in enumerate(self.lower_bounds):
            if lb <= self.ingress_bound_position:
                anchor = index
        return anchor

    def shifted_ingress_position(self, mutant: Sequence[int]) -> int:
        """Where the ingress-bound instruction lands for a mutant.

        For Listing 1 (RTS at 8, accesses at [2, 5, 9]) the RTS lands at
        ``8 + (x_2 - 5)``: it shifts with the second access's padding
        but not with NOPs inserted between it and the third access.
        """
        if not self.ingress_bound_position:
            return 0
        anchor = self.ingress_shift_anchor()
        if anchor < 0:
            return self.ingress_bound_position
        shift = mutant[anchor] - self.lower_bounds[anchor]
        return self.ingress_bound_position + shift

    def mutant_length(self, mutant: Sequence[int]) -> int:
        """Instruction count of the padded program for a mutant."""
        return self.program_length + (mutant[-1] - self.lower_bounds[-1])

    # ------------------------------------------------------------------
    # Wire conversions (Section 3.3)
    # ------------------------------------------------------------------

    def to_request(self) -> AllocationRequestHeader:
        """Encode as an allocation-request header."""
        entries = tuple(
            AccessConstraintEntry(
                lower_bound=lb,
                min_distance=dist,
                demand_blocks=0 if demand is None else demand,
            )
            for lb, dist, demand in zip(
                self.lower_bounds, self.min_distances, self.demands
            )
        )
        return AllocationRequestHeader(
            program_length=self.program_length,
            accesses=entries,
            ingress_bound_position=self.ingress_bound_position,
        )

    @classmethod
    def from_request(
        cls, request: AllocationRequestHeader, name: str = "app"
    ) -> "AccessPattern":
        """Decode from an allocation-request header."""
        return cls(
            program_length=request.program_length,
            lower_bounds=tuple(e.lower_bound for e in request.accesses),
            min_distances=tuple(e.min_distance for e in request.accesses),
            demands=tuple(
                None if e.demand_blocks == 0 else e.demand_blocks
                for e in request.accesses
            ),
            ingress_bound_position=request.ingress_bound_position,
            name=name,
        )

    @classmethod
    def from_program(
        cls,
        program: ActiveProgram,
        demands: Optional[Sequence[Optional[int]]] = None,
        name: Optional[str] = None,
    ) -> "AccessPattern":
        """Derive the pattern from a compact program (compiler front end)."""
        positions = program.memory_access_positions()
        if not positions:
            raise ConstraintError(f"{program.name}: program has no accesses")
        # The paper's B vector (Section 4.2) uses a trivial first entry
        # (B_1 = 1 for Listing 1): the lower bound already pins the
        # first access, so only consecutive spacing is constrained.
        distances = [1] + [b - a for a, b in zip(positions, positions[1:])]
        if demands is None:
            demands = [None] * len(positions)
        ingress_positions = program.ingress_bound_positions()
        return cls(
            program_length=len(program),
            lower_bounds=tuple(positions),
            min_distances=tuple(distances),
            demands=tuple(demands),
            ingress_bound_position=ingress_positions[0] if ingress_positions else 0,
            name=name or program.name,
        )
