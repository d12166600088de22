"""Per-stage block pools with inelastic pinning (Section 4.1/4.2).

Each physical stage's register memory is split into fixed-size blocks;
applications receive contiguous block ranges.  Inelastic applications
are pinned to the beginning of the pool in arrival order ("we pin
inelastic applications to the beginning of the memory pool in each
stage"); elastic applications share the remainder by progressive
filling, laid out deterministically above the pinned region.
"""

from __future__ import annotations

import dataclasses
import types
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.fairness import progressive_fill
from repro.packets.headers import StageRegion


@dataclasses.dataclass(frozen=True)
class BlockRange:
    """A contiguous run of blocks within one stage."""

    start: int
    count: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.count < 0:
            raise ValueError(f"bad block range ({self.start}, {self.count})")

    @property
    def end(self) -> int:
        return self.start + self.count

    def to_words(self, block_words: int) -> StageRegion:
        """Convert to a register-word region for the response header."""
        return StageRegion(
            start=self.start * block_words, end=self.end * block_words
        )

    def overlaps(self, other: "BlockRange") -> bool:
        return self.start < other.end and other.start < self.end


@dataclasses.dataclass(frozen=True)
class _Resident:
    fid: int
    elastic: bool
    demand: Optional[int]  # blocks; None for elastic
    arrival: int


class StagePool:
    """Occupancy state and layout policy for one physical stage."""

    def __init__(self, total_blocks: int) -> None:
        if total_blocks <= 0:
            raise ValueError("stage must hold at least one block")
        self.total_blocks = total_blocks
        self._residents: Dict[int, _Resident] = {}
        self._layout_cache: Optional[Mapping[int, BlockRange]] = None
        # Occupancy counters, kept in step with _residents wherever the
        # layout cache is dropped: the mutant search reads them for
        # every candidate stage.
        self._pinned_blocks = 0
        self._elastic_count = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add(self, fid: int, demand: Optional[int], arrival: int) -> None:
        """Admit *fid* with a block demand (None = elastic)."""
        if fid in self._residents:
            raise ValueError(f"fid {fid} already resident in stage")
        resident = _Resident(
            fid=fid, elastic=demand is None, demand=demand, arrival=arrival
        )
        self._residents[fid] = resident
        self._tally(resident, 1)
        self._layout_cache = None

    def remove(self, fid: int) -> None:
        resident = self._residents.pop(fid, None)
        if resident is not None:
            self._tally(resident, -1)
        self._layout_cache = None

    def _tally(self, resident: _Resident, sign: int) -> None:
        if resident.elastic:
            self._elastic_count += sign
        else:
            self._pinned_blocks += sign * resident.demand

    # ------------------------------------------------------------------
    # Transactional support (shadow planning + exact snapshot/restore)
    # ------------------------------------------------------------------

    def clone(self) -> "StagePool":
        """Independent copy for copy-on-write shadow planning.

        The clone shares nothing mutable with the original -- only the
        frozen resident records and the immutable cached layout -- so
        planners add/remove residents on it freely without the real
        pool ever observing the search.
        """
        twin = StagePool(self.total_blocks)
        twin._residents = dict(self._residents)
        twin._layout_cache = self._layout_cache
        twin._pinned_blocks = self._pinned_blocks
        twin._elastic_count = self._elastic_count
        return twin

    def export_residents(self) -> Tuple[Tuple[int, bool, Optional[int], int], ...]:
        """The full population as ``(fid, elastic, demand, arrival)``
        tuples in arrival order -- the exact state a
        :class:`~repro.core.transactions.PoolSnapshot` captures."""
        ordered = sorted(self._residents.values(), key=lambda r: r.arrival)
        return tuple(
            (r.fid, r.elastic, r.demand, r.arrival) for r in ordered
        )

    def load_residents(
        self, residents: Tuple[Tuple[int, bool, Optional[int], int], ...]
    ) -> None:
        """Replace the population with a previously exported one.

        Restores byte-identical layouts: the deterministic layout is a
        pure function of the (fid, elastic, demand, arrival) set.
        """
        self._residents = {
            fid: _Resident(fid=fid, elastic=elastic, demand=demand, arrival=arrival)
            for fid, elastic, demand, arrival in residents
        }
        self._pinned_blocks = self._elastic_count = 0
        for resident in self._residents.values():
            self._tally(resident, 1)
        self._layout_cache = None

    def __contains__(self, fid: int) -> bool:
        return fid in self._residents

    @property
    def fids(self) -> List[int]:
        return sorted(self._residents)

    @property
    def elastic_fids(self) -> List[int]:
        return sorted(f for f, r in self._residents.items() if r.elastic)

    # ------------------------------------------------------------------
    # Occupancy metrics
    # ------------------------------------------------------------------

    @property
    def pinned_blocks(self) -> int:
        """Blocks held by inelastic residents."""
        return self._pinned_blocks

    @property
    def elastic_count(self) -> int:
        return self._elastic_count

    @property
    def fungible_blocks(self) -> int:
        """Free blocks plus blocks reclaimable from elastic residents.

        This is the cost metric of Section 4.2's allocation scheme:
        everything not pinned by inelastic applications is fungible.
        """
        return self.total_blocks - self.pinned_blocks

    @property
    def fungible_share(self) -> float:
        """Fungible blocks a new elastic claimant would obtain here.

        The fungible pool (Section 4.2) is everything not pinned by
        inelastic applications; a newcomer must share it with resident
        elastic applications, so the effective headroom of a stage is
        the progressive-filling share ``fungible / (elastic + 1)``.
        Worst-fit maximizes this, which spreads instances across empty
        stages first (the contention avoidance of Figure 4).
        """
        return self.fungible_blocks / (self.elastic_count + 1)

    @property
    def used_blocks(self) -> int:
        """Blocks allocated to some application under the current layout."""
        return sum(r.count for r in self.layout().values())

    def fits_inelastic(self, demand: int) -> bool:
        """Can an inelastic demand be admitted (elastic floor: 1 block)?"""
        return (
            self.pinned_blocks + demand + self.elastic_count
            <= self.total_blocks
        )

    def fits_elastic(self) -> bool:
        """Can one more elastic app be admitted (floor: 1 block each)?"""
        return (
            self.pinned_blocks + self.elastic_count + 1 <= self.total_blocks
        )

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    def layout(self) -> Mapping[int, BlockRange]:
        """Deterministic block layout for the current population.

        Inelastic residents sit at the bottom in arrival order; elastic
        residents share the remainder by progressive filling, placed
        above the pinned region in arrival order.

        The result is cached until the population changes and returned
        as an immutable mapping view: callers can hold it across later
        pool mutations (the cache is replaced, never mutated in place)
        but cannot corrupt the pool through it.
        """
        if self._layout_cache is not None:
            return self._layout_cache
        ranges: Dict[int, BlockRange] = {}
        cursor = 0
        inelastic = sorted(
            (r for r in self._residents.values() if not r.elastic),
            key=lambda r: r.arrival,
        )
        for resident in inelastic:
            ranges[resident.fid] = BlockRange(cursor, resident.demand)
            cursor += resident.demand
        elastic = sorted(
            (r for r in self._residents.values() if r.elastic),
            key=lambda r: r.arrival,
        )
        if elastic:
            capacity = self.total_blocks - cursor
            shares = progressive_fill(
                capacity,
                {r.fid: None for r in elastic},
                priority=[r.fid for r in elastic],
            )
            for resident in elastic:
                count = shares[resident.fid]
                ranges[resident.fid] = BlockRange(cursor, count)
                cursor += count
        if cursor > self.total_blocks:
            raise AssertionError(
                f"layout overflow: {cursor} > {self.total_blocks}"
            )
        self._layout_cache = types.MappingProxyType(ranges)
        return self._layout_cache

    def range_for(self, fid: int) -> Optional[BlockRange]:
        return self.layout().get(fid)
