"""Per-stage match tables: instruction decode and memory protection.

The control plane installs, for every admitted FID, a *grant* in each
stage where the program was allocated memory (Section 3.1): the valid
register region (enforced via TCAM range matching on MAR), and the
mask/offset operands used by runtime address translation
(``ADDR_MASK``/``ADDR_OFFSET``, Section 3.2).

TCAM capacity is modeled because the paper identifies it as the
resource bottleneck for the number of distinct address ranges: each
grant consumes the number of TCAM entries required to express its
``[start, end)`` interval as ternary prefixes.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Tuple


class TcamCapacityError(Exception):
    """The stage's TCAM cannot hold another protection range."""


def range_to_prefixes(start: int, end: int, width: int = 32) -> List[Tuple[int, int]]:
    """Decompose ``[start, end)`` into minimal ``(value, prefix_len)`` terns.

    This is the standard range-to-prefix expansion used when a range
    match is compiled onto TCAM hardware; the entry count is what the
    capacity model charges.
    """
    if not 0 <= start <= end <= 1 << width:
        raise ValueError(f"bad range [{start}, {end}) for width {width}")
    prefixes: List[Tuple[int, int]] = []
    while start < end:
        # Largest aligned power-of-two block starting at `start` that
        # still fits in the remaining range.
        max_align = start & -start if start else 1 << width
        size = max_align
        while size > end - start:
            size >>= 1
        prefix_len = width - size.bit_length() + 1
        prefixes.append((start, prefix_len))
        start += size
    return prefixes


@functools.lru_cache(maxsize=4096)
def _prefix_count(start: int, end: int) -> int:
    """TCAM entries for ``[start, end)``: a pure function of the bounds,
    asked twice per grant install (the new entry and the one it replaces)."""
    return len(range_to_prefixes(start, end))


@dataclasses.dataclass(frozen=True)
class StageGrant:
    """Authorization for one FID in one physical stage.

    Attributes:
        fid: the program identifier.
        start: first valid register word index (inclusive).
        end: last valid register word index (exclusive).
        mask: operand for ``ADDR_MASK`` -- maps a 32-bit hash into the
            region's span (computed by the controller at allocation).
        offset: operand for ``ADDR_OFFSET`` -- the region base.
    """

    fid: int
    start: int
    end: int
    mask: int = 0
    offset: int = 0

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad grant region [{self.start}, {self.end})")

    @property
    def size(self) -> int:
        return self.end - self.start

    def allows(self, index: int) -> bool:
        return self.start <= index < self.end

    def tcam_cost(self) -> int:
        """TCAM entries needed to protect this region."""
        if self.size == 0:
            return 0
        return _prefix_count(self.start, self.end)


class StageTable:
    """Match table state for one physical stage.

    Tracks per-FID grants, per-FID activation (the reallocation
    "deactivate" mechanism of Section 4.3), and TCAM occupancy.
    """

    def __init__(self, tcam_capacity: int) -> None:
        self._tcam_capacity = tcam_capacity
        self._grants: Dict[int, StageGrant] = {}
        self._translations: Dict[int, Tuple[int, int]] = {}
        self._tcam_used = 0
        #: Monotonic mutation counter.  Program-cache bindings stamp
        #: the version of every table they read operands from and are
        #: re-bound when any stamp goes stale, so table state held by a
        #: :class:`~repro.switchsim.progcache.ProgramBinding` can never
        #: outlive the entries it was derived from.
        self.version = 0

    # ------------------------------------------------------------------
    # Control-plane operations (each costs one table update in the
    # controller's latency model)
    # ------------------------------------------------------------------

    def install_grant(self, grant: StageGrant) -> None:
        """Install or replace the grant for ``grant.fid``.

        Raises:
            TcamCapacityError: if the stage TCAM cannot hold the range.
        """
        previous = self._grants.get(grant.fid)
        freed = previous.tcam_cost() if previous else 0
        needed = grant.tcam_cost()
        if self._tcam_used - freed + needed > self._tcam_capacity:
            raise TcamCapacityError(
                f"stage TCAM exhausted ({self._tcam_used - freed} + {needed} "
                f"> {self._tcam_capacity})"
            )
        self._tcam_used += needed - freed
        self._grants[grant.fid] = grant
        self.version += 1

    def remove_grant(self, fid: int) -> Optional[StageGrant]:
        """Remove a FID's grant, freeing its TCAM entries."""
        grant = self._grants.pop(fid, None)
        if grant is not None:
            self._tcam_used -= grant.tcam_cost()
            self.version += 1
        return grant

    def install_translation(self, fid: int, mask: int, offset: int) -> None:
        """Install the (mask, offset) operand pair for ADDR_MASK/ADDR_OFFSET.

        Translations are exact-match SRAM entries, separate from the
        TCAM protection ranges: they determine where a hashed address
        lands but never widen what :meth:`authorize` permits.
        """
        self._translations[fid] = (mask & 0xFFFFFFFF, offset & 0xFFFFFFFF)
        self.version += 1

    def remove_translation(self, fid: int) -> bool:
        removed = self._translations.pop(fid, None) is not None
        if removed:
            self.version += 1
        return removed

    def translation_for(self, fid: int) -> Optional[Tuple[int, int]]:
        """The (mask, offset) pair installed for *fid* in this stage."""
        return self._translations.get(fid)

    # ------------------------------------------------------------------
    # Data-plane lookups
    # ------------------------------------------------------------------

    def grant_for(self, fid: int) -> Optional[StageGrant]:
        return self._grants.get(fid)

    def authorize(self, fid: int, mar: int) -> bool:
        """TCAM range match: may *fid* touch register index *mar* here?"""
        grant = self._grants.get(fid)
        return grant is not None and grant.allows(mar)

    @property
    def tcam_used(self) -> int:
        return self._tcam_used

    @property
    def tcam_capacity(self) -> int:
        return self._tcam_capacity

    @property
    def fids(self) -> List[int]:
        return sorted(self._grants)

    @property
    def translation_fids(self) -> List[int]:
        """FIDs with a translation entry installed in this stage."""
        return sorted(self._translations)
