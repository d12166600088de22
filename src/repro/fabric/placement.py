"""Placement policies: which shard admits a new application.

Placement is the paper's allocation problem lifted one level up.
Inside one switch the allocator packs an app's access pattern into
stage memory; across a fabric the placement policy packs whole apps
onto switches.  The same tension recurs -- balance load now versus
preserve room for the future -- so the policies mirror the in-switch
schemes: hashing (oblivious, deterministic), least-loaded (the fabric
analogue of worst-fit), and first-fit (take the first shard whose
allocator can actually hold the pattern, probed against a consistent
shadow so the probe never races a commit).

Policies see shards through the narrow :class:`ShardView` protocol --
current load plus a feasibility probe -- so they stay decoupled from
the fabric's internals and trivially testable with stubs.
"""

from __future__ import annotations

import zlib
from typing import Protocol, Sequence, Union, runtime_checkable

from repro.core.constraints import AccessPattern


class PlacementError(Exception):
    """Raised on an invalid placement (bad shard index, unknown policy)."""


@runtime_checkable
class ShardView(Protocol):
    """What a placement policy may observe about one shard."""

    @property
    def device_id(self) -> str:
        """Stable identity of the shard's device."""
        ...

    def used_blocks(self) -> int:
        """Memory blocks currently allocated on this shard."""
        ...

    def probe(self, fid: int, pattern: AccessPattern) -> bool:
        """Would this shard's allocator admit *pattern* right now?

        Side-effect-free: planned against a shadow of the pools.
        """
        ...


@runtime_checkable
class PlacementPolicy(Protocol):
    """Maps a new application to a shard index."""

    @property
    def name(self) -> str:
        """Policy identifier used in telemetry labels and CLI flags."""
        ...

    def place(
        self, fid: int, pattern: AccessPattern, shards: Sequence[ShardView]
    ) -> int:
        """Index of the shard that should admit (*fid*, *pattern*)."""
        ...


class HashPlacement:
    """Deterministic, state-oblivious spreading by ``crc32(fid, seed)``.

    The same (fid, seed, shard count) always lands on the same shard,
    independent of arrival order or current load -- the property the
    fabric's determinism tests pin down.
    """

    name = "hash"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def place(
        self, fid: int, pattern: AccessPattern, shards: Sequence[ShardView]
    ) -> int:
        if not shards:
            raise PlacementError("cannot place on an empty fabric")
        digest = zlib.crc32(f"{fid}:{self.seed}".encode("ascii"))
        return digest % len(shards)


class LeastLoadedPlacement:
    """Send the newcomer to the shard holding the fewest blocks.

    Load is read from each shard's live allocator.  Ties break on the
    lower shard index for reproducibility.
    """

    name = "least-loaded"

    def place(
        self, fid: int, pattern: AccessPattern, shards: Sequence[ShardView]
    ) -> int:
        if not shards:
            raise PlacementError("cannot place on an empty fabric")
        loads = [shard.used_blocks() for shard in shards]
        return min(range(len(shards)), key=lambda index: (loads[index], index))


class FirstFitPlacement:
    """First shard whose allocator can actually hold the pattern.

    Each candidate is probed with a side-effect-free dry plan against a
    shadow of its pools.  When no shard fits, the least-loaded shard is
    returned anyway: the admission will be rejected there with the same
    report a single-switch deployment would produce, keeping fabric
    semantics a superset of the single-box ones.
    """

    name = "first-fit"

    def place(
        self, fid: int, pattern: AccessPattern, shards: Sequence[ShardView]
    ) -> int:
        if not shards:
            raise PlacementError("cannot place on an empty fabric")
        for index, shard in enumerate(shards):
            if shard.probe(fid, pattern):
                return index
        return LeastLoadedPlacement().place(fid, pattern, shards)


#: CLI/config spellings of the built-in policies.
POLICY_NAMES = ("hash", "least-loaded", "first-fit")


def make_policy(
    spec: Union[str, PlacementPolicy], seed: int = 0
) -> PlacementPolicy:
    """Resolve a policy name (or pass an instance through).

    *seed* only affects :class:`HashPlacement`; the stateful policies
    ignore it.
    """
    if not isinstance(spec, str):
        return spec
    if spec == "hash":
        return HashPlacement(seed=seed)
    if spec == "least-loaded":
        return LeastLoadedPlacement()
    if spec == "first-fit":
        return FirstFitPlacement()
    raise PlacementError(
        f"unknown placement policy {spec!r}; expected one of "
        f"{', '.join(POLICY_NAMES)}"
    )
