"""Sharded multi-switch fabric over the device abstraction layer.

:class:`Fabric` routes provisioning requests across N independent
(controller, device) shards under a pluggable placement policy.
"""

from repro.fabric.fabric import (
    FailoverReport,
    Fabric,
    FabricError,
    Shard,
    replay_shard,
)
from repro.fabric.placement import (
    POLICY_NAMES,
    FirstFitPlacement,
    HashPlacement,
    LeastLoadedPlacement,
    PlacementError,
    PlacementPolicy,
    ShardView,
    make_policy,
)

__all__ = [
    "Fabric",
    "FabricError",
    "FailoverReport",
    "FirstFitPlacement",
    "HashPlacement",
    "LeastLoadedPlacement",
    "POLICY_NAMES",
    "PlacementError",
    "PlacementPolicy",
    "Shard",
    "ShardView",
    "make_policy",
    "replay_shard",
]
