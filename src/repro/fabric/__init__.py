"""Sharded multi-switch fabric over the device abstraction layer.

:class:`Fabric` routes provisioning requests across N independent
(controller, device) shards, placing each new application by hash.
"""

from repro.fabric.fabric import (
    FailoverReport,
    Fabric,
    FabricError,
    Shard,
    hash_placement,
    replay_shard,
)

__all__ = [
    "Fabric",
    "FabricError",
    "FailoverReport",
    "Shard",
    "hash_placement",
    "replay_shard",
]
