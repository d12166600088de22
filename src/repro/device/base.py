"""The device abstraction: what a runtime-programmable switch exposes.

Every layer above the simulated hardware -- the controller, the table
updater, the admission service, the fabric -- talks to a
:class:`Device`, never to :class:`~repro.switchsim.switch.ActiveSwitch`
directly.  The protocol is deliberately shaped like a thin
runtime-control API (the RBFRT/BFRT surface a Tofino exposes): typed
table operations, bulk register access, digest polling, and a stats
snapshot.  Swapping the simulator for real hardware -- or for a remote
gRPC shim -- means implementing this protocol and nothing else.

Two protocols split the surface by consumer:

- :class:`DeviceTables` is the control-plane subset the
  :class:`~repro.controller.table_updater.TableUpdateEngine` and the
  transaction journal's undo closures need: grants, translations,
  activation, and program-cache invalidation.
- :class:`Device` is the full north/south surface: tables plus
  registers, the digest channel, packet injection, the data path, and
  identity/stats.  The controller and the sharded fabric require this.

Both are :func:`typing.runtime_checkable`, so adapters can be detected
structurally -- an object either implements the surface or it does not;
no inheritance is required.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.packets.codec import ActivePacket
from repro.packets.ethernet import MacAddress
from repro.switchsim.config import SwitchConfig
from repro.switchsim.switch import BatchResult, SwitchOutput
from repro.switchsim.tables import StageGrant


class DeviceError(Exception):
    """A device operation failed (or an object cannot be adapted).

    The base of the device-fault taxonomy: control-plane code that must
    survive switch-side failures catches this class and never the
    concrete subclasses, so new fault kinds slot in without touching
    the recovery paths.  Also raised by :func:`~repro.device.as_device`
    when an object cannot be coerced into a :class:`Device`.
    """


class TransientDeviceError(DeviceError):
    """A recoverable device fault: retrying the same operation may succeed.

    Models the sporadic failures a real runtime-control channel shows
    (gRPC timeouts, dropped BFRT responses, busy table managers).  The
    :class:`~repro.faults.RetryPolicy` machinery retries exactly this
    class; anything else propagates immediately.
    """


class PermanentDeviceError(DeviceError):
    """The device is gone: no retry of any operation will succeed.

    Raised by a dead device (crashed switch, severed control channel).
    Recovery means replacing the device and rebuilding state from the
    commit log (:meth:`ActiveRmtController.recover`) or failing the
    shard over to survivors (:meth:`Fabric.failover`).
    """


@dataclasses.dataclass(frozen=True)
class DeviceInfo:
    """Static identity and capability summary of one device.

    The fields mirror what fabric placement or an inventory
    endpoint needs without holding the device itself: who the device
    is, what kind of backend serves it, and how much memory it brings.
    """

    device_id: str
    kind: str
    num_stages: int
    blocks_per_stage: int
    block_words: int
    words_per_stage: int
    tcam_entries_per_stage: int

    @property
    def total_blocks(self) -> int:
        """Allocatable memory blocks across the whole pipeline."""
        return self.num_stages * self.blocks_per_stage


@runtime_checkable
class DeviceTables(Protocol):
    """Typed match-table and activation operations, per physical stage.

    Stages are 1-indexed (matching
    :meth:`~repro.switchsim.pipeline.Pipeline.stage`).  Everything the
    table updater journals -- grants, translations, activation flips,
    cache flushes -- goes through this surface, so an undo closure
    recorded against one device replays against the same device.
    """

    @property
    def num_stages(self) -> int:
        """Physical pipeline depth (stages are ``1..num_stages``)."""
        ...

    # -- protection grants ------------------------------------------------

    def install_grant(self, stage: int, grant: StageGrant) -> None:
        """Install (or replace) *grant* in *stage*'s match table.

        Raises :class:`~repro.switchsim.tables.TcamCapacityError` when
        the stage TCAM cannot hold the grant's prefix expansion.
        """
        ...

    def grant_for(self, stage: int, fid: int) -> Optional[StageGrant]:
        """The grant installed for *fid* in *stage*, if any."""
        ...

    def remove_grant(self, stage: int, fid: int) -> Optional[StageGrant]:
        """Remove and return *fid*'s grant in *stage* (None if absent)."""
        ...

    # -- address translations ---------------------------------------------

    def install_translation(
        self, stage: int, fid: int, mask: int, offset: int
    ) -> None:
        """Install the ADDR_MASK/ADDR_OFFSET entry for *fid* in *stage*."""
        ...

    def translation_for(self, stage: int, fid: int) -> Optional[Tuple[int, int]]:
        """The ``(mask, offset)`` translation for *fid*, if installed."""
        ...

    def remove_translation(self, stage: int, fid: int) -> bool:
        """Remove *fid*'s translation in *stage*; True if one existed."""
        ...

    # -- audit surface (the invariant auditor's read-only view) ------------

    def stage_fids(self, stage: int) -> List[int]:
        """Every FID with a grant installed in *stage* (sorted)."""
        ...

    def stage_translation_fids(self, stage: int) -> List[int]:
        """Every FID with a translation entry in *stage* (sorted)."""
        ...

    def stage_tcam(self, stage: int) -> Tuple[int, int]:
        """*stage*'s protection-TCAM occupancy as ``(used, capacity)``."""
        ...

    # -- activation and caches --------------------------------------------

    def deactivate_fid(self, fid: int) -> None:
        """Suspend active processing for *fid* (reallocation protocol)."""
        ...

    def reactivate_fid(self, fid: int) -> None:
        """Resume active processing for *fid*."""
        ...

    def is_active(self, fid: int) -> bool:
        """Whether *fid*'s packets currently execute in the pipeline."""
        ...

    def invalidate_program_cache(self, fid: Optional[int] = None) -> int:
        """Flush cached schedules for *fid* (all when None); returns count."""
        ...


@runtime_checkable
class Device(DeviceTables, Protocol):
    """The full device surface the controller and fabric program against.

    Extends :class:`DeviceTables` with identity, bulk register access
    (the BFRT-style snapshot/restore/scrub primitives of Section 4.3),
    the digest channel, controller packet injection, the data path the
    simulators drive, and a consolidated stats snapshot.
    """

    @property
    def device_id(self) -> str:
        """Stable identity used in telemetry labels and fabric routing."""
        ...

    @property
    def config(self) -> SwitchConfig:
        """Modeled device parameters (capabilities)."""
        ...

    @property
    def underlying(self) -> object:
        """The backend object behind this adapter (simulator escape hatch)."""
        ...

    def info(self) -> DeviceInfo:
        """Static identity/capability summary."""
        ...

    # -- register memory (control plane) ----------------------------------

    def read_registers(self, stage: int, start: int, end: int) -> List[int]:
        """Copy out words ``[start, end)`` of *stage*'s register array."""
        ...

    def write_registers(
        self, stage: int, start: int, values: Sequence[int]
    ) -> None:
        """Bulk-write *values* at *start* (controller-driven restore)."""
        ...

    def scrub_registers(self, stage: int, start: int, end: int) -> None:
        """Zero words ``[start, end)`` (region scrub between tenants)."""
        ...

    # -- digest channel and injection -------------------------------------

    def poll_digests(self, limit: Optional[int] = None) -> List[ActivePacket]:
        """Drain queued digests (allocation requests, control packets)."""
        ...

    @property
    def digests_pending(self) -> int:
        """Digests waiting for the switch CPU."""
        ...

    def inject(self, packet: ActivePacket) -> List[SwitchOutput]:
        """Send a controller-originated packet toward its destination."""
        ...

    # -- data path (driven by the simulators) ------------------------------

    def register_host(self, mac: MacAddress, port: int) -> None:
        """Bind a MAC address to a front-panel port (static L2 table)."""
        ...

    def receive(self, packet: ActivePacket, in_port: int) -> List[SwitchOutput]:
        """Process one arriving packet."""
        ...

    def receive_batch(
        self,
        packets: Iterable[Union[ActivePacket, Tuple[ActivePacket, int]]],
        in_port: Optional[int] = None,
    ) -> BatchResult:
        """Process an arrival batch through the amortized path."""
        ...

    # -- observability ------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Consolidated data-path health snapshot."""
        ...
