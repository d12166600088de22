"""The device abstraction: what the switch CPU drives.

Every layer above the simulated hardware -- the controller, the table
updater, the admission service, the fabric -- talks to a
:class:`Device`, never to :class:`~repro.switchsim.switch.ActiveSwitch`
directly.  The protocol is shaped like the runtime-control API a Tofino
exposes to its CPU (BFRT, and the RBFRT surface measured per
operation): typed table writes, one read of the whole table surface,
activation flips, a program cache flush, bulk register access, and the
digest channel.  It is exactly what the control plane calls; the data
path (packets in and out) is the switch's own, and the simulators drive
it there.  Swapping the simulator for real hardware -- or for a remote
gRPC shim -- means implementing this protocol and nothing else.

:class:`Device` is :func:`typing.runtime_checkable`, so adapters are
detected structurally -- an object either implements the surface or it
does not; no inheritance is required.
"""

from __future__ import annotations

from array import array
from typing import (
    Dict,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.packets.codec import ActivePacket
from repro.switchsim.config import SwitchConfig
from repro.switchsim.switch import SwitchOutput
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


class TableRead(NamedTuple):
    """One read of a device's whole table surface, keyed by stage 1..N.

    Each stage's FIDs are in ascending order, and every map is a copy:
    a later write to the device leaves the read as it was.
    """

    #: ``{stage: {fid: StageGrant}}`` for every installed grant.
    grants: Dict[int, Dict[int, StageGrant]]
    #: ``{stage: {fid: (mask, offset)}}`` for every installed translation.
    translations: Dict[int, Dict[int, Tuple[int, int]]]
    #: ``{stage: (used, capacity)}`` of each stage's protection TCAM.
    tcam: Dict[int, Tuple[int, int]]


@runtime_checkable
class Device(Protocol):
    """The surface the controller, the table updater and the fabric
    program against.

    Stages are 1-indexed (matching
    :meth:`~repro.switchsim.pipeline.Pipeline.stage`); the pipeline
    depth is ``config.num_stages``.  Everything the table updater
    journals -- grants, translations, activation flips, cache flushes,
    register scrubs -- goes through this surface, so an undo recorded
    against one device replays against the same device.

    A *register image* is an ``array("I")`` copy of consecutive 32-bit
    words, 4 bytes a word, read and written back as one memory copy.
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

    # -- protection grants ------------------------------------------------

    def install_grant(self, stage: int, grant: StageGrant) -> None:
        """Install (or replace) *grant* in *stage*'s match table.

        Raises :class:`~repro.switchsim.tables.TcamCapacityError` when
        the stage TCAM cannot hold the grant's prefix expansion.
        """
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

    def remove_translation(self, stage: int, fid: int) -> bool:
        """Remove *fid*'s translation in *stage*; True if one existed."""
        ...

    # -- the audit's read --------------------------------------------------

    def read_tables(self) -> TableRead:
        """Every stage's grants, translations and TCAM occupancy as one
        read (one call, however many entries are installed)."""
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

    # -- register memory (the BFRT snapshot/restore/scrub of Section 4.3) --

    def read_registers(self, stage: int, start: int, end: int) -> "array[int]":
        """Copy out words ``[start, end)`` of *stage*'s register array as
        a register image (a later write to the array leaves it as read)."""
        ...

    def write_registers(
        self, stage: int, start: int, values: Sequence[int]
    ) -> None:
        """Bulk-write *values* at *start* (controller-driven restore): a
        register image as one copy, any other sequence word by word."""
        ...

    def scrub_registers(self, stage: int, start: int, end: int) -> None:
        """Zero words ``[start, end)`` (region scrub between tenants)."""
        ...

    # -- digest channel and injection -------------------------------------

    def poll_digests(self, limit: Optional[int] = None) -> List[ActivePacket]:
        """Drain queued digests (allocation requests, control packets)."""
        ...

    def inject(self, packet: ActivePacket) -> List[SwitchOutput]:
        """Send a controller-originated packet toward its destination."""
        ...
