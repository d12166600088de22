"""The simulator-backed device adapter.

:class:`SimDevice` puts an :class:`~repro.switchsim.switch.ActiveSwitch`
behind the :class:`~repro.device.base.Device` protocol -- a pure
delegation layer, so a controller driving a ``SimDevice`` is
byte-identical to one poking the switch directly.

:func:`as_device` is the coercion point the controller uses: it accepts
anything already implementing :class:`Device` (pass-through) or an
``ActiveSwitch`` (wrapped), so call sites that pass the raw switch keep
working unchanged.
"""

from __future__ import annotations

import itertools
from array import array
from typing import List, NoReturn, Optional, Sequence

from repro.device.base import Device, DeviceError, TableRead
from repro.packets.codec import ActivePacket
from repro.switchsim.config import SwitchConfig
from repro.switchsim.switch import ActiveSwitch, SwitchOutput
from repro.switchsim.tables import StageGrant

#: Process-wide source of default device ids ("sw0", "sw1", ...) for
#: adapters constructed without an explicit identity.
_device_ids = itertools.count()


def _next_device_id() -> str:
    return f"sw{next(_device_ids)}"


class _ByStage(dict):
    """A per-stage map keyed 1..N whose miss is the caller's bad stage
    number: ``Pipeline.stage`` indexes a list, so stage 0 would wrap to
    the last stage and -1 to the one before it."""

    def __missing__(self, stage: int) -> NoReturn:
        raise IndexError(f"no stage {stage}: physical stages are 1..{len(self)}")


class SimDevice:
    """One simulated switch behind the :class:`Device` protocol.

    Every method is a one-hop delegation (:meth:`read_tables` one hop
    per stage table) -- no caching, no translation of arguments -- so
    the adapted switch's observable behavior is exactly the unadapted
    switch's.  A pipeline's stages are never
    replaced, so each stage's table and register array is bound once
    here; a stage number outside 1..N raises :class:`IndexError`.  The
    wrapped switch stays reachable through :attr:`underlying` for
    simulator-level assertions (tests poking the pipeline, harnesses
    reading port stats).
    """

    def __init__(
        self, switch: ActiveSwitch, device_id: Optional[str] = None
    ) -> None:
        self._switch = switch
        self._pipeline = switch.pipeline
        stages = switch.pipeline.stages
        self._tables = _ByStage((stage.index, stage.table) for stage in stages)
        self._registers = _ByStage((stage.index, stage.registers) for stage in stages)
        self._device_id = device_id if device_id is not None else _next_device_id()

    def __repr__(self) -> str:
        return f"SimDevice({self._device_id!r})"

    @property
    def device_id(self) -> str:
        return self._device_id

    @property
    def config(self) -> SwitchConfig:
        return self._switch.config

    @property
    def underlying(self) -> object:
        return self._switch

    # -- protection grants ------------------------------------------------

    def install_grant(self, stage: int, grant: StageGrant) -> None:
        self._tables[stage].install_grant(grant)

    def remove_grant(self, stage: int, fid: int) -> Optional[StageGrant]:
        return self._tables[stage].remove_grant(fid)

    # -- address translations ---------------------------------------------

    def install_translation(
        self, stage: int, fid: int, mask: int, offset: int
    ) -> None:
        self._tables[stage].install_translation(fid, mask, offset)

    def remove_translation(self, stage: int, fid: int) -> bool:
        return self._tables[stage].remove_translation(fid)

    # -- the audit's read --------------------------------------------------

    def read_tables(self) -> TableRead:
        read = TableRead({}, {}, {})
        for stage, table in self._tables.items():
            read.grants[stage], read.translations[stage] = table.entries()
            read.tcam[stage] = (table.tcam_used, table.tcam_capacity)
        return read

    # -- activation and caches --------------------------------------------

    def deactivate_fid(self, fid: int) -> None:
        self._pipeline.deactivate_fid(fid)

    def reactivate_fid(self, fid: int) -> None:
        self._pipeline.reactivate_fid(fid)

    def is_active(self, fid: int) -> bool:
        return self._pipeline.is_active(fid)

    def invalidate_program_cache(self, fid: Optional[int] = None) -> int:
        return self._pipeline.invalidate_program_cache(fid)

    # -- register memory ----------------------------------------------------

    def read_registers(self, stage: int, start: int, end: int) -> "array[int]":
        return self._registers[stage].snapshot(start, end)

    def write_registers(
        self, stage: int, start: int, values: Sequence[int]
    ) -> None:
        self._registers[stage].load(start, values)

    def scrub_registers(self, stage: int, start: int, end: int) -> None:
        self._registers[stage].clear(start, end)

    # -- digest channel and injection -------------------------------------

    def poll_digests(self, limit: Optional[int] = None) -> List[ActivePacket]:
        return self._switch.poll_digests(limit)

    def inject(self, packet: ActivePacket) -> List[SwitchOutput]:
        return self._switch.inject(packet)


def as_device(target: object) -> Device:
    """Coerce *target* into a :class:`Device`.

    Objects already implementing the protocol pass through unchanged;
    an :class:`ActiveSwitch` is wrapped in a :class:`SimDevice`.
    Anything else is a programming error.
    """
    if isinstance(target, ActiveSwitch):
        return SimDevice(target)
    if isinstance(target, Device):
        return target
    raise DeviceError(
        f"cannot adapt {type(target).__name__} into a Device: expected an "
        f"ActiveSwitch or an object implementing the Device protocol"
    )
