"""Device abstraction layer: what the switch CPU drives.

The controller stack programs against :class:`Device`, never against a
concrete backend.  :class:`SimDevice` adapts the in-process simulator;
:func:`as_device` coerces call sites that hand over a bare
:class:`~repro.switchsim.switch.ActiveSwitch`.
"""

from repro.device.base import (
    Device,
    DeviceError,
    PermanentDeviceError,
    TableRead,
    TransientDeviceError,
)
from repro.device.sim import SimDevice, as_device

__all__ = [
    "Device",
    "DeviceError",
    "PermanentDeviceError",
    "SimDevice",
    "TableRead",
    "TransientDeviceError",
    "as_device",
]
