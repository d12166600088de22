"""Deterministic fault injection and recovery machinery.

The chaos layer of the reproduction: seed-driven fault schedules
(:class:`FaultPlan`), a :class:`FaultyDevice` wrapper that perturbs any
:class:`~repro.device.Device` behind the same protocol, and the retry
machinery (:class:`RetryPolicy`, :func:`call_with_retries`) the control
plane uses to survive :class:`~repro.device.TransientDeviceError`: the
first attempt is a plain call, and the backoff (:func:`retry_after`)
starts only after it raises a transient fault.

Layering: this package sits at the device level.  It imports
``repro.device`` and the simulator types but never the controller,
fabric, or experiments -- those consume it, not the other way around.
"""

from repro.faults.device import FaultyDevice
from repro.faults.plan import FaultDecision, FaultKind, FaultPlan
from repro.faults.recovery import (
    RetryExhaustedError,
    RetryPolicy,
    call_with_retries,
    retry_after,
)

__all__ = [
    "FaultDecision",
    "FaultKind",
    "FaultPlan",
    "FaultyDevice",
    "RetryExhaustedError",
    "RetryPolicy",
    "call_with_retries",
    "retry_after",
]
