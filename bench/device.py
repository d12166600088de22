"""A delegating device that records one span per control-plane operation.

RBFRT reports control-plane cost per operation type; the ten operations
below are the ones ``TableUpdateEngine`` and the controller issue, so
their call counts and times decompose a table update exactly.  Only the
traced round wraps a device in this class.
"""

from __future__ import annotations

from typing import Any

from bench.trace import Tracer

#: The mutating and bulk-read operations of the ``Device`` protocol.
DEVICE_OPS = (
    "install_grant",
    "remove_grant",
    "install_translation",
    "remove_translation",
    "scrub_registers",
    "read_registers",
    "write_registers",
    "deactivate_fid",
    "reactivate_fid",
    "invalidate_program_cache",
)


class TimedDevice:
    """*inner* behind the ``Device`` protocol, with ``device.<op>`` spans."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self.inner = inner
        for op in DEVICE_OPS:
            tracer.shadow(self, op, f"device.{op}")

    def __getattr__(self, name: str) -> Any:
        # Reached for everything not shadowed above, including the ten
        # operations themselves while the shadows are being installed.
        return getattr(self.__dict__["inner"], name)
