"""A fault-injecting Device wrapper driven by a deterministic plan.

:class:`FaultyDevice` sits between the control plane and any real
:class:`~repro.device.Device` (typically a
:class:`~repro.device.SimDevice`) and perturbs the *mutating* surface
according to a :class:`~repro.faults.plan.FaultPlan`: transient
errors raised before the op applies, partial applications (apply, then
raise -- the retry heals it because table operations are idempotent),
modeled delays, dropped digests, and a scheduled permanent death after
which every call raises
:class:`~repro.device.PermanentDeviceError`.

Reads pass through untouched (a flaky control channel corrupts
commands, not the installed state), and identity stays readable after
death -- ``device_id``/``config``/``underlying`` describe the chassis,
not the control channel, and the fabric's failover bookkeeping needs
them.

The wrapper implements exactly the :class:`~repro.device.Device`
protocol (plus its fault controls), so :func:`~repro.device.as_device`
passes it through and a controller stacked on top cannot tell it from
bare hardware until a fault fires.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.device import Device, PermanentDeviceError, TableRead, TransientDeviceError
from repro.faults.plan import FaultKind, FaultPlan
from repro.packets.codec import ActivePacket
from repro.switchsim.config import SwitchConfig
from repro.switchsim.switch import SwitchOutput
from repro.switchsim.tables import StageGrant
from repro.telemetry import MetricsRegistry, resolve

T = TypeVar("T")


class FaultyDevice:
    """Fault-injection layer behind the :class:`Device` protocol.

    Args:
        inner: the real device every non-faulted call delegates to.
        plan: the deterministic fault schedule.
        telemetry: metrics registry that reads
            ``device_faults_injected_total{device,op,kind}``
            (:meth:`metrics`); defaults to the process registry.
        sleep: injected sleep used for DELAY faults (tests pass a
            recording fake).
    """

    def __init__(
        self,
        inner: Device,
        plan: FaultPlan,
        telemetry: Optional[MetricsRegistry] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self._sleep = sleep
        self.dead = False
        #: Injection counts by ``(op, fault kind)``.
        self.faults: Counter[Tuple[str, str]] = Counter()
        self.digests_dropped = 0
        resolve(telemetry).register(self)

    def __repr__(self) -> str:
        state = "dead" if self.dead else "live"
        return f"FaultyDevice({self.device_id!r}, {state})"

    # ------------------------------------------------------------------
    # Fault machinery
    # ------------------------------------------------------------------

    def kill(self) -> None:
        """Crash the device now: every later call raises permanently."""
        if not self.dead:
            self.dead = True
            self._count("kill", FaultKind.PERMANENT)

    def _count(self, op: str, kind: FaultKind) -> None:
        self.faults[op, kind.value] += 1

    @property
    def injected(self) -> Dict[str, int]:
        """Injection counts by fault kind (harness reporting)."""
        by_kind: Dict[str, int] = {}
        for (_op, kind), count in self.faults.items():
            by_kind[kind] = by_kind.get(kind, 0) + count
        return by_kind

    def metrics(self) -> Dict[str, object]:
        return {
            f"device_faults_injected_total{{op,kind,device={self.inner.device_id}}}": self.faults
        }

    def _check_dead(self, op: str) -> None:
        if self.dead:
            raise PermanentDeviceError(
                f"device {self.inner.device_id} is dead ({op})"
            )

    def _read(self, op: str, method: Callable[..., T], *args: Any) -> T:
        """Reads: only death interposes (flaky channels corrupt writes)."""
        self._check_dead(op)
        return method(*args)

    def _mutate(self, op: str, method: Callable[..., T], *args: Any) -> T:
        """Consult the plan, then apply ``method(*args)`` (or raise) for
        one mutating op."""
        self._check_dead(op)
        decision = self.plan.decide(op)
        if decision is None:
            return method(*args)
        if decision.kind is FaultKind.PERMANENT:
            self.dead = True
            self._count(op, decision.kind)
            raise PermanentDeviceError(
                f"device {self.inner.device_id} died at scheduled "
                f"fault {decision}"
            )
        if decision.kind is FaultKind.TRANSIENT:
            self._count(op, decision.kind)
            raise TransientDeviceError(f"injected fault {decision}")
        if decision.kind is FaultKind.DELAY:
            self._count(op, decision.kind)
            if self.plan.delay_s > 0:
                self._sleep(self.plan.delay_s)
            return method(*args)
        # PARTIAL: the op applies, then the response is "lost".  The
        # caller cannot distinguish this from TRANSIENT; idempotent
        # retry heals the ambiguity.
        method(*args)
        self._count(op, decision.kind)
        raise TransientDeviceError(f"injected fault {decision} (applied)")

    # ------------------------------------------------------------------
    # Identity (readable even when dead)
    # ------------------------------------------------------------------

    @property
    def device_id(self) -> str:
        return self.inner.device_id

    @property
    def config(self) -> SwitchConfig:
        return self.inner.config

    @property
    def underlying(self) -> object:
        return self.inner.underlying

    # ------------------------------------------------------------------
    # Table surface (mutations faulted, reads death-checked)
    # ------------------------------------------------------------------

    def install_grant(self, stage: int, grant: StageGrant) -> None:
        self._mutate("install_grant", self.inner.install_grant, stage, grant)

    def remove_grant(self, stage: int, fid: int) -> Optional[StageGrant]:
        return self._mutate("remove_grant", self.inner.remove_grant, stage, fid)

    def install_translation(self, stage: int, fid: int, mask: int, offset: int) -> None:
        self._mutate(
            "install_translation", self.inner.install_translation, stage, fid, mask, offset
        )

    def remove_translation(self, stage: int, fid: int) -> bool:
        return self._mutate("remove_translation", self.inner.remove_translation, stage, fid)

    def read_tables(self) -> TableRead:
        return self._read("read_tables", self.inner.read_tables)

    def deactivate_fid(self, fid: int) -> None:
        self._mutate("deactivate_fid", self.inner.deactivate_fid, fid)

    def reactivate_fid(self, fid: int) -> None:
        self._mutate("reactivate_fid", self.inner.reactivate_fid, fid)

    def is_active(self, fid: int) -> bool:
        return self._read("is_active", self.inner.is_active, fid)

    def invalidate_program_cache(self, fid: Optional[int] = None) -> int:
        return self._mutate("invalidate_program_cache", self.inner.invalidate_program_cache, fid)

    # ------------------------------------------------------------------
    # Register memory
    # ------------------------------------------------------------------

    def read_registers(self, stage: int, start: int, end: int) -> "array[int]":
        return self._read("read_registers", self.inner.read_registers, stage, start, end)

    def write_registers(self, stage: int, start: int, values: Sequence[int]) -> None:
        self._mutate("write_registers", self.inner.write_registers, stage, start, values)

    def scrub_registers(self, stage: int, start: int, end: int) -> None:
        self._mutate("scrub_registers", self.inner.scrub_registers, stage, start, end)

    # ------------------------------------------------------------------
    # Digest channel and injection
    # ------------------------------------------------------------------

    def poll_digests(self, limit: Optional[int] = None) -> List[ActivePacket]:
        self._check_dead("poll_digests")
        drained = self.inner.poll_digests(limit)
        kept: List[ActivePacket] = []
        for digest in drained:
            if self.plan.decide_digest():
                self.digests_dropped += 1
                self._count("poll_digests", FaultKind.DROP_DIGEST)
            else:
                kept.append(digest)
        return kept

    def inject(self, packet: ActivePacket) -> List[SwitchOutput]:
        return self._read("inject", self.inner.inject, packet)

