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
death -- ``device_id``/``config``/``info`` describe the chassis, not
the control channel, and the fabric's failover bookkeeping needs them.

The wrapper implements the full :class:`~repro.device.Device`
protocol, so :func:`~repro.device.as_device` passes it through and a
controller stacked on top cannot tell it from bare hardware until a
fault fires.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.device import Device, PermanentDeviceError, TransientDeviceError
from repro.device.base import DeviceInfo
from repro.faults.plan import FaultKind, FaultPlan
from repro.packets.codec import ActivePacket
from repro.packets.ethernet import MacAddress
from repro.switchsim.config import SwitchConfig
from repro.switchsim.switch import BatchResult, SwitchOutput
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

    def _read(self, op: str, apply: Callable[[], T]) -> T:
        """Reads: only death interposes (flaky channels corrupt writes)."""
        self._check_dead(op)
        return apply()

    def _mutate(self, op: str, apply: Callable[[], T]) -> T:
        """Consult the plan, then apply (or raise) one mutating op."""
        self._check_dead(op)
        decision = self.plan.decide(op)
        if decision is None:
            return apply()
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
            return apply()
        # PARTIAL: the op applies, then the response is "lost".  The
        # caller cannot distinguish this from TRANSIENT; idempotent
        # retry heals the ambiguity.
        apply()
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

    def info(self) -> DeviceInfo:
        return self.inner.info()

    @property
    def num_stages(self) -> int:
        return self.inner.num_stages

    # ------------------------------------------------------------------
    # Table surface (mutations faulted, reads death-checked)
    # ------------------------------------------------------------------

    def install_grant(self, stage: int, grant: StageGrant) -> None:
        self._mutate(
            "install_grant", lambda: self.inner.install_grant(stage, grant)
        )

    def grant_for(self, stage: int, fid: int) -> Optional[StageGrant]:
        return self._read("grant_for", lambda: self.inner.grant_for(stage, fid))

    def remove_grant(self, stage: int, fid: int) -> Optional[StageGrant]:
        return self._mutate(
            "remove_grant", lambda: self.inner.remove_grant(stage, fid)
        )

    def install_translation(
        self, stage: int, fid: int, mask: int, offset: int
    ) -> None:
        self._mutate(
            "install_translation",
            lambda: self.inner.install_translation(
                stage, fid, mask=mask, offset=offset
            ),
        )

    def translation_for(self, stage: int, fid: int) -> Optional[Tuple[int, int]]:
        return self._read(
            "translation_for", lambda: self.inner.translation_for(stage, fid)
        )

    def remove_translation(self, stage: int, fid: int) -> bool:
        return self._mutate(
            "remove_translation",
            lambda: self.inner.remove_translation(stage, fid),
        )

    def stage_fids(self, stage: int) -> List[int]:
        return self._read("stage_fids", lambda: self.inner.stage_fids(stage))

    def stage_translation_fids(self, stage: int) -> List[int]:
        return self._read(
            "stage_translation_fids",
            lambda: self.inner.stage_translation_fids(stage),
        )

    def stage_tcam(self, stage: int) -> Tuple[int, int]:
        return self._read("stage_tcam", lambda: self.inner.stage_tcam(stage))

    def deactivate_fid(self, fid: int) -> None:
        self._mutate("deactivate_fid", lambda: self.inner.deactivate_fid(fid))

    def reactivate_fid(self, fid: int) -> None:
        self._mutate("reactivate_fid", lambda: self.inner.reactivate_fid(fid))

    def is_active(self, fid: int) -> bool:
        return self._read("is_active", lambda: self.inner.is_active(fid))

    def invalidate_program_cache(self, fid: Optional[int] = None) -> int:
        return self._mutate(
            "invalidate_program_cache",
            lambda: self.inner.invalidate_program_cache(fid),
        )

    # ------------------------------------------------------------------
    # Register memory
    # ------------------------------------------------------------------

    def read_registers(self, stage: int, start: int, end: int) -> List[int]:
        return self._read(
            "read_registers",
            lambda: self.inner.read_registers(stage, start, end),
        )

    def write_registers(
        self, stage: int, start: int, values: Sequence[int]
    ) -> None:
        self._mutate(
            "write_registers",
            lambda: self.inner.write_registers(stage, start, values),
        )

    def scrub_registers(self, stage: int, start: int, end: int) -> None:
        self._mutate(
            "scrub_registers",
            lambda: self.inner.scrub_registers(stage, start, end),
        )

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

    @property
    def digests_pending(self) -> int:
        self._check_dead("digests_pending")
        return self.inner.digests_pending

    def inject(self, packet: ActivePacket) -> List[SwitchOutput]:
        return self._read("inject", lambda: self.inner.inject(packet))

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def register_host(self, mac: MacAddress, port: int) -> None:
        self._read("register_host", lambda: self.inner.register_host(mac, port))

    def receive(self, packet: ActivePacket, in_port: int) -> List[SwitchOutput]:
        return self._read(
            "receive", lambda: self.inner.receive(packet, in_port)
        )

    def receive_batch(
        self,
        packets: Iterable[Union[ActivePacket, Tuple[ActivePacket, int]]],
        in_port: Optional[int] = None,
    ) -> BatchResult:
        return self._read(
            "receive_batch", lambda: self.inner.receive_batch(packets, in_port)
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        self._check_dead("stats")
        stats = dict(self.inner.stats())
        stats["faults_injected"] = dict(self.injected)
        stats["digests_dropped"] = self.digests_dropped
        return stats
