"""The sharded fabric: one front door over N (controller, device) shards.

A :class:`Fabric` owns a fleet of shards -- each an independent
:class:`~repro.device.Device` with its own
:class:`~repro.controller.controller.ActiveRmtController` and
:class:`~repro.controller.service.AdmissionService` -- and routes every
provisioning request to exactly one of them.  Placement of a new
application is delegated to a pluggable
:class:`~repro.fabric.placement.PlacementPolicy`; once placed, a fid's
route is sticky, so all of its subsequent traffic (withdrawals,
re-admissions, digests) serializes on the same shard and each shard's
``commit_log`` remains an independent linearizability witness.

There is no cross-shard coordination on the hot path: shards share
nothing but the routing table, which only the submitting thread
mutates.  That is the point -- admission throughput scales with shard
count because the per-switch commit locks never contend with each
other.

Telemetry is labeled per device (``device="sw3"``) so one registry
scrape shows the whole fleet; :meth:`Fabric.fingerprint` snapshots
every shard's pool state for flight-recorder dumps.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.findings import AnalysisReport
from repro.analysis.isolation import IsolationCertificate
from repro.controller.controller import (
    ActiveRmtController,
    ProvisioningReport,
    RequestKind,
    ProvisioningRequest,
)
from repro.controller.service import (
    AdmissionService,
    AdmissionTicket,
    CommitLogEntry,
    pools_fingerprint,
    replay_commit_log,
)
from repro.core.allocator import AllocationError
from repro.core.constraints import AccessPattern, AllocationPolicy, MOST_CONSTRAINED
from repro.core.schemes import AllocationScheme
from repro.device import Device, SimDevice
from repro.fabric.placement import (
    PlacementPolicy,
    make_policy,
)
from repro.faults import RetryPolicy
from repro.packets.codec import ActivePacket
from repro.switchsim.config import SwitchConfig
from repro.switchsim.switch import ActiveSwitch
from repro.telemetry import AnyTracer, MetricsRegistry, resolve, resolve_tracer


class FabricError(Exception):
    """Raised on fabric misuse (unroutable request, bad shard count)."""


class Shard:
    """One (device, controller, admission service) column of the fabric."""

    def __init__(
        self,
        index: int,
        controller: ActiveRmtController,
        service: AdmissionService,
    ) -> None:
        self.index = index
        self.controller = controller
        self.service = service
        self.device: Device = controller.device
        #: Cleared by :meth:`Fabric.failover` when the shard's device is
        #: declared dead.  A dead shard takes no traffic; its host-side
        #: allocator and commit log stay readable for recovery.
        self.alive = True

    def __repr__(self) -> str:
        state = "" if self.alive else ", dead"
        return f"Shard({self.index}, device={self.device_id!r}{state})"

    @property
    def device_id(self) -> str:
        return self.device.device_id

    @property
    def commit_log(self) -> List[CommitLogEntry]:
        return self.service.commit_log

    def used_blocks(self) -> int:
        """Blocks allocated on this shard (from a commit-consistent shadow)."""
        shadow = self.service.snapshot_shadow()
        return sum(pool.used_blocks for pool in shadow.pools.values())

    def probe(self, fid: int, pattern: AccessPattern) -> bool:
        """Feasibility of admitting *pattern* here, without side effects."""
        shadow = self.service.snapshot_shadow()
        try:
            plan = shadow.plan(fid, pattern)
        except AllocationError:
            return False
        return plan.feasible

    def fingerprint(self) -> Tuple[object, ...]:
        """Byte-identity fingerprint of this shard's stage pools."""
        return pools_fingerprint(self.controller.allocator)

    def audit(self) -> AnalysisReport:
        """Invariant audit of this shard's committed state.

        Runs the declarative catalog (:data:`repro.analysis.INVARIANTS`)
        against the shard's live allocator and device tables -- the
        certified counterpart of :meth:`fingerprint`'s byte identity.
        """
        return self.controller.audit()

    def certificates(self) -> Dict[int, "IsolationCertificate"]:
        """Live isolation certificates for every FID resident here."""
        return self.controller.certificates()


@dataclasses.dataclass
class FailoverReport:
    """What :meth:`Fabric.failover` did about one dead shard.

    ``mode`` is ``"replace"`` (state rebuilt onto a replacement device
    from the commit log) or ``"redistribute"`` (residents re-admitted
    on surviving shards, shedding what no longer fits).
    ``fingerprint_match`` is the recovery proof in replace mode: the
    recovered allocator's pools are byte-identical to the failed
    shard's host-side pools.  None in redistribute mode.
    """

    index: int
    device_id: str
    mode: str
    readmitted: List[int] = dataclasses.field(default_factory=list)
    shed: List[int] = dataclasses.field(default_factory=list)
    fingerprint_match: Optional[bool] = None


class Fabric:
    """Front door over a fleet of shards with fid -> shard routing.

    Args:
        shards: the columns this fabric owns (see :meth:`build` for the
            common construction from a shard count).
        placement: a :class:`~repro.fabric.placement.PlacementPolicy`
            instance or one of the built-in names (``"hash"``,
            ``"least-loaded"``, ``"first-fit"``).
        seed: seeds hash placement; with a fixed seed the fid -> shard
            map is a pure function of the fid (the determinism the
            fabric property tests pin).
        telemetry: metrics registry for fabric-level, device-labeled
            series; defaults to the process default.  When recording,
            a collector is registered so per-shard utilization gauges
            refresh on every scrape.
        tracer: span tracer threaded to nothing fabric-side yet; held
            so :meth:`build` can hand one tracer to every shard.
    """

    def __init__(
        self,
        shards: Sequence[Shard],
        placement: Union[str, PlacementPolicy] = "hash",
        seed: int = 0,
        telemetry: Optional[MetricsRegistry] = None,
        tracer: Optional[AnyTracer] = None,
    ) -> None:
        if not shards:
            raise FabricError("a fabric needs at least one shard")
        self.shards: List[Shard] = list(shards)
        self.placement = make_policy(placement, seed=seed)
        self.telemetry = resolve(telemetry)
        self.tracer = resolve_tracer(tracer)
        #: Sticky fid -> shard-index routes.  Only the submitting
        #: thread writes; shards never do.
        self._routes: Dict[int, int] = {}
        #: Access pattern of every sticky-placed fid, kept so a shard
        #: failover can re-admit or replay its residents (the commit log
        #: records fids; the patterns live here).
        self._patterns: Dict[int, AccessPattern] = {}
        if self.telemetry.enabled:
            self.telemetry.register_collector(self._collect)

    def live_shards(self) -> List[Shard]:
        """The shards currently taking traffic."""
        return [shard for shard in self.shards if shard.alive]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        num_shards: int,
        config: Optional[SwitchConfig] = None,
        placement: Union[str, PlacementPolicy] = "hash",
        seed: int = 0,
        workers: int = 0,
        queue_limit: int = 256,
        default_deadline_s: Optional[float] = None,
        retry_after_s: float = 0.05,
        pacing: float = 0.0,
        scheme: AllocationScheme = AllocationScheme.WORST_FIT,
        policy: AllocationPolicy = MOST_CONSTRAINED,
        telemetry: Optional[MetricsRegistry] = None,
        tracer: Optional[AnyTracer] = None,
        sanitizer: bool = False,
        device_factory: Optional[Callable[[int], Device]] = None,
        retry: Optional["RetryPolicy"] = None,
    ) -> "Fabric":
        """Build *num_shards* identical sim-backed shards.

        Each shard gets its own simulated switch (device ids ``sw0`` ..
        ``sw{N-1}``), controller, and admission service; *workers*,
        *queue_limit*, *pacing* etc. configure every shard's service
        identically, with per-shard backoff seeds derived from *seed*
        so runs are reproducible.  *device_factory* overrides the
        default sim device per index -- the chaos harness passes one
        that wraps each device in a
        :class:`~repro.faults.FaultyDevice`; *retry* is each
        controller's transient-fault retry policy.
        """
        if num_shards < 1:
            raise FabricError("num_shards must be >= 1")
        registry = resolve(telemetry)
        tracer = resolve_tracer(tracer)
        shards: List[Shard] = []
        for index in range(num_shards):
            if device_factory is not None:
                device: Device = device_factory(index)
            else:
                device = SimDevice(
                    ActiveSwitch(config or SwitchConfig()),
                    device_id=f"sw{index}",
                )
            controller = ActiveRmtController(
                device,
                scheme=scheme,
                policy=policy,
                telemetry=registry,
                tracer=tracer,
                sanitizer=sanitizer,
                retry=retry,
            )
            service = AdmissionService(
                controller,
                workers=workers,
                queue_limit=queue_limit,
                default_deadline_s=default_deadline_s,
                retry_after_s=retry_after_s,
                pacing=pacing,
                seed=seed + index,
                telemetry=registry,
                tracer=tracer,
            )
            shards.append(Shard(index, controller, service))
        return cls(
            shards,
            placement=placement,
            seed=seed,
            telemetry=registry,
            tracer=tracer,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route_of(self, fid: int) -> Optional[int]:
        """The shard index *fid* is routed to, if placed."""
        return self._routes.get(fid)

    def shard_for(self, fid: int) -> Optional[Shard]:
        index = self._routes.get(fid)
        return None if index is None else self.shards[index]

    def _place(self, fid: int, pattern: AccessPattern, sticky: bool) -> int:
        # Policies see only the live shards (dead ones take no
        # placements); the chosen position maps back to a fleet index.
        live = self.live_shards()
        if not live:
            raise FabricError("no live shards left in the fabric")
        position = self.placement.place(fid, pattern, live)
        if not 0 <= position < len(live):
            raise FabricError(
                f"placement policy {self.placement.name!r} returned shard "
                f"{position} for fid {fid}; fabric has {len(live)} live shards"
            )
        index = live[position].index
        if sticky:
            self._routes[fid] = index
            self._patterns[fid] = pattern
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "fabric_placements_total",
                    help="New applications placed onto a shard",
                    labels={
                        "device": self.shards[index].device_id,
                        "policy": self.placement.name,
                    },
                ).inc()
        return index

    def _route(self, request: ProvisioningRequest) -> Shard:
        fid = request.fid
        if fid is None:
            raise FabricError("fabric requests must carry a fid")
        index = self._routes.get(fid)
        if index is None:
            if request.kind is not RequestKind.ADMIT or request.pattern is None:
                raise FabricError(
                    f"fid {fid} is not placed on any shard; admit it first"
                )
            # Dry-run probes place but do not pin: a what-if must not
            # decide where the eventual real admission lands.
            index = self._place(fid, request.pattern, sticky=not request.dry_run)
        shard = self.shards[index]
        if not shard.alive:
            raise FabricError(
                f"fid {fid} is routed to dead shard {index} "
                f"({shard.device_id}); run failover({index}) first"
            )
        return shard

    def place_packet(self, packet: ActivePacket) -> int:
        """Shard index for one wire packet (data-plane steering).

        Routed fids go to their shard.  An unrouted ALLOC_REQUEST is
        placed now -- the request digest must surface on the switch
        whose controller will own the fid.  Unrouted non-request
        traffic falls through to shard 0 (it will be treated as any
        unknown flow would on a single switch).
        """
        index = self._routes.get(packet.fid)
        if index is not None:
            return index
        if packet.request is not None:
            pattern = AccessPattern.from_request(
                packet.request, name=f"fid{packet.fid}"
            )
            return self._place(packet.fid, pattern, sticky=True)
        return 0

    # ------------------------------------------------------------------
    # The request API (mirrors AdmissionService)
    # ------------------------------------------------------------------

    def submit(
        self,
        request: ProvisioningRequest,
        deadline_s: Optional[float] = None,
    ) -> AdmissionTicket[ProvisioningReport]:
        """Route one request to its shard's admission service."""
        shard = self._route(request)
        if self.telemetry.enabled:
            self.telemetry.counter(
                "fabric_requests_total",
                help="Requests routed through the fabric, by device and kind",
                labels={"device": shard.device_id, "kind": request.kind.value},
            ).inc()
        return shard.service.submit(request, deadline_s=deadline_s)

    def submit_and_wait(
        self,
        request: ProvisioningRequest,
        deadline_s: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> ProvisioningReport:
        return self.submit(request, deadline_s=deadline_s).result(timeout)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every shard's queue has resolved."""
        return all(shard.service.drain(timeout) for shard in self.shards)

    def close(self, wait: bool = True) -> None:
        for shard in self.shards:
            shard.service.close(wait=wait)

    def __enter__(self) -> "Fabric":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def failover(
        self,
        index: int,
        replacement: Optional[Union[Device, object]] = None,
        deadline_s: Optional[float] = None,
    ) -> FailoverReport:
        """Declare shard *index* dead and recover its applications.

        With a *replacement* device (anything
        :func:`~repro.device.as_device` accepts, empty and
        capability-identical), the dead shard's controller state is
        rebuilt onto it from the commit log
        (:meth:`ActiveRmtController.recover`) and the new column takes
        over the old routes in place; ``fingerprint_match`` proves the
        recovered pools are byte-identical to the failed shard's
        host-side pools.

        Without a replacement, the dead shard's residents are
        re-admitted on the surviving shards through the normal
        placement path; whatever no longer fits anywhere is shed
        gracefully (listed in ``shed``, routes dropped) -- the fabric
        keeps running at reduced capacity.
        """
        if not 0 <= index < len(self.shards):
            raise FabricError(f"no shard {index} in a {len(self.shards)}-shard fabric")
        failed = self.shards[index]
        if not failed.alive:
            raise FabricError(f"shard {index} already failed over")
        failed.alive = False
        mode = "replace" if replacement is not None else "redistribute"
        self.tracer.anomaly(
            "shard_failed",
            None,
            device=failed.device_id,
            index=index,
            mode=mode,
        )
        if self.telemetry.enabled:
            self.telemetry.counter(
                "fabric_failovers_total",
                help="Shard failovers performed, by mode",
                labels={"device": failed.device_id, "mode": mode},
            ).inc()
        residents = sorted(failed.controller.allocator.resident_fids())
        # Routes of fids no longer resident (withdrawn history) must not
        # pin future re-admissions to the dead column.
        for fid, routed in list(self._routes.items()):
            if routed == index and fid not in residents:
                del self._routes[fid]
        missing = [fid for fid in residents if fid not in self._patterns]
        if missing:
            raise FabricError(
                f"cannot fail over shard {index}: no recorded access "
                f"pattern for resident fids {missing}"
            )
        if replacement is not None:
            return self._failover_replace(index, failed, replacement, residents)
        return self._failover_redistribute(index, failed, residents, deadline_s)

    def _failover_replace(
        self,
        index: int,
        failed: Shard,
        replacement: Union[Device, object],
        residents: List[int],
    ) -> FailoverReport:
        """Rebuild the dead shard's state onto *replacement*, in place,
        configured by the failed column's own ``settings()``."""
        old = failed.controller
        recovered = ActiveRmtController.recover(
            replacement, failed.commit_log, self._patterns, **old.settings()
        )
        match = pools_fingerprint(recovered.allocator) == pools_fingerprint(
            old.allocator
        )
        service = AdmissionService(recovered, **failed.service.settings())
        # The replacement column inherits the serialization history: its
        # log must replay to the state it starts from, so audits and
        # replay_shard() keep holding across the failover.
        service.commit_log.extend(failed.commit_log)
        self.shards[index] = Shard(index, recovered, service)
        self.shards[index].alive = True
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "fabric_recovery_fingerprint_match",
                help="1 when the recovered shard's pools matched the failed one",
                labels={"device": failed.device_id},
            ).set(1.0 if match else 0.0)
        return FailoverReport(
            index=index,
            device_id=failed.device_id,
            mode="replace",
            readmitted=list(residents),
            fingerprint_match=match,
        )

    def _failover_redistribute(
        self,
        index: int,
        failed: Shard,
        residents: List[int],
        deadline_s: Optional[float],
    ) -> FailoverReport:
        """Re-admit the dead shard's residents on the survivors."""
        report = FailoverReport(
            index=index, device_id=failed.device_id, mode="redistribute"
        )
        for fid in residents:
            pattern = self._patterns[fid]
            self._routes.pop(fid, None)
            outcome = self.submit_and_wait(
                ProvisioningRequest.admission(fid, pattern),
                deadline_s=deadline_s,
            )
            if outcome.success:
                report.readmitted.append(fid)
            else:
                # Graceful shed: the application lost its slot with the
                # shard; it may resubmit later.
                report.shed.append(fid)
                self._routes.pop(fid, None)
                self._patterns.pop(fid, None)
        if self.telemetry.enabled:
            labels = {"device": failed.device_id}
            self.telemetry.counter(
                "fabric_failover_readmitted_total",
                help="Applications re-admitted on survivors after a failover",
                labels=labels,
            ).inc(len(report.readmitted))
            self.telemetry.counter(
                "fabric_failover_shed_total",
                help="Applications shed because no survivor could host them",
                labels=labels,
            ).inc(len(report.shed))
        return report

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def fingerprint(self) -> Dict[str, Tuple[object, ...]]:
        """Per-device pools fingerprint (flight-recorder payload).

        Pass bound (``recorder = FlightRecorder(tracer,
        fingerprint=fabric.fingerprint)``) so every anomaly dump
        captures the whole fleet's pool state at trigger time.
        """
        return {
            shard.device_id: shard.fingerprint()
            for shard in self.shards
            if shard.alive
        }

    def commit_logs(self) -> Dict[str, List[CommitLogEntry]]:
        """Each shard's serialization-order witness, by device id."""
        return {
            shard.device_id: list(shard.commit_log) for shard in self.shards
        }

    def audit(self) -> Dict[str, AnalysisReport]:
        """Per-device invariant audit across the whole fleet.

        The batch counterpart of :meth:`fingerprint`: every shard's
        committed state is checked against the declarative invariant
        catalog; a clean fleet returns all-``clean`` reports.
        """
        return {
            shard.device_id: shard.audit()
            for shard in self.shards
            if shard.alive
        }

    def certificates(self) -> Dict[str, Dict[int, IsolationCertificate]]:
        """Per-device live isolation certificates for every resident."""
        return {
            shard.device_id: shard.certificates()
            for shard in self.shards
            if shard.alive
        }

    def stats(self) -> List[Dict[str, object]]:
        """One summary row per shard (device id, load, residents)."""
        rows: List[Dict[str, object]] = []
        for shard in self.shards:
            allocator = shard.controller.allocator
            rows.append(
                {
                    "device": shard.device_id,
                    "alive": shard.alive,
                    "utilization": allocator.utilization(),
                    "resident_fids": len(allocator.resident_fids()),
                    "commits": len(shard.commit_log),
                    "routed_fids": sum(
                        1
                        for index in self._routes.values()
                        if index == shard.index
                    ),
                }
            )
        return rows

    def _collect(self, registry: MetricsRegistry) -> None:
        """Refresh per-device gauges on every scrape (pull-style)."""
        for shard in self.shards:
            if not shard.alive:
                continue
            allocator = shard.controller.allocator
            labels = {"device": shard.device_id}
            registry.gauge(
                "fabric_shard_utilization",
                help="Fraction of a shard's register memory allocated",
                labels=labels,
            ).set(allocator.utilization())
            registry.gauge(
                "fabric_shard_resident_fids",
                help="Applications resident on a shard",
                labels=labels,
            ).set(len(allocator.resident_fids()))
            registry.gauge(
                "fabric_shard_commits",
                help="Committed operations in a shard's commit log",
                labels=labels,
            ).set(len(shard.commit_log))


def replay_shard(
    shard: Shard, patterns: Dict[int, AccessPattern]
) -> Tuple[Tuple[object, ...], Tuple[object, ...]]:
    """Serial-replay one shard's commit log onto a fresh controller.

    Returns ``(live_fingerprint, replayed_fingerprint)`` -- equal iff
    the shard's concurrent history linearized (the per-shard witness
    the fabric tests assert).  The fresh controller takes the shard's
    own switch configuration, allocation scheme and policy.
    """
    allocator = shard.controller.allocator
    fresh = ActiveRmtController(
        ActiveSwitch(shard.device.config),
        scheme=allocator.scheme,
        policy=allocator.policy,
    )
    replay_commit_log(shard.commit_log, patterns, fresh)
    return shard.fingerprint(), pools_fingerprint(fresh.allocator)
