"""The sharded fabric: one front door over N (controller, device) shards.

A :class:`Fabric` owns a fleet of shards -- each an independent
:class:`~repro.device.Device` with its own
:class:`~repro.controller.controller.ActiveRmtController` and
:class:`~repro.controller.service.AdmissionService` -- and routes every
provisioning request to exactly one of them.  A new application is
placed by hash (:func:`hash_placement`: ``crc32(fid, seed)`` over the
live shards, oblivious to load and arrival order); once placed, a fid's
route is sticky, so all of its subsequent traffic (withdrawals,
re-admissions, digests) serializes on the same shard and each shard
controller's ``commit_log`` remains an independent replay witness.

There is no cross-shard coordination on the hot path: shards share
nothing but the routing table.  Every request is served inline on the
caller's thread by its shard's service; how the shards' switch-side
work would overlap is modeled from the reports
(:func:`repro.experiments.common.windowed_seconds`), with the fleet's
makespan the slowest shard's.

The fabric's counts (routing, and what each failover did, read off its
:class:`FailoverReport` list) are labeled per device (``device="sw3"``)
so one registry scrape shows the whole fleet; :meth:`Fabric.fingerprint`
snapshots every shard's pool state for flight-recorder dumps.
"""

from __future__ import annotations

import dataclasses
import zlib
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.findings import AnalysisReport
from repro.analysis.isolation import IsolationCertificate
from repro.controller.controller import (
    ActiveRmtController,
    CommitLogEntry,
    ProvisioningReport,
    ProvisioningRequest,
    RequestKind,
    replay_commit_log,
)
from repro.controller.service import AdmissionService, pools_fingerprint
from repro.core.constraints import AccessPattern, AllocationPolicy, MOST_CONSTRAINED
from repro.core.schemes import AllocationScheme
from repro.device import Device, SimDevice
from repro.faults import RetryPolicy
from repro.switchsim.config import SwitchConfig
from repro.switchsim.switch import ActiveSwitch
from repro.telemetry import AnyTracer, MetricsRegistry, resolve, resolve_tracer


class FabricError(Exception):
    """Raised on fabric misuse that needs an operator (dead shard, bad index)."""


def hash_placement(fid: int, seed: int, count: int) -> int:
    """The shard position, among *count* live shards, of a new *fid*.

    ``crc32(fid, seed) % count``: the same (fid, seed, count) always
    lands on the same shard, whatever the arrival order or the shards'
    load -- the determinism the fabric property tests pin.
    """
    return zlib.crc32(f"{fid}:{seed}".encode("ascii")) % count


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
        #: allocator and its controller's commit log stay readable for
        #: recovery.
        self.alive = True

    def __repr__(self) -> str:
        state = "" if self.alive else ", dead"
        return f"Shard({self.index}, device={self.device_id!r}{state})"

    @property
    def device_id(self) -> str:
        return self.device.device_id

    @property
    def commit_log(self) -> List[CommitLogEntry]:
        """The shard controller's commit log (read it, do not append)."""
        return self.controller.commit_log

    def used_blocks(self) -> int:
        """Blocks allocated on this shard."""
        return sum(pool.used_blocks for pool in self.controller.allocator.pools.values())

    def fingerprint(self) -> Tuple[object, ...]:
        """Byte-identity fingerprint of this shard's stage pools."""
        return pools_fingerprint(self.controller.allocator)


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
        seed: seeds hash placement (:func:`hash_placement`); with a
            fixed seed the fid -> shard map is a pure function of the
            fid and the live shard count.
        telemetry: metrics registry that reads the fabric-level,
            device-labeled series (:meth:`metrics`); defaults to the
            process default.
        tracer: span tracer threaded to nothing fabric-side yet; held
            so :meth:`build` can hand one tracer to every shard.
    """

    def __init__(
        self,
        shards: Sequence[Shard],
        seed: int = 0,
        telemetry: Optional[MetricsRegistry] = None,
        tracer: Optional[AnyTracer] = None,
    ) -> None:
        if not shards:
            raise FabricError("a fabric needs at least one shard")
        self.shards: List[Shard] = list(shards)
        self.seed = seed
        self.telemetry = resolve(telemetry)
        self.tracer = resolve_tracer(tracer)
        #: Sticky fid -> shard-index routes.  Only the fabric writes;
        #: shards never do.
        self._routes: Dict[int, int] = {}
        #: Access pattern of every sticky-placed fid, kept so a shard
        #: failover can re-admit or replay its residents (the commit log
        #: records fids; the patterns live here).
        self._patterns: Dict[int, AccessPattern] = {}
        #: New applications placed, by device, and requests routed, by
        #: ``(device, kind)``.
        self.placements: Counter[str] = Counter()
        self.requests: Counter[Tuple[str, str]] = Counter()
        #: What each :meth:`failover` did, in order.
        self.failovers: List[FailoverReport] = []
        self.telemetry.register(self)

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
        seed: int = 0,
        workers: int = 0,
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
        ``sw{N-1}``), controller, and inline admission service
        (*workers* must be 0).  *device_factory* overrides the
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
            service = AdmissionService(controller, workers=workers)
            shards.append(Shard(index, controller, service))
        return cls(shards, seed=seed, telemetry=registry, tracer=tracer)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route_of(self, fid: int) -> Optional[int]:
        """The shard index *fid* is routed to, if placed."""
        return self._routes.get(fid)

    def _place(self, fid: int, pattern: AccessPattern, sticky: bool) -> int:
        # Only the live shards take placements; the hashed position maps
        # back to a fleet index.
        live = self.live_shards()
        if not live:
            raise FabricError("no live shards left in the fabric")
        index = live[hash_placement(fid, self.seed, len(live))].index
        if sticky:
            self._routes[fid] = index
            self._patterns[fid] = pattern
            self.placements[self.shards[index].device_id] += 1
        return index

    def _route(self, request: ProvisioningRequest) -> Optional[Shard]:
        """*request*'s shard; None for a withdrawal of an unplaced fid."""
        fid = request.fid
        index = self._routes.get(fid)
        if index is None:
            if request.kind is not RequestKind.ADMIT:
                return None
            if request.pattern is None:
                raise FabricError(f"admission of fid {fid} carries no pattern")
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

    # ------------------------------------------------------------------
    # The request API (mirrors AdmissionService)
    # ------------------------------------------------------------------

    def submit(self, request: ProvisioningRequest) -> ProvisioningReport:
        """Route one request to its shard's admission service (a
        withdrawal of an unplaced fid is ``REJECTED``, and not counted)."""
        shard = self._route(request)
        if shard is None:
            return ProvisioningReport.rejected(request.fid, f"fid {request.fid} not admitted")
        self.requests[shard.device_id, request.kind.value] += 1
        return shard.service.submit(request)

    def submit_and_wait(self, request: ProvisioningRequest) -> ProvisioningReport:
        """:meth:`submit` under the name the wire-driven callers use."""
        return self.submit(request)

    def close(self) -> None:
        """Nothing to release: every request is served inline.  Kept
        for callers that close what they build (the repository
        benchmark's fault workload does)."""

    def __len__(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def failover(
        self,
        index: int,
        replacement: Optional[Union[Device, object]] = None,
    ) -> FailoverReport:
        """Declare shard *index* dead and recover its applications.

        With a *replacement* device (anything
        :func:`~repro.device.as_device` accepts, empty and
        capability-identical), the dead shard's controller state is
        rebuilt onto it from its controller's commit log
        (:meth:`ActiveRmtController.recover`, whose replay writes the
        replacement's own log) and the new column takes over the old
        routes in place; ``fingerprint_match`` proves the recovered
        pools are byte-identical to the failed shard's host-side pools.

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
            device=failed.device_id,
            index=index,
            mode=mode,
        )
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
            report = self._failover_replace(index, failed, replacement, residents)
        else:
            report = self._failover_redistribute(index, failed, residents)
        self.failovers.append(report)
        return report

    def _failover_replace(
        self,
        index: int,
        failed: Shard,
        replacement: Union[Device, object],
        residents: List[int],
    ) -> FailoverReport:
        """Rebuild the dead shard's state onto *replacement*, in place,
        configured by the failed controller's own ``settings()``."""
        old = failed.controller
        recovered = ActiveRmtController.recover(
            replacement, old.commit_log, self._patterns, **old.settings()
        )
        match = pools_fingerprint(recovered.allocator) == pools_fingerprint(
            old.allocator
        )
        self.shards[index] = Shard(index, recovered, AdmissionService(recovered))
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
    ) -> FailoverReport:
        """Re-admit the dead shard's residents on the survivors."""
        report = FailoverReport(
            index=index, device_id=failed.device_id, mode="redistribute"
        )
        for fid in residents:
            pattern = self._patterns[fid]
            self._routes.pop(fid, None)
            outcome = self.submit(ProvisioningRequest.admission(fid, pattern))
            if outcome.success:
                report.readmitted.append(fid)
            else:
                # Graceful shed: the application lost its slot with the
                # shard; it may resubmit later.
                report.shed.append(fid)
                self._routes.pop(fid, None)
                self._patterns.pop(fid, None)
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
            shard.device_id: shard.controller.audit()
            for shard in self.shards
            if shard.alive
        }

    def certificates(self) -> Dict[str, Dict[int, IsolationCertificate]]:
        """Per-device live isolation certificates for every resident."""
        return {
            shard.device_id: shard.controller.certificates()
            for shard in self.shards
            if shard.alive
        }

    def metrics(self) -> Dict[str, object]:
        """The registry's view: routing counts, what the failovers did
        (a replace re-admits every resident onto the replacement) and
        each live shard's load."""
        failovers: Counter[Tuple[str, str]] = Counter()
        readmitted: Counter[str] = Counter()
        shed: Counter[str] = Counter()
        match: Dict[str, int] = {}
        for report in self.failovers:
            failovers[report.device_id, report.mode] += 1
            readmitted[report.device_id] += len(report.readmitted)
            shed[report.device_id] += len(report.shed)
            if report.fingerprint_match is not None:
                match[report.device_id] = int(report.fingerprint_match)
        live = self.live_shards()
        return {
            "fabric_placements_total{device}": self.placements,
            "fabric_requests_total{device,kind}": self.requests,
            "fabric_failovers_total{device,mode}": failovers,
            "fabric_failover_readmitted_total{device}": readmitted,
            "fabric_failover_shed_total{device}": shed,
            "fabric_recovery_fingerprint_match{device}": match,
            "fabric_shard_used_blocks{device}": {s.device_id: s.used_blocks() for s in live},
            "fabric_shard_resident_fids{device}": {
                s.device_id: len(s.controller.allocator.resident_fids()) for s in live
            },
            "fabric_shard_commits{device}": {s.device_id: len(s.commit_log) for s in live},
        }


def replay_shard(
    shard: Shard, patterns: Dict[int, AccessPattern]
) -> Tuple[Tuple[object, ...], Tuple[object, ...]]:
    """Serial-replay one shard's commit log onto a fresh controller.

    Returns ``(live_fingerprint, replayed_fingerprint)`` -- equal iff
    the shard's commit log is its history (the per-shard witness
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
