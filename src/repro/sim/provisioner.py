"""Time-staggered admission for the end-to-end simulations.

The synchronous :meth:`ActiveRmtController.admit` applies everything
instantly and *reports* modeled durations.  In simulated time the
protocol of Section 4.3 unfolds in phases, and the data plane must
reflect each phase:

1. the controller polls digests (the paper's ~100 us poll loop),
2. computing the allocation takes ``compute_seconds``; the impacted
   incumbents are then deactivated and notified,
3. incumbents extract state for ``snapshot_seconds`` (their traffic
   bypasses active processing -- the visible disruption of Figure 10),
4. table updates take ``table_update_seconds``,
5. everyone is reactivated; updated responses reach the incumbents and
   the allocation response reaches the requester.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.controller.controller import (
    ActiveRmtController,
    ProvisioningRequest,
)
from repro.controller.service import AdmissionService, withdraw_with_retries
from repro.core.constraints import AccessPattern
from repro.packets.codec import ActivePacket
from repro.packets.headers import ControlFlags, PacketType
from repro.sim.eventloop import EventLoop
from repro.sim.network import SimNetwork


class SimProvisioner:
    """Drives controller admissions over simulated time."""

    def __init__(
        self,
        loop: EventLoop,
        network: SimNetwork,
        controller: ActiveRmtController,
        poll_interval_s: float = 100e-6,
        horizon_s: float = 120.0,
        service: Optional[AdmissionService] = None,
    ) -> None:
        self.loop = loop
        self.network = network
        self.controller = controller
        #: Admissions flow through the unified request API.  The
        #: default inline service (workers=0) runs the plan/commit
        #: pipeline on the event-loop thread -- simulated time is
        #: single-threaded -- while still exercising the same code
        #: path the concurrent deployment uses.
        self.service = service or AdmissionService(controller, workers=0)
        self.provisioning_log: List[Dict] = []
        #: fid -> AccessPattern used instead of the wire-decoded one;
        #: lets locally-known constraints (e.g. the heavy hitter's
        #: same-stage aliases, which the 3-byte wire entries cannot
        #: carry) reach the allocator.
        self.pattern_overrides: Dict[int, AccessPattern] = {}
        loop.every(poll_interval_s, self._poll, until=horizon_s)

    # ------------------------------------------------------------------

    def _poll(self) -> None:
        for digest in self.controller.device.poll_digests():
            if digest.ptype == PacketType.ALLOC_REQUEST:
                self._admit(digest)
            elif digest.ptype == PacketType.CONTROL:
                self._control(digest)

    def _control(self, packet: ActivePacket) -> None:
        if packet.has_flag(ControlFlags.DEALLOCATE):
            try:
                withdraw_with_retries(
                    self.service.submit_and_wait,
                    packet.fid,
                    self.controller.refused_withdrawals,
                )
            except Exception:
                pass
        elif packet.has_flag(ControlFlags.SNAPSHOT_COMPLETE):
            if self.controller.on_snapshot_complete is not None:
                self.controller.on_snapshot_complete(packet.fid)

    # ------------------------------------------------------------------

    def _admit(self, request: ActivePacket) -> None:
        assert request.request is not None
        fid = request.fid
        pattern = self.pattern_overrides.get(fid) or AccessPattern.from_request(
            request.request, name=f"fid{fid}"
        )
        self.controller.register_client(fid, request.eth.src)
        report = self.service.submit_and_wait(
            ProvisioningRequest.admission(fid=fid, pattern=pattern)
        )
        self.provisioning_log.append(
            {
                "time": self.loop.now,
                "fid": fid,
                "success": report.success,
                "status": report.status.value,
                "compute_seconds": report.compute_seconds,
                "snapshot_seconds": report.snapshot_seconds,
                "table_update_seconds": report.table_update_seconds,
                "reallocated": report.reallocated_fids,
                # Distinguishes "no feasible mutant" denials from
                # admissions that were committed and then exactly
                # undone when the switch rejected the table updates.
                "rolled_back": report.rolled_back,
            }
        )
        if not report.success:
            (failure,) = self.controller.allocation_replies(report, request)
            self.loop.schedule(
                report.compute_seconds, lambda: self.network.inject(failure)
            )
            return

        device = self.controller.device
        impacted = report.reallocated_fids
        t_deactivate = report.compute_seconds
        t_reactivate = report.total_seconds
        # Phase 2: admit() left everyone active; re-impose the
        # deactivation window the protocol actually spends.
        for other in impacted:
            device.deactivate_fid(other)
        device.deactivate_fid(fid)  # newcomer waits for its response

        def reactivate() -> None:
            for other in impacted:
                device.reactivate_fid(other)
            device.reactivate_fid(fid)
            # Built now, not at admission: the regions an incumbent is
            # told are the ones it holds when the notice leaves.
            for reply in self.controller.allocation_replies(report, request):
                self.network.inject(reply)

        # Phase 3-5 are serialized; the visible disruption for the
        # incumbents spans [t_deactivate, t_reactivate].
        self.loop.schedule(max(t_reactivate, t_deactivate), reactivate)
