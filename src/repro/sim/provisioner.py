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

What a digest asks for is decided by the controller's one decoder,
:meth:`ActiveRmtController.serve_digest`; this module owns only the
clock: when the deactivation window opens and closes and when the
replies leave.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.controller.controller import (
    ActiveRmtController,
    ControllerError,
    ProvisioningReport,
)
from repro.controller.service import AdmissionService
from repro.core.constraints import AccessPattern
from repro.packets.codec import ActivePacket
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
        #: Admissions flow through the unified request API: the
        #: admission service runs the plan/commit pipeline inline and
        #: keeps the commit log.
        self.service = service or AdmissionService(controller)
        self.provisioning_log: List[Dict] = []
        #: fid -> AccessPattern used instead of the wire-decoded one;
        #: lets locally-known constraints (e.g. the heavy hitter's
        #: same-stage aliases, which the 3-byte wire entries cannot
        #: carry) reach the allocator.
        self.pattern_overrides: Dict[int, AccessPattern] = {}
        loop.every(poll_interval_s, self._poll, until=horizon_s)

    # ------------------------------------------------------------------

    def _poll(self) -> None:
        controller = self.controller
        for digest in controller.device.poll_digests():
            try:
                report = controller.serve_digest(
                    digest, self.service.submit_and_wait, self.pattern_overrides
                )
            except ControllerError:
                # A malformed digest, or a DEALLOCATE for a fid that is
                # not resident: nobody waits for an answer to either.
                continue
            if report is not None:
                self._respond(report, digest)

    def _respond(self, report: ProvisioningReport, request: ActivePacket) -> None:
        """Log one wire admission and schedule its window and replies."""
        fid = request.fid
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
            self.loop.schedule(report.compute_seconds, self.network.inject, failure)
            return

        device = self.controller.device
        impacted = report.reallocated_fids
        t_deactivate = report.compute_seconds
        t_reactivate = report.total_seconds
        # Phase 2: the commit left everyone active; re-impose the
        # deactivation window the protocol actually spends.
        for other in impacted:
            device.deactivate_fid(other)
        device.deactivate_fid(fid)  # newcomer waits for its response

        # Phase 3-5 are serialized; the visible disruption for the
        # incumbents spans [t_deactivate, t_reactivate].
        self.loop.schedule(
            max(t_reactivate, t_deactivate), self._reactivate, report, request
        )

    def _reactivate(self, report: ProvisioningReport, request: ActivePacket) -> None:
        device = self.controller.device
        for other in report.reallocated_fids:
            device.reactivate_fid(other)
        device.reactivate_fid(request.fid)
        # Built now, not at admission: the regions an incumbent is
        # told are the ones it holds when the notice leaves.
        for reply in self.controller.allocation_replies(report, request):
            self.network.inject(reply)
