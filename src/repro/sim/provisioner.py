"""Time-staggered admission for the end-to-end simulations.

The synchronous :meth:`ActiveRmtController.admit` applies everything
instantly and *reports* modeled durations.  In simulated time the
protocol of Section 4.3 unfolds in phases, and the data plane must
reflect each phase:

1. the controller polls digests (the paper's ~100 us poll loop),
2. computing the allocation takes :data:`PLANNING_S`; the impacted
   incumbents are then deactivated and notified,
3. incumbents extract state for ``snapshot_seconds`` (their traffic
   bypasses active processing -- the visible disruption of Figure 10),
4. table updates take ``table_update_seconds``,
5. everyone is reactivated; updated responses reach the incumbents and
   the allocation response reaches the requester.

What a digest asks for, and what answers it, is the wire protocol's
(:mod:`repro.controller.wire`); this module owns only the clock: when
the deactivation window opens and closes and when the replies leave.
Every delay it schedules is modeled (the planning
constant plus the report's modeled snapshot and table-update seconds),
never the planner's measured host time, so a simulation is a function
of its seed.  A refused admission is answered ``ALLOC_FAILED``; only
a malformed digest, which nobody waits for, is skipped.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.controller import wire
from repro.controller.controller import ActiveRmtController
from repro.controller.requests import (
    ControllerError,
    ProvisioningReport,
    ProvisioningRequest,
)
from repro.controller.service import AdmissionService
from repro.core.constraints import AccessPattern
from repro.packets.codec import ActivePacket
from repro.sim.eventloop import EventLoop
from repro.sim.network import SimNetwork

#: Simulated seconds every admission's planning takes.
PLANNING_S = 0.002


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
        #: Where wire requests go: *service*'s front door when given,
        #: else the controller's own :meth:`~ActiveRmtController.submit`.
        self._submit: Callable[[ProvisioningRequest], ProvisioningReport] = (
            controller.submit if service is None else service.submit_and_wait
        )
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
                report = wire.serve_digest(
                    controller, digest, self._submit, self.pattern_overrides
                )
            except ControllerError:
                # A malformed digest: nobody waits for an answer.
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
                "snapshot_seconds": report.snapshot_seconds,
                "table_update_seconds": report.table_update_seconds,
                "reallocated": report.reallocated_fids,
            }
        )
        if not report.success:
            (failure,) = wire.allocation_replies(self.controller, report, request)
            self.loop.schedule(PLANNING_S, self.network.inject, failure)
            return

        device = self.controller.device
        impacted = report.reallocated_fids
        t_reactivate = PLANNING_S + report.table_update_seconds + report.snapshot_seconds
        # Phase 2: the commit left everyone active; re-impose the
        # deactivation window the protocol actually spends.
        for other in impacted:
            device.deactivate_fid(other)
        device.deactivate_fid(fid)  # newcomer waits for its response

        # Phase 3-5 are serialized; the visible disruption for the
        # incumbents spans [PLANNING_S, t_reactivate].
        self.loop.schedule(t_reactivate, self._reactivate, report, request)

    def _reactivate(self, report: ProvisioningReport, request: ActivePacket) -> None:
        device = self.controller.device
        for other in report.reallocated_fids:
            device.reactivate_fid(other)
        device.reactivate_fid(request.fid)
        # Built now, not at admission: the regions an incumbent is
        # told are the ones it holds when the notice leaves.
        for reply in wire.allocation_replies(self.controller, report, request):
            self.network.inject(reply)
