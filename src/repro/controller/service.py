"""The admission service: the controller's request front door.

The paper provisions applications one request at a time (~1 s each,
Section 4.3), and so does this service: every request is served on the
caller's thread, in submission order.  :meth:`AdmissionService.submit`
is :meth:`ActiveRmtController.submit` inside an ``admission.request``
span and the service's latency histogram.  What the service adds is
**groups**: :meth:`AdmissionService.submit_many` admits N requests
atomically.  The members are planned against one copy-on-write shadow
of the stage pools (each plan rehearsed so the next sees its grant) and
committed under one journal by
:meth:`~ActiveRmtController.commit_plan`, so a mid-group failure rolls
them all back.

Transient device faults are retried in one place, per operation, by the
update engine's :class:`~repro.faults.RetryPolicy`; a commit whose
retries ran out comes back ``ROLLED_BACK`` with ``fault="transient"``.
The commit log is the controller's
(:attr:`~ActiveRmtController.commit_log`): :attr:`AdmissionService.commit_log`
reads it.  How much the switch-side work of concurrent admissions
would overlap is modeled from the reports
(:func:`repro.experiments.common.windowed_seconds`), not slept through.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Sequence

from repro.controller.controller import ActiveRmtController
from repro.controller.requests import (
    CommitLogEntry,
    ProvisioningReport,
    ProvisioningRequest,
    ProvisioningStatus,
    RequestKind,
)
from repro.core.allocator import ActiveRmtAllocator, AllocationError
from repro.core.transactions import AllocationPlan
from repro.telemetry import Histogram


class AdmissionServiceError(Exception):
    """Raised on service misuse (a malformed group)."""


@dataclasses.dataclass
class BatchReport:
    """Outcome of one atomic admission group.

    ``status`` summarizes the group: ``ADMITTED`` only when every
    member committed; ``ROLLED_BACK`` when a mid-batch switch-side
    failure undid the whole group; ``REJECTED`` when a member was
    infeasible (nothing was touched).
    """

    reports: List[ProvisioningReport]
    status: ProvisioningStatus

    @property
    def success(self) -> bool:
        return self.status is ProvisioningStatus.ADMITTED


class AdmissionService:
    """Front door to one controller: requests and atomic groups.

    Args:
        controller: the controller this service owns.
        workers: must be 0, the only mode there is: every request is
            served inline on the caller's thread.

    The service registers with its controller's registry and opens its
    request spans on its controller's tracer, so they hold the
    controller's plan/commit/journal spans: one tree per request.
    """

    def __init__(self, controller: ActiveRmtController, workers: int = 0) -> None:
        if workers != 0:
            raise ValueError("the admission service runs inline: workers must be 0")
        self.controller = controller
        self.telemetry = controller.telemetry
        self.tracer = controller.tracer
        #: Submit-to-report wall time of each served request or group.
        self.latency_seconds = Histogram()
        self.telemetry.register(self)

    def metrics(self) -> Dict[str, object]:
        return {"admission_latency_seconds": self.latency_seconds}

    @property
    def commit_log(self) -> List[CommitLogEntry]:
        """The controller's commit log (read it, do not append)."""
        return self.controller.commit_log

    # ------------------------------------------------------------------
    # The request API
    # ------------------------------------------------------------------

    def submit(self, request: ProvisioningRequest) -> ProvisioningReport:
        """Serve one :class:`ProvisioningRequest`; returns its report."""
        with self.tracer.span("admission.request", fid=request.fid, kind=request.kind.value) as span:
            started = time.perf_counter()
            report = self.controller.submit(request)
            self._served(span, started, report)
            return report

    def submit_and_wait(self, request: ProvisioningRequest) -> ProvisioningReport:
        """:meth:`submit` under the name the wire-driven callers use."""
        return self.submit(request)

    def submit_many(self, requests: Sequence[ProvisioningRequest]) -> BatchReport:
        """Admit an atomic group (single shadow, single journal).

        Every request must be a non-dry-run admission.  The group
        either commits in full or leaves no trace: an infeasible member
        rejects the whole group before any state is touched, and a
        mid-batch switch-side failure rolls every member back.  A
        resident fid in the group rejects it, naming the offender.
        """
        if not requests:
            raise AdmissionServiceError("submit_many() needs at least one request")
        for request in requests:
            if request.kind is not RequestKind.ADMIT or request.dry_run:
                raise AdmissionServiceError(
                    "batched submission accepts only non-dry-run admissions"
                )
        fids = [request.fid for request in requests]
        if len(set(fids)) != len(fids):
            raise AdmissionServiceError(f"duplicate fids in batch: {sorted(fids)}")
        with self.tracer.span("admission.batch", fids=fids, size=len(fids)) as span:
            started = time.perf_counter()
            reports = self._admit_group(requests)
            # Every member carries the group's outcome.
            self._served(span, started, reports[0])
            return BatchReport(reports, reports[0].status)

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def _served(self, span: Any, started: float, report: ProvisioningReport) -> None:
        """Record a served request's latency and status on its root span."""
        self.latency_seconds.observe(time.perf_counter() - started)
        span.set(status=report.status.value)

    def _admit_group(self, requests: Sequence[ProvisioningRequest]) -> List[ProvisioningReport]:
        """Plan every member on one shadow, then commit them together.

        Each feasible member is rehearsed onto the shadow so the next
        member's plan sees its grant (the plans themselves stay PENDING
        for the real commit); :meth:`~ActiveRmtController.commit_plan`
        lands the whole group or none of it.
        """
        shadow = self.controller.allocator.shadow()
        plans: List[AllocationPlan] = []
        try:
            for request in requests:
                if plans and plans[-1].feasible:
                    shadow.rehearse(plans[-1])
                plans.append(shadow.plan(request.fid, request.pattern))
        except AllocationError as exc:
            # A resident fid: a rejection of the group, not an error.
            return [ProvisioningReport.rejected(request.fid, str(exc)) for request in requests]
        return self.controller.commit_plan(plans, [request.program for request in requests])


def pools_fingerprint(allocator: ActiveRmtAllocator) -> tuple:
    """Byte-identity fingerprint of every stage pool's population/layout."""
    return tuple(
        (stage, pool.export_residents(), tuple(sorted(pool.layout().items())))
        for stage, pool in sorted(allocator.pools.items())
    )
