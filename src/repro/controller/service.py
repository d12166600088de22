"""The admission service: the controller's request front door.

The paper provisions applications one request at a time (~1 s each,
Section 4.3), and so does this service: every request is served on the
caller's thread, in submission order.  What it adds over
:meth:`ActiveRmtController.submit`:

- **groups**: :meth:`AdmissionService.submit_many` admits N requests
  atomically.  The members are planned against one copy-on-write shadow
  of the stage pools (each plan rehearsed so the next sees its grant)
  and committed under one journal, so a mid-group failure rolls them
  all back;
- **a bounded transient-fault re-plan**: a commit that rolled back on a
  transient device fault is re-planned at once, up to
  ``fault_retry_limit`` times (the update engine's
  :class:`~repro.faults.RetryPolicy` already backs off per operation);
- **the commit log**: every admission and withdrawal that lands is
  appended to :attr:`AdmissionService.commit_log`.  Replaying it
  serially on a fresh controller reproduces the pools byte for byte
  (:func:`replay_commit_log`), which is what failover recovery and the
  scenario checks rest on.

A lone admission plans on the live allocator (``plan()`` is pure) and
commits through :meth:`~ActiveRmtController.commit_plan`, whose
``basis_version`` guard still refuses a plan made against another
version.  Nothing else mutates the allocator between the two, so a
:class:`~repro.core.transactions.StalePlanError` here is a bug and
propagates.  How much the switch-side work of concurrent admissions
would overlap is modeled from the reports
(:func:`repro.experiments.common.windowed_seconds`), not slept through.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.controller.controller import (
    ActiveRmtController,
    ProvisioningReport,
    ProvisioningRequest,
    ProvisioningStatus,
    RequestKind,
)
from repro.core.allocator import ActiveRmtAllocator, AllocationError
from repro.core.constraints import AccessPattern
from repro.core.transactions import AllocationPlan
from repro.telemetry import AnyTracer, LATENCY_BUCKETS_S, MetricsRegistry
from repro.telemetry.tracing import Span


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


#: One committed control-plane operation, in commit order: ("admit", fid)
#: or ("withdraw", fid).
CommitLogEntry = Tuple[str, int]


def _refusal(request: ProvisioningRequest, reason: str) -> ProvisioningReport:
    """The report of a request the service itself turns away."""
    fid = request.fid if request.fid is not None else -1
    return ProvisioningReport(fid=fid, success=False, reason=reason)


class AdmissionService:
    """Front door to one controller: requests, groups and the commit log.

    Args:
        controller: the controller this service owns.
        workers: must be 0, the only mode there is: every request is
            served inline on the caller's thread.
        fault_retry_limit: how many times one admission (or group) is
            re-planned after its commit rolled back on a *transient*
            device fault.  Permanent faults are never re-tried.
        telemetry: metrics registry; defaults to the controller's.
        tracer: span tracer; defaults to the controller's, so the
            request spans opened here parent the controller's
            plan/commit/journal spans into one tree per request.
    """

    def __init__(
        self,
        controller: ActiveRmtController,
        workers: int = 0,
        fault_retry_limit: int = 2,
        telemetry: Optional[MetricsRegistry] = None,
        tracer: Optional[AnyTracer] = None,
    ) -> None:
        if workers != 0:
            raise ValueError("the admission service runs inline: workers must be 0")
        self.controller = controller
        self.fault_retry_limit = fault_retry_limit
        self.telemetry = telemetry if telemetry is not None else controller.telemetry
        self.tracer = tracer if tracer is not None else controller.tracer
        #: Committed operations in commit order: replaying them serially
        #: reproduces the pools (:func:`replay_commit_log`).
        self.commit_log: List[CommitLogEntry] = []

    def settings(self) -> Dict[str, Any]:
        """The constructor keywords this service was built with: what the
        one fronting a recovered controller is given."""
        return {
            "fault_retry_limit": self.fault_retry_limit,
            "telemetry": self.telemetry,
            "tracer": self.tracer,
        }

    # ------------------------------------------------------------------
    # The request API
    # ------------------------------------------------------------------

    def submit(self, request: ProvisioningRequest) -> ProvisioningReport:
        """Serve one :class:`ProvisioningRequest`; returns its report."""
        span = self.tracer.start(
            "admission.request",
            fid=request.fid if request.fid is not None else -1,
            kind=request.kind.value,
        )
        return self._serve((request,), span)[0]

    def submit_and_wait(self, request: ProvisioningRequest) -> ProvisioningReport:
        """:meth:`submit` under the name the wire-driven callers use."""
        return self.submit(request)

    def submit_many(self, requests: Sequence[ProvisioningRequest]) -> BatchReport:
        """Admit an atomic group (single shadow, single journal).

        Every request must be a non-dry-run admission.  The group
        either commits in full or leaves no trace: an infeasible member
        rejects the whole group before any state is touched, and a
        mid-batch switch-side failure rolls every member back.
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
        span = self.tracer.start("admission.batch", fids=fids, size=len(fids))
        reports = self._serve(tuple(requests), span)
        return BatchReport(reports, reports[0].status)

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def _serve(
        self, requests: Tuple[ProvisioningRequest, ...], span: Span
    ) -> List[ProvisioningReport]:
        """Process *requests* under their root *span*, one report each.

        The reports all carry the same status (a group is admitted,
        refused or rolled back as a whole), so the first one's is the
        span's.
        """
        started = time.perf_counter()
        try:
            reports = self._process(requests, span)
        except BaseException as exc:
            span.set(error=f"{type(exc).__name__}: {exc}")
            self.tracer.finish(span)
            raise
        if self.telemetry.enabled:
            self.telemetry.histogram(
                "admission_latency_seconds",
                buckets=LATENCY_BUCKETS_S,
                help="Submit-to-report latency through the service",
            ).observe(time.perf_counter() - started)
        status = reports[0].status
        assert status is not None
        span.set(status=status.value)
        self.tracer.finish(span)
        return reports

    def _process(
        self, requests: Tuple[ProvisioningRequest, ...], span: Span
    ) -> List[ProvisioningReport]:
        """Admissions take :meth:`_admit`; a what-if plans on the live
        allocator; a withdrawal goes to the controller.  Every admission
        or withdrawal that lands is appended to :attr:`commit_log`.
        """
        request = requests[0]
        if request.kind is RequestKind.ADMIT and not request.dry_run:
            # Every group is made of these (submit_many checks).
            return self._admit(requests, span)
        if request.kind is RequestKind.ADMIT:
            plan = self.controller.allocator.plan(request.fid, request.pattern, ctx=span)
            return [self.controller.report_dry_run(plan)]
        report = self.controller.submit(request, ctx=span)
        if report.success:
            self.commit_log.append(("withdraw", request.fid))
        return [report]

    def _admit(
        self, requests: Tuple[ProvisioningRequest, ...], span: Span
    ) -> List[ProvisioningReport]:
        """Plan, commit, and re-plan after a transient-fault rollback.

        One loop for every group size.  The controller's one admission
        commit, :meth:`~ActiveRmtController.commit_plan`, lands the whole
        group or none of it: every member's report carries the group's
        outcome, so the first speaks for all below.
        """
        label = {"fid": requests[0].fid} if len(requests) == 1 else {"size": len(requests)}
        tracer = self.tracer
        attempt = 0
        while True:
            attempt += 1
            # Per-attempt span, nested under the request's root span, so
            # a re-planned request stays one trace tree.
            attempt_span = tracer.start(
                "admission.attempt", parent=span, attempt=attempt, **label
            )
            try:
                try:
                    plans = self._plan(requests, attempt_span)
                except AllocationError as exc:
                    # The caller submitted a resident fid: a rejection,
                    # not an error.  The reason names the offender.
                    return [_refusal(request, str(exc)) for request in requests]
                reports = self.controller.commit_plan(
                    plans, [request.program for request in requests], attempt_span
                )
            finally:
                tracer.finish(attempt_span)
            first = reports[0]
            if first.success:
                self.commit_log.extend(("admit", request.fid) for request in requests)
            elif (
                first.rolled_back
                and first.fault == "transient"
                and not self.controller.device_failed
                and attempt <= self.fault_retry_limit
            ):
                # The commit rolled back cleanly because the engine's
                # per-operation retries lost to a transient fault.  The
                # state is byte-identical to pre-commit, so the request
                # is safe to re-plan -- bounded, so a persistently sick
                # device eventually surfaces as ROLLED_BACK.
                if self.telemetry.enabled:
                    self.telemetry.counter(
                        "admission_fault_retries_total",
                        help="Admissions re-planned after a transient-fault rollback",
                    ).inc()
                continue
            return reports

    def _plan(
        self, requests: Tuple[ProvisioningRequest, ...], ctx: Span
    ) -> List[AllocationPlan]:
        """One plan per member.  A lone admission plans on the live
        allocator; a group plans on one shadow, each feasible member
        rehearsed onto it so the next member's plan sees its grant (the
        plans themselves stay PENDING for the real commit)."""
        allocator = self.controller.allocator
        if len(requests) == 1:
            (request,) = requests
            return [allocator.plan(request.fid, request.pattern, ctx=ctx)]
        shadow = allocator.shadow()
        plans: List[AllocationPlan] = []
        for request in requests:
            if plans and plans[-1].feasible:
                shadow.rehearse(plans[-1])
            plans.append(shadow.plan(request.fid, request.pattern, ctx=ctx))
        return plans


# ----------------------------------------------------------------------
# The commit-log witness
# ----------------------------------------------------------------------


def replay_commit_log(
    log: Sequence[CommitLogEntry],
    patterns: Dict[int, AccessPattern],
    controller: ActiveRmtController,
) -> None:
    """Replay a commit log serially onto a fresh *controller*.

    The logged run's pools must end byte-identical to this replay: every
    commit was validated against the exact allocator version it applied
    to, so the run *is* the serial execution of its commit log.
    """
    for kind, fid in log:
        if kind == "admit":
            report = controller.admit(fid=fid, pattern=patterns[fid])
            if not report.success:
                raise AssertionError(
                    f"serial replay rejected fid {fid} admitted in the run: "
                    f"{report.reason}"
                )
        elif kind == "withdraw":
            controller.withdraw(fid=fid)
        else:
            raise ValueError(f"unknown commit-log entry kind {kind!r}")


def pools_fingerprint(allocator: ActiveRmtAllocator) -> tuple:
    """Byte-identity fingerprint of every stage pool's population/layout."""
    return tuple(
        (stage, pool.export_residents(), tuple(sorted(pool.layout().items())))
        for stage, pool in sorted(allocator.pools.items())
    )
