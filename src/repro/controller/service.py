"""Concurrent admission: a queued, optimistic plan/commit control plane.

The paper provisions applications one request at a time (~1 s each);
this module is the control plane that survives churn from thousands of
tenants.  The RBFRT line of work shows runtime control planes win an
order of magnitude through batched, concurrent updates -- and PR 3's
split of the allocator into a pure planner plus a version-stamped
committer was built for exactly the architecture implemented here:

- a **bounded request queue** feeds N planner workers; a full queue
  sheds new requests immediately with a retry-after hint,
- workers **speculatively plan in parallel** against copy-on-write
  shadows of the stage pools (:meth:`ActiveRmtAllocator.shadow`),
- only the short **commit path is serialized**; a commit whose basis
  version moved on raises :class:`StalePlanError` and the worker
  re-plans with jittered exponential backoff,
- retries are **bounded by per-request deadlines**: a request past its
  deadline is shed gracefully -- a :class:`ProvisioningReport` with
  status ``SHED`` and a ``retry_after_s`` hint, never an exception,
- a ticket is a **group of N admissions, N = 1 the common case**
  (:meth:`AdmissionService.submit` queues a lone request, ``submit_many``
  an atomic group) and one loop serves every N: the members are planned
  against one shadow (each plan rehearsed so the next sees its grant) and
  committed under one journal, so a mid-group failure rolls them all back.

Every successful commit is appended to :attr:`AdmissionService.commit_log`
under the commit lock, giving the serialization-order witness: replaying
the log serially on a fresh controller must reproduce the concurrent
run's pool state byte for byte (:func:`replay_commit_log`).
"""

from __future__ import annotations

import collections
import dataclasses
import math
import random
import threading
import time
from typing import Any, Callable, Deque, Dict, Generic, List, Optional
from typing import Sequence, Tuple, TypeVar

from repro.controller.controller import (
    ActiveRmtController,
    ProvisioningReport,
    ProvisioningRequest,
    ProvisioningStatus,
    RequestKind,
)
from repro.core.allocator import ActiveRmtAllocator, AllocationError
from repro.core.constraints import AccessPattern
from repro.core.transactions import AllocationPlan, StalePlanError
from repro.telemetry import AnyTracer, LATENCY_BUCKETS_S, MetricsRegistry
from repro.telemetry.tracing import Span


class AdmissionServiceError(Exception):
    """Raised on service misuse (submit after close, bad batch)."""


@dataclasses.dataclass(frozen=True)
class BackoffPolicy:
    """Jittered exponential backoff between optimistic re-plans.

    Delay for attempt *k* (1-based) is ``base_s * multiplier**(k-1)``
    capped at ``cap_s``, then scaled by a uniform factor in
    ``[1 - jitter, 1]`` so colliding workers decorrelate.
    """

    base_s: float = 2e-4
    multiplier: float = 2.0
    cap_s: float = 2e-2
    jitter: float = 0.5

    def delay(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.cap_s, self.base_s * self.multiplier ** max(0, attempt - 1))
        if self.jitter <= 0:
            return raw
        return raw * (1.0 - self.jitter * rng.random())


@dataclasses.dataclass
class BatchReport:
    """Outcome of one atomic admission group.

    ``status`` summarizes the group: ``ADMITTED`` only when every
    member committed; ``ROLLED_BACK`` when a mid-batch switch-side
    failure undid the whole group; ``REJECTED`` when a member was
    infeasible (nothing was touched); ``SHED`` when the group missed
    its deadline or the queue was full.
    """

    reports: List[ProvisioningReport]
    status: ProvisioningStatus
    retry_after_s: float = 0.0

    @property
    def success(self) -> bool:
        return self.status is ProvisioningStatus.ADMITTED


#: What a ticket resolves to: a lone request's report, or a group's.
R = TypeVar("R", ProvisioningReport, BatchReport)


class AdmissionTicket(Generic[R]):
    """Handle on one queued group of requests, N = 1 the common case.

    A lone ticket (:meth:`AdmissionService.submit`) resolves to its
    request's :class:`ProvisioningReport`; a *grouped* one
    (:meth:`AdmissionService.submit_many`, whatever its size) resolves
    to a :class:`BatchReport`.
    """

    def __init__(
        self,
        requests: Tuple[ProvisioningRequest, ...],
        submitted_at: float,
        deadline: float,
        span: Span,
        grouped: bool = False,
    ) -> None:
        self.requests = requests
        self.submitted_at = submitted_at
        self.deadline = deadline
        self.resolved_at: Optional[float] = None
        #: Root span of this ticket's trace (the inert ``NULL_SPAN``
        #: when tracing is off).
        self.span = span
        self.grouped = grouped
        self._event = threading.Event()
        self._report: Optional[R] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> R:
        """Block until the ticket resolves; re-raises worker errors."""
        if not self._event.wait(timeout):
            raise TimeoutError("admission ticket not resolved in time")
        if self._error is not None:
            raise self._error
        assert self._report is not None
        return self._report


#: One committed control-plane operation, in commit order: ("admit", fid)
#: or ("withdraw", fid).
CommitLogEntry = Tuple[str, int]


def _refusal(
    request: ProvisioningRequest, reason: str, **outcome: Any
) -> ProvisioningReport:
    """The report of a request the service itself turns away."""
    fid = request.fid if request.fid is not None else -1
    return ProvisioningReport(fid=fid, success=False, reason=reason, **outcome)


class AdmissionService:
    """Queued, optimistic, concurrency-safe front door to the controller.

    Args:
        controller: the (single-threaded) controller this service owns.
            All mutation of it happens under the service's commit lock.
        workers: planner worker threads.  ``0`` runs the same pipeline
            inline on the submitting thread (no queue, no shedding by
            queue pressure) -- what the discrete-event simulations use.
        queue_limit: bound on queued requests; submissions beyond it
            are shed immediately with a retry-after hint.
        default_deadline_s: deadline applied when ``submit`` is not
            given one (None = no deadline; requests never expire).
        backoff: re-plan backoff policy (jittered exponential).
        retry_after_s: the hint placed on shed responses.
        pacing: fraction of each report's *modeled* duration the worker
            dwells (real ``sleep``) after commit, outside the commit
            lock -- stands in for waiting out the switch RPCs and
            client snapshots a hardware deployment overlaps across
            concurrent admissions.  0 (default) disables dwelling.
        clock/sleep: injectable time sources for deterministic tests.
        seed: seeds the backoff jitter.
        telemetry: metrics registry; defaults to the controller's.
        tracer: span tracer; defaults to the controller's, so the
            request spans opened here parent the controller's
            plan/commit/journal spans into one tree per request.
    """

    def __init__(
        self,
        controller: ActiveRmtController,
        workers: int = 4,
        queue_limit: int = 256,
        default_deadline_s: Optional[float] = None,
        backoff: Optional[BackoffPolicy] = None,
        retry_after_s: float = 0.05,
        fault_retry_limit: int = 2,
        pacing: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        seed: int = 0,
        telemetry: Optional[MetricsRegistry] = None,
        tracer: Optional[AnyTracer] = None,
        autostart: bool = True,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.controller = controller
        self.workers = workers
        self.queue_limit = queue_limit
        self.default_deadline_s = default_deadline_s
        self.backoff = backoff or BackoffPolicy()
        self.retry_after_s = retry_after_s
        #: How many times one admission is re-planned after a commit
        #: rolled back on a *transient* device fault (the engine's
        #: per-operation retries already ran and lost).  Permanent
        #: faults are never re-tried here -- the device is dead.
        self.fault_retry_limit = fault_retry_limit
        self.pacing = pacing
        self._clock = clock
        self._sleep = sleep
        self.seed = seed
        self._rng = random.Random(seed)
        self.telemetry = telemetry if telemetry is not None else controller.telemetry
        self.tracer = tracer if tracer is not None else controller.tracer
        #: Committed operations in serialization order (under the
        #: commit lock): the witness order for the linearizability
        #: property -- replaying it serially reproduces the pools.
        self.commit_log: List[CommitLogEntry] = []
        self._queue: Deque[AdmissionTicket[Any]] = collections.deque()
        self._cv = threading.Condition()
        self._commit_lock = threading.Lock()
        self._outstanding = 0
        self._closed = False
        self._threads: List[threading.Thread] = []
        if workers > 0 and autostart:
            self.start()

    def settings(self) -> Dict[str, Any]:
        """Every constructor keyword but ``autostart``, as this service was
        built: what the one fronting a recovered controller is given."""
        return {
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "default_deadline_s": self.default_deadline_s,
            "backoff": self.backoff,
            "retry_after_s": self.retry_after_s,
            "fault_retry_limit": self.fault_retry_limit,
            "pacing": self.pacing,
            "clock": self._clock,
            "sleep": self._sleep,
            "seed": self.seed,
            "telemetry": self.telemetry,
            "tracer": self.tracer,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn the planner workers (idempotent)."""
        if self._threads:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"admission-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; optionally wait for workers to exit.

        Queued requests are still drained before the workers stop.
        """
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "AdmissionService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def queue_depth(self) -> int:
        with self._cv:
            return len(self._queue)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted request has resolved."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while self._outstanding > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cv.wait(remaining)
        return True

    # ------------------------------------------------------------------
    # The unified request API
    # ------------------------------------------------------------------

    def submit(
        self,
        request: ProvisioningRequest,
        deadline_s: Optional[float] = None,
    ) -> AdmissionTicket[ProvisioningReport]:
        """Queue one :class:`ProvisioningRequest`; returns its ticket.

        Never raises for load: a full queue resolves the ticket
        immediately with a ``SHED`` report carrying ``retry_after_s``.
        """
        span = self.tracer.start(
            "admission.request",
            fid=request.fid if request.fid is not None else -1,
            kind=request.kind.value,
        )
        return self._enqueue((request,), deadline_s, span)

    def submit_and_wait(
        self,
        request: ProvisioningRequest,
        deadline_s: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> ProvisioningReport:
        """Convenience: submit and block for the report."""
        return self.submit(request, deadline_s=deadline_s).result(timeout)

    def submit_many(
        self,
        requests: Sequence[ProvisioningRequest],
        deadline_s: Optional[float] = None,
    ) -> AdmissionTicket[BatchReport]:
        """Queue an atomic admission group (single shadow, single journal).

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
        return self._enqueue(tuple(requests), deadline_s, span, grouped=True)

    # ------------------------------------------------------------------
    # Queueing
    # ------------------------------------------------------------------

    def _enqueue(
        self,
        requests: Tuple[ProvisioningRequest, ...],
        deadline_s: Optional[float],
        span: Span,
        grouped: bool = False,
    ) -> AdmissionTicket[Any]:
        """Stamp a ticket for *requests*; queue it, or run it inline."""
        now = self._clock()
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        deadline = math.inf if deadline_s is None else now + deadline_s
        ticket = AdmissionTicket(requests, now, deadline, span, grouped)
        with self._cv:
            if self._closed:
                raise AdmissionServiceError("admission service is closed")
            if self.workers > 0:
                if len(self._queue) >= self.queue_limit:
                    self.tracer.anomaly("shed", span, cause="queue_full")
                    # Never entered the outstanding count: counted=False.
                    self._shed(
                        ticket, "queue_full", "admission queue full", counted=False
                    )
                else:
                    self._outstanding += 1
                    self._queue.append(ticket)
                    self._gauge_depth(len(self._queue))
                    self._cv.notify()
                return ticket
            self._outstanding += 1
        try:
            self._process(ticket)
        except BaseException as exc:  # propagate through the ticket
            self._fail(ticket, exc)
            raise
        return ticket

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if not self._queue:
                    return  # closed and drained
                ticket = self._queue.popleft()
                self._gauge_depth(len(self._queue))
            try:
                self._process(ticket)
            except BaseException as exc:
                self._fail(ticket, exc)

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def _process(self, ticket: AdmissionTicket[Any]) -> None:
        """Serve one ticket: admissions take :meth:`_admit`, a what-if
        probe plans on a shadow, a withdrawal runs under the commit lock.
        Every admission or withdrawal that lands (wire ones included) is
        appended to :attr:`commit_log`.
        """
        request = ticket.requests[0]
        if request.kind is RequestKind.ADMIT and not request.dry_run:
            # Every group is made of these (submit_many checks).
            self._admit(ticket)
            return
        if self._past_deadline(ticket):
            return
        if request.kind is RequestKind.ADMIT:
            # What-if probes plan against a shadow -- no lock held
            # during the search, nothing to commit afterwards.
            shadow = self._snapshot_shadow()
            plan = shadow.plan(request.fid, request.pattern, ctx=ticket.span)
            self._resolve(ticket, (self.controller.report_dry_run(plan),))
            return
        # Withdrawals mutate for sure: serialize the whole request on
        # the commit path (they are short).
        with self._commit_lock:
            report = self.controller.submit(request, ctx=ticket.span)
            if report.success:
                self.commit_log.append(("withdraw", request.fid))
        self._resolve(ticket, (report,))

    def _admit(self, ticket: AdmissionTicket[Any]) -> None:
        """The optimistic loop: shadow-plan, commit, re-plan on conflict.

        One loop for every group size.  The members are planned against
        one shadow and committed under the lock by one controller call
        (``commit_plan`` for a lone plan, ``commit_batch`` for more --
        the same ``_commit`` behind both), which lands the whole group
        or none of it: every member's report carries the group's
        outcome, so the first speaks for all below.
        """
        requests = ticket.requests
        lone = len(requests) == 1
        label = {"fid": requests[0].fid} if lone else {"size": len(requests)}
        tracer = self.tracer
        attempt = 0
        fault_retries = 0
        while True:
            if self._past_deadline(ticket):
                return
            # Per-attempt span, nested under the ticket's root span so
            # every retry of one request stays inside one trace tree
            # even when successive attempts run on different threads.
            attempt_span = tracer.start(
                "admission.attempt", parent=ticket.span, attempt=attempt + 1, **label
            )
            try:
                shadow = self._snapshot_shadow()
                plans: List[AllocationPlan] = []
                try:
                    for request in requests:
                        if plans and plans[-1].feasible:
                            # Rehearse onto the shadow so this member's
                            # plan sees the previous grant; the plan
                            # itself stays PENDING for the real commit.
                            shadow.rehearse(plans[-1])
                        plans.append(
                            shadow.plan(request.fid, request.pattern, ctx=attempt_span)
                        )
                except AllocationError as exc:
                    # A rival admission of the same fid won the race (or
                    # the caller re-submitted a resident fid): a
                    # rejection, not an error -- the service must stay
                    # up under misuse.  The reason names the offender.
                    refusals = [_refusal(request, str(exc)) for request in requests]
                    self._resolve(ticket, refusals)
                    return
                try:
                    with self._commit_lock:
                        if lone:
                            report = self.controller.commit_plan(
                                plans[0], program=requests[0].program, ctx=attempt_span
                            )
                            reports = (report,)
                        else:
                            programs = [request.program for request in requests]
                            reports = self.controller.commit_batch(
                                plans, programs, ctx=attempt_span
                            )
                        if reports[0].success:
                            for request in requests:
                                self.commit_log.append(("admit", request.fid))
                except StalePlanError as exc:
                    attempt_span.set(stale=True, error=f"StalePlanError: {exc}")
                    attempt += 1
                    recorder = tracer.recorder
                    if recorder is not None and attempt == recorder.retry_threshold:
                        # A retry storm: the ticket keeps losing races.
                        tracer.anomaly("stale_retries", ticket.span, attempts=attempt)
                    if not self._backoff(ticket, attempt):
                        return  # deadline hit while backing off: shed
                    continue
            finally:
                tracer.finish(attempt_span)
            first = reports[0]
            if (
                first.rolled_back
                and first.fault == "transient"
                and not self.controller.device_failed
                and fault_retries < self.fault_retry_limit
            ):
                # The commit rolled back cleanly because the engine's
                # per-operation retries lost to a transient fault.  The
                # state is byte-identical to pre-commit, so the ticket
                # is safe to re-plan -- bounded, so a persistently sick
                # device eventually surfaces as ROLLED_BACK.
                fault_retries += 1
                attempt += 1
                self._count(
                    "admission_fault_retries_total",
                    "Admissions re-planned after a transient-fault rollback",
                )
                if not self._backoff(ticket, attempt):
                    return  # deadline hit while backing off: shed
                continue
            if self.pacing > 0:
                # Model waiting out the switch-side work, outside the lock.
                dwell = self.pacing * sum(r.total_seconds for r in reports)
                if dwell > 0:
                    self._sleep(dwell)
            self._resolve(ticket, reports)
            return

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _snapshot_shadow(self) -> ActiveRmtAllocator:
        """Clone the pools under the commit lock; plan outside it."""
        with self._commit_lock:
            return self.controller.allocator.shadow()

    def snapshot_shadow(self) -> ActiveRmtAllocator:
        """Consistent copy-on-write clone of the allocator's pools.

        Public form of the workers' shadow snapshot: taken under the
        commit lock, so readers that inspect load or probe feasibility
        (the fabric's placement policies) never race a commit.  The
        clone is the caller's to mutate; nothing links back.
        """
        return self._snapshot_shadow()

    def _backoff(self, ticket: AdmissionTicket[Any], attempt: int) -> bool:
        """Count the conflict, sleep the jittered delay; False = shed."""
        self._count("admission_commit_conflicts_total",
                    "Optimistic commits refused because the plan went stale")
        delay = self.backoff.delay(attempt, self._rng)
        remaining = ticket.deadline - self._clock()
        if remaining > 0:
            self._count("admission_plan_retries_total",
                        "Re-plans after a stale-plan commit rejection")
            self._sleep(min(delay, remaining))
        return not self._past_deadline(ticket)

    def _past_deadline(self, ticket: AdmissionTicket[Any]) -> bool:
        """Shed the ticket if its deadline has passed."""
        if self._clock() < ticket.deadline:
            return False
        self.tracer.anomaly("deadline", ticket.span, deadline=ticket.deadline)
        self._shed(ticket, "deadline", "deadline exceeded")
        return True

    def _shed(
        self,
        ticket: AdmissionTicket[Any],
        cause: str,
        reason: str,
        counted: bool = True,
    ) -> None:
        """Resolve every member ``SHED``: retry later, not an error."""
        self._count(
            "admission_shed_total",
            "Requests shed gracefully (retry-after response, not an error)",
            reason=cause,
        )
        self._resolve(
            ticket,
            [
                _refusal(
                    request,
                    reason,
                    status=ProvisioningStatus.SHED,
                    retry_after_s=self.retry_after_s,
                )
                for request in ticket.requests
            ],
            counted=counted,
        )

    def _resolve(
        self,
        ticket: AdmissionTicket[Any],
        reports: Sequence[ProvisioningReport],
        counted: bool = True,
    ) -> None:
        """Hand a lone request its report, a group its :class:`BatchReport`.

        *reports* holds one report per member, all with the same status
        (a ticket is admitted, refused, rolled back or shed as a whole),
        so the first one's is the group's.
        """
        first = reports[0]
        ticket._report = (
            BatchReport(list(reports), first.status, first.retry_after_s)
            if ticket.grouped
            else first
        )
        ticket.resolved_at = self._clock()
        if self.telemetry.enabled:
            with self._cv:
                self.telemetry.histogram(
                    "admission_latency_seconds",
                    buckets=LATENCY_BUCKETS_S,
                    help="Submit-to-resolution latency through the service",
                ).observe(max(0.0, ticket.resolved_at - ticket.submitted_at))
        ticket.span.set(status=first.status.value)
        self._finish(ticket, counted)

    def _fail(self, ticket: AdmissionTicket[Any], error: BaseException) -> None:
        ticket._error = error
        ticket.resolved_at = self._clock()
        ticket.span.set(error=f"{type(error).__name__}: {error}")
        self._finish(ticket)

    def _finish(self, ticket: AdmissionTicket[Any], counted: bool = True) -> None:
        """Close the ticket's trace, wake its waiters, leave the count."""
        self.tracer.finish(ticket.span)
        ticket._event.set()
        if counted:
            with self._cv:
                if self._outstanding > 0:
                    self._outstanding -= 1
                self._cv.notify_all()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _count(self, name: str, help_text: str, **labels: str) -> None:
        if self.telemetry.enabled:
            with self._cv:
                self.telemetry.counter(name, help=help_text, **labels).inc()

    def _gauge_depth(self, depth: int) -> None:
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "admission_queue_depth",
                help="Requests waiting in the admission queue",
            ).set(depth)


# ----------------------------------------------------------------------
# Linearization witness
# ----------------------------------------------------------------------


def replay_commit_log(
    log: Sequence[CommitLogEntry],
    patterns: Dict[int, AccessPattern],
    controller: ActiveRmtController,
) -> None:
    """Replay a commit log serially onto a fresh *controller*.

    The concurrent run's pools must end byte-identical to this serial
    replay (the service's linearizability contract): every commit was
    validated against the exact allocator version it applied to, so the
    interleaved execution *is* the serial execution of its commit log.
    """
    for kind, fid in log:
        if kind == "admit":
            report = controller.admit(fid=fid, pattern=patterns[fid])
            if not report.success:
                raise AssertionError(
                    f"serial replay rejected fid {fid} admitted concurrently: "
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
