"""The ActiveRMT controller: admission, reallocation, and responses.

All control-plane work funnels through one entry point,
:meth:`ActiveRmtController.submit`, which takes a
:class:`ProvisioningRequest` -- an admission or a withdrawal -- and
returns a :class:`ProvisioningReport`.  Two usage styles sit on top:

- **Synchronous control-plane API** (`admit`/`withdraw`): used by the
  allocation experiments (Figures 5-8a, 11, 12).  All data-plane and
  client-side durations are *modeled* and reported in the
  :class:`ProvisioningReport`.
- **The Section 4.3 wire protocol**: a digested ``ALLOC_REQUEST`` is
  an admission, a ``DEALLOCATE`` digest a withdrawal.  One decoder,
  :meth:`~ActiveRmtController.serve_digest`, serves both clocks:
  `process_pending` sends the replies at once, the simulations'
  :class:`~repro.sim.provisioner.SimProvisioner` after the modeled
  deactivation window (Figures 9-10).

Every admission -- through `submit`, or a pre-computed plan through
`commit_plan` / `commit_batch` -- is committed by one method,
:meth:`ActiveRmtController._commit`: a batch of N plans under one
journal, N=1 being the common case.  A withdrawal is the same
transaction without a plan (`_do_withdraw`): both apply through
`_apply_layout` and, when the switch refuses, unwind through `_unwind`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime import
    from repro.client.compiler import CompileOptions

from repro.analysis.findings import (
    AnalysisReport,
    Finding,
    Severity,
    VerifyMode,
    record_report,
)
from repro.analysis.invariants import audit_state, record_audit
from repro.analysis.isolation import (
    IsolationCertificate,
    certify_all,
    certify_plan,
    record_certificate,
)
from repro.analysis.verifier import verify_plan
from repro.core.allocator import (
    ActiveRmtAllocator,
    AllocationDecision,
    AllocationError,
    ReallocationMap,
)
from repro.core.blocks import BlockRange
from repro.core.constraints import AccessPattern, AllocationPolicy, MOST_CONSTRAINED
from repro.core.schemes import AllocationScheme
from repro.core.transactions import (
    AllocationPlan,
    AllocatorCheckpoint,
    CommitResult,
    StalePlanError,
    TableUpdateJournal,
)
from repro.controller.table_updater import Move, TableUpdateCost, TableUpdateEngine
from repro.device import (
    Device,
    DeviceError,
    PermanentDeviceError,
    as_device,
)
from repro.faults import RetryPolicy
from repro.isa.program import ActiveProgram
from repro.packets.codec import ActivePacket
from repro.packets.ethernet import MacAddress
from repro.packets.headers import AllocationResponseHeader, ControlFlags, PacketType
from repro.switchsim.tables import TcamCapacityError
from repro.telemetry import (
    AnyTracer,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    resolve,
    resolve_tracer,
)
from repro.telemetry.tracing import ParentLike


class ControllerError(Exception):
    """Raised on controller misuse (unknown FID, malformed digest)."""


@dataclasses.dataclass(frozen=True)
class SnapshotCost:
    """Modeled client-side state-extraction durations (Section 4.3).

    Extraction is data-plane paging: one read packet retrieves one word
    per allocated stage, batched; the per-block figure reflects 40-Gbps
    line-rate paging plus retransmission slack.
    """

    per_block_seconds: float = 5.0e-5
    per_app_handshake_seconds: float = 5.0e-3


class RequestKind(enum.Enum):
    """What a :class:`ProvisioningRequest` asks the controller to do."""

    ADMIT = "admit"
    WITHDRAW = "withdraw"


class ProvisioningStatus(enum.Enum):
    """Typed outcome of one provisioning request.

    ``ADMITTED`` doubles as the "withdrawal executed" status; ``SHED``
    is produced only by the admission service when a request is dropped
    (full queue, missed deadline) with a retry-after hint rather than
    an error.
    """

    ADMITTED = "admitted"
    REJECTED = "rejected"
    ROLLED_BACK = "rolled_back"
    SHED = "shed"
    DRY_RUN = "dry_run"


@dataclasses.dataclass(frozen=True)
class ProvisioningRequest:
    """One unit of control-plane work for :meth:`ActiveRmtController.submit`.

    Build instances through the constructors -- they enforce the fields
    each kind requires:

    - :meth:`admission` -- admit *fid* with an access *pattern*; pass
      ``dry_run=True`` for a side-effect-free what-if probe.
    - :meth:`withdrawal` -- release *fid*'s allocation.

    A digested switch packet is decoded into one of these by
    :meth:`ActiveRmtController.serve_digest`.
    """

    kind: RequestKind
    fid: Optional[int] = None
    pattern: Optional[AccessPattern] = None
    #: Plan only -- report what the admission would do without touching
    #: any allocator or switch state.
    dry_run: bool = False
    #: The compact active program behind the admission, when the caller
    #: holds it.  Lets the controller statically verify the mutant being
    #: installed against its granted plan (paper section 5's admission
    #: checks); wire-digested requests carry only the pattern, so there
    #: verification is limited to pattern-level checks.
    program: Optional[ActiveProgram] = None

    @classmethod
    def admission(
        cls,
        fid: int,
        pattern: AccessPattern,
        dry_run: bool = False,
        program: Optional[ActiveProgram] = None,
    ) -> "ProvisioningRequest":
        return cls(
            kind=RequestKind.ADMIT,
            fid=fid,
            pattern=pattern,
            dry_run=dry_run,
            program=program,
        )

    @classmethod
    def withdrawal(cls, fid: int) -> "ProvisioningRequest":
        return cls(kind=RequestKind.WITHDRAW, fid=fid)


@dataclasses.dataclass
class ProvisioningReport:
    """Outcome of one submitted request.

    For admissions this is the timing breakdown of Figure 8a's three
    bands; withdrawals report their table-update time.  The packets
    that answer a wire admission are built from it by
    :meth:`ActiveRmtController.allocation_replies`.
    """

    fid: int
    success: bool
    decision: Optional[AllocationDecision] = None
    reason: str = ""
    compute_seconds: float = 0.0
    table_update_seconds: float = 0.0
    snapshot_seconds: float = 0.0
    #: The plan behind this admission (also set for dry runs, where it
    #: is the entire result).
    plan: Optional[AllocationPlan] = None
    #: True when this was a what-if probe: nothing was mutated.
    dry_run: bool = False
    #: True when the layout change (admission or withdrawal) was
    #: committed and then exactly undone because the switch refused the
    #: table updates (TCAM exhaustion, device fault).
    rolled_back: bool = False
    #: The static verifier's verdict on the mutant being installed
    #: (None when the controller runs with ``verify="off"`` or the
    #: request carried no program).
    verification: Optional[AnalysisReport] = None
    #: The isolation certificate for the plan behind this admission:
    #: every reachable memory access proven in-region or runtime-checked
    #: and region exclusivity against all incumbents (None when the
    #: controller runs with ``verify="off"`` or no plan was produced).
    certificate: Optional[IsolationCertificate] = None
    #: Typed outcome.  Left unset, it is derived from the legacy flags
    #: (``success``/``dry_run``/``rolled_back``) so existing
    #: construction sites stay valid; the admission service sets SHED
    #: explicitly.
    status: Optional[ProvisioningStatus] = None
    #: For SHED outcomes: how long the client should wait before
    #: resubmitting (the graceful-degradation contract -- a shed is an
    #: allocation response, not an error).
    retry_after_s: float = 0.0
    #: What switch-side failure produced this outcome: ``"tcam"``
    #: (capacity rejection), ``"transient"`` (retries exhausted on a
    #: recoverable fault -- the admission service may re-plan and try
    #: again), or ``"device"`` (permanent; the device is dead and the
    #: controller's :attr:`~ActiveRmtController.device_failed` flag is
    #: set).  None for clean outcomes.
    fault: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status is None:
            if self.dry_run:
                self.status = ProvisioningStatus.DRY_RUN
            elif self.rolled_back:
                self.status = ProvisioningStatus.ROLLED_BACK
            elif self.success:
                self.status = ProvisioningStatus.ADMITTED
            else:
                self.status = ProvisioningStatus.REJECTED

    @property
    def shed(self) -> bool:
        """Was this request shed (retry later) rather than decided?"""
        return self.status is ProvisioningStatus.SHED

    @property
    def total_seconds(self) -> float:
        return (
            self.compute_seconds
            + self.table_update_seconds
            + self.snapshot_seconds
        )

    @property
    def reallocated_fids(self) -> List[int]:
        return self.decision.reallocated_fids if self.decision else []


class ActiveRmtController:
    """Controller running on the switch CPU.

    The controller programs against the :class:`~repro.device.Device`
    protocol, never a concrete backend: *switch* may be anything
    :func:`~repro.device.as_device` accepts (a bare
    :class:`~repro.switchsim.switch.ActiveSwitch` is wrapped in a
    :class:`~repro.device.SimDevice` transparently, so historical call
    sites are unchanged).  The adapted device is :attr:`device`; the
    legacy :attr:`switch` attribute remains as a read-only view of the
    backend behind it.
    """

    def __init__(
        self,
        switch: Union[Device, object],
        scheme: AllocationScheme = AllocationScheme.WORST_FIT,
        policy: AllocationPolicy = MOST_CONSTRAINED,
        table_cost: Optional[TableUpdateCost] = None,
        snapshot_cost: Optional[SnapshotCost] = None,
        telemetry: Optional[MetricsRegistry] = None,
        verify: Union["CompileOptions", VerifyMode, str] = VerifyMode.WARN,
        tracer: Optional[AnyTracer] = None,
        sanitizer: bool = False,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.device: Device = as_device(switch)
        self.telemetry = resolve(telemetry)
        self.tracer = resolve_tracer(tracer)
        #: Per-operation retry policy for transient device faults (None
        #: = no retries, historical behavior).
        self.retry = retry
        #: Latched when a permanent device fault is observed (commit,
        #: rollback, or withdrawal).  The admission service stops
        #: fault-retrying and the fabric fails the shard over.
        self.device_failed = False
        #: Admission-time static verification policy: ``strict`` rejects
        #: any error-severity finding before commit, ``warn`` (default)
        #: records findings without blocking, ``off`` skips analysis
        #: entirely (byte-identical to the pre-verifier admission path).
        #: Also accepts a :class:`~repro.client.compiler.CompileOptions`
        #: bag, whose ``verify`` field is used.  Imported lazily: the
        #: controller sits below the client in the package layering.
        from repro.client.compiler import CompileOptions

        self.verify = CompileOptions.coerce(verify).verify
        #: Sanitizer mode: re-audit the whole committed state (pool
        #: accounting, table entries, exclusivity) after every commit
        #: and withdrawal.  Violations are recorded -- never raised --
        #: in :attr:`audit_violations` and telemetry; off by default
        #: and zero-cost when off (a single attribute test per commit).
        self.sanitizer = sanitizer
        self.audit_violations: List[Finding] = []
        self.allocator = ActiveRmtAllocator(
            self.device.config,
            scheme=scheme,
            policy=policy,
            telemetry=self.telemetry,
            tracer=self.tracer,
        )
        self.updater = TableUpdateEngine(
            self.device,
            table_cost,
            telemetry=self.telemetry,
            tracer=self.tracer,
            retry=retry,
        )
        self.snapshot_cost = snapshot_cost or SnapshotCost()
        self.mac = MacAddress.from_host_id(0xC0FFEE)
        self.reports: List[ProvisioningReport] = []
        self._client_macs: Dict[int, MacAddress] = {}
        #: Packet-driven withdrawals the switch refused: the fid is
        #: still resident and its client, gone idle, will not ask again,
        #: so each is re-sent with the next ``DEALLOCATE`` digest.
        self.refused_withdrawals: List[int] = []
        #: Hook invoked with (fid,) when a SNAPSHOT_COMPLETE arrives.
        self.on_snapshot_complete: Optional[Callable[[int], None]] = None

    @property
    def switch(self) -> object:
        """The backend behind :attr:`device` (simulator escape hatch).

        Tests and harnesses reach through here for simulator-level
        state (``controller.switch.pipeline`` and friends); controller
        logic itself must go through :attr:`device`.
        """
        return self.device.underlying

    def settings(self) -> Dict[str, Any]:
        """Every constructor keyword, as this controller was built: what
        :meth:`recover` gives a replacement so it behaves like this one
        (a new ``__init__`` keyword belongs here too, or failover
        silently reverts it to its default).
        """
        return {
            "scheme": self.allocator.scheme,
            "policy": self.allocator.policy,
            "table_cost": self.updater.cost,
            "snapshot_cost": self.snapshot_cost,
            "telemetry": self.telemetry,
            "verify": self.verify,
            "tracer": self.tracer,
            "sanitizer": self.sanitizer,
            "retry": self.retry,
        }

    @classmethod
    def recover(
        cls,
        device: Union[Device, object],
        commit_log: Sequence[Tuple[str, int]],
        patterns: Mapping[int, AccessPattern],
        **settings: Any,
    ) -> "ActiveRmtController":
        """Rebuild a failed controller's state onto a replacement device.

        Crash recovery from the durable record: a fresh controller is
        constructed on *device* (a fresh or replacement switch) with
        *settings* -- constructor keywords, normally the failed
        instance's own :meth:`settings` -- and the failed instance's
        commit log is replayed serially -- the same linearization
        witness the admission service maintains -- so the recovered
        allocator pools and device tables are byte-identical to what a
        clean serial execution of the committed history produces.
        *patterns* must cover every fid the log admits.

        The replacement device must be empty (same capabilities, no
        resident state); recovery proves nothing about a device with
        prior tenants.
        """
        controller = cls(device, **settings)
        # Imported lazily: the service sits above the controller in the
        # module graph (it imports this module at load time).
        from repro.controller.service import replay_commit_log

        replay_commit_log(list(commit_log), dict(patterns), controller)
        if controller.telemetry.enabled:
            controller.telemetry.counter(
                "controller_recoveries_total",
                help="Controllers rebuilt from a commit log onto a new device",
            ).inc()
        return controller

    def register_client(self, fid: int, mac: MacAddress) -> None:
        """Remember which client MAC owns a FID (for notices)."""
        self._client_macs[fid] = mac

    # ------------------------------------------------------------------
    # Unified entry point
    # ------------------------------------------------------------------

    def submit(
        self, request: ProvisioningRequest, ctx: ParentLike = None
    ) -> ProvisioningReport:
        """Execute one admission or withdrawal and report the outcome.

        `admit`, `withdraw` and :meth:`serve_digest` all build their
        :class:`ProvisioningRequest` and funnel through here.  *ctx* is
        the trace context the controller's spans are parented under
        (the admission service passes its per-request span).
        """
        if request.kind is RequestKind.ADMIT:
            if request.fid is None or request.pattern is None:
                raise ControllerError("admission requires fid and pattern")
            return self._do_admit(
                request.fid,
                request.pattern,
                dry_run=request.dry_run,
                program=request.program,
                ctx=ctx,
            )
        if request.kind is RequestKind.WITHDRAW:
            if request.fid is None:
                raise ControllerError("withdrawal requires fid")
            return self._do_withdraw(request.fid, ctx=ctx)
        raise ControllerError(f"unknown request kind {request.kind!r}")

    # ------------------------------------------------------------------
    # Synchronous control-plane API (wrappers over submit)
    # ------------------------------------------------------------------

    def admit(
        self,
        *,
        fid: int,
        pattern: AccessPattern,
        dry_run: bool = False,
        program: Optional[ActiveProgram] = None,
    ) -> ProvisioningReport:
        """Admit an application, applying the full reallocation protocol.

        Keyword-only delegate of :meth:`submit` --
        :class:`ProvisioningRequest` is the single front door.

        The report's durations model what a real deployment would
        spend; the in-process state (allocator, tables, deactivations)
        is updated for real.  With ``dry_run=True`` nothing is updated:
        the report carries the :class:`AllocationPlan` a real admission
        would have committed (what-if capacity probing).  Passing the
        compact *program* lets the static verifier check the mutant
        being installed against the granted plan (subject to the
        controller's ``verify`` policy).
        """
        return self.submit(
            ProvisioningRequest.admission(
                fid, pattern, dry_run=dry_run, program=program
            )
        )

    def what_if(self, *, fid: int, pattern: AccessPattern) -> AllocationPlan:
        """Probe an admission without side effects; returns the plan."""
        report = self.admit(fid=fid, pattern=pattern, dry_run=True)
        assert report.plan is not None
        return report.plan

    def withdraw(self, *, fid: int) -> float:
        """Release an application's allocation; returns modeled seconds.

        Raises :class:`ControllerError` when the switch refused the
        withdrawal (state untouched, *fid* still resident);
        :meth:`submit` is the door that reports a refusal instead.
        """
        report = self.submit(ProvisioningRequest.withdrawal(fid))
        if not report.success:
            raise ControllerError(f"withdrawal of fid {fid} refused: {report.reason}")
        return report.table_update_seconds

    def _do_admit(
        self,
        fid: int,
        pattern: AccessPattern,
        dry_run: bool = False,
        program: Optional[ActiveProgram] = None,
        ctx: ParentLike = None,
    ) -> ProvisioningReport:
        """Two-phase admission: plan, then (unless probing) :meth:`_commit`.

        Phase 1 (*plan*) computes the entire decision without touching
        allocator or switch state; a dry run stops there.  Phase 2 is
        the one commit path every entry point shares.
        """
        with self.tracer.span(
            "controller.admit", parent=ctx, fid=fid, dry_run=dry_run
        ) as span:
            plan = self.allocator.plan(fid, pattern, ctx=span)
            if dry_run:
                report = self.report_dry_run(plan)
            else:
                (report,) = self._commit([plan], [program], span, "single")
            assert report.status is not None
            span.set(status=report.status.value)
            return report

    # ------------------------------------------------------------------
    # Optimistic plan/commit entry points (used by AdmissionService)
    # ------------------------------------------------------------------

    def commit_plan(
        self,
        plan: AllocationPlan,
        program: Optional[ActiveProgram] = None,
        ctx: ParentLike = None,
    ) -> ProvisioningReport:
        """Commit a plan computed elsewhere -- typically against a shadow.

        The optimistic half of the concurrent control plane: planner
        workers compute plans against copy-on-write shadows in
        parallel, then funnel through this short serialized path.  A
        plan whose basis version no longer matches raises
        :class:`StalePlanError` *before* any state is touched -- even
        for infeasible plans, whose infeasibility may itself be an
        artifact of the stale shadow -- and the caller re-plans.
        """
        # The stale check runs inside the span so a StalePlanError is
        # recorded as this commit attempt's error before propagating.
        with self.tracer.span(
            "controller.commit_plan",
            parent=ctx,
            fid=plan.fid,
            basis_version=plan.basis_version,
        ) as span:
            (report,) = self._commit([plan], [program], span, "single")
            assert report.status is not None
            span.set(status=report.status.value)
            return report

    def commit_batch(
        self,
        plans: Sequence[AllocationPlan],
        programs: Optional[Sequence[Optional[ActiveProgram]]] = None,
        ctx: ParentLike = None,
    ) -> List[ProvisioningReport]:
        """Commit a group of plans under one journal, all-or-nothing.

        The plans must have been computed consecutively against one
        shadow (each feasible one rehearsed before the next was
        planned), so their basis stamps replay exactly onto the real
        allocator.  A member without a feasible mutant rejects the whole
        group before anything is touched (one ``REJECTED`` report per
        member, the infeasible one carrying the planner's verdict).  Every
        switch-side mutation across the whole group lands in a single
        :class:`TableUpdateJournal`: a mid-batch TCAM rejection replays
        the journal backwards and rolls back every already-committed
        member, leaving the switch and allocator byte-identical to the
        pre-batch state (all reports carry ``ROLLED_BACK``).

        Raises:
            StalePlanError: when the group's basis version no longer
                matches (nothing touched; the caller re-plans).
        """
        if not plans:
            return []
        if programs is None:
            programs = [None] * len(plans)
        with self.tracer.span(
            "controller.commit_batch",
            parent=ctx,
            size=len(plans),
            basis_version=plans[0].basis_version,
        ) as span:
            reports = self._commit(plans, programs, span, "batch")
            span.set(rolled_back=any(r.rolled_back for r in reports))
            return reports

    def _commit(
        self,
        plans: Sequence[AllocationPlan],
        programs: Sequence[Optional[ActiveProgram]],
        ctx: ParentLike,
        scope: str,
    ) -> List[ProvisioningReport]:
        """The one admission commit: N plans, one journal, all-or-nothing.

        `_do_admit`, `commit_plan` (both N=1, *scope* ``"single"``) and
        `commit_batch` (``"batch"``) all end here; *scope* only labels
        anomalies, the ``during=`` telemetry and report reasons.  One
        report per plan, in order.
        """
        # 1. Check basis: nothing is touched for a stale group -- not
        # even an infeasible plan is reported, since its infeasibility
        # may itself be an artifact of the stale shadow.
        if plans[0].basis_version != self.allocator.version:
            what = (
                f"plan for fid {plans[0].fid}"
                if scope == "single"
                else f"batch of {len(plans)} plans"
            )
            raise StalePlanError(
                f"{what} computed against version {plans[0].basis_version}, "
                f"allocator is at {self.allocator.version}"
            )
        # A member without a feasible mutant is a planning-time
        # rejection of the whole group, before any sibling is touched.
        culprit = next((plan for plan in plans if not plan.feasible), None)
        if culprit is not None:
            return [self._report_infeasible(plan, culprit) for plan in plans]

        # 2. Verify and certify every member while nothing is mutated
        # (all plans still pending).  Both are computed in every mode
        # but "off"; only strict mode acts on them, and then the first
        # rejection fails the whole group.
        strict = self.verify is VerifyMode.STRICT
        verifications: List[Optional[AnalysisReport]] = []
        certificates: List[Optional[IsolationCertificate]] = []
        for plan, program in zip(plans, programs):
            verification = self._verify_admission(plan.pattern, plan, program)
            certificate = self._certify_admission(plan, program)
            verifications.append(verification)
            certificates.append(certificate)
            if strict and verification is not None and verification.has_errors:
                return self._reject(
                    plans, verifications, certificates, "verifier",
                    "; ".join(str(f) for f in verification.errors),
                )
            if strict and certificate is not None and not certificate.valid:
                return self._reject(
                    plans, verifications, certificates, "certifier",
                    "; ".join(
                        str(f)
                        for f in certificate.findings
                        if f.severity is Severity.ERROR
                    ),
                )

        # 3. Commit each plan to the allocator (keeping its checkpoint)
        # and apply it to the switch, every mutation of the whole group
        # under one journal.  Decision telemetry is deferred
        # (record=False) until the switch-side updates also succeed, so
        # a rolled-back admission never pollutes the decision counters.
        journal = TableUpdateJournal(tracer=self.tracer, ctx=ctx)
        results: List[CommitResult] = []
        table_seconds: List[float] = []
        try:
            for plan in plans:
                results.append(self.allocator.commit(plan, record=False, ctx=ctx))
                committed = results[-1].decision
                table_seconds.append(
                    self._apply_layout(
                        plan.fid, {}, committed.regions, committed.reallocations, journal, ctx
                    )
                )
        except (TcamCapacityError, DeviceError) as exc:
            # No member survives: exact pre-request state.
            culprit = results[-1].plan.fid
            fault, cause = self._unwind(exc, journal, results, ctx, scope, culprit)
            if scope == "single":
                reason = f"{cause}: {exc}"
            else:
                reason = f"batch rolled back: {cause} admitting fid {culprit}: {exc}"
            outcome = "tcam_exhausted" if fault == "tcam" else "device_fault"
            # Members the fault pre-empted never committed: no decision.
            decisions: List[Optional[AllocationDecision]] = [r.decision for r in results]
            decisions += [None] * (len(plans) - len(results))
            return [
                self._record_report(
                    ProvisioningReport(
                        fid=plan.fid,
                        success=False,
                        decision=decision,
                        reason=reason,
                        compute_seconds=(decision or plan).total_seconds,
                        plan=plan,
                        rolled_back=True,
                        verification=verification,
                        certificate=certificate,
                        fault=fault,
                    ),
                    outcome,
                )
                for plan, decision, verification, certificate in zip(
                    plans, decisions, verifications, certificates
                )
            ]

        # 4. The switch took everything: close the journal, publish.
        journal.commit_entries()
        self.tracer.layout_committed(ctx)
        reports = []
        for result, seconds, verification, certificate in zip(
            results, table_seconds, verifications, certificates
        ):
            decision = result.decision
            self.allocator.record_decision(decision)
            reports.append(
                self._record_report(
                    ProvisioningReport(
                        fid=decision.fid,
                        success=True,
                        decision=decision,
                        compute_seconds=decision.total_seconds,
                        table_update_seconds=seconds,
                        snapshot_seconds=self._snapshot_seconds(decision),
                        plan=result.plan,
                        verification=verification,
                        certificate=certificate,
                    ),
                    "admitted",
                )
            )
        if self.sanitizer:
            self._sanitize()
        return reports

    def _reject(
        self,
        plans: Sequence[AllocationPlan],
        verifications: Sequence[Optional[AnalysisReport]],
        certificates: Sequence[Optional[IsolationCertificate]],
        kind: str,
        findings: str,
    ) -> List[ProvisioningReport]:
        """Strict rejection: fail the group before any member mutated.

        The culprit is the last plan analysed; members after it were
        never verified or certified.
        """
        analysed = len(verifications)
        culprit = plans[analysed - 1]
        reports = []
        for index, plan in enumerate(plans):
            self.allocator.abort(plan)
            reports.append(
                self._record_report(
                    ProvisioningReport(
                        fid=plan.fid,
                        success=False,
                        reason=(
                            f"{kind} rejected: {findings}"
                            if plan is culprit
                            else f"batch aborted: fid {culprit.fid} rejected by {kind}"
                        ),
                        compute_seconds=plan.total_seconds,
                        plan=plan,
                        verification=verifications[index] if index < analysed else None,
                        certificate=certificates[index] if index < analysed else None,
                    ),
                    "verifier_rejected",
                )
            )
        if self.telemetry.enabled:
            self.telemetry.counter(
                "verifier_rejections_total",
                help="Admissions rejected by the static verifier",
                plane="controller",
            ).inc()
        return reports

    def _record_report(
        self, report: ProvisioningReport, outcome: str
    ) -> ProvisioningReport:
        """Keep *report* in :attr:`reports` and publish its outcome."""
        self.reports.append(report)
        self._record_admission(report, outcome)
        return report

    def _report_infeasible(
        self, plan: AllocationPlan, culprit: AllocationPlan
    ) -> ProvisioningReport:
        """Package a planning-time rejection (no feasible mutant).

        *culprit* is the group's first infeasible plan: it carries the
        planner's verdict and is the one recorded; its siblings (a lone
        plan has none) are aborted with it and only say why.
        """
        self.allocator.abort(plan)
        if plan is not culprit:
            return ProvisioningReport(
                fid=plan.fid,
                success=False,
                reason=f"batch aborted: no feasible mutant for fid {culprit.fid}",
            )
        decision = self.allocator.decision_from_plan(plan)
        self.allocator.record_decision(decision)
        return self._record_report(
            ProvisioningReport(
                fid=plan.fid,
                success=False,
                decision=decision,
                reason=plan.reason,
                compute_seconds=decision.total_seconds,
                plan=plan,
            ),
            "no_feasible_mutant",
        )

    def _unwind(
        self,
        exc: Exception,
        journal: TableUpdateJournal,
        undo: Sequence[Union[CommitResult, AllocatorCheckpoint]],
        ctx: ParentLike,
        scope: str,
        fid: int,
    ) -> Tuple[str, str]:
        """The one unwind of a layout change the switch refused.

        Either a stage TCAM cannot hold another protection range (the
        paper's stated bottleneck) or the device itself failed mid-apply
        (retries exhausted, or a permanent fault); arrivals and
        departures unwind identically.  Replay the journal backwards
        (table entries, activations, register scrubs), then restore the
        allocator checkpoints in *undo* newest first.  Returns the fault
        kind (:attr:`ProvisioningReport.fault`) and its cause in words.
        """
        if isinstance(exc, TcamCapacityError):
            fault, cause = "tcam", "TCAM exhausted"
        elif isinstance(exc, PermanentDeviceError):
            # The journal replay below is best-effort against a dead device.
            fault, cause = "device", "device fault (device)"
            self._device_died(ctx, scope, fid, str(exc), during=scope)
        else:
            fault, cause = "transient", "device fault (transient)"
        try:
            journal.rollback()
        except DeviceError as rollback_exc:
            # A fault during rollback leaves the switch half-rolled-back
            # with the journal consumed -- unrecoverable in place.  The
            # host-side allocator rollback still runs, the device is
            # marked failed, and the fabric's failover path rebuilds a
            # consistent device from the commit log.
            self._device_died(
                ctx, scope, fid, f"rollback failed: {rollback_exc}", during="rollback"
            )
        for result in reversed(undo):
            self.allocator.rollback(result, ctx=ctx)
        self.tracer.anomaly("rollback", ctx, scope=scope, fid=fid, cause=str(exc))
        return fault, cause

    def _device_died(
        self, ctx: ParentLike, scope: str, fid: int, cause: str, during: str
    ) -> None:
        """Latch :attr:`device_failed` and say where it was observed."""
        self.device_failed = True
        self.tracer.anomaly("device_failed", ctx, scope=scope, fid=fid, cause=cause)
        if self.telemetry.enabled:
            self.telemetry.counter(
                "controller_device_failures_total",
                help="Permanent device failures observed",
                during=during,
            ).inc()

    def _verify_admission(
        self,
        pattern: AccessPattern,
        plan: AllocationPlan,
        program: Optional[ActiveProgram],
    ) -> Optional[AnalysisReport]:
        """Run the static verifier on the mutant this plan installs.

        Returns None when verification is off or the request carried no
        program (wire-digested admissions).  Findings are exported via
        the ``verifier_findings_total`` counter regardless of mode;
        only strict mode acts on them.
        """
        if self.verify is VerifyMode.OFF or program is None:
            return None
        report = verify_plan(
            program,
            pattern,
            plan,
            config=self.device.config,
            translation_window=TableUpdateEngine.TRANSLATION_WINDOW,
        )
        record_report(self.telemetry, report, plane="controller")
        return report

    def _certify_admission(
        self,
        plan: AllocationPlan,
        program: Optional[ActiveProgram],
    ) -> Optional[IsolationCertificate]:
        """Certify the planned layout while nothing is mutated.

        Joins the plan's regions with the post-plan regions of every
        incumbent (reallocations applied) and, when the request carried
        a program, the interval analysis of the padded mutant.  Returns
        None when verification is off -- the certifier follows the same
        policy knob as the verifier.
        """
        if self.verify is VerifyMode.OFF:
            return None
        certificate = certify_plan(
            plan,
            config=self.device.config,
            program=program,
            pattern=plan.pattern if program is not None else None,
            incumbents=self._incumbent_regions(plan),
            translation_window=TableUpdateEngine.TRANSLATION_WINDOW,
        )
        record_certificate(self.telemetry, certificate, plane="controller")
        return certificate

    def _incumbent_regions(
        self, plan: AllocationPlan
    ) -> Dict[int, Dict[int, Tuple[int, int]]]:
        """Post-plan word regions of the incumbents at the plan's stages.

        The exclusivity check only ever reads incumbents where the plan
        itself holds a region, so the map covers those stages alone:
        the live pool layouts there, overlaid with the plan's
        reallocations -- the layout the commit would actually produce.
        """
        block_words = self.device.config.block_words
        incumbents: Dict[int, Dict[int, Tuple[int, int]]] = {}
        for stage in plan.regions:
            for fid, current in self.allocator.pools[stage].layout().items():
                moved = plan.reallocations.get(fid, {}).get(stage)
                block_range = current if moved is None else moved[1]
                if fid == plan.fid or block_range is None or block_range.count <= 0:
                    continue
                incumbents.setdefault(fid, {})[stage] = (
                    block_range.start * block_words,
                    block_range.end * block_words,
                )
        return incumbents

    # ------------------------------------------------------------------
    # State auditing (sanitizer mode + on-demand)
    # ------------------------------------------------------------------

    def audit(self) -> AnalysisReport:
        """Audit the committed state against the invariant catalog.

        Checks pool exclusivity and accounting, grant/translation
        enforcement, orphaned entries, and TCAM occupancy against the
        live allocator and device tables.  Violations are exported via
        ``invariant_violations_total{rule}``; callers decide policy.
        """
        report = audit_state(
            self.allocator,
            self.device,
            config=self.device.config,
            translation_window=TableUpdateEngine.TRANSLATION_WINDOW,
        )
        record_audit(self.telemetry, report)
        return report

    def certificates(self) -> Dict[int, IsolationCertificate]:
        """Live isolation certificates for every resident FID."""
        certificates = certify_all(
            self.allocator,
            self.device,
            config=self.device.config,
            translation_window=TableUpdateEngine.TRANSLATION_WINDOW,
        )
        for certificate in certificates.values():
            record_certificate(
                self.telemetry, certificate, plane="controller"
            )
        return certificates

    def _sanitize(self) -> None:
        """Sanitizer hook: re-audit after a state-changing commit.

        Never raises -- a sanitizer is a detector, not a gate.  Errors
        accumulate in :attr:`audit_violations` for the harness to
        assert on, and land in telemetry like any other audit.
        """
        report = self.audit()
        if report.has_errors:
            self.audit_violations.extend(report.errors)
            self.tracer.anomaly(
                "invariant_violation",
                None,
                scope="sanitizer",
                rules=",".join(sorted({f.rule_id for f in report.errors})),
            )

    def report_dry_run(self, plan: AllocationPlan) -> ProvisioningReport:
        """Package a what-if probe: the plan is the entire result."""
        self.allocator.abort(plan)
        decision = self.allocator.decision_from_plan(plan)
        if self.telemetry.enabled:
            self.telemetry.counter(
                "controller_whatif_probes_total",
                help="Dry-run admission probes (no state mutated)",
                feasible="yes" if plan.feasible else "no",
            ).inc()
        return ProvisioningReport(
            fid=plan.fid,
            success=plan.feasible,
            decision=decision,
            reason=plan.reason,
            compute_seconds=plan.total_seconds,
            plan=plan,
            dry_run=True,
        )

    def _record_admission(self, report: ProvisioningReport, outcome: str) -> None:
        """Publish one admission outcome and its modeled cost breakdown."""
        tel = self.telemetry
        if not tel.enabled:
            return
        tel.counter(
            "controller_admissions_total",
            help="Admission requests by outcome",
            outcome=outcome,
        ).inc()
        tel.histogram(
            "controller_provisioning_seconds",
            buckets=LATENCY_BUCKETS_S,
            help="Modeled end-to-end provisioning time (Fig. 8a bands)",
        ).observe(report.total_seconds)
        tel.histogram(
            "controller_table_update_seconds",
            buckets=LATENCY_BUCKETS_S,
            help="Modeled match-table update time per request",
        ).observe(report.table_update_seconds)

    def _apply_layout(
        self,
        fid: int,
        old: Mapping[int, BlockRange],
        new: Mapping[int, BlockRange],
        reallocations: ReallocationMap,
        journal: TableUpdateJournal,
        ctx: ParentLike,
    ) -> float:
        """Apply a committed layout change to the switch (Section 4.3).

        *fid* goes from regions *old* to *new* -- an arrival comes from
        none, a departure goes to none -- and *reallocations* is what
        that does to its neighbours (each one's old map puts back the
        ``old`` halves of its row).  The engine applies it as one staged
        batch under one *journal* record.  Returns the modeled seconds.
        A neighbour's maps cover only the stages within the translation
        window of a changed one: a grant depends on its own stage and a
        translation at stage p on the grants in (p, p + window] alone,
        so the writes, their order and their seconds are the full maps'.
        """
        window = TableUpdateEngine.TRANSLATION_WINDOW
        pools, apps = self.allocator.pools, self.allocator.apps
        moves: List[Move] = []
        for other in sorted(reallocations):
            changes = reallocations[other]
            near = {s for c in changes for s in range(c - window, c + window + 1)}
            after: Dict[int, BlockRange] = {}
            for stage in apps[other].demand_by_stage:
                block_range = pools[stage].range_for(other) if stage in near else None
                if block_range is not None and block_range.count > 0:
                    after[stage] = block_range
            before = dict(after)
            for stage, (block_range, _now) in changes.items():
                if block_range is not None and block_range.count > 0:
                    before[stage] = block_range
                else:
                    before.pop(stage, None)
            moves.append((other, before, after))
        return self.updater.apply_layout(
            fid, old, new, self.device.config.block_words, journal, ctx, moves, scrub=True
        )

    def _snapshot_seconds(self, decision: AllocationDecision) -> float:
        """Modeled time the displaced clients spend extracting state."""
        seconds = 0.0
        for other in decision.reallocated_fids:
            paged_blocks = sum(
                old.count
                for old, _new in decision.reallocations[other].values()
                if old is not None
            )
            seconds += (
                self.snapshot_cost.per_app_handshake_seconds
                + paged_blocks * self.snapshot_cost.per_block_seconds
            )
        return seconds

    def _do_withdraw(self, fid: int, ctx: ParentLike = None) -> ProvisioningReport:
        """A departure is a layout change like an arrival: allocator
        checkpoint, one journal, and :meth:`_unwind` when the switch
        refuses it -- the report then says ``ROLLED_BACK`` over state
        byte-identical to before the request, and *fid* stays resident.
        """
        with self.tracer.span("controller.withdraw", parent=ctx, fid=fid) as span:
            regions = self.allocator.regions_for(fid).items()
            departing = {s: r for s, r in regions if r is not None and r.count > 0}
            reallocations, checkpoint = self.allocator.release(fid)
            journal = TableUpdateJournal(tracer=self.tracer, ctx=span)
            try:
                seconds = self._apply_layout(fid, departing, {}, reallocations, journal, span)
            except (TcamCapacityError, DeviceError) as exc:
                fault, cause = self._unwind(exc, journal, [checkpoint], span, "withdraw", fid)
                report = ProvisioningReport(
                    fid=fid, success=False, reason=f"{cause}: {exc}", rolled_back=True, fault=fault
                )
            else:
                journal.commit_entries()
                self.allocator.record_release(reallocations)
                report = ProvisioningReport(fid=fid, success=True, table_update_seconds=seconds)
                self._record_withdrawal(seconds)
            assert report.status is not None
            span.set(seconds=report.table_update_seconds, status=report.status.value)
            return report

    def _record_withdrawal(self, seconds: float) -> None:
        """Publish one withdrawal that happened; sanitize after it."""
        tel = self.telemetry
        if tel.enabled:
            tel.counter(
                "controller_withdrawals_total",
                help="Applications withdrawn from the switch",
            ).inc()
            tel.histogram(
                "controller_table_update_seconds",
                buckets=LATENCY_BUCKETS_S,
                help="Modeled match-table update time per request",
            ).observe(seconds)
        if self.sanitizer:
            self._sanitize()

    # ------------------------------------------------------------------
    # Packet-driven API
    # ------------------------------------------------------------------

    def process_pending(self) -> List[ActivePacket]:
        """Drain switch digests; returns the packets sent in reply."""
        replies: List[ActivePacket] = []
        for digest in self.device.poll_digests():
            replies.extend(self.handle_digest(digest))
        return replies

    def handle_digest(self, packet: ActivePacket) -> List[ActivePacket]:
        """Serve one digest and send its replies now; returns them."""
        report = self.serve_digest(packet)
        if report is None:
            return []
        replies = self.allocation_replies(report, packet)
        for reply in replies:
            self.device.inject(reply)
        return replies

    def serve_digest(
        self,
        packet: ActivePacket,
        submit: Optional[Callable[[ProvisioningRequest], ProvisioningReport]] = None,
        patterns: Optional[Mapping[int, AccessPattern]] = None,
    ) -> Optional[ProvisioningReport]:
        """Serve the switch-CPU side of one digest: the one decoder.

        An ``ALLOC_REQUEST`` registers its client and is one admission
        through *submit* (default :meth:`submit`) of the wire pattern,
        or of the fid's override in *patterns*; its report is returned.
        ``DEALLOCATE`` withdraws through :func:`withdraw_with_retries`
        and ``SNAPSHOT_COMPLETE`` calls :attr:`on_snapshot_complete`;
        both return None.  Nothing is sent: the caller sends
        :meth:`allocation_replies` when its own clock says so.
        """
        submit = submit or self.submit
        fid = packet.fid
        report: Optional[ProvisioningReport] = None
        if packet.ptype == PacketType.ALLOC_REQUEST:
            if packet.request is None:
                raise ControllerError("allocation request without header")
            pattern = (patterns or {}).get(fid) or AccessPattern.from_request(
                packet.request, name=f"fid{fid}"
            )
            self.register_client(fid, packet.eth.src)
            report = submit(ProvisioningRequest.admission(fid, pattern))
        elif packet.ptype != PacketType.CONTROL:
            raise ControllerError(f"unexpected digest type {packet.ptype:#x}")
        elif packet.has_flag(ControlFlags.DEALLOCATE):
            try:
                withdraw_with_retries(submit, fid, self.refused_withdrawals)
            except AllocationError as exc:
                raise ControllerError(str(exc)) from exc
        elif packet.has_flag(ControlFlags.SNAPSHOT_COMPLETE):
            if self.on_snapshot_complete is not None:
                self.on_snapshot_complete(fid)
        if self.telemetry.enabled:
            self.telemetry.counter(
                "controller_digests_total",
                help="Switch digests handled, by packet kind",
                kind="control" if report is None else "alloc_request",
            ).inc()
        return report

    def allocation_replies(
        self, report: ProvisioningReport, request: ActivePacket
    ) -> List[ActivePacket]:
        """The packets that answer allocation *request*, given its *report*.

        The one definition of the allocation-response protocol.  An
        admission sends every displaced incumbent whose client MAC is
        known its updated regions, flagged ``REALLOC_NOTICE`` so the
        shim relinks and repopulates, then the requester its
        ``ALLOC_RESPONSE``; anything else sends one ``ALLOC_FAILED``.
        Regions are read from the allocator when this is called, so
        whoever delays the replies (the simulated-time provisioner)
        calls it at send time.
        """
        if not report.success:
            return [
                ActivePacket.alloc_response(
                    src=self.mac,
                    dst=request.eth.src,
                    fid=request.fid,
                    response=AllocationResponseHeader.empty(),
                    flags=ControlFlags.ALLOC_FAILED,
                    seq=request.initial.seq,
                )
            ]
        replies = [
            ActivePacket.alloc_response(
                src=self.mac,
                dst=self._client_macs[other],
                fid=other,
                response=self.allocator.response_for(other),
                flags=ControlFlags.REALLOC_NOTICE,
            )
            for other in report.reallocated_fids
            if other in self._client_macs
        ]
        replies.append(
            ActivePacket.alloc_response(
                src=self.mac,
                dst=request.eth.src,
                fid=request.fid,
                response=self.allocator.response_for(request.fid),
                seq=request.initial.seq,
            )
        )
        return replies


def withdraw_with_retries(
    submit: Callable[[ProvisioningRequest], ProvisioningReport],
    fid: int,
    refused: List[int],
) -> List[int]:
    """Withdraw *fid* through *submit*, after re-sending the withdrawals
    in *refused*; returns the fids that left.

    A withdrawal the switch refuses (``ROLLED_BACK``: a grown
    neighbour's range did not fit the TCAM, or the device faulted)
    leaves its fid resident, and nobody asks for it again.  So whoever
    drives departures -- :meth:`ActiveRmtController.serve_digest`, an
    experiment harness -- keeps one *refused* list, updated in place,
    and sends those again at each later departure.
    """
    leaving, refused[:] = [*refused, fid], []
    left: List[int] = []
    for candidate in leaving:
        report = submit(ProvisioningRequest.withdrawal(candidate))
        (left if report.success else refused).append(candidate)
    return left
