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

Every admission is committed through one door,
:meth:`ActiveRmtController.commit_plan`: N plans under one journal, N=1
(what `submit` plans on the live allocator) being the smallest group.
The committed :class:`AllocationPlan` is the admission's decision.
A withdrawal is the same transaction without a plan (`_do_withdraw`):
the allocator hands back one :class:`CommitResult` per layout change,
arrival or departure, and `_land` applies, unwinds or publishes them.
Each admission and withdrawal that lands is
appended to :attr:`ActiveRmtController.commit_log`, the history
:meth:`~ActiveRmtController.recover` replays (:func:`replay_commit_log`).
Every request is answered by its report, whose ``status`` is the one
outcome: a request the controller declines is ``REJECTED``, not raised.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.findings import (
    AnalysisReport,
    Finding,
    Severity,
    VerifyMode,
)
from repro.analysis.invariants import audit_state
from repro.analysis.isolation import (
    TRANSLATION_WINDOW,
    IsolationCertificate,
    certify_all,
    certify_plan,
)
from repro.analysis.verifier import verify_plan
from repro.core.allocator import ActiveRmtAllocator, AllocationError, ReallocationMap
from repro.core.blocks import BlockRange
from repro.core.constraints import AccessPattern, AllocationPolicy, MOST_CONSTRAINED
from repro.core.schemes import AllocationScheme
from repro.core.transactions import (
    AllocationPlan,
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
    Histogram,
    MetricsRegistry,
    resolve,
    resolve_tracer,
)


class ControllerError(Exception):
    """Raised on a malformed request or digest (and by ``withdraw``)."""


#: One committed control-plane operation, in commit order: ("admit", fid)
#: or ("withdraw", fid).
CommitLogEntry = Tuple[str, int]


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

    ``ADMITTED`` doubles as the "withdrawal executed" status; a
    ``REJECTED`` request (say, a withdrawal of a non-resident fid)
    touched nothing.  The
    controller and the admission service never produce ``SHED``: it
    marks an application a fabric failover dropped because no surviving
    shard could host it (the chaos scenario's tally).
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
    fid: int
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
    #: The one outcome (``success``, ``dry_run`` and ``rolled_back`` read it).
    status: ProvisioningStatus
    reason: str = ""
    compute_seconds: float = 0.0
    table_update_seconds: float = 0.0
    snapshot_seconds: float = 0.0
    #: The plan behind this admission: the decision itself once
    #: committed, the entire result of a dry run, the planner's verdict
    #: when infeasible.
    plan: Optional[AllocationPlan] = None
    #: The static verifier's verdict on the mutant being installed
    #: (None when the controller runs with ``verify="off"`` or the
    #: request carried no program).
    verification: Optional[AnalysisReport] = None
    #: The isolation certificate for the plan behind this admission:
    #: every reachable memory access proven in-region or runtime-checked
    #: and region exclusivity against all incumbents (None when the
    #: controller runs with ``verify="off"`` or no plan was produced).
    certificate: Optional[IsolationCertificate] = None
    #: What switch-side failure produced this outcome: ``"tcam"``
    #: (capacity rejection), ``"transient"`` (the update engine's
    #: per-operation retries exhausted on a recoverable fault; state is
    #: byte-identical to before the request, so the caller may submit it
    #: again), or ``"device"`` (permanent; the device is dead and the
    #: controller's :attr:`~ActiveRmtController.device_failed` flag is
    #: set).  None for clean outcomes.
    fault: Optional[str] = None

    @classmethod
    def rejected(cls, fid: int, reason: str) -> "ProvisioningReport":
        """A request declined with nothing touched."""
        return cls(fid=fid, status=ProvisioningStatus.REJECTED, reason=reason)

    @property
    def success(self) -> bool:
        """Admitted or withdrawn; a dry run: its plan is feasible."""
        if self.status is ProvisioningStatus.DRY_RUN:
            return self.plan is not None and self.plan.feasible
        return self.status is ProvisioningStatus.ADMITTED

    @property
    def dry_run(self) -> bool:
        """A what-if probe: nothing was mutated."""
        return self.status is ProvisioningStatus.DRY_RUN

    @property
    def rolled_back(self) -> bool:
        """Committed, then exactly undone: the switch refused the update."""
        return self.status is ProvisioningStatus.ROLLED_BACK

    @property
    def total_seconds(self) -> float:
        return (
            self.compute_seconds
            + self.table_update_seconds
            + self.snapshot_seconds
        )

    @property
    def reallocated_fids(self) -> List[int]:
        """Incumbents this admission moves: a rolled-back (or rejected)
        plan moved nobody, whatever it had planned."""
        if self.plan is None or self.status not in (
            ProvisioningStatus.ADMITTED,
            ProvisioningStatus.DRY_RUN,
        ):
            return []
        return self.plan.reallocated_fids


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
        verify: Union[VerifyMode, str] = VerifyMode.WARN,
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
        #: rollback, or withdrawal); the fabric fails the shard over.
        self.device_failed = False
        #: Admission-time static verification policy: ``strict`` rejects
        #: any error-severity finding before commit, ``warn`` (default)
        #: records findings without blocking, ``off`` skips analysis
        #: entirely (byte-identical to the pre-verifier admission path).
        self.verify = VerifyMode.coerce(verify)
        #: Sanitizer mode: re-audit the whole committed state (pool
        #: accounting, table entries, exclusivity) after every commit
        #: and withdrawal.  Violations are recorded -- never raised --
        #: in :attr:`audit_violations` and counted; off by default
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
        #: Every admission and withdrawal that landed, in commit order:
        #: replaying it serially on a fresh controller reproduces the
        #: pools byte for byte (:func:`replay_commit_log`).
        self.commit_log: List[CommitLogEntry] = []
        self._client_macs: Dict[int, MacAddress] = {}
        #: Packet-driven withdrawals the switch refused: the fid is
        #: still resident and its client, gone idle, will not ask again,
        #: so each is re-sent with the next ``DEALLOCATE`` digest.
        self.refused_withdrawals: List[int] = []
        # The controller's counts; :meth:`metrics` is their registry view.
        self.admissions: Counter[str] = Counter()  # by outcome
        self.withdrawals = self.recoveries = self.verifier_rejections = 0
        self.device_failures: Counter[str] = Counter()  # by where observed
        self.whatif_probes: Counter[str] = Counter()  # by feasible yes/no
        self.digests: Counter[str] = Counter()  # by packet kind
        self.findings: Counter[Tuple[str, str]] = Counter()  # (rule, severity)
        self.certified: Counter[str] = Counter()  # by certificate outcome
        self.violations: Counter[str] = Counter()  # audit errors by rule
        #: Modeled end-to-end provisioning time per admission outcome
        #: (Fig. 8a's bands), and table-update time per admission
        #: outcome and per withdrawal.
        self.provisioning_seconds = Histogram()
        self.table_update_seconds = Histogram()
        self.telemetry.register(self)

    def metrics(self) -> Dict[str, object]:
        return {
            "controller_admissions_total{outcome}": self.admissions,
            "controller_withdrawals_total": self.withdrawals,
            "controller_recoveries_total": self.recoveries,
            "controller_device_failures_total{during}": self.device_failures,
            "controller_whatif_probes_total{feasible}": self.whatif_probes,
            "controller_digests_total{kind}": self.digests,
            "verifier_rejections_total{plane=controller}": self.verifier_rejections,
            "verifier_findings_total{rule,severity,plane=controller}": self.findings,
            "isolation_certificates_total{outcome,plane=controller}": self.certified,
            "invariant_violations_total{rule}": self.violations,
            "controller_provisioning_seconds": self.provisioning_seconds,
            "controller_table_update_seconds": self.table_update_seconds,
        }

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
        commit_log: Sequence[CommitLogEntry],
        patterns: Mapping[int, AccessPattern],
        **settings: Any,
    ) -> "ActiveRmtController":
        """Rebuild a failed controller's state onto a replacement device.

        Crash recovery from the durable record: a fresh controller is
        constructed on *device* (a fresh or replacement switch) with
        *settings* -- constructor keywords, normally the failed
        instance's own :meth:`settings` -- and the failed instance's
        :attr:`commit_log` is replayed serially onto it, so the
        recovered allocator pools and device tables are byte-identical
        to what a clean serial execution of the committed history
        produces, and the recovered controller's own log is the one the
        replay wrote.  *patterns* must cover every fid the log admits.

        The replacement device must be empty (same capabilities, no
        resident state); recovery proves nothing about a device with
        prior tenants.
        """
        controller = cls(device, **settings)
        replay_commit_log(commit_log, patterns, controller)
        controller.recoveries += 1
        return controller

    def register_client(self, fid: int, mac: MacAddress) -> None:
        """Remember which client MAC owns a FID (for notices)."""
        self._client_macs[fid] = mac

    # ------------------------------------------------------------------
    # Unified entry point
    # ------------------------------------------------------------------

    def submit(self, request: ProvisioningRequest) -> ProvisioningReport:
        """Execute one admission or withdrawal and report the outcome.

        `admit`, `withdraw` and :meth:`serve_digest` all build their
        :class:`ProvisioningRequest` and funnel through here.  The
        controller's spans open under the caller's open span (the
        admission service's per-request span).

        An admission is two-phase: the plan is computed on the live
        allocator without touching allocator or switch state; a dry run
        stops there, anything else is committed by :meth:`commit_plan`.
        Admitting a resident fid, or withdrawing one that is not, is a
        ``REJECTED`` report naming it.
        """
        if request.kind is RequestKind.ADMIT:
            if request.pattern is None:
                raise ControllerError("admission requires a pattern")
            with self.tracer.span(
                "controller.admit", fid=request.fid, dry_run=request.dry_run
            ) as span:
                try:
                    plan = self.allocator.plan(request.fid, request.pattern)
                except AllocationError as exc:  # a resident fid
                    report = ProvisioningReport.rejected(request.fid, str(exc))
                else:
                    if request.dry_run:
                        report = self.report_dry_run(plan)
                    else:
                        (report,) = self.commit_plan([plan], [request.program])
                span.set(status=report.status.value)
                return report
        if request.kind is RequestKind.WITHDRAW:
            return self._do_withdraw(request.fid)
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

        Raises :class:`ControllerError` when the withdrawal did not
        happen (*fid* not resident, or the switch refused it: state
        untouched); :meth:`submit` is the door that reports it instead.
        """
        report = self.submit(ProvisioningRequest.withdrawal(fid))
        if not report.success:
            raise ControllerError(f"withdrawal of fid {fid} refused: {report.reason}")
        return report.table_update_seconds

    # ------------------------------------------------------------------
    # The one admission commit
    # ------------------------------------------------------------------

    def commit_plan(
        self,
        plans: Sequence[AllocationPlan],
        programs: Optional[Sequence[Optional[ActiveProgram]]] = None,
    ) -> List[ProvisioningReport]:
        """Commit a group of plans under one journal, all-or-nothing.

        The one admission commit: :meth:`submit` brings a lone plan
        computed on the live allocator, the admission service a group's
        plans computed against a shadow -- N = 1 is simply the smallest
        group.  A group's plans must have been computed consecutively
        against one shadow (each feasible one rehearsed before the next
        was planned), so their basis stamps replay exactly onto the real
        allocator.  A member without a feasible mutant rejects the whole
        group before anything is touched (one ``REJECTED`` report per
        member, the infeasible one carrying the planner's verdict).
        Every switch-side mutation of the group lands in a single
        :class:`TableUpdateJournal`: a TCAM rejection or device fault
        replays it backwards and rolls back every committed member,
        leaving the switch and allocator byte-identical to the
        pre-commit state (all reports carry ``ROLLED_BACK``).  A group
        that lands appends each member to :attr:`commit_log`.  One report
        per plan, in order; *programs* are the members' compact programs
        (for the verifier), none by default.

        Raises:
            StalePlanError: when the group's basis version no longer
                matches (nothing touched).
        """
        if programs is None:
            programs = [None] * len(plans)
        # Whether a lone plan or a group failed labels anomalies, the
        # ``during=`` device-failure count and the stale and rollback reasons --
        # nothing else.
        scope = "single" if len(plans) == 1 else "batch"
        # The stale check runs inside the span so a StalePlanError is
        # recorded as this commit attempt's error before propagating.
        with self.tracer.span(
            "controller.commit_plan",
            size=len(plans),
            basis_version=plans[0].basis_version,
        ) as span:
            # 1. Check basis: nothing is touched for a stale group -- not
            # even an infeasible plan is reported, since its
            # infeasibility may itself be an artifact of the stale shadow.
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

            # 2. Verify and certify every member of a feasible group
            # while nothing is mutated (all plans still pending).  Both
            # are computed in every mode but "off"; only strict mode acts
            # on them, and then the first refusal fails the whole group.
            verifications: List[Optional[AnalysisReport]] = []
            certificates: List[Optional[IsolationCertificate]] = []
            refusal: Optional[Tuple[str, str]] = None
            if culprit is None:
                for plan, program in zip(plans, programs):
                    verifications.append(self._verify_admission(plan.pattern, plan, program))
                    certificates.append(self._certify_admission(plan, program))
                    refusal = self._strict_refusal(verifications[-1], certificates[-1])
                    if refusal is not None:
                        break

            if culprit is not None:
                reports = [self._report_infeasible(plan, culprit) for plan in plans]
            elif refusal is not None:
                reports = self._reject(plans, verifications, certificates, *refusal)
            else:
                # 3. Commit each plan to the allocator and land the
                # group on the switch under one journal.  Decision counts
                # wait (record=False) until the switch has taken the
                # whole group, so a rolled-back admission never pollutes
                # them.  A rollback leaves every plan the fault reached
                # ABORTED, the members it pre-empted PENDING.
                seconds, fault, reason = self._land(
                    (self.allocator.commit(plan, record=False) for plan in plans), scope
                )
                # 4. Report every member alike.
                status, outcome = ProvisioningStatus.ADMITTED, "admitted"
                if fault is not None:
                    status = ProvisioningStatus.ROLLED_BACK
                    outcome = "tcam_exhausted" if fault == "tcam" else "device_fault"
                    seconds = [0.0] * len(plans)
                reports = [
                    self._report(
                        plan, status, outcome, reason, verification, certificate, took, fault
                    )
                    for plan, verification, certificate, took in zip(
                        plans, verifications, certificates, seconds
                    )
                ]
            span.set(status=reports[0].status.value)
            return reports

    def _strict_refusal(
        self,
        verification: Optional[AnalysisReport],
        certificate: Optional[IsolationCertificate],
    ) -> Optional[Tuple[str, str]]:
        """Who refuses a member in strict mode, and the findings why."""
        if self.verify is not VerifyMode.STRICT:
            return None
        if verification is not None and verification.has_errors:
            return "verifier", "; ".join(str(f) for f in verification.errors)
        if certificate is not None and not certificate.valid:
            return "certifier", "; ".join(
                str(f) for f in certificate.findings if f.severity is Severity.ERROR
            )
        return None

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
        for plan in plans:
            self.allocator.abort(plan)
        self.verifier_rejections += 1
        return [
            self._report(
                plan,
                ProvisioningStatus.REJECTED,
                "verifier_rejected",
                f"{kind} rejected: {findings}"
                if plan is culprit
                else f"batch aborted: fid {culprit.fid} rejected by {kind}",
                verifications[index] if index < analysed else None,
                certificates[index] if index < analysed else None,
            )
            for index, plan in enumerate(plans)
        ]

    def _report(
        self,
        plan: AllocationPlan,
        status: ProvisioningStatus,
        outcome: str,
        reason: str = "",
        verification: Optional[AnalysisReport] = None,
        certificate: Optional[IsolationCertificate] = None,
        table_seconds: float = 0.0,
        fault: Optional[str] = None,
    ) -> ProvisioningReport:
        """Build one admission's report and count it under *outcome*,
        with its modeled cost breakdown; only an admitted plan's
        displaced clients spend snapshot time.  A reported plan gives up
        its layouts (a member a rollback pre-empted is still pending,
        and holds them): a caller may keep the report."""
        plan.layouts = None
        snapshot = self._snapshot_seconds(plan) if status is ProvisioningStatus.ADMITTED else 0.0
        report = ProvisioningReport(
            fid=plan.fid,
            status=status,
            reason=reason,
            compute_seconds=plan.total_seconds,
            table_update_seconds=table_seconds,
            snapshot_seconds=snapshot,
            plan=plan,
            verification=verification,
            certificate=certificate,
            fault=fault,
        )
        self.admissions[outcome] += 1
        self.provisioning_seconds.observe(report.total_seconds)
        self.table_update_seconds.observe(table_seconds)
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
            return ProvisioningReport.rejected(
                plan.fid, f"batch aborted: no feasible mutant for fid {culprit.fid}"
            )
        self.allocator.record_decision(plan)
        return self._report(plan, ProvisioningStatus.REJECTED, "no_feasible_mutant", plan.reason)

    def _land(
        self, changes: Iterable[CommitResult], scope: str
    ) -> Tuple[List[float], Optional[str], str]:
        """Land allocator records on the switch under one journal, all or
        none: the one transaction of every arrival and departure.

        *changes* is drawn lazily, so each member is committed after the
        previous one's table writes.  Returns each change's modeled
        seconds, no fault and no reason once the switch took them all
        (journal closed, layout published, each change counted and
        logged, sanitizer run).  A refused change -- a stage TCAM full
        (the paper's stated bottleneck) or a device fault -- replays the
        journal backwards and rolls every drawn change back, newest
        first; the fault (:attr:`ProvisioningReport.fault`) and reason
        say why.  *scope* labels anomalies, ``during=`` and the reason.
        """
        journal = TableUpdateJournal(tracer=self.tracer)
        landed: List[CommitResult] = []
        seconds: List[float] = []
        try:
            for change in changes:
                landed.append(change)
                seconds.append(
                    self._apply_layout(
                        change.fid, change.old, change.new, change.reallocations, journal
                    )
                )
        except (TcamCapacityError, DeviceError) as exc:
            fid = landed[-1].fid
            if isinstance(exc, TcamCapacityError):
                fault, cause = "tcam", "TCAM exhausted"
            elif isinstance(exc, PermanentDeviceError):
                # The journal replay below is best-effort against a dead device.
                fault, cause = "device", "device fault (device)"
                self._device_died(scope, fid, str(exc), during=scope)
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
                    scope, fid, f"rollback failed: {rollback_exc}", during="rollback"
                )
            for change in reversed(landed):
                self.allocator.rollback(change)
            self.tracer.anomaly("rollback", scope=scope, fid=fid, cause=str(exc))
            if scope == "batch":
                return seconds, fault, f"batch rolled back: {cause} admitting fid {fid}: {exc}"
            return seconds, fault, f"{cause}: {exc}"
        journal.commit_entries()
        self.tracer.layout_committed()
        for change in landed:
            if change.plan is None:
                self.allocator.record_release(change)
                self.commit_log.append(("withdraw", change.fid))
            else:
                self.allocator.record_decision(change.plan)
                self.commit_log.append(("admit", change.fid))
        if self.sanitizer:
            self._sanitize()
        return seconds, None, ""

    def _device_died(self, scope: str, fid: int, cause: str, during: str) -> None:
        """Latch :attr:`device_failed` and say where it was observed."""
        self.device_failed = True
        self.tracer.anomaly("device_failed", scope=scope, fid=fid, cause=cause)
        self.device_failures[during] += 1

    def _verify_admission(
        self,
        pattern: AccessPattern,
        plan: AllocationPlan,
        program: Optional[ActiveProgram],
    ) -> Optional[AnalysisReport]:
        """Run the static verifier on the mutant this plan installs.

        Returns None when verification is off or the request carried no
        program (wire-digested admissions).  Findings are counted in
        :attr:`findings` regardless of mode; only strict mode acts on
        them.
        """
        if self.verify is VerifyMode.OFF or program is None:
            return None
        report = verify_plan(program, pattern, plan, config=self.device.config)
        self.findings.update((f.rule_id, f.severity.value) for f in report.findings)
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
        )
        self.certified["valid" if certificate.valid else "invalid"] += 1
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
        live allocator and device tables.  Violations are counted in
        :attr:`violations` by rule; callers decide policy.
        """
        report = audit_state(self.allocator, self.device)
        self.violations.update(finding.rule_id for finding in report.errors)
        return report

    def certificates(self) -> Dict[int, IsolationCertificate]:
        """Live isolation certificates for every resident FID."""
        certificates = certify_all(self.allocator, self.device)
        self.certified.update(
            "valid" if certificate.valid else "invalid"
            for certificate in certificates.values()
        )
        return certificates

    def _sanitize(self) -> None:
        """Sanitizer hook: re-audit after a state-changing commit.

        Never raises -- a sanitizer is a detector, not a gate.  Errors
        accumulate in :attr:`audit_violations` for the harness to
        assert on, and are counted like any other audit's.  The anomaly
        lands in the trace of the commit or withdrawal that ran it.
        """
        report = self.audit()
        if report.has_errors:
            self.audit_violations.extend(report.errors)
            self.tracer.anomaly(
                "invariant_violation",
                scope="sanitizer",
                rules=",".join(sorted({f.rule_id for f in report.errors})),
            )

    def report_dry_run(self, plan: AllocationPlan) -> ProvisioningReport:
        """Package a what-if probe: the plan is the entire result."""
        self.allocator.abort(plan)
        self.whatif_probes["yes" if plan.feasible else "no"] += 1
        return ProvisioningReport(
            fid=plan.fid,
            status=ProvisioningStatus.DRY_RUN,
            reason=plan.reason,
            compute_seconds=plan.total_seconds,
            plan=plan,
        )

    def _apply_layout(
        self,
        fid: int,
        old: Mapping[int, BlockRange],
        new: Mapping[int, BlockRange],
        reallocations: ReallocationMap,
        journal: TableUpdateJournal,
    ) -> float:
        """Apply a committed layout change to the switch (Section 4.3).

        *fid* goes from regions *old* to *new* -- an arrival comes from
        none, a departure goes to none -- and *reallocations* is what
        that does to its neighbours (a changed stage's row holds both
        halves; an unchanged stage is read from its pool's layout, once
        per stage).  The engine applies it as one staged batch under one
        *journal* record.  Returns the modeled seconds.  A neighbour's
        maps cover only the stages within the translation window of a
        changed one: a grant depends on its own stage and a translation
        at stage p on the grants in (p, p + window] alone, so the writes,
        their order and their seconds are the full maps'.
        """
        window = TRANSLATION_WINDOW
        pools, apps = self.allocator.pools, self.allocator.apps
        layouts: Dict[int, Mapping[int, BlockRange]] = {}
        moves: List[Move] = []
        for other in sorted(reallocations):
            changes = reallocations[other]
            before: Dict[int, BlockRange] = {}
            after: Dict[int, BlockRange] = {}
            for stage in apps[other].demand_by_stage:
                change = changes.get(stage)
                if change is not None:
                    was, now = change
                    if was is not None and was.count > 0:
                        before[stage] = was
                    if now is not None and now.count > 0:
                        after[stage] = now
                    continue
                for changed in changes:
                    if changed - window <= stage <= changed + window:
                        break
                else:
                    continue  # outside every changed stage's window
                layout = layouts.get(stage)
                if layout is None:
                    layout = layouts[stage] = pools[stage].layout()
                block_range = layout.get(other)
                if block_range is not None and block_range.count > 0:
                    before[stage] = after[stage] = block_range
            moves.append((other, before, after))
        return self.updater.apply_layout(fid, old, new, journal, moves, scrub=True)

    def _snapshot_seconds(self, plan: AllocationPlan) -> float:
        """Modeled time the displaced clients spend extracting state."""
        seconds = 0.0
        for other in plan.reallocated_fids:
            paged_blocks = sum(
                old.count
                for old, _new in plan.reallocations[other].values()
                if old is not None
            )
            seconds += (
                self.snapshot_cost.per_app_handshake_seconds
                + paged_blocks * self.snapshot_cost.per_block_seconds
            )
        return seconds

    def _do_withdraw(self, fid: int) -> ProvisioningReport:
        """A departure is a layout change like an arrival, landed by
        :meth:`_land`: when the switch refuses it the report says
        ``ROLLED_BACK`` over state byte-identical to before the request,
        and *fid* stays resident.  A fid that is not resident is
        ``REJECTED`` with nothing touched.
        """
        with self.tracer.span("controller.withdraw", fid=fid) as span:
            if fid not in self.allocator.apps:
                span.set(seconds=0.0, status=ProvisioningStatus.REJECTED.value)
                return ProvisioningReport.rejected(fid, f"fid {fid} not admitted")
            seconds, fault, reason = self._land([self.allocator.release(fid)], "withdraw")
            if fault is None:
                report = ProvisioningReport(
                    fid, ProvisioningStatus.ADMITTED, table_update_seconds=seconds[0]
                )
                self.withdrawals += 1
                self.table_update_seconds.observe(seconds[0])
            else:
                report = ProvisioningReport(
                    fid, ProvisioningStatus.ROLLED_BACK, reason, fault=fault
                )
            span.set(seconds=report.table_update_seconds, status=report.status.value)
            return report

    # ------------------------------------------------------------------
    # Packet-driven API
    # ------------------------------------------------------------------

    def process_pending(self) -> List[ActivePacket]:
        """Drain switch digests, serving each and sending its replies."""
        replies: List[ActivePacket] = []
        for digest in self.device.poll_digests():
            report = self.serve_digest(digest)
            if report is not None:
                for reply in self.allocation_replies(report, digest):
                    self.device.inject(reply)
                    replies.append(reply)
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
        ``DEALLOCATE`` withdraws through :func:`withdraw_with_retries`;
        any other control digest (``SNAPSHOT_COMPLETE``) is only counted.
        Both return None.  Nothing is sent: the caller sends
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
            withdraw_with_retries(submit, fid, self.refused_withdrawals)
        self.digests["control" if report is None else "alloc_request"] += 1
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


def replay_commit_log(
    log: Sequence[CommitLogEntry],
    patterns: Mapping[int, AccessPattern],
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
    and sends those again at each later departure (not a ``REJECTED``
    one: its fid is not resident).
    """
    leaving, refused[:] = [*refused, fid], []
    left: List[int] = []
    for candidate in leaving:
        report = submit(ProvisioningRequest.withdrawal(candidate))
        if report.success:
            left.append(candidate)
        elif report.rolled_back:
            refused.append(candidate)
    return left
