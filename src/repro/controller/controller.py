"""The ActiveRMT controller: the Section 4.3 transaction.

:meth:`ActiveRmtController.submit` takes a
:class:`~repro.controller.requests.ProvisioningRequest` -- an admission
or a withdrawal -- and returns a
:class:`~repro.controller.requests.ProvisioningReport` whose ``status``
is the one outcome: a request the controller declines is ``REJECTED``,
not raised.  Three modules share the job:

- :mod:`repro.controller.requests` -- the request and report types, and
  :func:`~repro.controller.requests.withdraw_with_retries`;
- :mod:`repro.controller.wire` -- the digest wire protocol: a digested
  ``ALLOC_REQUEST`` is an admission, a ``DEALLOCATE`` digest a
  withdrawal, and a report is answered with allocation responses
  (:meth:`ActiveRmtController.process_pending` sends them at once, the
  simulations' :class:`~repro.sim.provisioner.SimProvisioner` after the
  modeled deactivation window);
- this module -- the transaction between them.

Every admission is committed through one door,
:meth:`ActiveRmtController.commit_plan`: N plans under one journal, a
lone plan being N=1.  It checks the basis, proves each member, lands
the group and reports.  A withdrawal is the same transaction without a
plan (`_do_withdraw`): the allocator hands back one
:class:`CommitResult` per layout change, arrival or departure, and
`_land` applies, unwinds or publishes them.  Each change that lands is
appended to :attr:`ActiveRmtController.commit_log`, the history
:meth:`~ActiveRmtController.recover` replays (:func:`replay_commit_log`).
A report's durations are modeled (Figure 8a's bands); the allocator,
tables and activations are updated for real.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    TYPE_CHECKING,
    Any,
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
from repro.controller import wire
from repro.controller.requests import (
    CommitLogEntry,
    ControllerError,
    ProvisioningReport,
    ProvisioningRequest,
    ProvisioningStatus,
    RequestKind,
)
from repro.controller.table_updater import Move, TableUpdateEngine
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
from repro.device import (
    Device,
    DeviceError,
    PermanentDeviceError,
    as_device,
)
from repro.faults import RetryPolicy
from repro.isa.program import ActiveProgram
from repro.packets.ethernet import MacAddress
from repro.switchsim.tables import TcamCapacityError
from repro.telemetry import (
    AnyTracer,
    Histogram,
    MetricsRegistry,
    resolve,
    resolve_tracer,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime import
    from repro.packets.codec import ActivePacket

#: Modeled client-side state extraction (Section 4.3), per displaced
#: application: one handshake, then data-plane paging of every block it
#: held -- one read packet retrieves one word per allocated stage,
#: batched, at 40-Gbps line rate plus retransmission slack.
SNAPSHOT_HANDSHAKE_S = 5.0e-3
SNAPSHOT_BLOCK_S = 5.0e-5

#: A member's proofs: the verifier's verdict on its mutant, its
#: isolation certificate, and -- in strict mode -- who refuses it and
#: the findings why.
Proof = Tuple[Optional[AnalysisReport], Optional[IsolationCertificate], Optional[Tuple[str, str]]]


class ActiveRmtController:
    """Controller running on the switch CPU.

    The controller programs against the :class:`~repro.device.Device`
    protocol, never a concrete backend: *switch* may be anything
    :func:`~repro.device.as_device` accepts (a bare
    :class:`~repro.switchsim.switch.ActiveSwitch` is wrapped in a
    :class:`~repro.device.SimDevice`).  The adapted device is
    :attr:`device`; :attr:`switch` is the backend behind it.
    """

    def __init__(
        self,
        switch: Union[Device, object],
        scheme: AllocationScheme = AllocationScheme.WORST_FIT,
        policy: AllocationPolicy = MOST_CONSTRAINED,
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
        #: = no retries).
        self.retry = retry
        #: Latched when a permanent device fault is observed (commit,
        #: rollback, or withdrawal); the fabric fails the shard over.
        self.device_failed = False
        #: Admission-time static verification policy: ``strict`` rejects
        #: any error-severity finding before commit, ``warn`` (default)
        #: records findings without blocking, ``off`` skips analysis.
        self.verify = VerifyMode.coerce(verify)
        #: Sanitizer mode: re-audit the whole committed state after every
        #: commit and withdrawal.  Violations are recorded -- never
        #: raised -- in :attr:`audit_violations` and counted.
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
            telemetry=self.telemetry,
            tracer=self.tracer,
            retry=retry,
        )
        self.mac = MacAddress.from_host_id(0xC0FFEE)
        #: Every admission and withdrawal that landed, in commit order:
        #: replaying it serially on a fresh controller reproduces the
        #: pools byte for byte (:func:`replay_commit_log`).
        self.commit_log: List[CommitLogEntry] = []
        #: Which client MAC owns a FID: where the wire protocol sends
        #: its reallocation notices.
        self.client_macs: Dict[int, MacAddress] = {}
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
        """The backend behind :attr:`device` (simulator escape hatch):
        tests reach simulator state through it; controller logic goes
        through :attr:`device`."""
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

        A fresh controller is built on *device* with *settings* (normally
        the failed instance's :meth:`settings`) and *commit_log* is
        replayed serially onto it, so its pools and tables are
        byte-identical to a clean serial execution of the committed
        history, and its own log is the one the replay wrote.
        *patterns* must cover every fid the log admits; *device* must
        be empty (recovery proves nothing about prior tenants).
        """
        controller = cls(device, **settings)
        replay_commit_log(commit_log, patterns, controller)
        controller.recoveries += 1
        return controller

    # ------------------------------------------------------------------
    # Unified entry point and its synchronous wrappers
    # ------------------------------------------------------------------

    def submit(self, request: ProvisioningRequest) -> ProvisioningReport:
        """Execute one admission or withdrawal and report the outcome.

        An admission is planned on the live allocator without touching
        any state; a dry run stops there, anything else is committed by
        :meth:`commit_plan`.  Admitting a resident fid, or withdrawing
        one that is not, is a ``REJECTED`` report naming it.  Spans open
        under the caller's open span.
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
                    if not request.dry_run:
                        (report,) = self.commit_plan([plan], [request.program])
                    else:  # the plan is the entire result
                        self.allocator.abort(plan)
                        self.whatif_probes["yes" if plan.feasible else "no"] += 1
                        report = ProvisioningReport(
                            plan.fid,
                            ProvisioningStatus.DRY_RUN,
                            plan.reason,
                            compute_seconds=plan.total_seconds,
                            plan=plan,
                        )
                span.set(status=report.status.value)
                return report
        if request.kind is RequestKind.WITHDRAW:
            return self._do_withdraw(request.fid)
        raise ControllerError(f"unknown request kind {request.kind!r}")

    def admit(
        self,
        *,
        fid: int,
        pattern: AccessPattern,
        dry_run: bool = False,
        program: Optional[ActiveProgram] = None,
    ) -> ProvisioningReport:
        """Admit an application (:meth:`submit` of an admission).  With
        ``dry_run=True`` nothing is updated: the report carries the plan
        a real admission would commit.  Passing the compact *program*
        lets the static verifier check the mutant being installed."""
        return self.submit(ProvisioningRequest.admission(fid, pattern, dry_run, program))

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

        :meth:`submit` brings a lone plan computed on the live
        allocator, the admission service a group's plans computed
        consecutively against one shadow (each rehearsed before the
        next was planned), so their basis stamps replay exactly onto
        the real allocator.  A member without a feasible mutant, or one
        strict mode refuses, rejects the whole group; a TCAM rejection
        or device fault while landing leaves switch and allocator
        byte-identical to before (every report ``ROLLED_BACK``).  One
        report per plan, in order; *programs* are the members' compact
        programs (for the verifier), none by default.

        Raises:
            StalePlanError: when the group's basis version no longer
                matches (nothing touched).
        """
        if programs is None:
            programs = [None] * len(plans)
        # Labels anomalies, ``during=`` and the stale and rollback reasons.
        scope = "single" if len(plans) == 1 else "batch"
        # Inside the span, so a StalePlanError is recorded as its error.
        with self.tracer.span(
            "controller.commit_plan",
            size=len(plans),
            basis_version=plans[0].basis_version,
        ) as span:
            # 1. Check the basis.  A stale group touches nothing, not even
            # to report an infeasible member: its infeasibility may be
            # the stale shadow's.
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
            # 2. Prove: a member without a feasible mutant rejects the
            # group before any sibling is touched; so does the first
            # member strict mode refuses.
            culprit = next((plan for plan in plans if not plan.feasible), None)
            proofs: List[Proof] = []
            refusal: Optional[Tuple[str, str]] = None
            if culprit is None:
                for plan, program in zip(plans, programs):
                    proofs.append(self._prove(plan, program))
                    refusal = proofs[-1][2]
                    if refusal is not None:
                        break
            if culprit is not None:
                reports = [self._report_infeasible(plan, culprit) for plan in plans]
            elif refusal is not None:
                reports = self._reject(plans, proofs, *refusal)
            else:
                # 3. Land: each plan is committed to the allocator after
                # the previous member's table writes.  A rollback leaves
                # every plan the fault reached ABORTED, the ones it
                # pre-empted PENDING.
                seconds, fault, reason = self._land(
                    (self.allocator.commit(plan) for plan in plans), scope
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
                    for plan, (verification, certificate, _), took in zip(
                        plans, proofs, seconds
                    )
                ]
            span.set(status=reports[0].status.value)
            return reports

    def _prove(self, plan: AllocationPlan, program: Optional[ActiveProgram]) -> Proof:
        """Prove one member while nothing is mutated: the static
        verifier over the mutant *plan* installs (when the request
        carried its *program*), then the isolation certificate of the
        planned layout against every incumbent's post-plan regions.
        Findings and certificates are counted in every mode but
        ``off`` (no proofs); only strict mode refuses on them."""
        if self.verify is VerifyMode.OFF:
            return None, None, None
        config = self.device.config
        verification: Optional[AnalysisReport] = None
        if program is not None:
            verification = verify_plan(program, plan.pattern, plan, config=config)
            self.findings.update((f.rule_id, f.severity.value) for f in verification.findings)
        certificate = certify_plan(
            plan,
            config=config,
            program=program,
            pattern=plan.pattern if program is not None else None,
            incumbents=self._incumbent_regions(plan),
        )
        self.certified["valid" if certificate.valid else "invalid"] += 1
        refusal: Optional[Tuple[str, str]] = None
        if self.verify is VerifyMode.STRICT:
            if verification is not None and verification.has_errors:
                refusal = "verifier", "; ".join(str(f) for f in verification.errors)
            elif not certificate.valid:
                refusal = "certifier", "; ".join(
                    str(f) for f in certificate.findings if f.severity is Severity.ERROR
                )
        return verification, certificate, refusal

    def _reject(
        self,
        plans: Sequence[AllocationPlan],
        proofs: Sequence[Proof],
        kind: str,
        findings: str,
    ) -> List[ProvisioningReport]:
        """Strict rejection: fail the group before any member mutated.
        The culprit is the last member proven; the ones after it never
        were."""
        culprit = plans[len(proofs) - 1]
        for plan in plans:
            self.allocator.abort(plan)
        self.verifier_rejections += 1
        unproven: List[Proof] = [(None, None, None)] * (len(plans) - len(proofs))
        return [
            self._report(
                plan,
                ProvisioningStatus.REJECTED,
                "verifier_rejected",
                f"{kind} rejected: {findings}"
                if plan is culprit
                else f"batch aborted: fid {culprit.fid} rejected by {kind}",
                verification,
                certificate,
            )
            for plan, (verification, certificate, _) in zip(plans, [*proofs, *unproven])
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
        """A planning-time rejection: *culprit*, the group's first
        infeasible plan, carries the planner's verdict and is the one
        recorded; its siblings are aborted with it and only say why."""
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
        self.device_failed = True
        self.tracer.anomaly("device_failed", scope=scope, fid=fid, cause=cause)
        self.device_failures[during] += 1

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
        """Audit the committed state against the invariant catalog;
        violations are counted in :attr:`violations` by rule, callers
        decide policy."""
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
            seconds += SNAPSHOT_HANDSHAKE_S + paged_blocks * SNAPSHOT_BLOCK_S
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

    def process_pending(self) -> List[ActivePacket]:
        """Drain switch digests, serving each (:func:`wire.serve_digest`)
        and sending its replies at once."""
        replies: List[ActivePacket] = []
        for digest in self.device.poll_digests():
            report = wire.serve_digest(self, digest)
            if report is not None:
                for reply in wire.allocation_replies(self, report, digest):
                    self.device.inject(reply)
                    replies.append(reply)
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
