"""Offline state auditor: replay a commit log and re-certify each epoch.

Not a paper figure: this is the third leg of the invariant catalog in
:mod:`repro.analysis.invariants` (the other two are the controller's
commit-time sanitizer and ``Fabric.audit()``).  A fixed-seed churn
workload runs through a sanitizer-enabled controller; its commit log --
the serialization-order witness every run must equal -- is
then replayed entry by entry onto a fresh stack, and after *every*
replayed commit the whole-state invariant catalog runs again and each
admission's isolation certificate is re-derived.  The replayed final
state must reproduce the live pools fingerprint (ARMT015 otherwise),
and both final table surfaces must equal a from-scratch install of
their layout -- the path-independence check delta table updates rest
on (``table_surface`` in the report).  The whole leg then runs a second
time on a switch with a 32-entry TCAM per stage, where admissions *and*
withdrawals are refused mid-table-update and rolled back: every such
refusal must be invisible to the sanitizer, the replay and the surface
check alike (``starved`` in the report).

The run ends with a rigged-mutant demonstration: a program whose
double ``ADDR_OFFSET`` provably escapes its granted region is submitted
to a strict-mode controller, which must reject it (ARMT010) while
leaving allocator and table state byte-identical to before the attempt.

``python -m repro.experiments audit`` exits non-zero on any violation;
the CI ``audit-smoke`` job gates on that.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.analysis.findings import Finding
from repro.analysis.invariants import replay_findings
from repro.controller.controller import ActiveRmtController
from repro.controller.service import AdmissionService, pools_fingerprint
from repro.core.constraints import AccessPattern
from repro.experiments.common import (
    ChurnDriver,
    ScenarioResult,
    make_controller,
    table_surface_mismatches,
)
from repro.isa import assemble
from repro.switchsim.config import SwitchConfig
from repro.switchsim.switch import ActiveSwitch
from repro.workloads.arrivals import poisson_events

#: An in-bounds single-access app used to pin the rigged program's
#: region away from word 0 (so its escape is not a no-op offset).
_FILLER = """
MBR_LOAD $0
COPY_HASHDATA_MBR
HASH
NOP
ADDR_MASK
ADDR_OFFSET
MEM_WRITE
RETURN
"""

#: The rigged mutant: the duplicated ADDR_OFFSET re-adds the region
#: base, so the access interval lands provably past the granted region.
_RIGGED = """
MBR_LOAD $0
COPY_HASHDATA_MBR
HASH
ADDR_MASK
ADDR_OFFSET
ADDR_OFFSET
MEM_WRITE
RETURN
"""


@dataclasses.dataclass
class MutantDemo:
    """Outcome of the rigged out-of-bounds admission attempt."""

    rejected: bool
    state_intact: bool
    rules: List[str]
    reason: str


#: TCAM entries per stage of the second leg: few enough that the
#: fixed-seed churn has layout changes refused in both directions.
STARVED_TCAM_ENTRIES = 32


@dataclasses.dataclass
class AuditResult(ScenarioResult):
    epochs: int
    seed: int
    tcam_entries: int
    admitted: int
    withdrawn: int
    #: Layout changes the switch refused and the controller rolled back
    #: (state byte-identical to before; a refused withdrawal is re-sent
    #: at the next departure).
    rolled_back_admissions: int
    refused_withdrawals: int
    live_violations: List[str]
    #: Admissions whose commit-time certificate was missing or invalid.
    uncertified_admissions: int
    replayed_entries: int
    replay_violations: List[str]
    replay_diverged: bool
    #: Entries where a final table surface differs from a from-scratch
    #: install of its own layout, for the ``live`` and ``replay`` runs.
    table_surface: Dict[str, List[str]]
    #: The rigged-mutant demonstration and the same audit on a
    #: TCAM-starved switch: on the default leg only.
    demo: Optional[MutantDemo] = None
    starved: Optional["AuditResult"] = None

    @property
    def violations(self) -> List[str]:
        out = list(self.live_violations) + list(self.replay_violations)
        out.extend(
            f"{run} table surface: {mismatch}"
            for run, mismatches in self.table_surface.items()
            for mismatch in mismatches
        )
        if self.uncertified_admissions:
            out.append(
                f"{self.uncertified_admissions} admission(s) committed "
                "without a valid isolation certificate"
            )
        if self.replay_diverged:
            out.append("commit-log replay diverged from the live state")
        if self.demo is not None and not self.demo.rejected:
            out.append("rigged out-of-bounds mutant was NOT rejected")
        if self.demo is not None and not self.demo.state_intact:
            out.append("rigged-mutant rejection mutated committed state")
        if self.starved is not None:
            out.extend(
                f"{self.starved.tcam_entries}-entry TCAM: {violation}"
                for violation in self.starved.violations
            )
        return out

    def __str__(self) -> str:
        lines = [
            f"-- {self.tcam_entries} TCAM entries per stage --",
            f"workload: {self.epochs} epochs (Poisson, seed {self.seed}) "
            f"-> {self.admitted} admitted / {self.withdrawn} withdrawn; "
            f"refused and rolled back: {self.rolled_back_admissions} "
            f"admission(s), {self.refused_withdrawals} withdrawal(s)",
            f"commit log: {self.replayed_entries} entries replayed; "
            "invariant catalog re-audited after every entry",
            f"live state: {len(self.live_violations)} violation(s); "
            f"uncertified admissions: {self.uncertified_admissions}",
            f"replay: {len(self.replay_violations)} violation(s); "
            f"fingerprint {'DIVERGED' if self.replay_diverged else 'matches'}",
            "table surface vs from-scratch install: "
            + ", ".join(
                f"{run} {len(mismatches)} mismatch(es)"
                for run, mismatches in self.table_surface.items()
            ),
            "",
        ]
        if self.starved is None or self.demo is None:
            return "\n".join(lines)
        demo = self.demo
        return "\n".join([
            "Offline state audit: commit-log replay + per-epoch re-certification",
            "",
            *lines,
            str(self.starved),
            "rigged out-of-bounds mutant (strict mode): "
            + (
                f"rejected ({', '.join(demo.rules) or 'no rules'}); "
                f"state {'intact' if demo.state_intact else 'MUTATED'}"
                if demo.rejected
                else "NOT REJECTED"
            ),
            *([f"  reason: {demo.reason}"] if demo.reason else []),
        ])


def _format_finding(finding: Finding) -> str:
    where = f" (stage {finding.stage})" if finding.stage is not None else ""
    return f"[{finding.rule_id}] {finding.message}{where}"


def _demo_rejection() -> MutantDemo:
    """Strict mode must refuse the rigged mutant without touching state.

    The 8-stage / zero-recirculation config makes the mutant's shape
    deterministic (one pass, access at physical stage 7); the filler
    app pins the rigged region's base to a non-zero word offset so the
    duplicated ``ADDR_OFFSET`` provably escapes it.
    """
    config = SwitchConfig(
        num_stages=8, ingress_stages=4, max_recirculations=0
    )
    controller = ActiveRmtController(ActiveSwitch(config), verify="strict")
    filler = assemble(_FILLER, name="filler")
    report = controller.admit(
        fid=101,
        pattern=AccessPattern.from_program(
            filler, demands=[8], name="filler"
        ),
        program=filler,
    )
    if not report.success:
        return MutantDemo(
            rejected=False,
            state_intact=True,
            rules=[],
            reason=f"filler admission failed: {report.reason}",
        )
    before = pools_fingerprint(controller.allocator)
    rigged = assemble(_RIGGED, name="rigged")
    rigged_report = controller.admit(
        fid=102,
        pattern=AccessPattern.from_program(
            rigged, demands=[4], name="rigged"
        ),
        program=rigged,
    )
    after = pools_fingerprint(controller.allocator)
    rules: List[str] = []
    if rigged_report.certificate is not None:
        rules = sorted(
            {f.rule_id for f in rigged_report.certificate.findings}
        )
    return MutantDemo(
        rejected=not rigged_report.success,
        state_intact=before == after,
        rules=rules,
        reason=rigged_report.reason or "",
    )


def run_audit(epochs: int = 30, seed: int = 7) -> AuditResult:
    """Both legs and the rigged-mutant demo; any violation fails."""
    result = _run_leg(epochs, seed, SwitchConfig())
    result.demo = _demo_rejection()
    result.starved = _run_leg(
        epochs, seed, SwitchConfig(tcam_entries_per_stage=STARVED_TCAM_ENTRIES)
    )
    return result


def _run_leg(epochs: int, seed: int, config: SwitchConfig) -> AuditResult:
    """Churn, audit live, replay the log, re-audit every epoch."""
    live = make_controller(config=config, sanitizer=True)
    service = AdmissionService(live)
    drive = ChurnDriver(service.submit)
    drive.drive(poisson_events(epochs=epochs, seed=seed))
    outcomes = drive.outcomes()
    reports = drive.reports.values()
    uncertified = sum(
        1
        for report in reports
        if report.success and not (report.certificate and report.certificate.valid)
    )

    # The sanitizer audited after every commit; anything it caught is
    # in audit_violations.  Re-audit the final state and re-derive the
    # live certificates once more for the report.
    live_violations = [
        _format_finding(f) for f in live.audit_violations
    ]
    live_violations.extend(
        _format_finding(f) for f in live.audit().errors
    )
    for fid, certificate in sorted(live.certificates().items()):
        if not certificate.valid:
            live_violations.append(
                f"fid {fid}: live isolation certificate invalid"
            )

    # Entry-by-entry replay: each intermediate state must satisfy the
    # whole catalog, and each replayed admission must certify.
    replay = make_controller(config=config, sanitizer=False)
    replay_violations: List[str] = []
    for index, (kind, fid) in enumerate(service.commit_log):
        label = f"replay entry {index} ({kind} fid {fid})"
        if kind == "admit":
            replayed = replay.admit(fid=fid, pattern=drive.pattern_of_fid[fid])
            if not replayed.success:
                replay_violations.append(
                    f"{label}: serial replay rejected an admission the "
                    f"live run committed: {replayed.reason}"
                )
                continue
            certificate = replayed.certificate
            if certificate is None or not certificate.valid:
                replay_violations.append(
                    f"{label}: no valid isolation certificate"
                )
        else:
            replay.withdraw(fid=fid)
        replay_violations.extend(
            f"{label}: {_format_finding(f)}"
            for f in replay.audit().errors
        )

    divergence = replay_findings(
        pools_fingerprint(live.allocator),
        pools_fingerprint(replay.allocator),
        label="audit replay",
    )
    replay_violations.extend(_format_finding(f) for f in divergence)

    return AuditResult(
        epochs=epochs,
        seed=seed,
        tcam_entries=config.tcam_entries_per_stage,
        admitted=outcomes.admitted,
        withdrawn=len(drive.withdrawn),
        rolled_back_admissions=outcomes.rolled_back,
        refused_withdrawals=drive.refused_withdrawals,
        live_violations=live_violations,
        uncertified_admissions=uncertified,
        replayed_entries=len(service.commit_log),
        replay_violations=replay_violations,
        replay_diverged=bool(divergence),
        table_surface={
            "live": table_surface_mismatches(live),
            "replay": table_surface_mismatches(replay),
        },
    )
