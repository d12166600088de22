"""Finding model for the capsule verifier (rule IDs, severities, reports).

The verifier reports *findings*, not exceptions: each defect class has a
stable rule ID (``ARMT001``...) and a default severity so controllers,
compilers, and CI jobs can apply a uniform policy -- reject on ``error``,
surface ``warning``/``info`` -- without parsing message text.  The model
mirrors what compiler diagnostics look like in the Packet Transactions
line of work: machine-readable, position-anchored, severity-tiered.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Dict, Mapping, Optional, Tuple


class Severity(enum.Enum):
    """Severity tier of one finding."""

    ERROR = "error"  # the program will fault or corrupt state at runtime
    WARNING = "warning"  # suspicious; very likely a bug, not provably fatal
    INFO = "info"  # statically unverifiable; enforced at runtime instead

    @property
    def rank(self) -> int:
        """Orderable weight (higher = more severe)."""
        return {"info": 0, "warning": 1, "error": 2}[self.value]


class VerifyMode(enum.Enum):
    """Verification policy knob shared by compiler and controller.

    - ``OFF``: verification is skipped entirely (the pre-verifier
      behaviour, byte-identical admission path).
    - ``WARN`` (default): findings are recorded and exported via
      telemetry but never block compilation or admission.
    - ``STRICT``: any ``error``-severity finding rejects the program
      before any allocator or switch state is touched.
    """

    OFF = "off"
    WARN = "warn"
    STRICT = "strict"

    @classmethod
    def coerce(cls, value: "VerifyMode | str") -> "VerifyMode":
        """Accept either a mode or its string name (``"strict"``...)."""
        if isinstance(value, VerifyMode):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            raise ValueError(
                f"unknown verify mode {value!r}; choose from "
                f"{[m.value for m in cls]}"
            ) from None


@dataclasses.dataclass(frozen=True)
class Rule:
    """One defect class with a stable identifier."""

    rule_id: str
    title: str
    severity: Severity
    description: str


#: The rule catalog.  IDs are append-only and never renumbered; DESIGN.md
#: section 10 carries the authoritative prose for each.
RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "ARMT001",
            "unreachable-instruction",
            Severity.WARNING,
            "No control-flow path from program entry reaches the "
            "instruction; it can never execute.",
        ),
        Rule(
            "ARMT002",
            "undefined-read",
            Severity.WARNING,
            "A PHV field (MAR/MBR/MBR2) is consumed before any "
            "instruction writes it, or HASH runs on empty hashdata; "
            "the value is the parser's zero-initialisation, which is "
            "almost never what the program means.",
        ),
        Rule(
            "ARMT003",
            "out-of-region-access",
            Severity.ERROR,
            "A memory-access instruction executes in a physical stage "
            "that carries no granted region; the runtime protection "
            "TCAM will fault every packet that reaches it.",
        ),
        Rule(
            "ARMT004",
            "recirculation-overflow",
            Severity.ERROR,
            "The padded program needs more recirculations than the "
            "device budget allows; packets fault mid-program when the "
            "budget runs out.",
        ),
        Rule(
            "ARMT005",
            "ingress-misplacement",
            Severity.WARNING,
            "An ingress-preferred instruction (RTS/CRTS/SET_DST/FORK) "
            "lands in the egress half-pipeline; each firing costs one "
            "extra recirculation to change ports.",
        ),
        Rule(
            "ARMT006",
            "pattern-mismatch",
            Severity.ERROR,
            "The program being installed disagrees with the access "
            "pattern the allocation was granted for (length, access "
            "positions, or ingress-bound position differ).",
        ),
        Rule(
            "ARMT007",
            "untranslated-hash-address",
            Severity.ERROR,
            "A memory access consumes a raw (or only partially "
            "translated) hash address; a uniform 32-bit digest lies "
            "outside any granted region almost surely, so the access "
            "faults at runtime instead of landing in the region the "
            "ADDR_MASK/ADDR_OFFSET pair would have clamped it into.",
        ),
        Rule(
            "ARMT008",
            "translation-unavailable",
            Severity.ERROR,
            "ADDR_MASK or ADDR_OFFSET executes in a stage where the "
            "controller installs no translation entry (outside the "
            "translation window of every granted stage); the "
            "instruction faults at runtime.",
        ),
        Rule(
            "ARMT009",
            "runtime-checked-address",
            Severity.INFO,
            "A memory access uses a client-supplied or computed "
            "address that static analysis cannot bound; the TCAM "
            "range match enforces the region at runtime.",
        ),
        Rule(
            "ARMT010",
            "proven-out-of-region",
            Severity.ERROR,
            "Address-interval analysis proves a reachable memory "
            "access lies outside every region granted to the FID in "
            "its physical stage; the protection TCAM faults every "
            "packet that reaches it.",
        ),
        Rule(
            "ARMT011",
            "cross-fid-region-overlap",
            Severity.ERROR,
            "Two FIDs' allocated (or granted) memory regions overlap "
            "within one physical stage; the by-construction isolation "
            "guarantee of Section 3.4 is violated.",
        ),
        Rule(
            "ARMT012",
            "grant-region-mismatch",
            Severity.ERROR,
            "The installed entries for a FID are not exactly the set "
            "its allocation implies: a TCAM grant missing, orphaned or "
            "mis-ranged, or a translation missing, orphaned or not the "
            "nearest upcoming region's pair -- so the runtime enforces "
            "a different boundary, or resolves a different region, "
            "than the allocator granted.",
        ),
        Rule(
            "ARMT013",
            "translation-escape",
            Severity.ERROR,
            "An installed (mask, offset) address translation can map "
            "a masked address outside the FID's granted region, so a "
            "fully translated access may still fault or be denied.",
        ),
        Rule(
            "ARMT014",
            "state-accounting-mismatch",
            Severity.ERROR,
            "Whole-state accounting is broken: per-stage block sums, "
            "TCAM occupancy, or pool layouts disagree with the "
            "allocator's own records.",
        ),
        Rule(
            "ARMT015",
            "replay-divergence",
            Severity.ERROR,
            "Serial replay of the commit log does not reproduce the "
            "committed state byte for byte, or a transaction journal "
            "is not undo-complete; the linearizability witness is "
            "broken.",
        ),
    )
}


@dataclasses.dataclass(frozen=True)
class Finding:
    """One diagnostic anchored to a program position.

    Attributes:
        rule_id: stable ``ARMT###`` identifier.
        severity: tier of this occurrence (defaults to the rule's).
        message: human-readable explanation.
        position: 1-indexed instruction position in the analysed
            program (``None`` for whole-program findings).
        stage: 1-indexed physical stage, when stage-anchored.
    """

    rule_id: str
    severity: Severity
    message: str
    position: Optional[int] = None
    stage: Optional[int] = None

    @classmethod
    def of(
        cls,
        rule_id: str,
        message: str,
        position: Optional[int] = None,
        stage: Optional[int] = None,
        severity: Optional[Severity] = None,
    ) -> "Finding":
        """Build a finding, defaulting severity from the rule catalog."""
        rule = RULES[rule_id]
        return cls(
            rule_id=rule_id,
            severity=severity if severity is not None else rule.severity,
            message=message,
            position=position,
            stage=stage,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "position": self.position,
            "stage": self.stage,
        }

    def __str__(self) -> str:
        anchor = f" @{self.position}" if self.position is not None else ""
        return f"[{self.rule_id} {self.severity.value}{anchor}] {self.message}"


@dataclasses.dataclass(frozen=True)
class AnalysisReport:
    """The verifier's verdict on one program."""

    program: str
    findings: Tuple[Finding, ...] = ()

    @property
    def errors(self) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> Tuple[Finding, ...]:
        return tuple(
            f for f in self.findings if f.severity is Severity.WARNING
        )

    @property
    def infos(self) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.INFO)

    @property
    def has_errors(self) -> bool:
        return any(f.severity is Severity.ERROR for f in self.findings)

    @property
    def clean(self) -> bool:
        """True when there are no findings at all."""
        return not self.findings

    def rule_ids(self) -> Tuple[str, ...]:
        """Rule IDs of all findings, in report order (with repeats)."""
        return tuple(f.rule_id for f in self.findings)

    def by_rule(self) -> Dict[str, int]:
        """Occurrence count per rule ID."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts

    def acceptable(self, mode: VerifyMode) -> bool:
        """Does this report pass under *mode*?"""
        if mode is VerifyMode.STRICT:
            return not self.has_errors
        return True

    def merged(self, other: "AnalysisReport") -> "AnalysisReport":
        """Concatenate two reports over the same program."""
        return AnalysisReport(
            program=self.program, findings=self.findings + other.findings
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "program": self.program,
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "info": len(self.infos),
            },
        }

    def format_text(self) -> str:
        """Multi-line human-readable rendering."""
        lines = [
            f"{self.program}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {len(self.infos)} info"
        ]
        lines.extend(f"  {finding}" for finding in self.findings)
        return "\n".join(lines)


class VerificationError(Exception):
    """Raised in strict mode when a program fails verification."""

    def __init__(self, report: AnalysisReport) -> None:
        self.report = report
        summary = "; ".join(str(f) for f in report.errors) or "no errors"
        super().__init__(
            f"{report.program}: verification failed ({summary})"
        )


def record_report(
    telemetry: Any, report: AnalysisReport, plane: str
) -> None:
    """Publish a report's finding counts to a metrics registry.

    ``telemetry`` is duck-typed (``enabled`` + ``counter``) so this
    module does not import :mod:`repro.telemetry`; passing the inert
    NullRegistry is free.
    """
    if not getattr(telemetry, "enabled", False):
        return
    counts: Dict[Tuple[str, str], int] = {}
    for finding in report.findings:
        key = (finding.rule_id, finding.severity.value)
        counts[key] = counts.get(key, 0) + 1
    for (rule_id, severity), count in counts.items():
        telemetry.counter(
            "verifier_findings_total",
            help="Static-verifier findings by rule and severity",
            plane=plane,
            rule=rule_id,
            severity=severity,
        ).inc(count)


def summarize_reports(
    reports: Mapping[str, AnalysisReport]
) -> Dict[str, Any]:
    """JSON-ready summary across a batch of reports (the lint output)."""
    total_errors = sum(len(r.errors) for r in reports.values())
    total_warnings = sum(len(r.warnings) for r in reports.values())
    total_infos = sum(len(r.infos) for r in reports.values())
    return {
        "programs": {name: reports[name].to_dict() for name in sorted(reports)},
        "summary": {
            "programs": len(reports),
            "errors": total_errors,
            "warnings": total_warnings,
            "info": total_infos,
        },
    }
