"""Static analysis: the capsule verifier, plus statistics helpers.

The verifier (``findings``/``cfg``/``dataflow``/``verifier``/``lint``)
proves safety properties of active programs before they touch a
switch; the isolation certifier and invariant auditor
(``isolation``/``invariants``) extend the proofs to committed
control-plane state; ``codelint`` turns the same discipline on the
source tree itself.  The stats helpers predate all of this and remain
re-exported for the experiments.
"""

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.codelint import CodeFinding, lint_paths, lint_tree
from repro.analysis.dataflow import (
    AbstractState,
    AddressInterval,
    DataflowResult,
    MarValue,
    analyze_address_intervals,
    analyze_dataflow,
)
from repro.analysis.findings import (
    RULES,
    AnalysisReport,
    Finding,
    Rule,
    Severity,
    VerificationError,
    VerifyMode,
    summarize_reports,
)
from repro.analysis.invariants import (
    INVARIANTS,
    AuditScope,
    Invariant,
    audit_journal,
    audit_state,
    replay_findings,
)
from repro.analysis.isolation import (
    AccessProof,
    IsolationCertificate,
    certify_all,
    certify_fid,
    certify_plan,
    effective_translations,
)
from repro.analysis.lint import catalog_reports, lint_catalog
from repro.analysis.stats import (
    Summary,
    ewma,
    percentile,
    summarize,
    windowed_rate,
)
from repro.analysis.verifier import (
    TRANSLATION_WINDOW,
    analyze_many,
    analyze_program,
    linked_verdict,
    require,
    verify_linked,
    verify_plan,
)

__all__ = [
    # verifier
    "AbstractState",
    "AnalysisReport",
    "ControlFlowGraph",
    "DataflowResult",
    "Finding",
    "MarValue",
    "RULES",
    "Rule",
    "Severity",
    "TRANSLATION_WINDOW",
    "VerificationError",
    "VerifyMode",
    "analyze_dataflow",
    "analyze_many",
    "analyze_program",
    "catalog_reports",
    "lint_catalog",
    "linked_verdict",
    "require",
    "summarize_reports",
    "verify_linked",
    "verify_plan",
    # isolation certifier
    "AccessProof",
    "AddressInterval",
    "IsolationCertificate",
    "analyze_address_intervals",
    "certify_all",
    "certify_fid",
    "certify_plan",
    "effective_translations",
    # invariant auditor
    "AuditScope",
    "INVARIANTS",
    "Invariant",
    "audit_journal",
    "audit_state",
    "replay_findings",
    # mutation-discipline lint
    "CodeFinding",
    "lint_paths",
    "lint_tree",
    # statistics helpers
    "Summary",
    "ewma",
    "percentile",
    "summarize",
    "windowed_rate",
]
