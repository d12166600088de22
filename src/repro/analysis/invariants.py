"""Declarative whole-state invariants over the committed control plane.

Where :mod:`repro.analysis.isolation` certifies one FID at a time, this
module audits the *entire* committed state -- allocator pools, app
records, and the device's installed table entries, read once as a
:class:`~repro.analysis.isolation.TableSnapshot` -- against a
declarative catalog of invariants.  Each invariant is a named,
rule-tagged predicate producing zero or more findings; the audit result
is a standard :class:`~repro.analysis.findings.AnalysisReport`, so the
same severity policy (``VerifyMode``), counting, and golden
tests apply.

The catalog runs three ways:

- **commit-time gate** -- the controller's sanitizer mode re-audits
  after every commit (:meth:`ActiveRmtController.audit`),
- **fabric sweep** -- ``Fabric.audit()`` audits every shard, adjacent
  to the ``fingerprint()`` parity checks,
- **offline replay** -- ``python -m repro.experiments audit`` replays a
  commit log epoch by epoch and re-audits each intermediate state.

Journal undo-completeness and replay divergence (ARMT015) are audited
by :func:`audit_journal` and :func:`replay_findings`; the replay itself
is driven by the callers above, because this module must not import
:mod:`repro.controller` at runtime.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    List,
    Optional,
    Tuple,
)

from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.isolation import TableSnapshot, certify_snapshot
from repro.analysis.verifier import _ordered

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime import
    from repro.core.allocator import ActiveRmtAllocator
    from repro.core.transactions import TableUpdateJournal
    from repro.device import Device


@dataclasses.dataclass(frozen=True)
class AuditScope:
    """Everything one audit pass may look at (read-only by contract)."""

    allocator: "ActiveRmtAllocator"
    snapshot: TableSnapshot


@dataclasses.dataclass(frozen=True)
class Invariant:
    """One named whole-state predicate in the audit catalog."""

    name: str
    rule_id: str
    description: str
    check: Callable[[AuditScope], List[Finding]]


def _check_region_exclusivity(scope: AuditScope) -> List[Finding]:
    """No two FIDs' block ranges overlap within any stage pool.

    A sweep over ranges sorted by start: any overlap shows up against
    the running maximum-end incumbent, so the check is O(n log n) per
    stage instead of pairwise quadratic.
    """
    findings: List[Finding] = []
    for stage, pool in sorted(scope.allocator.pools.items()):
        ordered = sorted(
            pool.layout().items(), key=lambda item: (item[1].start, item[0])
        )
        max_fid: Optional[int] = None
        max_end = -1
        for fid, block_range in ordered:
            if max_fid is not None and block_range.start < max_end:
                findings.append(
                    Finding.of(
                        "ARMT011",
                        f"stage {stage}: fid {fid} blocks "
                        f"[{block_range.start}, {block_range.end}) "
                        f"overlap fid {max_fid} blocks ending at "
                        f"{max_end}",
                        stage=stage,
                    )
                )
            if block_range.end > max_end:
                max_fid, max_end = fid, block_range.end
    return findings


def _check_block_accounting(scope: AuditScope) -> List[Finding]:
    """Per-stage block sums equal the pool's own accounting and fit."""
    findings: List[Finding] = []
    for stage, pool in sorted(scope.allocator.pools.items()):
        layout = pool.layout()
        total = sum(block_range.count for block_range in layout.values())
        if total != pool.used_blocks:
            findings.append(
                Finding.of(
                    "ARMT014",
                    f"stage {stage}: layout sums to {total} blocks but "
                    f"the pool reports used_blocks={pool.used_blocks}",
                    stage=stage,
                )
            )
        if pool.used_blocks > pool.total_blocks:
            findings.append(
                Finding.of(
                    "ARMT014",
                    f"stage {stage}: {pool.used_blocks} blocks used of "
                    f"only {pool.total_blocks} available",
                    stage=stage,
                )
            )
        for fid, block_range in sorted(layout.items()):
            if block_range.start < 0 or block_range.end > pool.total_blocks:
                findings.append(
                    Finding.of(
                        "ARMT014",
                        f"stage {stage}: fid {fid} blocks "
                        f"[{block_range.start}, {block_range.end}) fall "
                        f"outside the pool [0, {pool.total_blocks})",
                        stage=stage,
                    )
                )
    return findings


def _check_residency(scope: AuditScope) -> List[Finding]:
    """Pool residents and app records name exactly the same FIDs."""
    findings: List[Finding] = []
    admitted = set(scope.allocator.apps)
    for stage, pool in sorted(scope.allocator.pools.items()):
        for fid in sorted(set(pool.layout()) - admitted):
            findings.append(
                Finding.of(
                    "ARMT014",
                    f"stage {stage}: fid {fid} holds blocks but has no "
                    "admission record",
                    stage=stage,
                )
            )
    return findings


def _check_table_certificates(scope: AuditScope) -> List[Finding]:
    """Installed entries exactly enforce the layout, FID by FID.

    Delegates to the isolation certifier (ARMT011/012/013); the
    invariant holds iff every resident FID's live certificate is valid.
    """
    findings: List[Finding] = []
    for certificate in certify_snapshot(scope.allocator, scope.snapshot).values():
        findings.extend(certificate.findings)
    return findings


def _check_orphan_entries(scope: AuditScope) -> List[Finding]:
    """No table entry names a FID the allocator has never admitted."""
    findings: List[Finding] = []
    admitted = set(scope.allocator.apps)
    for stage, grants in scope.snapshot.grants.items():
        for fid in grants:
            if fid not in admitted:
                findings.append(
                    Finding.of(
                        "ARMT012",
                        f"stage {stage}: grant installed for fid {fid}, "
                        "which has no admission record",
                        stage=stage,
                    )
                )
        for fid in scope.snapshot.translations[stage]:
            if fid not in admitted:
                findings.append(
                    Finding.of(
                        "ARMT013",
                        f"stage {stage}: translation installed for fid "
                        f"{fid}, which has no admission record",
                        stage=stage,
                    )
                )
    return findings


def _check_tcam_accounting(scope: AuditScope) -> List[Finding]:
    """Stage TCAM occupancy equals the sum of installed grant costs."""
    findings: List[Finding] = []
    for stage, (used, capacity) in scope.snapshot.tcam.items():
        expected = sum(grant.tcam_cost() for grant in scope.snapshot.grants[stage].values())
        if used != expected:
            findings.append(
                Finding.of(
                    "ARMT014",
                    f"stage {stage}: TCAM reports {used} entries used "
                    f"but the installed grants cost {expected}",
                    stage=stage,
                )
            )
        if used > capacity:
            findings.append(
                Finding.of(
                    "ARMT014",
                    f"stage {stage}: TCAM occupancy {used} exceeds "
                    f"capacity {capacity}",
                    stage=stage,
                )
            )
    return findings


#: The audit catalog.  Order is the report order; names are stable
#: identifiers for tests and telemetry.
INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        "region-exclusivity",
        "ARMT011",
        "no two FIDs' block ranges overlap within any stage pool",
        _check_region_exclusivity,
    ),
    Invariant(
        "block-accounting",
        "ARMT014",
        "per-stage block sums equal the pool's used_blocks and fit",
        _check_block_accounting,
    ),
    Invariant(
        "residency",
        "ARMT014",
        "pool residents and admission records name the same FIDs",
        _check_residency,
    ),
    Invariant(
        "table-certificates",
        "ARMT012",
        "installed grants/translations exactly enforce the layout",
        _check_table_certificates,
    ),
    Invariant(
        "orphan-entries",
        "ARMT012",
        "no table entry names a FID without an admission record",
        _check_orphan_entries,
    ),
    Invariant(
        "tcam-accounting",
        "ARMT014",
        "stage TCAM occupancy equals the sum of grant costs",
        _check_tcam_accounting,
    ),
)


def audit_state(allocator: "ActiveRmtAllocator", tables: "Device") -> AnalysisReport:
    """Run the whole catalog against one committed state, reading *tables* once."""
    scope = AuditScope(allocator=allocator, snapshot=TableSnapshot.of(tables))
    findings: List[Finding] = []
    for invariant in INVARIANTS:
        findings.extend(invariant.check(scope))
    return AnalysisReport(
        program="state-audit", findings=tuple(_ordered(findings))
    )


def audit_journal(journal: "TableUpdateJournal") -> AnalysisReport:
    """ARMT015: every recorded entry must carry a callable undo.

    An entry without an undo breaks the all-or-nothing rollback
    contract -- a mid-flight failure after it would strand the device
    between states the commit log can never reproduce.
    """
    findings: List[Finding] = []
    for index, entry in enumerate(journal.entries):
        if not callable(entry.undo):
            findings.append(
                Finding.of(
                    "ARMT015",
                    f"journal entry {index} ({entry.description!r}) has "
                    "no callable undo; rollback past it is impossible",
                )
            )
    return AnalysisReport(
        program="journal-audit", findings=tuple(findings)
    )


def replay_findings(
    live_fingerprint: Any, replayed_fingerprint: Any, label: str = "state"
) -> List[Finding]:
    """ARMT015: compare a live fingerprint against its replay twin.

    The caller replays the commit log (``replay_commit_log``) onto a
    fresh stack and passes both ``pools_fingerprint`` values; a
    mismatch means the serialized history does not explain the state.
    """
    if live_fingerprint == replayed_fingerprint:
        return []
    return [
        Finding.of(
            "ARMT015",
            f"{label}: commit-log replay does not reproduce the live "
            "pools fingerprint (serialized history diverges from the "
            "committed state)",
        )
    ]
