"""The live-state audit as of commit d649c6d, kept as an oracle.

- :class:`TableSnapshot`, :func:`certify_fid` and :func:`certify_all`
  are that commit's ``repro.analysis.isolation`` ones, verbatim: the
  snapshot reads grants and translations but not TCAM occupancy, and
  each FID's certificate scans every other grant in its stages.
- :func:`_check_table_certificates`, :func:`_check_orphan_entries` and
  :func:`_check_tcam_accounting` are that commit's invariants, verbatim:
  the first reads the device through :func:`certify_all`'s snapshot, the
  other two read the device themselves.  :func:`audit_state` runs the
  catalog with these three in place of today's, so the whole report can
  be compared with :func:`repro.analysis.invariants.audit_state`.

One thing differs from that commit: it read the device entry by entry
(``grant_for``, ``stage_fids``, ...), calls the device surface no longer
has.  The oracle makes the same reads on the simulator's own
:class:`~repro.switchsim.tables.StageTable` objects behind the device
(:func:`_stage_tables`), so it stays independent of the one
``read_tables`` call the audit under test makes.

``tests/test_audit_oracle.py`` plants table-surface defects in churn
states and checks that both report the same findings in the same order.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.invariants import (
    _check_block_accounting,
    _check_region_exclusivity,
    _check_residency,
)
from repro.analysis.isolation import IsolationCertificate, implied_entries
from repro.analysis.verifier import _ordered
from repro.switchsim.config import SwitchConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.allocator import ActiveRmtAllocator
    from repro.device import Device


def _stage_tables(tables: Any) -> List[Tuple[int, Any]]:
    """``[(stage, StageTable)]`` of the simulated switch behind *tables*."""
    pipeline = tables.underlying.pipeline
    return [(stage, pipeline.stage(stage).table) for stage in range(1, tables.config.num_stages + 1)]


@dataclasses.dataclass(frozen=True)
class AuditScope:
    """That commit's scope: the invariants read the device itself."""

    allocator: Any
    tables: Any
    config: SwitchConfig


# ----------------------------------------------------------------------
# repro.analysis.isolation
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TableSnapshot:
    """One read of a device's whole grant/translation surface.

    Auditing every resident against the live device is quadratic in
    per-entry ``grant_for`` calls; snapshotting the installed entries
    once (O(stages + entries)) and certifying every FID against the
    snapshot keeps sanitizer mode cheap.
    """

    num_stages: int
    #: ``{stage: {fid: StageGrant}}`` for every installed grant.
    grants: Mapping[int, Mapping[int, Any]]
    #: ``{stage: {fid: (mask, offset)}}`` for every installed entry.
    translations: Mapping[int, Mapping[int, Tuple[int, int]]]

    @classmethod
    def of(cls, tables: "Device") -> "TableSnapshot":
        grants: Dict[int, Dict[int, Any]] = {}
        translations: Dict[int, Dict[int, Tuple[int, int]]] = {}
        for stage, table in _stage_tables(tables):
            grants[stage] = {
                entry_fid: table.grant_for(entry_fid)
                for entry_fid in table.fids
            }
            per_stage: Dict[int, Tuple[int, int]] = {}
            for entry_fid in table.translation_fids:
                pair = table.translation_for(entry_fid)
                if pair is not None:
                    per_stage[entry_fid] = pair
            translations[stage] = per_stage
        return cls(
            num_stages=tables.config.num_stages,
            grants=grants,
            translations=translations,
        )


def _pair_text(pair: Optional[Tuple[int, int]]) -> str:
    return "none" if pair is None else f"(mask={pair[0]}, offset={pair[1]})"


def certify_fid(
    fid: int,
    allocator: "ActiveRmtAllocator",
    tables: "Device",
    config: Optional[SwitchConfig] = None,
    snapshot: Optional[TableSnapshot] = None,
) -> IsolationCertificate:
    """Certify one *live* FID: installed entries vs the allocator layout.

    Checks that the runtime actually enforces what the allocator
    granted: the installed grants and translations are exactly the
    entry set the layout implies (:func:`implied_entries`) -- none
    missing, orphaned, mis-ranged or pointing at a region other than
    the nearest upcoming one (ARMT012) -- every installed translation
    maps masked addresses into a granted region (ARMT013), and no other
    installed grant overlaps (ARMT011).  Batch callers pass a shared
    *snapshot* so the device surface is read once, not per FID.
    """
    cfg = config or SwitchConfig()
    block_words = cfg.block_words
    findings: List[Finding] = []
    regions: Dict[int, Tuple[int, int]] = {}
    for stage, block_range in allocator.regions_for(fid).items():
        if block_range is None or block_range.count <= 0:
            continue
        words = block_range.to_words(block_words)
        regions[stage] = (words.start, words.end)
    implied_grants, implied_pairs = implied_entries(fid, regions)
    surface = snapshot if snapshot is not None else TableSnapshot.of(tables)

    def stages_with(implied: Mapping[int, Any], installed: Mapping[int, Any]) -> List[int]:
        # Only stages that imply or hold an entry for this FID can
        # produce findings; skipping the rest keeps batch audits linear.
        return sorted(
            set(implied).union(
                stage for stage, per_stage in installed.items() if fid in per_stage
            )
        )

    for stage in stages_with(implied_grants, surface.grants):
        grant = surface.grants.get(stage, {}).get(fid)
        expected = implied_grants.get(stage)
        if expected is None:
            if grant is not None:
                findings.append(
                    Finding.of(
                        "ARMT012",
                        f"fid {fid} has an orphaned grant "
                        f"[{grant.start}, {grant.end}) in stage {stage} "
                        "with no allocated region behind it",
                        stage=stage,
                    )
                )
            continue
        if grant is None:
            findings.append(
                Finding.of(
                    "ARMT012",
                    f"fid {fid} has an allocated region "
                    f"[{expected.start}, {expected.end}) "
                    f"in stage {stage} but no grant is installed; every "
                    "access there faults",
                    stage=stage,
                )
            )
            continue
        if grant != expected:
            findings.append(
                Finding.of(
                    "ARMT012",
                    f"fid {fid} grant in stage {stage} enforces "
                    f"[{grant.start}, {grant.end}) mask={grant.mask} "
                    f"offset={grant.offset}, but the allocation is "
                    f"[{expected.start}, {expected.end}) "
                    f"mask={expected.mask} offset={expected.offset}",
                    stage=stage,
                )
            )
        # Grant-level exclusivity: the table surface is ground truth.
        for other_fid, other in surface.grants.get(stage, {}).items():
            if other_fid == fid or other is None:
                continue
            if grant.start < other.end and other.start < grant.end:
                findings.append(
                    Finding.of(
                        "ARMT011",
                        f"fid {fid} grant [{grant.start}, {grant.end}) "
                        f"overlaps fid {other_fid} grant "
                        f"[{other.start}, {other.end}) in stage {stage}",
                        stage=stage,
                    )
                )
    for stage in stages_with(implied_pairs, surface.translations):
        pair = surface.translations.get(stage, {}).get(fid)
        implied = implied_pairs.get(stage)
        if pair != implied:
            findings.append(
                Finding.of(
                    "ARMT012",
                    f"fid {fid} stage {stage}: translation installed is "
                    f"{_pair_text(pair)}, the allocation implies "
                    f"{_pair_text(implied)} (the nearest upcoming "
                    "region's pair)",
                    stage=stage,
                )
            )
        if pair is None:
            continue
        mask, offset = pair
        lands_inside = any(
            start == offset and offset + mask < end
            for start, end in regions.values()
        )
        if not lands_inside:
            findings.append(
                Finding.of(
                    "ARMT013",
                    f"fid {fid} translation in stage {stage} "
                    f"(mask={mask}, offset={offset}) maps masked "
                    f"addresses to [{offset}, {offset + mask}], which no "
                    "granted region contains",
                    stage=stage,
                )
            )
    return IsolationCertificate(
        fid=fid,
        regions=regions,
        findings=tuple(_ordered(findings)),
    )


def certify_all(
    allocator: "ActiveRmtAllocator",
    tables: "Device",
    config: Optional[SwitchConfig] = None,
) -> Dict[int, IsolationCertificate]:
    """Live certificates for every resident FID (batch audit hook).

    The device surface is snapshotted once and shared, so the batch is
    linear in installed entries rather than quadratic.
    """
    snapshot = TableSnapshot.of(tables)
    return {
        fid: certify_fid(
            fid,
            allocator,
            tables,
            config=config,
            snapshot=snapshot,
        )
        for fid in allocator.resident_fids()
    }

# ----------------------------------------------------------------------
# repro.analysis.invariants
# ----------------------------------------------------------------------


def _check_table_certificates(scope: AuditScope) -> List[Finding]:
    """Installed entries exactly enforce the layout, FID by FID.

    Delegates to the isolation certifier (ARMT011/012/013); the
    invariant holds iff every resident FID's live certificate is valid.
    """
    findings: List[Finding] = []
    for certificate in certify_all(scope.allocator, scope.tables, config=scope.config).values():
        findings.extend(certificate.findings)
    return findings


def _check_orphan_entries(scope: AuditScope) -> List[Finding]:
    """No table entry names a FID the allocator has never admitted."""
    findings: List[Finding] = []
    admitted = set(scope.allocator.apps)
    for stage, table in _stage_tables(scope.tables):
        for fid in table.fids:
            if fid not in admitted:
                findings.append(
                    Finding.of(
                        "ARMT012",
                        f"stage {stage}: grant installed for fid {fid}, "
                        "which has no admission record",
                        stage=stage,
                    )
                )
        for fid in table.translation_fids:
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
    for stage, table in _stage_tables(scope.tables):
        used, capacity = table.tcam_used, table.tcam_capacity
        expected = 0
        for fid in table.fids:
            grant = table.grant_for(fid)
            if grant is not None:
                expected += grant.tcam_cost()
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


_CATALOG = (
    _check_region_exclusivity,
    _check_block_accounting,
    _check_residency,
    _check_table_certificates,
    _check_orphan_entries,
    _check_tcam_accounting,
)


def audit_state(allocator: Any, tables: Any, config: Optional[SwitchConfig] = None) -> AnalysisReport:
    """That commit's ``audit_state`` over its own three device checks."""
    scope = AuditScope(
        allocator=allocator,
        tables=tables,
        config=config if config is not None else allocator.config,
    )
    findings: List[Finding] = []
    for check in _CATALOG:
        findings.extend(check(scope))
    return AnalysisReport(program="state-audit", findings=tuple(_ordered(findings)))
