"""Per-FID isolation certificates over planned and live layouts.

The paper's safety claim (Section 3.4) is that memory protection holds
*by construction*: the TCAM bounds every capsule's MAR to the regions
its FID was allocated.  This module turns that claim into a checked
artifact.  For each FID it joins three sources of truth --

- the MAR address-interval analysis over the program the data plane
  will actually execute (:func:`repro.analysis.dataflow
  .analyze_address_intervals`),
- the word-level regions of the allocation (planned
  :class:`~repro.core.transactions.AllocationPlan` or the live
  :class:`~repro.core.allocator.ActiveRmtAllocator` layout), and
- the grant/translation entries installed on the device's table
  surface (:class:`~repro.device.DeviceTables`)

-- and emits an :class:`IsolationCertificate`: every reachable memory
access is either *statically proven* to land inside the FID's regions
or *runtime-checked* by a TCAM entry that exactly matches the granted
region, and no other FID's region overlaps.  Anything weaker becomes a
typed finding (ARMT010-ARMT013) in the shared rule catalog.

Like :mod:`repro.analysis.verifier`, this module must not import
:mod:`repro.client` or :mod:`repro.controller` at runtime; plan and
allocator inputs are accessed structurally.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dataflow import AddressInterval, analyze_address_intervals
from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.verifier import (
    DEFAULT_TRANSLATION_WINDOW,
    _ordered,
    _padded_for_plan,
)
from repro.isa.opcodes import MEMORY_OPCODES
from repro.isa.program import ActiveProgram
from repro.switchsim.config import SwitchConfig
from repro.switchsim.tables import StageGrant

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime import
    from repro.core.allocator import ActiveRmtAllocator
    from repro.core.constraints import AccessPattern
    from repro.core.transactions import AllocationPlan
    from repro.device import DeviceTables

#: ``{stage: (start_word, end_word)}`` -- the word-level view of one
#: FID's allocation (end exclusive).
WordRegions = Mapping[int, Tuple[int, int]]


def _pow2_mask(words: int) -> int:
    """Mask mapping a 32-bit hash into a region of *words* entries.

    Uses the largest power-of-two prefix of the region so masked
    addresses always stay inside it (non-power-of-two remainders are
    unreachable by hashed addressing, but remain usable by direct
    addressing).
    """
    if words <= 0:
        return 0
    return (1 << (words.bit_length() - 1)) - 1


def implied_bounds(
    regions: WordRegions,
    translation_window: int = DEFAULT_TRANSLATION_WINDOW,
) -> Tuple[Dict[int, Tuple[int, int, int]], Dict[int, Tuple[int, int]]]:
    """The table entries a region map implies, as plain tuples.

    The one definition of "what should be installed" for a FID: the
    table engine diffs two of these to update the device, the certifier
    compares one (as :func:`implied_entries`) against the installed
    surface.  Every granted stage carries a grant ``(start, end, mask)``
    with exactly the region's bounds (its offset is its start); every
    stage in the ``translation_window`` before a granted stage carries
    that stage's ``(mask, offset)`` pair, and where windows overlap the
    nearest upcoming access wins (regions are visited in descending
    stage order, so a nearer one overwrites).
    """
    grants: Dict[int, Tuple[int, int, int]] = {}
    translations: Dict[int, Tuple[int, int]] = {}
    for stage in sorted(regions, reverse=True):
        start, end = regions[stage]
        mask = _pow2_mask(end - start)
        grants[stage] = (start, end, mask)
        for prior in range(max(1, stage - translation_window), stage):
            translations[prior] = (mask, start)
    return grants, translations


def implied_entries(
    fid: int,
    regions: WordRegions,
    translation_window: int = DEFAULT_TRANSLATION_WINDOW,
) -> Tuple[Dict[int, StageGrant], Dict[int, Tuple[int, int]]]:
    """:func:`implied_bounds` with each grant as *fid*'s :class:`StageGrant`."""
    bounds, translations = implied_bounds(regions, translation_window)
    grants = {
        stage: StageGrant(fid, start, end, mask, start)
        for stage, (start, end, mask) in bounds.items()
    }
    return grants, translations


def effective_translations(
    regions: WordRegions,
    translation_window: int = DEFAULT_TRANSLATION_WINDOW,
) -> Dict[int, Tuple[int, int]]:
    """The ``(mask, offset)`` pair ADDR_MASK/ADDR_OFFSET resolves per stage.

    The implied translation entries (:func:`implied_bounds`), plus the
    runtime's fallback in ``switchsim/stage.py``: a granted stage with
    no explicit entry resolves to its own grant's pair.
    """
    grants, effective = implied_bounds(regions, translation_window)
    for stage, (start, _end, mask) in grants.items():
        effective.setdefault(stage, (mask, start))
    return effective


@dataclasses.dataclass(frozen=True)
class AccessProof:
    """One memory access's isolation verdict inside a certificate.

    ``verdict`` is ``"static"`` when the interval analysis proves the
    access lands inside the FID's region, ``"runtime"`` when only the
    TCAM range match can bound it (sound because the grant was checked
    to exactly cover the region).
    """

    position: int
    stage: int
    interval: AddressInterval
    region: Optional[Tuple[int, int]]
    verdict: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "position": self.position,
            "stage": self.stage,
            "interval": str(self.interval),
            "region": list(self.region) if self.region else None,
            "verdict": self.verdict,
        }


@dataclasses.dataclass(frozen=True)
class IsolationCertificate:
    """The certifier's verdict on one FID against one layout.

    ``valid`` iff no error-severity finding was produced: every
    reachable access is proven or runtime-checked, regions are
    exclusive, and (for live layouts) the installed table entries
    exactly enforce the allocated boundaries.
    """

    fid: int
    regions: Dict[int, Tuple[int, int]]
    accesses: Tuple[AccessProof, ...] = ()
    findings: Tuple[Finding, ...] = ()

    @property
    def valid(self) -> bool:
        return not any(f.severity.value == "error" for f in self.findings)

    @property
    def static_accesses(self) -> int:
        return sum(1 for a in self.accesses if a.verdict == "static")

    @property
    def runtime_accesses(self) -> int:
        return sum(1 for a in self.accesses if a.verdict == "runtime")

    def report(self) -> AnalysisReport:
        """The findings as a standard verifier report."""
        return AnalysisReport(
            program=f"isolation:fid={self.fid}", findings=self.findings
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fid": self.fid,
            "valid": self.valid,
            "regions": {
                str(stage): list(span)
                for stage, span in sorted(self.regions.items())
            },
            "accesses": [a.to_dict() for a in self.accesses],
            "findings": [f.to_dict() for f in self.findings],
        }


def _access_proofs(
    program: ActiveProgram,
    regions: WordRegions,
    config: SwitchConfig,
    translation_window: int,
) -> Tuple[List[AccessProof], List[Finding]]:
    """Classify every reachable memory access of *program*.

    Three outcomes per access: the interval is contained in the stage's
    region (static proof), the interval is disjoint from it (ARMT010:
    the access faults on every packet), or neither (runtime-checked by
    the TCAM; ARMT003/ARMT009 from the verifier already grade the
    no-region and provenance cases, so no finding is added here).
    """
    graph = ControlFlowGraph.build(program)
    intervals = analyze_address_intervals(
        program,
        effective_translations(regions, translation_window),
        cfg=graph,
        config=config,
    )
    proofs: List[AccessProof] = []
    findings: List[Finding] = []
    for idx, instr in enumerate(program):
        position = idx + 1
        if instr.opcode not in MEMORY_OPCODES:
            continue
        if position not in graph.reachable:
            continue
        stage = config.physical_stage(position)
        interval = intervals.get(position, AddressInterval.top())
        region = regions.get(stage)
        if region is not None and interval.within(*region):
            verdict = "static"
        elif region is not None and interval.disjoint(*region):
            verdict = "faults"
            findings.append(
                Finding.of(
                    "ARMT010",
                    f"{instr.opcode.name} at {position} provably accesses "
                    f"{interval}, outside the granted region "
                    f"[{region[0]}, {region[1]}) of stage {stage}; the "
                    "protection TCAM faults every packet reaching it",
                    position=position,
                    stage=stage,
                )
            )
        else:
            verdict = "runtime"
        proofs.append(
            AccessProof(
                position=position,
                stage=stage,
                interval=interval,
                region=region,
                verdict=verdict,
            )
        )
    return proofs, findings


def _overlap_findings(
    fid: int,
    regions: WordRegions,
    incumbents: Mapping[int, WordRegions],
) -> List[Finding]:
    """ARMT011: *fid*'s regions against every incumbent's regions."""
    findings: List[Finding] = []
    for stage, (start, end) in sorted(regions.items()):
        for other_fid in sorted(incumbents):
            if other_fid == fid:
                continue
            other = incumbents[other_fid].get(stage)
            if other is None:
                continue
            o_start, o_end = other
            if start < o_end and o_start < end:
                findings.append(
                    Finding.of(
                        "ARMT011",
                        f"fid {fid} region [{start}, {end}) overlaps fid "
                        f"{other_fid} region [{o_start}, {o_end}) in stage "
                        f"{stage}",
                        stage=stage,
                    )
                )
    return findings


def certify_plan(
    plan: "AllocationPlan",
    config: Optional[SwitchConfig] = None,
    program: Optional[ActiveProgram] = None,
    pattern: Optional["AccessPattern"] = None,
    incumbents: Optional[Mapping[int, WordRegions]] = None,
    translation_window: int = DEFAULT_TRANSLATION_WINDOW,
) -> IsolationCertificate:
    """Certify a *planned* admission before any state is touched.

    With *program* (and its *pattern*), the padded mutant the data
    plane would execute is interval-analyzed against the plan's
    regions (ARMT010).  With *incumbents* -- the post-plan word regions
    of every already-admitted FID, reallocations applied -- region
    exclusivity is proven (ARMT011).  Either input may be omitted; the
    certificate then covers what remains.
    """
    cfg = config or SwitchConfig()
    regions = plan.word_regions(cfg.block_words)
    findings: List[Finding] = []
    proofs: List[AccessProof] = []
    if incumbents is not None:
        findings.extend(_overlap_findings(plan.fid, regions, incumbents))
    if program is not None and pattern is not None:
        padded, mismatch = _padded_for_plan(program, pattern, plan)
        findings.extend(mismatch)
        if not mismatch:
            proofs, interval_findings = _access_proofs(
                padded, regions, cfg, translation_window
            )
            findings.extend(interval_findings)
    return IsolationCertificate(
        fid=plan.fid,
        regions=dict(regions),
        accesses=tuple(proofs),
        findings=tuple(_ordered(findings)),
    )


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
    def of(cls, tables: "DeviceTables") -> "TableSnapshot":
        grants: Dict[int, Dict[int, Any]] = {}
        translations: Dict[int, Dict[int, Tuple[int, int]]] = {}
        for stage in range(1, tables.num_stages + 1):
            grants[stage] = {
                entry_fid: tables.grant_for(stage, entry_fid)
                for entry_fid in tables.stage_fids(stage)
            }
            per_stage: Dict[int, Tuple[int, int]] = {}
            for entry_fid in tables.stage_translation_fids(stage):
                pair = tables.translation_for(stage, entry_fid)
                if pair is not None:
                    per_stage[entry_fid] = pair
            translations[stage] = per_stage
        return cls(
            num_stages=tables.num_stages,
            grants=grants,
            translations=translations,
        )


def _pair_text(pair: Optional[Tuple[int, int]]) -> str:
    return "none" if pair is None else f"(mask={pair[0]}, offset={pair[1]})"


def certify_fid(
    fid: int,
    allocator: "ActiveRmtAllocator",
    tables: "DeviceTables",
    config: Optional[SwitchConfig] = None,
    translation_window: int = DEFAULT_TRANSLATION_WINDOW,
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
    implied_grants, implied_pairs = implied_entries(
        fid, regions, translation_window
    )
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
    tables: "DeviceTables",
    config: Optional[SwitchConfig] = None,
    translation_window: int = DEFAULT_TRANSLATION_WINDOW,
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
            translation_window=translation_window,
            snapshot=snapshot,
        )
        for fid in allocator.resident_fids()
    }


def record_certificate(
    telemetry: Any, certificate: IsolationCertificate, plane: str
) -> None:
    """Publish one certificate outcome to a metrics registry."""
    if not getattr(telemetry, "enabled", False):
        return
    telemetry.counter(
        "isolation_certificates_total",
        help="Isolation certificates emitted by the certifier",
        plane=plane,
        outcome="valid" if certificate.valid else "invalid",
    ).inc()
