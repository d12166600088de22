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
  surface, read in one :meth:`~repro.device.Device.read_tables` call
  per audit as a :class:`TableSnapshot` and diffed FID by FID against
  the implied set

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
import functools
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
    TRANSLATION_WINDOW,
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
    from repro.device import Device

#: ``{stage: (start_word, end_word)}`` -- the word-level view of one
#: FID's allocation (end exclusive).
WordRegions = Mapping[int, Tuple[int, int]]


def implied_bounds(
    regions: WordRegions,
) -> Tuple[Dict[int, Tuple[int, int, int]], Dict[int, Tuple[int, int]]]:
    """The table entries a region map implies, as plain tuples.

    The one definition of "what should be installed" for a FID: the
    table engine diffs two of these to update the device, the certifier
    compares one (as :func:`implied_entries`) against the installed
    surface.  Every granted stage carries a grant ``(start, end, mask)``
    with exactly the region's bounds (its offset is its start); every
    stage in the :data:`TRANSLATION_WINDOW` before a granted stage carries
    that stage's ``(mask, offset)`` pair, and where windows overlap the
    nearest upcoming access wins (regions are visited in descending
    stage order, so a nearer one overwrites).

    A mask maps a 32-bit hash into the largest power-of-two prefix of
    its region, so masked addresses always stay inside it (a
    non-power-of-two remainder is unreachable by hashed addressing but
    usable by direct addressing); an empty region's mask is 0.
    """
    grants: Dict[int, Tuple[int, int, int]] = {}
    translations: Dict[int, Tuple[int, int]] = {}
    for stage in sorted(regions, reverse=True):
        start, end = regions[stage]
        words = end - start
        mask = (1 << (words.bit_length() - 1)) - 1 if words > 0 else 0
        grants[stage] = (start, end, mask)
        pair = (mask, start)
        first = stage - TRANSLATION_WINDOW
        for prior in range(first if first > 1 else 1, stage):
            translations[prior] = pair
    return grants, translations


def implied_entries(
    fid: int,
    regions: WordRegions,
) -> Tuple[Dict[int, StageGrant], Dict[int, Tuple[int, int]]]:
    """:func:`implied_bounds` with each grant as *fid*'s :class:`StageGrant`."""
    bounds, translations = implied_bounds(regions)
    grants = {
        stage: StageGrant(fid, start, end, mask, start)
        for stage, (start, end, mask) in bounds.items()
    }
    return grants, translations


def effective_translations(regions: WordRegions) -> Dict[int, Tuple[int, int]]:
    """The ``(mask, offset)`` pair ADDR_MASK/ADDR_OFFSET resolves per stage.

    The implied translation entries (:func:`implied_bounds`), plus the
    runtime's fallback in ``switchsim/stage.py``: a granted stage with
    no explicit entry resolves to its own grant's pair.
    """
    grants, effective = implied_bounds(regions)
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
        effective_translations(regions),
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
    config: SwitchConfig,
    program: Optional[ActiveProgram] = None,
    pattern: Optional["AccessPattern"] = None,
    incumbents: Optional[Mapping[int, WordRegions]] = None,
) -> IsolationCertificate:
    """Certify a *planned* admission before any state is touched.

    With *program* (and its *pattern*), the padded mutant the data
    plane would execute is interval-analyzed against the plan's
    regions (ARMT010).  With *incumbents* -- the post-plan word regions
    of every already-admitted FID, reallocations applied -- region
    exclusivity is proven (ARMT011).  Either input may be omitted; the
    certificate then covers what remains.  *config* is the switch the
    plan was made for: its block size turns the plan's blocks into words.
    """
    regions = plan.word_regions(config.block_words)
    findings: List[Finding] = []
    proofs: List[AccessProof] = []
    if incumbents is not None:
        findings.extend(_overlap_findings(plan.fid, regions, incumbents))
    if program is not None and pattern is not None:
        padded, mismatch = _padded_for_plan(program, pattern, plan)
        findings.extend(mismatch)
        if not mismatch:
            proofs, interval_findings = _access_proofs(padded, regions, config)
            findings.extend(interval_findings)
    return IsolationCertificate(
        fid=plan.fid,
        regions=dict(regions),
        accesses=tuple(proofs),
        findings=tuple(_ordered(findings)),
    )


@dataclasses.dataclass(frozen=True)
class TableSnapshot:
    """One read of a device's whole table surface: a single
    :meth:`~repro.device.Device.read_tables` call, one runtime request
    on a real switch however many entries are installed.  Every proof
    about the live state is made against this one read; its fields are
    the read's (:class:`~repro.device.TableRead`)."""

    #: ``{stage: {fid: StageGrant}}`` for every installed grant.
    grants: Mapping[int, Mapping[int, StageGrant]]
    #: ``{stage: {fid: (mask, offset)}}`` for every installed entry.
    translations: Mapping[int, Mapping[int, Tuple[int, int]]]
    #: ``{stage: (used, capacity)}`` of each stage's TCAM.
    tcam: Mapping[int, Tuple[int, int]]

    @classmethod
    def of(cls, tables: "Device") -> "TableSnapshot":
        return cls(*tables.read_tables())

    @functools.cached_property
    def grants_by_fid(self) -> Dict[int, Dict[int, Any]]:
        """``{fid: {stage: StageGrant}}``: the grants indexed once."""
        return _by_fid(self.grants)

    @functools.cached_property
    def translations_by_fid(self) -> Dict[int, Dict[int, Any]]:
        """``{fid: {stage: (mask, offset)}}``: the translations indexed once."""
        return _by_fid(self.translations)

    @functools.cached_property
    def overlaps(self) -> Dict[int, Dict[int, List[int]]]:
        """``{stage: {fid: [fids whose grants overlap fid's, in entry order]}}``."""
        return {stage: _overlapping(per_stage) for stage, per_stage in self.grants.items()}


def _by_fid(surface: Mapping[int, Mapping[int, Any]]) -> Dict[int, Dict[int, Any]]:
    index: Dict[int, Dict[int, Any]] = {}
    for stage, per_stage in surface.items():
        for fid, entry in per_stage.items():
            index.setdefault(fid, {})[stage] = entry
    return index


def _overlapping(per_stage: Mapping[int, StageGrant]) -> Dict[int, List[int]]:
    """One stage's overlapping grant pairs from one start-sorted sweep:
    a grant stays open while its end lies past the current start, and a
    pair is found once, at its later start, and recorded for both."""
    order = {fid: index for index, fid in enumerate(per_stage)}
    found: Dict[int, List[int]] = {}
    open_fids: List[int] = []
    for start, fid in sorted((g.start, fid) for fid, g in per_stage.items()):
        open_fids = [other for other in open_fids if per_stage[other].end > start]
        for other in open_fids:
            if per_stage[other].start < per_stage[fid].end:
                found.setdefault(fid, []).append(other)
                found.setdefault(other, []).append(fid)
        open_fids.append(fid)
    return {fid: sorted(others, key=order.__getitem__) for fid, others in found.items()}


def _pair_text(pair: Optional[Tuple[int, int]]) -> str:
    return "none" if pair is None else f"(mask={pair[0]}, offset={pair[1]})"


def _word_regions(ranges: Mapping[int, Any], block_words: int) -> Dict[int, Tuple[int, int]]:
    return {
        stage: (r.start * block_words, r.end * block_words)
        for stage, r in ranges.items()
        if r is not None and r.count > 0
    }


def _live_certificate(
    fid: int, regions: Dict[int, Tuple[int, int]], surface: TableSnapshot
) -> IsolationCertificate:
    """*fid*'s implied entries diffed against its installed ones, over the
    stages where either holds one, plus the grants overlapping its own."""
    implied_grants, implied_pairs = implied_entries(fid, regions)
    grants = surface.grants_by_fid.get(fid, {})
    pairs = surface.translations_by_fid.get(fid, {})
    findings: List[Finding] = []
    for stage in sorted(implied_grants.keys() | grants.keys()):
        grant = grants.get(stage)
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
        for other_fid in surface.overlaps[stage].get(fid, ()):
            other = surface.grants[stage][other_fid]
            findings.append(
                Finding.of(
                    "ARMT011",
                    f"fid {fid} grant [{grant.start}, {grant.end}) "
                    f"overlaps fid {other_fid} grant "
                    f"[{other.start}, {other.end}) in stage {stage}",
                    stage=stage,
                )
            )
    for stage in sorted(implied_pairs.keys() | pairs.keys()):
        pair = pairs.get(stage)
        implied = implied_pairs.get(stage)
        if pair == implied:
            continue  # an implied pair masks into its own region
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
        if not any(start == offset and offset + mask < end for start, end in regions.values()):
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
    return IsolationCertificate(fid=fid, regions=regions, findings=tuple(_ordered(findings)))


def certify_fid(
    fid: int,
    allocator: "ActiveRmtAllocator",
    tables: "Device",
) -> IsolationCertificate:
    """Certify one *live* FID: installed entries vs the allocator layout.

    Checks that the runtime actually enforces what the allocator
    granted: the installed grants and translations are exactly the
    entry set the layout implies (:func:`implied_entries`) -- none
    missing, orphaned, mis-ranged or pointing at a region other than
    the nearest upcoming one (ARMT012) -- every installed translation
    maps masked addresses into a granted region (ARMT013), and no other
    installed grant overlaps (ARMT011).  Block sizes are the
    allocator's own (``allocator.config``).
    """
    regions = _word_regions(allocator.regions_for(fid), allocator.config.block_words)
    return _live_certificate(fid, regions, TableSnapshot.of(tables))


def certify_snapshot(
    allocator: "ActiveRmtAllocator", snapshot: TableSnapshot
) -> Dict[int, IsolationCertificate]:
    """Live certificates for every resident FID against one read surface
    (each pool layout read once for every resident's regions)."""
    block_words = allocator.config.block_words
    layouts = {stage: pool.layout() for stage, pool in allocator.pools.items()}
    return {
        fid: _live_certificate(
            fid,
            _word_regions({s: layouts[s].get(fid) for s in record.demand_by_stage}, block_words),
            snapshot,
        )
        for fid, record in sorted(allocator.apps.items())
    }


def certify_all(
    allocator: "ActiveRmtAllocator", tables: "Device"
) -> Dict[int, IsolationCertificate]:
    """Live certificates for every resident FID, from one read of *tables*."""
    return certify_snapshot(allocator, TableSnapshot.of(tables))
