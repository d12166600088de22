"""The capsule verifier: static safety proofs for active programs.

Three entry points, one rule set:

- :func:`analyze_program` -- program-only checks (CFG, PHV dataflow,
  resource bounds).  Used by the client compiler's front end and the
  offline ``lint`` CLI.
- :func:`verify_linked` -- a :class:`SynthesizedProgram` against the
  allocation response it was linked to.  Used by the compiler back end
  after synthesis.
- :func:`verify_plan` -- the mutant an admission would install against
  its granted :class:`AllocationPlan`.  Used by the controller *before*
  ``commit()``, so a strict rejection leaves allocator and switch
  state untouched.

This module must not import :mod:`repro.client` or
:mod:`repro.controller` at runtime (both import it); plan and
synthesized-program inputs are accessed structurally; the translation
window is :data:`TRANSLATION_WINDOW`, which the controller's table
engine installs by.
"""

from __future__ import annotations

import functools
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    Optional,
    Tuple,
)

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dataflow import DataflowResult, MarValue, analyze_dataflow
from repro.analysis.findings import (
    AnalysisReport,
    Finding,
    Severity,
    VerificationError,
    VerifyMode,
)
from repro.isa.opcodes import (
    INGRESS_PREFERRED_OPCODES,
    MEMORY_OPCODES,
    TABLE_OPERAND_OPCODES,
)
from repro.isa.program import ActiveProgram, ProgramError
from repro.switchsim.config import SwitchConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime import
    from repro.client.compiler import SynthesizedProgram
    from repro.core.constraints import AccessPattern
    from repro.core.transactions import AllocationPlan
    from repro.packets.headers import StageRegion

#: Stages before a granted stage where the controller installs
#: translation entries: the one definition, which the table engine
#: installs by and the verifier, certifier and auditor check against.
TRANSLATION_WINDOW = 3

#: Every input the verifier consumes is a frozen dataclass (programs,
#: patterns, configs) and every output is immutable (reports, findings
#: tuples), so results are memoized.  The hot path -- the allocation
#: response handler recompiling a known program -- then pays one dict
#: probe instead of a full CFG + dataflow pass per compile.
_CACHE_SIZE = 256

#: Memoized CFG construction shared by the program and region passes.
_build_cfg = functools.lru_cache(maxsize=_CACHE_SIZE)(ControlFlowGraph.build)


def analyze_program(
    program: ActiveProgram,
    config: Optional[SwitchConfig] = None,
    pattern: Optional["AccessPattern"] = None,
) -> AnalysisReport:
    """Program-only static analysis (no allocation required).

    Runs reachability (ARMT001), PHV dataflow (ARMT002, ARMT007 for
    raw-hash addressing, ARMT009 for runtime-checked addressing), and
    resource bounds (ARMT004 recirculation budget, ARMT005 ingress
    placement).  *pattern* is only used for the ingress-position
    cross-check; region checks need :func:`verify_linked` or
    :func:`verify_plan`.
    """
    return _analyze_cached(program, config or SwitchConfig(), pattern)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _analyze_cached(
    program: ActiveProgram,
    cfg: SwitchConfig,
    pattern: Optional["AccessPattern"],
) -> AnalysisReport:
    graph = _build_cfg(program)
    flow = analyze_dataflow(program, graph)
    findings: List[Finding] = []
    findings.extend(_reachability_findings(program, graph))
    findings.extend(flow.findings)
    findings.extend(_address_findings(program, graph, flow, cfg))
    findings.extend(_resource_findings(program, graph, cfg))
    if pattern is not None:
        findings.extend(_pattern_findings(program, pattern))
    return AnalysisReport(
        program=program.name, findings=tuple(_ordered(findings))
    )


def verify_linked(
    synthesized: "SynthesizedProgram",
    config: Optional[SwitchConfig] = None,
) -> AnalysisReport:
    """Verify a synthesized mutant against its linked regions.

    Adds the allocation-aware checks -- ARMT003 (every access stage
    carries a granted region) and ARMT008 (every ADDR_MASK/ADDR_OFFSET
    stage can resolve a translation) -- on top of
    :func:`analyze_program`.
    """
    cfg = config or SwitchConfig()
    program = synthesized.program
    granted = frozenset(
        stage
        for stage, region in synthesized.regions.items()
        if not region.is_none and region.size > 0
    )
    return _linked_report(program, granted, cfg)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _linked_report(
    program: ActiveProgram,
    granted: FrozenSet[int],
    cfg: SwitchConfig,
) -> AnalysisReport:
    report = _analyze_cached(program, cfg, None)
    extra = _region_findings(program, granted, cfg)
    return report.merged(
        AnalysisReport(program=program.name, findings=extra)
    )


def linked_verdict(
    program: ActiveProgram,
    region_items: Tuple[Tuple[int, "StageRegion"], ...],
    config: SwitchConfig,
    mode: VerifyMode,
) -> AnalysisReport:
    """Memoized ``require(verify_linked(...))`` for the compile path.

    *region_items* is ``tuple(synthesized.regions.items())`` -- a
    hashable view of the linked regions.  ``require`` is pure (it
    raises or returns its input), so the whole verdict is cacheable;
    strict-mode failures raise and are simply never cached.
    """
    return _cached_verdict(program, region_items, config, mode)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _cached_verdict(
    program: ActiveProgram,
    region_items: Tuple[Tuple[int, "StageRegion"], ...],
    cfg: SwitchConfig,
    mode: VerifyMode,
) -> AnalysisReport:
    granted = frozenset(
        stage
        for stage, region in region_items
        if not region.is_none and region.size > 0
    )
    return require(_linked_report(program, granted, cfg), mode)


def verify_plan(
    program: ActiveProgram,
    pattern: "AccessPattern",
    plan: "AllocationPlan",
    config: Optional[SwitchConfig] = None,
) -> AnalysisReport:
    """Verify the mutant an admission would install, pre-commit.

    *program* is the client's compact program; the plan's winning
    mutant determines the padding, so the padded variant -- the thing
    the data plane will actually execute -- is what gets analyzed
    against the plan's granted stages.

    A program that cannot be padded to the plan's mutant (the client's
    program disagrees with the pattern it requested) yields ARMT006.
    """
    cfg = config or SwitchConfig()
    mutant_program, mismatch = _padded_for_plan(program, pattern, plan)
    findings: List[Finding] = list(mismatch)
    report = analyze_program(mutant_program, cfg, pattern=None)
    granted = frozenset(plan.granted_stages())
    findings.extend(_region_findings(mutant_program, granted, cfg))
    merged = report.merged(
        AnalysisReport(program=mutant_program.name, findings=tuple(findings))
    )
    return merged


def require(report: AnalysisReport, mode: VerifyMode) -> AnalysisReport:
    """Enforce *mode* on a report: raise in strict mode on errors."""
    if not report.acceptable(mode):
        raise VerificationError(report)
    return report


# ----------------------------------------------------------------------
# Individual passes
# ----------------------------------------------------------------------


def _ordered(findings: List[Finding]) -> List[Finding]:
    """Stable order: by position (whole-program findings first), then
    rule ID -- keeps golden reports deterministic."""
    return sorted(
        findings,
        key=lambda f: (f.position if f.position is not None else 0, f.rule_id),
    )


def _reachability_findings(
    program: ActiveProgram, graph: ControlFlowGraph
) -> List[Finding]:
    """ARMT001: dead instructions (non-NOP)."""
    return [
        Finding.of(
            "ARMT001",
            f"{program[position - 1].opcode.name} at {position} is "
            "unreachable from the program entry",
            position=position,
        )
        for position in graph.unreachable_positions(program)
    ]


def _address_findings(
    program: ActiveProgram,
    graph: ControlFlowGraph,
    flow: DataflowResult,
    config: SwitchConfig,
) -> List[Finding]:
    """ARMT007/ARMT009: address provenance at each memory access."""
    findings: List[Finding] = []
    for idx, instr in enumerate(program):
        position = idx + 1
        if instr.opcode not in MEMORY_OPCODES:
            continue
        if position not in graph.reachable:
            continue
        mar = flow.mar_at(position)
        stage = config.physical_stage(position)
        if mar is MarValue.HASH_RAW:
            findings.append(
                Finding.of(
                    "ARMT007",
                    f"{instr.opcode.name} at {position} consumes a raw "
                    "hash digest as its address; without "
                    "ADDR_MASK/ADDR_OFFSET the access lies outside every "
                    "granted region almost surely",
                    position=position,
                    stage=stage,
                )
            )
        elif mar is MarValue.HASH_MASKED:
            findings.append(
                Finding.of(
                    "ARMT007",
                    f"{instr.opcode.name} at {position} consumes a masked "
                    "but un-offset hash address; it only lands in the "
                    "granted region when that region starts at word 0",
                    position=position,
                    stage=stage,
                    severity=Severity.WARNING,
                )
            )
        elif mar is not MarValue.TRANSLATED:
            findings.append(
                Finding.of(
                    "ARMT009",
                    f"{instr.opcode.name} at {position} uses an address "
                    f"of provenance '{mar.value}' that static analysis "
                    "cannot bound; the protection TCAM enforces the "
                    "region at runtime",
                    position=position,
                    stage=stage,
                )
            )
    return findings


def _resource_findings(
    program: ActiveProgram, graph: ControlFlowGraph, config: SwitchConfig
) -> List[Finding]:
    """ARMT004 (recirculation budget) and ARMT005 (ingress placement)."""
    findings: List[Finding] = []
    passes = config.pass_of(max(len(program), 1))
    egress_ingress_ops = [
        idx + 1
        for idx, instr in enumerate(program)
        if instr.opcode in INGRESS_PREFERRED_OPCODES
        and idx + 1 in graph.reachable
        and not _ingress_ok(idx + 1, config)
    ]
    recirculations = passes - 1 + len(egress_ingress_ops)
    if recirculations > config.max_recirculations:
        findings.append(
            Finding.of(
                "ARMT004",
                f"program needs {recirculations} recirculation(s) "
                f"({passes} pass(es) for {len(program)} instructions"
                + (
                    f" + {len(egress_ingress_ops)} egress port change(s)"
                    if egress_ingress_ops
                    else ""
                )
                + f") but the device budget is {config.max_recirculations}",
            )
        )
    for position in egress_ingress_ops:
        findings.append(
            Finding.of(
                "ARMT005",
                f"{program[position - 1].opcode.name} at {position} lands "
                f"in the egress half-pipeline (physical stage "
                f"{config.physical_stage(position)}); each firing costs "
                "one extra recirculation to change ports",
                position=position,
                stage=config.physical_stage(position),
            )
        )
    return findings


def _ingress_ok(position: int, config: SwitchConfig) -> bool:
    """Does a 1-indexed logical position fall in an ingress window?"""
    return (position - 1) % config.num_stages < config.ingress_stages


def _pattern_findings(
    program: ActiveProgram, pattern: "AccessPattern"
) -> List[Finding]:
    """ARMT006: the program disagrees with the pattern it claims."""
    findings: List[Finding] = []
    positions = program.memory_access_positions()
    if len(positions) != pattern.num_accesses:
        findings.append(
            Finding.of(
                "ARMT006",
                f"program has {len(positions)} memory accesses but the "
                f"pattern declares {pattern.num_accesses}",
            )
        )
        return findings
    for index, (position, lb) in enumerate(
        zip(positions, pattern.lower_bounds)
    ):
        if position < lb:
            findings.append(
                Finding.of(
                    "ARMT006",
                    f"access {index} executes at {position}, before the "
                    f"pattern's lower bound {lb}",
                    position=position,
                )
            )
    ingress_positions = program.ingress_bound_positions()
    declared = pattern.ingress_bound_position
    if declared and not ingress_positions:
        findings.append(
            Finding.of(
                "ARMT006",
                f"pattern declares an ingress-bound instruction at "
                f"{declared} but the program has none",
            )
        )
    return findings


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _region_findings(
    program: ActiveProgram,
    granted: FrozenSet[int],
    config: SwitchConfig,
) -> Tuple[Finding, ...]:
    """ARMT003/ARMT008: stage-level checks against granted regions."""
    findings: List[Finding] = []
    graph = _build_cfg(program)
    for idx, instr in enumerate(program):
        position = idx + 1
        if position not in graph.reachable:
            continue
        stage = config.physical_stage(position)
        if instr.opcode in MEMORY_OPCODES and stage not in granted:
            findings.append(
                Finding.of(
                    "ARMT003",
                    f"{instr.opcode.name} at {position} executes in "
                    f"physical stage {stage}, which carries no granted "
                    f"region (granted: {sorted(granted)})",
                    position=position,
                    stage=stage,
                )
            )
        if instr.opcode in TABLE_OPERAND_OPCODES and not _translation_available(
            stage, granted
        ):
            findings.append(
                Finding.of(
                    "ARMT008",
                    f"{instr.opcode.name} at {position} executes in "
                    f"physical stage {stage}, outside the "
                    f"{TRANSLATION_WINDOW}-stage translation window of "
                    f"every granted stage {sorted(granted)}; the "
                    "instruction faults at runtime",
                    position=position,
                    stage=stage,
                )
            )
    return tuple(findings)


def _translation_available(stage: int, granted: AbstractSet[int]) -> bool:
    """Can ADDR_MASK/ADDR_OFFSET resolve a (mask, offset) in *stage*?

    The controller installs translation entries in the
    :data:`TRANSLATION_WINDOW` stages before each granted stage; the
    runtime additionally falls back to the stage's own grant.
    """
    return any(g - TRANSLATION_WINDOW <= stage <= g for g in granted)


def _padded_for_plan(
    program: ActiveProgram,
    pattern: "AccessPattern",
    plan: "AllocationPlan",
) -> Tuple[ActiveProgram, List[Finding]]:
    """Pad the compact program to the plan's winning mutant.

    Returns ``(program_to_analyze, mismatch_findings)``.  When the
    program cannot realize the mutant (its accesses disagree with the
    pattern), the compact program is analyzed instead and ARMT006
    explains why.
    """
    mismatch = _pattern_findings(program, pattern)
    mutant = plan.mutant
    if mutant is None or mismatch:
        return program, mismatch
    positions = tuple(program.memory_access_positions())
    if positions == tuple(mutant.stages):
        return program, mismatch  # already padded (or compact fit)
    if positions != tuple(pattern.lower_bounds):
        mismatch.append(
            Finding.of(
                "ARMT006",
                f"program accesses {list(positions)} match neither the "
                f"pattern's compact form {list(pattern.lower_bounds)} nor "
                f"the plan's mutant {list(mutant.stages)}",
            )
        )
        return program, mismatch
    # Compact program + known mutant: synthesize the installable variant.
    from repro.core.mutants import insertions_for

    try:
        padded = program.with_nops_before(
            insertions_for(pattern, tuple(mutant.stages))
        )
    except (ProgramError, ValueError) as exc:
        mismatch.append(
            Finding.of(
                "ARMT006",
                f"cannot pad program to the plan's mutant "
                f"{list(mutant.stages)}: {exc}",
            )
        )
        return program, mismatch
    return padded, mismatch


# ----------------------------------------------------------------------
# Batch helper (lint CLI, CI smoke job)
# ----------------------------------------------------------------------


def analyze_many(
    programs: Dict[str, Tuple[ActiveProgram, Optional["AccessPattern"]]],
    config: Optional[SwitchConfig] = None,
) -> Dict[str, AnalysisReport]:
    """Analyze a named batch of (program, optional pattern) pairs."""
    return {
        name: analyze_program(program, config, pattern)
        for name, (program, pattern) in programs.items()
    }
