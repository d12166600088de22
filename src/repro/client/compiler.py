"""The client compiler (Section 5, "Client compiler").

Given a compact active program, the compiler:

1. derives the memory-access pattern (LB/B vectors, ingress
   constraints) that goes into the allocation request,
2. upon receiving an allocation response, synthesizes the mutant whose
   access stages match the granted stages (NOP padding), and
3. translates the program's logical addresses into the granted physical
   regions -- the client-side "linking" that lets the switch enforce
   protection without performing translation (Section 3.2).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, FrozenSet, Optional, Sequence, Tuple, Union

from repro.analysis.findings import AnalysisReport, VerifyMode
from repro.analysis.verifier import analyze_program, linked_verdict
from repro.core.constraints import (
    AccessPattern,
    AllocationPolicy,
    LEAST_CONSTRAINED,
)
from repro.core.mutants import MutantCandidate, enumerate_mutants, insertions_for
from repro.isa.program import ActiveProgram
from repro.packets.headers import AllocationResponseHeader, StageRegion
from repro.switchsim.config import SwitchConfig


class CompilationError(Exception):
    """Raised when no mutant matches the granted allocation."""


#: Shared default device model: ``compile_mutant`` runs once per
#: allocation response, and a fresh config per call would defeat the
#: verifier's memoization (cache keys would hash a new object each
#: probe).  SwitchConfig is immutable, so one instance serves all.
_DEFAULT_CONFIG = SwitchConfig()


@dataclasses.dataclass(frozen=True)
class SynthesizedProgram:
    """A mutant linked against a concrete allocation.

    Attributes:
        program: the NOP-padded program ready for injection.
        mutant: the chosen stage vector.
        regions: physical stage -> granted word region.
        access_stages: physical stage of each memory access, in program
            order (parallel to the pattern's access vectors).
        report: the verifier's verdict on the linked program (None when
            compiled with ``verify="off"``).  Excluded from equality:
            two identically linked programs compare equal regardless of
            whether they were verified.
    """

    program: ActiveProgram
    mutant: MutantCandidate
    regions: Dict[int, StageRegion]
    access_stages: Tuple[int, ...]
    report: Optional[AnalysisReport] = dataclasses.field(
        default=None, compare=False
    )

    def translate(self, access_index: int, logical_index: int) -> int:
        """Map an access's logical word index into its physical region.

        Raises:
            CompilationError: if the logical index exceeds the region.
        """
        stage = self.access_stages[access_index]
        region = self.regions[stage]
        if logical_index < 0 or logical_index >= region.size:
            raise CompilationError(
                f"logical index {logical_index} outside region of "
                f"{region.size} words in stage {stage}"
            )
        return region.start + logical_index

    def region_for_access(self, access_index: int) -> StageRegion:
        return self.regions[self.access_stages[access_index]]

    @functools.cached_property
    def min_region_words(self) -> int:
        """Smallest granted region (bounds hash-table sizing), taken once
        per link: ``relink`` makes a new object."""
        return min(region.size for region in self.regions.values())


@functools.lru_cache(maxsize=256)
def _granted_mutant(shape: AccessPattern, policy: AllocationPolicy, config: SwitchConfig,
                    granted: FrozenSet[int]) -> Optional[MutantCandidate]:
    """The first mutant with the fewest recirculations whose stages are all
    *granted* (None: none reaches them).  Pure, so memoized like the padding
    and the linked verdict after it: one search per shape and grant."""
    best: Optional[MutantCandidate] = None
    # No mutant recirculates less than the compact program does.
    fewest = shape.compact_passes(config.num_stages) - 1
    for candidate in enumerate_mutants(shape, policy, config):
        if not granted.issuperset(candidate.physical_stages):
            continue
        if best is None or (
            (candidate.recirculations, candidate.stages)
            < (best.recirculations, best.stages)
        ):
            best = candidate
        if best.recirculations == fewest:
            break  # lexicographic order: no better candidate exists
    return best


class ActiveCompiler:
    """Compiles and links active programs for one switch configuration."""

    def __init__(
        self,
        config: Optional[SwitchConfig] = None,
        synthesis_policy: Optional[AllocationPolicy] = None,
        verify: Union[VerifyMode, str] = VerifyMode.WARN,
    ) -> None:
        self.config = config or _DEFAULT_CONFIG
        # Synthesis considers recirculating mutants too: the response
        # dictates the stages, and the client must reach them.
        self.synthesis_policy = synthesis_policy or LEAST_CONSTRAINED
        #: Static-verification policy (fail fast before submission):
        #: ``strict`` raises VerificationError on any error-severity
        #: finding, ``warn`` attaches the report, ``off`` skips analysis.
        self.verify = VerifyMode.coerce(verify)

    # ------------------------------------------------------------------

    def analyze(
        self,
        program: ActiveProgram,
        pattern: Optional[AccessPattern] = None,
    ) -> AnalysisReport:
        """Run the program-only verifier passes (lint entry point)."""
        return analyze_program(program, self.config, pattern=pattern)

    # ------------------------------------------------------------------

    def derive_pattern(
        self,
        program: ActiveProgram,
        demands: Optional[Sequence[Optional[int]]] = None,
        name: Optional[str] = None,
    ) -> AccessPattern:
        """Front end: extract the allocation-request constraints."""
        return AccessPattern.from_program(program, demands=demands, name=name)

    def synthesize(
        self,
        program: ActiveProgram,
        pattern: AccessPattern,
        response: AllocationResponseHeader,
    ) -> SynthesizedProgram:
        """Synthesize the mutant matching an allocation response.

        Among mutants whose access stages all carry granted regions,
        the one with the fewest recirculations (then most compact) is
        chosen.

        Raises:
            CompilationError: when the response stages are unreachable
                by any mutant of the program.
        """
        granted = {
            stage: response.region_for_stage(stage)
            for stage in response.allocated_stages()
        }
        if not granted:
            raise CompilationError("allocation response grants no stages")
        best = _granted_mutant(pattern.shape, self.synthesis_policy, self.config,
                               frozenset(granted))
        if best is None:
            raise CompilationError(
                f"no mutant of {pattern.name!r} reaches granted stages "
                f"{sorted(granted)}"
            )
        padded = program.with_nops_before(insertions_for(pattern, best.stages))
        access_stages = tuple(
            self.config.physical_stage(stage) for stage in best.stages
        )
        regions = {stage: granted[stage] for stage in set(access_stages)}
        report: Optional[AnalysisReport] = None
        if self.verify is not VerifyMode.OFF:
            # Raises VerificationError in strict mode on any
            # error-severity finding, before the caller sees a result.
            report = linked_verdict(
                padded, tuple(regions.items()), self.config, self.verify
            )
        return SynthesizedProgram(
            program=padded,
            mutant=best,
            regions=regions,
            access_stages=access_stages,
            report=report,
        )

    def _verified(self, synthesized: SynthesizedProgram) -> SynthesizedProgram:
        """Apply the compiler's verification policy to a linked program.

        Raises:
            VerificationError: in strict mode, when the linked program
                carries any error-severity finding.
        """
        if self.verify is VerifyMode.OFF:
            return synthesized
        report = linked_verdict(
            synthesized.program,
            tuple(synthesized.regions.items()),
            self.config,
            self.verify,
        )
        return SynthesizedProgram(
            program=synthesized.program,
            mutant=synthesized.mutant,
            regions=synthesized.regions,
            access_stages=synthesized.access_stages,
            report=report,
        )

    # ------------------------------------------------------------------

    def relink(
        self,
        synthesized: SynthesizedProgram,
        response: AllocationResponseHeader,
    ) -> SynthesizedProgram:
        """Re-translate after a reallocation that kept the same stages.

        Reallocations resize or move regions within stages but never
        relocate an application across stages, so the mutant survives;
        only the address translation changes.

        Raises:
            CompilationError: if the new response dropped a stage the
                mutant depends on.
        """
        granted = {
            stage: response.region_for_stage(stage)
            for stage in response.allocated_stages()
        }
        missing = [
            stage
            for stage in synthesized.regions
            if stage not in granted
        ]
        if missing:
            raise CompilationError(
                f"reallocation removed stages {missing}; full "
                "re-synthesis required"
            )
        return self._verified(
            dataclasses.replace(
                synthesized,
                regions={
                    stage: granted[stage] for stage in synthesized.regions
                },
            )
        )


def compile_mutant(
    program: ActiveProgram,
    response: AllocationResponseHeader,
    config: Optional[SwitchConfig] = None,
    demands: Optional[Sequence[Optional[int]]] = None,
    name: Optional[str] = None,
    verify: Union[VerifyMode, str] = VerifyMode.WARN,
) -> SynthesizedProgram:
    """One-shot front door: derive the pattern and synthesize the mutant.

    Equivalent to ``ActiveCompiler(config).synthesize(program,
    derive_pattern(program, ...), response)`` -- the common case when a
    client already holds an allocation response and just wants the
    linked program.  *verify* selects the static-verification policy
    (default ``warn``: the report rides on the result without blocking).
    """
    compiler = ActiveCompiler(config, verify=verify)
    pattern = compiler.derive_pattern(program, demands=demands, name=name)
    return compiler.synthesize(program, pattern, response)
