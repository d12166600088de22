"""Validated active programs and their structural properties.

An :class:`ActiveProgram` is the unit the client compiler manipulates:
an ordered sequence of instructions terminated (on the wire) by ``EOF``.
The allocator never sees programs directly -- it sees the *memory access
positions* and forwarding constraints this module exposes (Section 4.2).

Positions are **1-indexed logical stages**: instruction ``i`` (1-based)
executes in logical stage ``i`` of the (possibly recirculated) pipeline,
since the switch executes exactly one instruction per stage (Section 3.1).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.isa.instructions import Instruction, encode_words
from repro.isa.opcodes import (
    Opcode,
    INGRESS_PREFERRED_OPCODES,
    is_memory_access,
)


class ProgramError(ValueError):
    """Raised for structurally invalid active programs."""


@dataclasses.dataclass(frozen=True)
class ActiveProgram:
    """An immutable, validated sequence of active instructions.

    The trailing ``EOF`` marker is *not* stored; it is appended by the
    wire encoder.  Programs compare equal iff their instruction
    sequences are equal.
    """

    instructions: Tuple[Instruction, ...]
    name: str = "anonymous"

    def __init__(
        self,
        instructions: Iterable[Instruction],
        name: str = "anonymous",
    ) -> None:
        object.__setattr__(self, "instructions", tuple(instructions))
        object.__setattr__(self, "name", name)
        self._validate()

    def __hash__(self) -> int:
        # Programs key memoization caches on the verifier's hot path
        # (one hash per compile); the content hash over every
        # instruction is computed once and reused.
        cached: Optional[int] = self.__dict__.get("_content_hash")
        if cached is None:
            cached = hash((self.instructions, self.name))
            object.__setattr__(self, "_content_hash", cached)
        return cached

    @functools.cached_property
    def code(self) -> bytes:
        """The program's wire words (no EOF), encoded once: every packet
        built from this program shares them."""
        return encode_words(self.instructions)

    def _validate(self) -> None:
        if not self.instructions:
            raise ProgramError("empty program")
        targets = set()
        branches = set()
        for idx, instr in enumerate(self.instructions):
            if instr.opcode is Opcode.EOF:
                raise ProgramError(
                    f"{self.name}: explicit EOF at instruction {idx}; EOF is "
                    "appended by the encoder"
                )
            if instr.is_branch:
                if not instr.label:
                    raise ProgramError(
                        f"{self.name}: branch at {idx} has no destination label"
                    )
                branches.add((idx, instr.label))
            elif instr.is_label_target:
                if instr.label in targets:
                    raise ProgramError(
                        f"{self.name}: duplicate label L{instr.label}"
                    )
                targets.add(instr.label)
        # Branch destinations must exist and lie strictly after the branch
        # (execution is sequential through the pipeline; Section 3.1).
        label_pos = {
            instr.label: idx
            for idx, instr in enumerate(self.instructions)
            if instr.is_label_target
        }
        for idx, label in branches:
            if label not in label_pos:
                raise ProgramError(
                    f"{self.name}: branch at {idx} to undefined label L{label}"
                )
            if label_pos[label] == idx:
                raise ProgramError(
                    f"{self.name}: branch at {idx} targets its own position "
                    f"(self-loop on label L{label}); a stage cannot re-enter "
                    "itself"
                )
            if label_pos[label] <= idx:
                raise ProgramError(
                    f"{self.name}: branch at {idx} targets label L{label} at "
                    f"{label_pos[label]}; backward jumps are impossible on a "
                    "feed-forward pipeline"
                )

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    # ------------------------------------------------------------------
    # Structural queries used by the compiler and allocator
    # ------------------------------------------------------------------

    def memory_access_positions(self) -> List[int]:
        """1-indexed logical-stage positions of memory access instructions.

        For Listing 1 this returns ``[2, 5, 9]`` -- the LB vector of the
        most compact mutant (Section 4.2).
        """
        return [
            idx + 1
            for idx, instr in enumerate(self.instructions)
            if is_memory_access(instr.opcode)
        ]

    def ingress_bound_positions(self) -> List[int]:
        """1-indexed positions of instructions that prefer an ingress stage.

        ``RTS`` and friends must map to the ingress half-pipeline or the
        packet pays an extra recirculation (Section 3.1).
        """
        return [
            idx + 1
            for idx, instr in enumerate(self.instructions)
            if instr.opcode in INGRESS_PREFERRED_OPCODES
        ]

    def has_fork(self) -> bool:
        """True if the program clones packets (always recirculates)."""
        return any(instr.opcode is Opcode.FORK for instr in self.instructions)

    def label_positions(self) -> Dict[int, int]:
        """Map of label id -> 0-indexed instruction position."""
        return {
            instr.label: idx
            for idx, instr in enumerate(self.instructions)
            if instr.is_label_target
        }

    # ------------------------------------------------------------------
    # Mutation primitives (used by repro.core.mutants)
    # ------------------------------------------------------------------

    def with_nops_before(self, insertions: Sequence[Tuple[int, int]]) -> "ActiveProgram":
        """Return a mutant with NOPs inserted before given positions.

        Args:
            insertions: ``(position, count)`` pairs where *position* is a
                1-indexed instruction position in *this* program and
                *count* NOPs are inserted immediately before it.  Pairs
                must use distinct positions.

        This is the paper's mutant synthesis (Figure 4): padding shifts
        every subsequent instruction -- and hence its execution stage --
        later in the logical pipeline without altering semantics.

        Results are memoized: programs are immutable, so re-deriving a
        known mutant (the steady state of the compile path) returns the
        shared instance.
        """
        return _padded_variant(self, tuple(insertions))

    def retarget_arguments(
        self, args: Sequence[int], slots: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Helper: build the 4-slot argument vector for this program.

        Args:
            args: values to place, in slot order.
            slots: optional explicit slot indices; defaults to 0..len-1.

        Returns a 4-element list padded with zeros (one argument header).
        """
        vector = [0, 0, 0, 0]
        indices = list(slots) if slots is not None else list(range(len(args)))
        for slot, value in zip(indices, args):
            vector[slot] = value & 0xFFFFFFFF
        return vector

    def pretty(self) -> str:
        """Multi-line human-readable listing."""
        lines = [f"; {self.name} ({len(self)} instructions)"]
        lines.extend(
            f"{idx + 1:3d}  {instr}" for idx, instr in enumerate(self.instructions)
        )
        return "\n".join(lines)


def _build_padded(
    program: ActiveProgram, insertions: Tuple[Tuple[int, int], ...]
) -> ActiveProgram:
    by_pos: Dict[int, int] = {}
    for position, count in insertions:
        if not 1 <= position <= len(program.instructions):
            raise ProgramError(
                f"insertion position {position} out of range "
                f"1..{len(program)}"
            )
        if count < 0:
            raise ProgramError("negative NOP count")
        if position in by_pos:
            raise ProgramError(f"duplicate insertion position {position}")
        by_pos[position] = count
    out: List[Instruction] = []
    for idx, instr in enumerate(program.instructions):
        out.extend(
            Instruction(Opcode.NOP) for _ in range(by_pos.get(idx + 1, 0))
        )
        out.append(instr)
    return ActiveProgram(out, name=program.name)


_padded_variant = functools.lru_cache(maxsize=256)(_build_padded)
