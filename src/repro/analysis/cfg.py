"""Control-flow graph over an active program's skip semantics.

Active programs execute one instruction per stage, strictly forward;
branches do not change a program counter, they *disable* execution
until the destination label streams past (Section 3.1).  The CFG is
therefore a DAG over instruction positions with only forward edges:

- ``UJUMP``  -- one edge, to the label target (the fall-through arm is
  provably skipped).
- ``CJUMP``/``CJUMPI`` -- two edges: fall-through and label target.
- ``RETURN``/``DROP`` -- exit; no successors.
- ``CRET``/``CRETI`` -- conditional exit: fall-through edge only (the
  taken arm leaves the program).
- everything else -- fall-through edge.

The program's own validation guarantees labels exist and lie strictly
forward, so construction cannot cycle.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.isa.opcodes import Opcode
from repro.isa.program import ActiveProgram

#: Positions are 1-indexed, matching the logical-stage convention used
#: everywhere else in the codebase (instruction i executes in logical
#: stage i).


@dataclasses.dataclass(frozen=True)
class ControlFlowGraph:
    """Forward-edge CFG of one program.

    Attributes:
        num_positions: instruction count of the program.
        successors: 1-indexed position -> successor positions.  An
            empty tuple marks a program exit (RETURN/DROP or running
            off the end).
        reachable: positions reachable from entry (position 1).
    """

    num_positions: int
    successors: Dict[int, Tuple[int, ...]]
    reachable: FrozenSet[int]

    @classmethod
    def build(cls, program: ActiveProgram) -> "ControlFlowGraph":
        n = len(program)
        label_target = {
            label: idx + 1 for label, idx in program.label_positions().items()
        }
        successors: Dict[int, Tuple[int, ...]] = {}
        for idx, instr in enumerate(program):
            position = idx + 1
            op = instr.opcode
            succs: List[int] = []
            if op in (Opcode.RETURN, Opcode.DROP):
                pass  # exit
            elif op is Opcode.UJUMP:
                succs.append(label_target[instr.label])
            elif op in (Opcode.CJUMP, Opcode.CJUMPI):
                if position < n:
                    succs.append(position + 1)
                succs.append(label_target[instr.label])
            else:
                # CRET/CRETI exit on the taken arm; the analysable
                # continuation is the fall-through, like any other op.
                if position < n:
                    succs.append(position + 1)
            successors[position] = tuple(dict.fromkeys(succs))

        reachable: Set[int] = set()
        frontier: List[int] = [1] if n else []
        while frontier:
            position = frontier.pop()
            if position in reachable:
                continue
            reachable.add(position)
            frontier.extend(successors[position])
        return cls(
            num_positions=n,
            successors=successors,
            reachable=frozenset(reachable),
        )

    def unreachable_positions(self, program: ActiveProgram) -> List[int]:
        """Positions of dead instructions, NOPs excluded.

        NOP padding inserted by mutant synthesis can legitimately land
        inside a skipped region; a dead NOP is semantically inert, so
        only non-NOP dead code is reported.
        """
        return [
            idx + 1
            for idx, instr in enumerate(program)
            if idx + 1 not in self.reachable
            and instr.opcode is not Opcode.NOP
        ]
