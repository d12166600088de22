"""The frequent-item (heavy-hitter) monitor (Appendix B.1, Section 6.3).

Deployment variant of the paper's Listing 2: a two-row count-min
sketch updated per request, plus a key table where keys whose sketched
count exceeds the stored per-slot count are recorded.  The program
inherently recirculates (37 instructions on a 20-stage pipeline), and
its stored-count read (first pass) aliases the same physical stage as
the stored-count write (second pass) -- which is what pins the program
to exactly one most-constrained mutant, matching the paper's Section
6.1 mutant census (1 mc mutant for the heavy hitter).

Stage roles (compact mutant)::

    stage  8  CMS row 1 (HASH $0, switch-translated)
    stage 13  CMS row 2 (HASH $1, switch-translated)
    stage 16  per-slot stored count (read pass 1, written pass 2)
    stage  2  key word 0 (pass 2)
    stage  6  key word 1 (pass 2)

Argument layout: slot 0 = key word 0, slot 1 = key word 1,
slot 2 = key-table slot address (client-translated).
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional

from repro.client.compiler import SynthesizedProgram
from repro.client.memsync import build_multi_read_packet, extract_read_value, multi_read_slots
from repro.core.constraints import AccessPattern
from repro.isa.assembler import assemble
from repro.isa.program import ActiveProgram
from repro.packets.codec import ActivePacket
from repro.packets.ethernet import MacAddress

#: Blocks demanded in every stage the monitor touches (Section 6.1:
#: 16 blocks achieve <0.1% error with high probability).
HH_DEMAND_BLOCKS = 16

HEAVY_HITTER_SOURCE = """
    MBR_LOAD $0          ; 1: key word 0
    MBR2_LOAD $1         ; 2: key word 1
    COPY_HASHDATA_MBR    ; 3
    COPY_HASHDATA_MBR2   ; 4
    HASH $0              ; 5: CMS row-1 index
    ADDR_MASK            ; 6
    ADDR_OFFSET          ; 7
    MEM_MINREADINC       ; 8: row 1 count -> MBR; min -> MBR2
    COPY_MBR2_MBR        ; 9: MBR2 = row-1 count
    HASH $1              ; 10: CMS row-2 index
    ADDR_MASK            ; 11
    ADDR_OFFSET          ; 12
    MEM_MINREADINC       ; 13: MBR2 = sketched count (min of rows)
    COPY_MBR_MBR2        ; 14
    MAR_LOAD $2          ; 15: key-table slot address
    MEM_READ             ; 16: MBR = stored count for this slot
    MIN                  ; 17: MBR = min(stored, sketched)
    MBR_EQUALS_MBR2      ; 18: zero iff sketched >= stored... see note
    CRETI                ; 19: not hotter than the slot -> done
    MBR_LOAD $0          ; 20: reload key word 0
    MAR_LOAD $3          ; 21: key-word-0 slot address (stage-2 region)
    MEM_WRITE            ; 22: key word 0 -> stage 2 (pass 2)
    NOP                  ; 23
    MAR_LOAD $4          ; 24: key-word-1 slot address (stage-6 region)
    MBR_LOAD $1          ; 25: key word 1
    MEM_WRITE            ; 26: key word 1 -> stage 6 (pass 2)
    NOP                  ; 27
    NOP                  ; 28
    NOP                  ; 29
    NOP                  ; 30
    NOP                  ; 31
    NOP                  ; 32
    NOP                  ; 33
    MAR_LOAD $5          ; 34: stored-count slot address (stage-16 region)
    COPY_MBR_MBR2        ; 35: MBR = sketched count
    MEM_WRITE            ; 36: stored count -> stage 16 (pass 2)
    NOP                  ; 37: tail padding -- fills the second pass so
    NOP                  ; 38: the cross-pass alias pins the mutant set
    NOP                  ; 39: (exactly one most-constrained mutant,
    RETURN               ; 40: matching the paper's Section 6.1 census)
"""
# Note on line 18: after MIN, MBR == MBR2 iff sketched <= stored, so
# CRETI terminates exactly when the key is NOT hotter than the slot's
# incumbent; otherwise the key and its count overwrite the slot.


def heavy_hitter_program() -> ActiveProgram:
    """The deployed frequent-item monitor."""
    return assemble(HEAVY_HITTER_SOURCE, name="heavy-hitter")


def heavy_hitter_pattern() -> AccessPattern:
    """Inelastic pattern with the stored-count stage aliased across
    passes (access 5 must land on access 2's physical stage)."""
    program = heavy_hitter_program()
    pattern = AccessPattern.from_program(
        program, demands=[HH_DEMAND_BLOCKS] * 6, name="heavy-hitter"
    )
    # accesses: (8, 13, 16, 22, 26, 36); index 5 aliases index 2.
    return AccessPattern(
        program_length=pattern.program_length,
        lower_bounds=pattern.lower_bounds,
        min_distances=pattern.min_distances,
        demands=pattern.demands,
        ingress_bound_position=pattern.ingress_bound_position,
        aliases=(-1, -1, -1, -1, -1, 2),
        name=pattern.name,
    )


class HeavyHitterClient:
    """Client-side logic for one monitor instance."""

    def __init__(
        self,
        mac: MacAddress,
        server_mac: MacAddress,
        switch_mac: MacAddress,
        fid: int,
    ) -> None:
        self.mac = mac
        self.server_mac = server_mac
        self.switch_mac = switch_mac
        self.fid = fid
        self.synthesized: Optional[SynthesizedProgram] = None

    def attach(self, synthesized: SynthesizedProgram) -> None:
        self.synthesized = synthesized

    @property
    def table_slots(self) -> int:
        """Key-table slots under the current allocation."""
        if self.synthesized is None:
            return 0
        # Key stages are accesses 3..5; all share the demand size.
        return self.synthesized.region_for_access(3).size

    def slot_for(self, key: bytes) -> int:
        if self.table_slots == 0:
            raise ValueError("monitor has no allocation")
        return zlib.crc32(key, 0x5EED) % self.table_slots

    def monitor_packet(self, key: bytes, payload: bytes = b"") -> ActivePacket:
        """Activate an application request with the monitor program."""
        if self.synthesized is None:
            raise ValueError("monitor has no allocation")
        key0 = int.from_bytes(key[:4], "big")
        key1 = int.from_bytes(key[4:], "big")
        slot = self.slot_for(key)
        return ActivePacket.program(
            src=self.mac,
            dst=self.server_mac,
            fid=self.fid,
            instructions=self.synthesized.program,
            args=[
                key0,
                key1,
                self.synthesized.translate(2, slot),  # stored-count read
                self.synthesized.translate(3, slot),  # key word 0 write
                self.synthesized.translate(4, slot),  # key word 1 write
                self.synthesized.translate(5, slot),  # stored-count write
                0,
                0,
            ],
            payload=payload,
        )

    # ------------------------------------------------------------------
    # Statistics extraction (memory synchronization, Section 4.3)
    # ------------------------------------------------------------------

    def extraction_packets(self) -> List[ActivePacket]:
        """Multi-read packets covering the whole key table.

        Each packet reads (key word 0, key word 1, stored count) for
        one slot: the three key-table stages at the same index.
        """
        if self.synthesized is None:
            raise ValueError("monitor has no allocation")
        stages = sorted(
            {self.synthesized.access_stages[i] for i in (3, 4, 5)}
            | {self.synthesized.access_stages[2]}
        )
        packets = []
        for slot in range(self.table_slots):
            address = self.synthesized.translate(2, slot)
            packets.append(
                build_multi_read_packet(
                    src=self.mac,
                    dst=self.server_mac,
                    fid=self.fid,
                    stages=stages,
                    address=address,
                )
            )
        return packets

    def parse_extraction(
        self, replies: List[ActivePacket]
    ) -> Dict[bytes, int]:
        """Recover ``key -> count`` from extraction replies."""
        if self.synthesized is None:
            raise ValueError("monitor has no allocation")
        stages = sorted(
            {self.synthesized.access_stages[i] for i in (3, 4, 5)}
            | {self.synthesized.access_stages[2]}
        )
        slots = multi_read_slots(len(stages))
        by_stage = dict(zip(stages, slots))
        key0_stage = self.synthesized.access_stages[3]
        key1_stage = self.synthesized.access_stages[4]
        count_stage = self.synthesized.access_stages[5]
        counts: Dict[bytes, int] = {}
        for reply in replies:
            key0 = extract_read_value(reply, by_stage[key0_stage])
            key1 = extract_read_value(reply, by_stage[key1_stage])
            count = extract_read_value(reply, by_stage[count_stage])
            if key0 == 0 and key1 == 0:
                continue  # empty slot
            key = key0.to_bytes(4, "big") + key1.to_bytes(4, "big")
            counts[key] = max(counts.get(key, 0), count)
        return counts
