"""The Cheetah load balancer (Appendix B.2, Section 6.1).

Two active programs, as in the paper: a **server-selection** program
injected on TCP SYNs (stateful: a round-robin counter and the VIP
pool live in switch memory) and a **flow-routing** program on every
other packet (stateless: the cookie carried by the flow XORed with a
salted hash of the flow recovers the server port).

The selection program's inelastic demand is 2 blocks -- one for the
counter, one for a VIP pool of up to ``block_words`` servers, "enough
to manage 512 active virtual IPs" at paper defaults.

Argument layouts::

    selection:  slot 2 = counter address, slot 4 = pool-size mask,
                slot 5 = pool base address; the chosen server port is
                stored back into slot 6.
    routing:    slot 0 = flow id (5-tuple fold), slot 1 = salt,
                slot 3 = cookie.

Cookies are computed client-side -- the client shares the switch's CRC
engines (capsule model: nothing on the switch is secret from the
client) -- and verified on the switch by the routing program.
"""

from __future__ import annotations

from typing import List, Optional

from repro.client.compiler import SynthesizedProgram
from repro.client.memsync import build_write_packet
from repro.core.constraints import AccessPattern
from repro.isa.assembler import assemble
from repro.isa.program import ActiveProgram
from repro.packets.codec import ActivePacket
from repro.packets.ethernet import MacAddress
from repro.switchsim.hashing import hash_engine

#: Blocks demanded per memory stage (counter + VIP pool).
LB_DEMAND_BLOCKS = 1
#: The salt every client's flow hash (and so its cookie) is keyed with.
COOKIE_SALT = 0x5A17

LB_SELECTION_SOURCE = """
    MAR_LOAD $2        ; 1: round-robin counter address
    MEM_INCREMENT      ; 2: MBR = next ticket
    MAR_LOAD $4        ; 3: MAR = pool-size mask (power-of-two pools)
    BIT_AND_MAR_MBR    ; 4: MAR = ticket & mask = pool offset
    MBR2_LOAD $5       ; 5: MBR2 = pool base address
    MAR_ADD_MBR2       ; 6: MAR = base + offset
    MEM_READ           ; 7: MBR = server port
    MBR_STORE $6       ; 8: export the choice to the client
    SET_DST            ; 9: route the SYN to the selected server
    RETURN             ; 10
"""

LB_ROUTING_SOURCE = """
    MBR_LOAD $0        ; 1: flow id (5-tuple fold)
    COPY_HASHDATA_MBR  ; 2
    MBR_LOAD $1        ; 3: salt
    COPY_HASHDATA_MBR  ; 4
    HASH $0            ; 5: MAR = H(flow, salt)
    MBR_LOAD $3        ; 6: cookie
    COPY_MBR2_MBR      ; 7: MBR2 = cookie
    COPY_MBR_MAR       ; 8: MBR = hash
    MBR_EQUALS_MBR2    ; 9: MBR = hash ^ cookie = server port
    SET_DST            ; 10: stateless forwarding decision
    RETURN             ; 11
"""


def lb_selection_program() -> ActiveProgram:
    """Server selection for SYN packets (Listing 3 adaptation)."""
    return assemble(LB_SELECTION_SOURCE, name="lb-selection")


def lb_routing_program() -> ActiveProgram:
    """Stateless flow routing for non-SYN packets (Listing 4)."""
    return assemble(LB_ROUTING_SOURCE, name="lb-routing")


def lb_pattern() -> AccessPattern:
    """The LB's inelastic pattern: counter + pool, SET_DST in ingress."""
    return AccessPattern.from_program(
        lb_selection_program(),
        demands=[LB_DEMAND_BLOCKS, LB_DEMAND_BLOCKS],
        name="cheetah-lb",
    )


def flow_cookie(flow_id: int, salt: int, server_port: int) -> int:
    """Client-side cookie computation (CheetahLB, Appendix B.2)."""
    return hash_engine(0).digest([flow_id, salt]) ^ server_port & 0xFFFFFFFF


class CheetahLbClient:
    """Client-side logic for one load-balancer instance."""

    def __init__(
        self,
        mac: MacAddress,
        vip_mac: MacAddress,
        switch_mac: MacAddress,
        fid: int,
    ) -> None:
        self.mac = mac
        self.vip_mac = vip_mac
        self.switch_mac = switch_mac
        self.fid = fid
        self.synthesized: Optional[SynthesizedProgram] = None
        self.pool: List[int] = []

    def attach(self, synthesized: SynthesizedProgram) -> None:
        self.synthesized = synthesized

    # ------------------------------------------------------------------
    # Pool management (via memory-sync writes)
    # ------------------------------------------------------------------

    @property
    def pool_capacity(self) -> int:
        if self.synthesized is None:
            return 0
        return self.synthesized.region_for_access(1).size

    def install_pool_packets(self, server_ports: List[int]) -> List[ActivePacket]:
        """Write the VIP pool into switch memory (pool size must be a
        power of two, as in the paper's implementation)."""
        if self.synthesized is None:
            raise ValueError("load balancer has no allocation")
        size = len(server_ports)
        if size == 0 or size & (size - 1):
            raise ValueError("pool sizes must be a power of two")
        if size > self.pool_capacity:
            raise ValueError(
                f"pool of {size} exceeds capacity {self.pool_capacity}"
            )
        self.pool = list(server_ports)
        stage = self.synthesized.access_stages[1]
        packets = []
        for index, port in enumerate(server_ports):
            packets.append(
                build_write_packet(
                    src=self.mac,
                    dst=self.vip_mac,
                    fid=self.fid,
                    stage=stage,
                    address=self.synthesized.translate(1, index),
                    value=port,
                )
            )
        return packets

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def _counter_address(self) -> int:
        return self.synthesized.translate(0, 0)

    def selection_packet(self, flow_id: int, payload: bytes = b"") -> ActivePacket:
        """Activate a SYN with the server-selection program."""
        if self.synthesized is None or not self.pool:
            raise ValueError("load balancer not ready")
        mask = len(self.pool) - 1
        base = self.synthesized.translate(1, 0)
        return ActivePacket.program(
            src=self.mac,
            dst=self.vip_mac,
            fid=self.fid,
            instructions=self.synthesized.program,
            args=[flow_id, COOKIE_SALT, self._counter_address(), 0, mask, base, 0, 0],
            payload=payload,
        )

    def routing_packet(
        self, flow_id: int, cookie: int, payload: bytes = b""
    ) -> ActivePacket:
        """Activate a non-SYN packet with the flow-routing program."""
        return ActivePacket.program(
            src=self.mac,
            dst=self.vip_mac,
            fid=self.fid,
            instructions=lb_routing_program(),
            args=[flow_id, COOKIE_SALT, 0, cookie],
        )

    def cookie_for(self, flow_id: int, server_port: int) -> int:
        return flow_cookie(flow_id, COOKIE_SALT, server_port)

    @staticmethod
    def chosen_server(reply: ActivePacket) -> int:
        """Server port exported by a processed selection packet."""
        return reply.get_arg(6)
