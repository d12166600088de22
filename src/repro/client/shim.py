"""The client shim layer: per-service state machine (Section 5).

The shim tracks which state a service is in -- *operational* (programs
are injected onto outgoing traffic), *negotiating* (an allocation is
being requested or released) or *memory management* (state extraction
during a reallocation) -- and pauses active transmissions outside the
operational state, exactly as the paper's prototype does.

The shim is transport-agnostic: callers feed it received packets via
:meth:`handle_packet` and transmit whatever packets its methods return.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Sequence

from repro.client.compiler import (
    ActiveCompiler,
    CompilationError,
    SynthesizedProgram,
)
from repro.core.constraints import AccessPattern
from repro.isa.program import ActiveProgram
from repro.packets.codec import ActivePacket
from repro.packets.ethernet import MacAddress
from repro.packets.headers import ControlFlags, PacketType


class ShimError(Exception):
    """Raised on protocol violations (e.g. activating while negotiating)."""


class ShimState(enum.Enum):
    """Service states of Section 5's state-machine model."""

    IDLE = "idle"
    NEGOTIATING = "negotiating"
    OPERATIONAL = "operational"
    MEMORY_MANAGEMENT = "memory-management"
    FAILED = "failed"


class ClientShim:
    """State machine for one active service at one client."""

    def __init__(
        self,
        mac: MacAddress,
        switch_mac: MacAddress,
        fid: int,
        program: ActiveProgram,
        demands: Optional[Sequence[Optional[int]]] = None,
        compiler: Optional[ActiveCompiler] = None,
    ) -> None:
        self.mac = mac
        self.switch_mac = switch_mac
        self.fid = fid
        self.program = program
        self.compiler = compiler or ActiveCompiler()
        self.pattern: AccessPattern = self.compiler.derive_pattern(
            program, demands=demands
        )
        self.state = ShimState.IDLE
        self.synthesized: Optional[SynthesizedProgram] = None
        self._seq = 0
        #: Invoked with the fresh SynthesizedProgram on (re)allocation.
        self.on_allocated: Optional[Callable[[SynthesizedProgram], None]] = None
        #: Invoked when a reallocation notice arrives; the service
        #: should extract state and then transmit snapshot_complete().
        self.on_realloc_notice: Optional[Callable[[], None]] = None
        self.on_failed: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------
    # Outbound packets
    # ------------------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def request_allocation(self, elastic_flag: bool = True) -> ActivePacket:
        """Build the allocation request and enter NEGOTIATING."""
        if self.state not in (ShimState.IDLE, ShimState.FAILED):
            raise ShimError(f"cannot request allocation in {self.state}")
        self.state = ShimState.NEGOTIATING
        flags = ControlFlags.ELASTIC if self.pattern.elastic else 0
        return ActivePacket.alloc_request(
            src=self.mac,
            dst=self.switch_mac,
            fid=self.fid,
            request=self.pattern.to_request(),
            flags=flags,
            seq=self._next_seq(),
        )

    def deallocate(self) -> ActivePacket:
        """Build the release control packet and go IDLE."""
        self.state = ShimState.IDLE
        self.synthesized = None
        return ActivePacket.control(
            src=self.mac,
            dst=self.switch_mac,
            fid=self.fid,
            flags=ControlFlags.DEALLOCATE,
            seq=self._next_seq(),
        )

    def snapshot_complete(self) -> ActivePacket:
        """Notify the controller that state extraction finished."""
        if self.state is not ShimState.MEMORY_MANAGEMENT:
            raise ShimError("no reallocation in progress")
        self.state = ShimState.OPERATIONAL
        return ActivePacket.control(
            src=self.mac,
            dst=self.switch_mac,
            fid=self.fid,
            flags=ControlFlags.SNAPSHOT_COMPLETE,
            seq=self._next_seq(),
        )

    def activate(
        self,
        args: Sequence[int],
        payload: bytes = b"",
        dst: Optional[MacAddress] = None,
        flags: int = 0,
    ) -> ActivePacket:
        """Encapsulate outgoing traffic with the synthesized program.

        Raises:
            ShimError: outside the operational state (the shim pauses
                active transmissions while negotiating or snapshotting).
        """
        if self.state is not ShimState.OPERATIONAL:
            raise ShimError(f"cannot activate traffic in {self.state}")
        assert self.synthesized is not None
        return ActivePacket.program(
            src=self.mac,
            dst=dst or self.switch_mac,
            fid=self.fid,
            instructions=self.synthesized.program,
            args=list(args),
            payload=payload,
            seq=self._next_seq(),
            flags=flags,
        )

    @property
    def can_transmit(self) -> bool:
        return self.state is ShimState.OPERATIONAL

    # ------------------------------------------------------------------
    # Inbound packets
    # ------------------------------------------------------------------

    def handle_packet(self, packet: ActivePacket) -> List[ActivePacket]:
        """Process a packet addressed to this shim; returns replies."""
        if packet.fid != self.fid:
            return []
        if packet.ptype == PacketType.ALLOC_RESPONSE:
            return self._handle_response(packet)
        if packet.ptype == PacketType.CONTROL and packet.has_flag(
            ControlFlags.REALLOC_NOTICE
        ):
            return self._handle_realloc_notice()
        return []

    def _handle_response(self, packet: ActivePacket) -> List[ActivePacket]:
        assert packet.response is not None
        if packet.has_flag(ControlFlags.ALLOC_FAILED):
            self.state = ShimState.FAILED
            self.synthesized = None
            if self.on_failed is not None:
                self.on_failed("allocation denied")
            return []
        if packet.has_flag(ControlFlags.REALLOC_NOTICE) and self.synthesized:
            # Updated regions after a reallocation: same stages, new
            # ranges -- relink without re-synthesis.
            try:
                self.synthesized = self.compiler.relink(
                    self.synthesized, packet.response
                )
            except CompilationError:
                self.synthesized = None
                self.state = ShimState.FAILED
                if self.on_failed is not None:
                    self.on_failed("reallocation dropped required stages")
                return []
        else:
            try:
                self.synthesized = self.compiler.synthesize(
                    self.program, self.pattern, packet.response
                )
            except CompilationError as exc:
                self.state = ShimState.FAILED
                if self.on_failed is not None:
                    self.on_failed(str(exc))
                return []
        self.state = ShimState.OPERATIONAL
        if self.on_allocated is not None:
            self.on_allocated(self.synthesized)
        return []

    def _handle_realloc_notice(self) -> List[ActivePacket]:
        """Controller deactivated us pending reallocation (Section 4.3)."""
        self.state = ShimState.MEMORY_MANAGEMENT
        if self.on_realloc_notice is not None:
            self.on_realloc_notice()
        return []
