"""The in-memory active packet model and its wire codec.

:class:`ActivePacket` is the object the simulated switch, clients, and
network pass around.  It is mutable on purpose: the data plane rewrites
argument fields (``MBR_STORE``), marks instructions executed (packet
shrinking), and swaps addresses (``RTS``) exactly as the hardware
rewrites the PHV and the deparser rebuilds the frame.

``encode_packet``/``decode_packet`` realize the byte layout of
Section 3.3 in one pass each, as the switch's parser and deparser do;
round-tripping through them is covered by property-based tests.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, List, Optional, Type, TypeVar

from repro.isa.encoding import (
    INSTRUCTION_WIDTH,
    decode_instructions,
    encode_instructions,
)
from repro.isa.instructions import Instruction
from repro.packets.ethernet import EthernetHeader, MacAddress
from repro.packets.headers import (
    ACTIVE_ETHERTYPE,
    AllocationRequestHeader,
    AllocationResponseHeader,
    ArgumentHeader,
    ControlFlags,
    HeaderError,
    InitialHeader,
    PacketType,
)

#: Bit field (within the initial-header flags) holding the number of
#: argument headers attached to a PROGRAM packet (1-3 on the wire).
_ARG_COUNT_SHIFT = 12
_ARG_COUNT_MASK = 0x3

#: ``wire_size`` runs twice per packet on the data path (rx and tx byte
#: counters): the layout constants it adds up, as module globals.
_FRAME_SIZE = EthernetHeader.SIZE + InitialHeader.SIZE
_PROGRAM = PacketType.PROGRAM
_ARG_FIELDS = ArgumentHeader.FIELDS
_ARG_SIZE = ArgumentHeader.SIZE

#: The 24-byte Ethernet + initial-header prefix of every active frame,
#: composed from the two headers' own layouts.
_PREFIX = struct.Struct(">" + EthernetHeader.STRUCT.format[1:] + InitialHeader.STRUCT.format[1:])
#: One to three argument headers, by count.
_ARGS = {
    count: struct.Struct(">" + ArgumentHeader.STRUCT.format[1:] * count)
    for count in range(1, _ARG_COUNT_MASK + 1)
}
_PADDING = (0,) * _ARG_FIELDS

_Header = TypeVar("_Header")


def _unchecked(cls: Type[_Header], **fields: Any) -> _Header:
    """A frozen header decoded without ``__post_init__``: only for fields
    a struct code already bounds (u8/u16/u32 fields, 6-byte MACs).

    Equal, hash-equal and repr-equal to validated construction (pinned
    by the codec tests), but larger than ``object.__setattr__`` builds:
    the RTS copies, alive by the thousand, keep those (DESIGN.md).
    """
    header = object.__new__(cls)
    header.__dict__.update(fields)
    return header


@dataclasses.dataclass
class ActivePacket:
    """A parsed active packet.

    Attributes:
        eth: layer-2 encapsulation.
        initial: the 10-byte global active header.
        args: flattened 32-bit argument fields (4 per argument header);
            instruction operands index into this list.
        instructions: program instructions (PROGRAM packets only).
        request: allocation-request header (ALLOC_REQUEST only).
        response: allocation-response header (ALLOC_RESPONSE only).
        payload: opaque transport payload following the active headers.
        arrival_port: set by the simulator when the packet enters the
            switch; not serialized.
    """

    eth: EthernetHeader
    initial: InitialHeader
    args: List[int] = dataclasses.field(default_factory=lambda: [0, 0, 0, 0])
    instructions: List[Instruction] = dataclasses.field(default_factory=list)
    request: Optional[AllocationRequestHeader] = None
    response: Optional[AllocationResponseHeader] = None
    payload: bytes = b""
    arrival_port: Optional[int] = None

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def program(
        cls,
        src: MacAddress,
        dst: MacAddress,
        fid: int,
        instructions: List[Instruction],
        args: Optional[List[int]] = None,
        seq: int = 0,
        flags: int = 0,
        payload: bytes = b"",
    ) -> "ActivePacket":
        """Build an active-program packet."""
        arg_fields = list(args) if args is not None else [0, 0, 0, 0]
        if len(arg_fields) % ArgumentHeader.FIELDS:
            pad = ArgumentHeader.FIELDS - len(arg_fields) % ArgumentHeader.FIELDS
            arg_fields.extend(0 for _ in range(pad))
        return cls(
            eth=EthernetHeader(dst=dst, src=src, ethertype=ACTIVE_ETHERTYPE),
            initial=InitialHeader(
                ptype=PacketType.PROGRAM, fid=fid, seq=seq, flags=flags
            ),
            args=arg_fields,
            instructions=list(instructions),
            payload=payload,
        )

    @classmethod
    def alloc_request(
        cls,
        src: MacAddress,
        dst: MacAddress,
        fid: int,
        request: AllocationRequestHeader,
        flags: int = 0,
        seq: int = 0,
    ) -> "ActivePacket":
        return cls(
            eth=EthernetHeader(dst=dst, src=src, ethertype=ACTIVE_ETHERTYPE),
            initial=InitialHeader(
                ptype=PacketType.ALLOC_REQUEST, fid=fid, seq=seq, flags=flags
            ),
            args=[],
            request=request,
        )

    @classmethod
    def alloc_response(
        cls,
        src: MacAddress,
        dst: MacAddress,
        fid: int,
        response: AllocationResponseHeader,
        flags: int = 0,
        seq: int = 0,
    ) -> "ActivePacket":
        return cls(
            eth=EthernetHeader(dst=dst, src=src, ethertype=ACTIVE_ETHERTYPE),
            initial=InitialHeader(
                ptype=PacketType.ALLOC_RESPONSE, fid=fid, seq=seq, flags=flags
            ),
            args=[],
            response=response,
        )

    @classmethod
    def control(
        cls,
        src: MacAddress,
        dst: MacAddress,
        fid: int,
        flags: int,
        seq: int = 0,
    ) -> "ActivePacket":
        """A bare-header control packet (e.g. SNAPSHOT_COMPLETE)."""
        return cls(
            eth=EthernetHeader(dst=dst, src=src, ethertype=ACTIVE_ETHERTYPE),
            initial=InitialHeader(
                ptype=PacketType.CONTROL, fid=fid, seq=seq, flags=flags
            ),
            args=[],
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def fid(self) -> int:
        return self.initial.fid

    @property
    def ptype(self) -> int:
        return self.initial.ptype

    def has_flag(self, bit: int) -> bool:
        return bool(self.initial.flags & bit)

    def set_flag(self, bit: int) -> None:
        self.initial = self.initial.with_flags(set_bits=bit)

    def clear_flag(self, bit: int) -> None:
        self.initial = self.initial.with_flags(clear_bits=bit)

    def get_arg(self, slot: int) -> int:
        if slot >= len(self.args):
            return 0
        return self.args[slot]

    def set_arg(self, slot: int, value: int) -> None:
        while slot >= len(self.args):
            self.args.append(0)
        self.args[slot] = value & 0xFFFFFFFF

    def return_to_sender(self) -> None:
        """Swap layer-2 addresses and mark the packet as switch-originated."""
        self.eth = self.eth.swapped()
        self.set_flag(ControlFlags.FROM_SWITCH)

    def wire_size(self) -> int:
        """Size in bytes of the encoded packet.

        Computed arithmetically from the header layout -- the data path
        charges byte counters on every rx/tx, and a full encode per
        packet would dominate the hot path.  Kept exactly equal to
        ``len(encode_packet(self))`` (pinned by the codec tests).
        """
        size = _FRAME_SIZE + len(self.payload)
        ptype = self.initial.ptype
        if ptype == _PROGRAM:
            # An empty argument list still travels as one zeroed header.
            arg_headers = (len(self.args) + _ARG_FIELDS - 1) // _ARG_FIELDS or 1
            if arg_headers > _ARG_COUNT_MASK:
                raise HeaderError("too many argument headers (max 3)")
            # Instruction headers plus the EOF marker; wire_size models
            # the unshrunk frame, matching encode_packet's default.
            return (
                size
                + arg_headers * _ARG_SIZE
                + (len(self.instructions) + 1) * INSTRUCTION_WIDTH
            )
        if ptype == PacketType.ALLOC_REQUEST:
            if self.request is None:
                raise HeaderError("ALLOC_REQUEST packet without request header")
            size += AllocationRequestHeader.SIZE
        elif ptype == PacketType.ALLOC_RESPONSE:
            if self.response is None:
                raise HeaderError("ALLOC_RESPONSE packet without response header")
            size += AllocationResponseHeader.SIZE
        return size

    def clone(self) -> "ActivePacket":
        """Deep-enough copy for FORK semantics."""
        return ActivePacket(
            eth=self.eth,
            initial=self.initial,
            args=list(self.args),
            instructions=list(self.instructions),
            request=self.request,
            response=self.response,
            payload=self.payload,
            arrival_port=self.arrival_port,
        )


def encode_packet(packet: ActivePacket, shrink: bool = False) -> bytes:
    """Serialize an :class:`ActivePacket` to wire bytes.

    Args:
        packet: the packet to serialize.
        shrink: drop already-executed instruction headers (the packet
            shrinking optimization); ignored for non-PROGRAM packets.
    """
    eth, initial = packet.eth, packet.initial
    ptype, flags = initial.ptype, initial.flags
    if ptype == _PROGRAM:
        args = packet.args
        # An empty argument list still travels as one zeroed header.
        count = (len(args) + _ARG_FIELDS - 1) // _ARG_FIELDS or 1
        if count > _ARG_COUNT_MASK:
            raise HeaderError("too many argument headers (max 3)")
        flags = flags & ~(_ARG_COUNT_MASK << _ARG_COUNT_SHIFT) | count << _ARG_COUNT_SHIFT
        padding = _PADDING[: count * _ARG_FIELDS - len(args)]
        try:
            body = _ARGS[count].pack(*args, *padding)
        except struct.error:  # a word past 32 bits travels masked
            body = _ARGS[count].pack(*[arg & 0xFFFFFFFF for arg in args], *padding)
        body += encode_instructions(
            packet.instructions, shrink and not flags & ControlFlags.NO_SHRINK
        )
    elif ptype == PacketType.ALLOC_REQUEST:
        if packet.request is None:
            raise HeaderError("ALLOC_REQUEST packet without request header")
        body = packet.request.encode()
    elif ptype == PacketType.ALLOC_RESPONSE:
        if packet.response is None:
            raise HeaderError("ALLOC_RESPONSE packet without response header")
        body = packet.response.encode()
    else:  # CONTROL
        body = b""
    prefix = _PREFIX.pack(
        eth.dst.encode(), eth.src.encode(), eth.ethertype,
        InitialHeader.VERSION, ptype, initial.fid, initial.seq, flags,
    )
    return prefix + body + packet.payload


def decode_packet(data: bytes) -> ActivePacket:
    """Parse wire bytes into an :class:`ActivePacket`.

    What the struct codes bound (MACs, u16/u32 fields) is built
    :func:`_unchecked`; everything else the wire can get wrong is checked.

    Raises:
        HeaderError: on truncation, wrong EtherType, version or packet
            type, or a PROGRAM frame without argument headers.
        EncodingError: on an unknown opcode or a missing EOF.
    """
    if len(data) < _FRAME_SIZE:
        # Name the header the frame ends in.
        ethertype = EthernetHeader.decode(data).ethertype
        if ethertype == ACTIVE_ETHERTYPE:
            raise HeaderError("initial header truncated")
    else:
        dst, src, ethertype, version, ptype, fid, seq, flags = _PREFIX.unpack_from(data)
    if ethertype != ACTIVE_ETHERTYPE:
        raise HeaderError(f"not an active packet (ethertype {ethertype:#06x})")
    if version != InitialHeader.VERSION:
        raise HeaderError(f"unsupported active header version {version}")
    if ptype not in PacketType.ALL:
        raise HeaderError(f"unknown packet type {ptype:#x}")
    eth = _unchecked(
        EthernetHeader,
        dst=_unchecked(MacAddress, value=int.from_bytes(dst, "big")),
        src=_unchecked(MacAddress, value=int.from_bytes(src, "big")),
        ethertype=ethertype,
    )
    initial = _unchecked(InitialHeader, ptype=ptype, fid=fid, seq=seq, flags=flags)
    offset = _FRAME_SIZE
    args: List[int] = []
    instructions: List[Instruction] = []
    request = response = None
    if ptype == _PROGRAM:
        count = (flags >> _ARG_COUNT_SHIFT) & _ARG_COUNT_MASK
        if not count:
            # encode_packet never sends one: it would re-encode 16 B longer.
            raise HeaderError("PROGRAM packet without argument headers")
        layout = _ARGS[count]
        if len(data) < offset + layout.size:
            raise HeaderError("argument header truncated")
        args = list(layout.unpack_from(data, offset))
        instructions, consumed = decode_instructions(data, offset + layout.size)
        offset += layout.size + consumed
    elif ptype == PacketType.ALLOC_REQUEST:
        request = AllocationRequestHeader.decode(data, offset)
        offset += AllocationRequestHeader.SIZE
    elif ptype == PacketType.ALLOC_RESPONSE:
        response = AllocationResponseHeader.decode(data, offset)
        offset += AllocationResponseHeader.SIZE
    return ActivePacket(eth, initial, args, instructions, request, response, data[offset:])
