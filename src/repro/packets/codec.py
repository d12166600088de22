"""The in-memory active packet model and its wire codec.

:class:`ActivePacket` is the object the simulated switch, clients, and
network pass around.  It is mutable on purpose: the data plane rewrites
argument fields (``MBR_STORE``), marks instructions executed (packet
shrinking), and swaps addresses (``RTS``) exactly as the hardware
rewrites the PHV and the deparser rebuilds the frame.  The program
stays in its wire form, ``code``, as on the switch: the parser reads
2-byte headers, the pipeline marks the ones it consumed (``executed``)
and the deparser drops them on the way out (Sections 3.1 and 3.3).

``encode_packet``/``decode_packet`` realize the byte layout of
Section 3.3 in one pass each, as the switch's parser and deparser do;
round-tripping through them is covered by property-based tests.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, TypeVar

from repro.isa.encoding import INSTRUCTION_WIDTH, decode_instructions
from repro.isa.instructions import INTERNED, Instruction, InstructionFlags, encode_words
from repro.isa.opcodes import Opcode, has_operand
from repro.isa.program import ActiveProgram
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

#: A packet's size runs twice per packet on the data path (rx and tx byte
#: counters): the layout constants it adds up, as module globals.
_FRAME_SIZE = EthernetHeader.SIZE + InitialHeader.SIZE
_PROGRAM = PacketType.PROGRAM
_NO_SHRINK = ControlFlags.NO_SHRINK
_ARG_FIELDS = ArgumentHeader.FIELDS
_ARG_SIZE = ArgumentHeader.SIZE

#: The 24-byte Ethernet + initial-header prefix of every active frame,
#: composed from the two headers' own layouts; the two MACs are read as
#: one 12-byte field, the key of the Ethernet memo.
_MACS = 2 * MacAddress.SIZE
_PREFIX = struct.Struct(
    f">{_MACS}s" + EthernetHeader.STRUCT.format[-1] + InitialHeader.STRUCT.format[1:]
)
#: One to three argument headers, by count.
_ARGS = {
    count: struct.Struct(">" + ArgumentHeader.STRUCT.format[1:] * count)
    for count in range(1, _ARG_COUNT_MASK + 1)
}
_PADDING = (0,) * _ARG_FIELDS
_EOF = bytes(INSTRUCTION_WIDTH)

#: Byte tables over the code's two strides.  Opcodes stay below 0x80,
#: so a byte at or above it is an EXECUTED flag byte: ``isascii`` tells
#: a code with no marks.
_EXECUTED = InstructionFlags.EXECUTED
_MARK = bytes(byte | _EXECUTED for byte in range(256))
#: Every opcode a header can carry before EOF ...
_OPCODES = bytes(opcode for opcode in Opcode if opcode is not Opcode.EOF)
#: ... and, by opcode, the flag bits it must leave clear: the operand of
#: an opcode that takes none (``INTERNED`` ignores them; decode drops them).
_JUNK = bytes(
    0 if byte in _OPCODES and has_operand(Opcode(byte)) else InstructionFlags.OPERAND_MASK
    for byte in range(256)
)

#: Header memos, each reset when it reaches the bound.  Headers are
#: frozen, so packets share them, and a packet replaces its own rather
#: than mutate it.  Decoded Ethernet headers by their 12 MAC bytes
#: (equal to validated ones); built headers, validated on a miss, by
#: ``(dst.value, src.value)`` and by ``(ptype, fid, seq, flags)``.
_ETHERNET: Dict[bytes, EthernetHeader] = {}
_BUILT_ETHERNET: Dict[Tuple[int, int], EthernetHeader] = {}
_BUILT_INITIAL: Dict[Tuple[int, int, int, int], InitialHeader] = {}
_ETHERNET_ENTRIES = 1024

_Header = TypeVar("_Header")


def _memo(memo: Dict[Any, _Header], key: Any, header: _Header) -> _Header:
    if len(memo) >= _ETHERNET_ENTRIES:
        memo.clear()
    memo[key] = header
    return header


def _headers(
    src: MacAddress, dst: MacAddress, ptype: int, fid: int, seq: int, flags: int
) -> Tuple[EthernetHeader, InitialHeader]:
    """The headers of a constructed packet: the class constructors' one builder."""
    macs, fields = (dst.value, src.value), (ptype, fid, seq, flags)
    return (
        _BUILT_ETHERNET.get(macs)
        or _memo(_BUILT_ETHERNET, macs, EthernetHeader(dst, src, ACTIVE_ETHERTYPE)),
        _BUILT_INITIAL.get(fields) or _memo(_BUILT_INITIAL, fields, InitialHeader(*fields)),
    )


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


def _frame_size(shrink: bool) -> Callable[["ActivePacket"], int]:
    """``len(encode_packet(packet, shrink=shrink))`` as a method, from the
    header layout: the rx and tx byte counters charge it per packet, where
    a full encode would dominate.  One body for ``wire_size`` and
    ``shrunk_size``, each a single call (pinned to the encoder by tests).
    """

    def frame_size(self: "ActivePacket") -> int:
        size = _FRAME_SIZE + len(self.payload)
        initial = self.initial
        ptype = initial.ptype
        if ptype == _PROGRAM:
            # An empty argument list still travels as one zeroed header.
            arg_headers = (len(self.args) + _ARG_FIELDS - 1) // _ARG_FIELDS or 1
            if arg_headers > _ARG_COUNT_MASK:
                raise HeaderError("too many argument headers (max 3)")
            code = len(self.code)
            if shrink and code and not initial.flags & _NO_SHRINK:
                if self.code.isascii():  # no header arrived marked
                    code -= self.executed * INSTRUCTION_WIDTH
                else:
                    code = len(_emitted_code(self, shrink=True))
            # Instruction headers plus the EOF marker.
            return size + arg_headers * _ARG_SIZE + code + INSTRUCTION_WIDTH
        if ptype == PacketType.ALLOC_REQUEST:
            if self.request is None:
                raise HeaderError("ALLOC_REQUEST packet without request header")
            size += AllocationRequestHeader.SIZE
        elif ptype == PacketType.ALLOC_RESPONSE:
            if self.response is None:
                raise HeaderError("ALLOC_RESPONSE packet without response header")
            size += AllocationResponseHeader.SIZE
        return size

    return frame_size


@dataclasses.dataclass
class ActivePacket:
    """A parsed active packet.

    Attributes:
        eth: layer-2 encapsulation.
        initial: the 10-byte global active header.
        args: flattened 32-bit argument fields (4 per argument header);
            instruction operands index into this list.
        code: the program's instruction headers as they travel, two
            bytes each, EOF left out and EXECUTED bits as they arrived
            (PROGRAM packets only).
        executed: leading headers the pipeline has consumed; they travel
            with EXECUTED set, or not at all when the packet shrinks.
        request: allocation-request header (ALLOC_REQUEST only).
        response: allocation-response header (ALLOC_RESPONSE only).
        payload: opaque transport payload following the active headers.
        arrival_port: set by the simulator when the packet enters the
            switch; not serialized.
    """

    eth: EthernetHeader
    initial: InitialHeader
    args: List[int] = dataclasses.field(default_factory=lambda: [0, 0, 0, 0])
    code: bytes = b""
    executed: int = 0
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
        instructions: Sequence[Instruction],
        args: Optional[List[int]] = None,
        seq: int = 0,
        flags: int = 0,
        payload: bytes = b"",
    ) -> "ActivePacket":
        """Build an active-program packet.

        An :class:`~repro.isa.program.ActiveProgram` lends its wire
        words, encoded once per program; a plain sequence is encoded,
        and an empty one (a server reply, an unactivated request) is not.
        """
        arg_fields = list(args) if args is not None else [0, 0, 0, 0]
        arg_fields.extend(_PADDING[: -len(arg_fields) % _ARG_FIELDS])
        eth, initial = _headers(src, dst, _PROGRAM, fid, seq, flags)
        return cls(
            eth,
            initial,
            args=arg_fields,
            code=(
                instructions.code
                if isinstance(instructions, ActiveProgram)
                else encode_words(instructions) if instructions else b""
            ),
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
        eth, initial = _headers(src, dst, PacketType.ALLOC_REQUEST, fid, seq, flags)
        return cls(eth, initial, args=[], request=request)

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
        eth, initial = _headers(src, dst, PacketType.ALLOC_RESPONSE, fid, seq, flags)
        return cls(eth, initial, args=[], response=response)

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
        eth, initial = _headers(src, dst, PacketType.CONTROL, fid, seq, flags)
        return cls(eth, initial, args=[])

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """The program as interned :class:`Instruction` objects, EXECUTED
        marks included, decoded from ``code`` on every read.

        Read-only: the packet's one program representation is ``code``
        with ``executed``.  Only a program-cache build, the reference
        interpreter and FORK clones need the objects.
        """
        code = _marked(self.code, self.executed)
        words = struct.unpack(f">{len(code) // INSTRUCTION_WIDTH}H", code)
        return tuple([INTERNED[word] for word in words])

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
        self.initial = self.initial.with_flags(set_bits=ControlFlags.FROM_SWITCH)

    #: ``len(encode_packet(self))`` and ``len(encode_packet(self, shrink=True))``.
    wire_size = _frame_size(shrink=False)
    shrunk_size = _frame_size(shrink=True)

    def clone(self) -> "ActivePacket":
        """Deep-enough copy for FORK semantics."""
        return ActivePacket(
            self.eth, self.initial, list(self.args), self.code, self.executed,
            self.request, self.response, self.payload, self.arrival_port,
        )


def _marked(code: bytes, executed: int) -> bytes:
    """*code* with EXECUTED set on its first *executed* headers: one
    byte edit over their flag bytes."""
    if not executed:
        return code
    edited = bytearray(code)
    flags = slice(1, executed * INSTRUCTION_WIDTH, INSTRUCTION_WIDTH)
    edited[flags] = code[flags].translate(_MARK)
    return bytes(edited)


def _unexecuted(tail: bytes) -> bytes:
    """The headers of *tail* (what follows the executed prefix) that a
    shrinking deparser keeps: those that did not arrive marked."""
    words = struct.unpack(f">{len(tail) // INSTRUCTION_WIDTH}H", tail)
    kept = [word for word in words if not word & _EXECUTED]
    return struct.pack(f">{len(kept)}H", *kept)


def _emitted_code(packet: ActivePacket, shrink: bool) -> bytes:
    """The instruction headers the deparser writes.  With *shrink*,
    unless the packet sets ``NO_SHRINK``, executed headers are dropped;
    otherwise they travel marked EXECUTED."""
    code = packet.code
    if shrink and not packet.initial.flags & _NO_SHRINK:
        code = code[packet.executed * INSTRUCTION_WIDTH :]
        if not code.isascii():  # later headers arrived marked
            code = _unexecuted(code)
        return code
    return _marked(code, packet.executed)


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
        body += _emitted_code(packet, shrink) + _EOF
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
        (eth.dst.value << 48 | eth.src.value).to_bytes(_MACS, "big"), eth.ethertype,
        InitialHeader.VERSION, ptype, initial.fid, initial.seq, flags,
    )
    return prefix + body + packet.payload


def decode_packet(data: bytes) -> ActivePacket:
    """Parse wire bytes into an :class:`ActivePacket`.

    What the struct codes bound (MACs, u16/u32 fields) is built
    :func:`_unchecked`; everything else the wire can get wrong is checked.
    The instruction headers are sliced out as ``code`` once two byte
    tables pass them (known opcodes, no operand bits on an opcode that
    takes none); otherwise ``decode_instructions`` raises its error, or
    the words are re-encoded canonical.

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
        macs, ethertype, version, ptype, fid, seq, flags = _PREFIX.unpack_from(data)
    if ethertype != ACTIVE_ETHERTYPE:
        raise HeaderError(f"not an active packet (ethertype {ethertype:#06x})")
    if version != InitialHeader.VERSION:
        raise HeaderError(f"unsupported active header version {version}")
    if ptype not in PacketType.ALL:
        raise HeaderError(f"unknown packet type {ptype:#x}")
    eth = _ETHERNET.get(macs) or _memo(_ETHERNET, macs, _unchecked(
        EthernetHeader,
        dst=_unchecked(MacAddress, value=int.from_bytes(macs[: MacAddress.SIZE], "big")),
        src=_unchecked(MacAddress, value=int.from_bytes(macs[MacAddress.SIZE :], "big")),
        ethertype=ethertype,
    ))
    initial = _unchecked(InitialHeader, ptype=ptype, fid=fid, seq=seq, flags=flags)
    offset = _FRAME_SIZE
    args: List[int] = []
    code = b""
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
        offset += layout.size
        # EOF is the first zero in the opcode stride.
        opcodes = data[offset::INSTRUCTION_WIDTH]
        eof = opcodes.find(Opcode.EOF, 0, (len(data) - offset) // INSTRUCTION_WIDTH)
        code = data[offset : offset + eof * INSTRUCTION_WIDTH]
        opcodes = opcodes[:eof]
        if (
            eof < 0
            or opcodes.translate(None, _OPCODES)
            or int.from_bytes(code[1::INSTRUCTION_WIDTH], "big")
            & int.from_bytes(opcodes.translate(_JUNK), "big")
        ):
            instructions, _consumed = decode_instructions(data, offset)
            code = encode_words(instructions)
        offset += len(code) + INSTRUCTION_WIDTH
    elif ptype == PacketType.ALLOC_REQUEST:
        request = AllocationRequestHeader.decode(data, offset)
        offset += AllocationRequestHeader.SIZE
    elif ptype == PacketType.ALLOC_RESPONSE:
        response = AllocationResponseHeader.decode(data, offset)
        offset += AllocationResponseHeader.SIZE
    return ActivePacket(eth, initial, args, code, 0, request, response, data[offset:])
