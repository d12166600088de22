"""Unit + property tests for the full active-packet codec."""

import dataclasses
import math
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import (
    INSTRUCTION_WIDTH,
    EncodingError,
    Instruction,
    InstructionFlags,
    Opcode,
    assemble,
)
from repro.isa.opcodes import has_operand, is_branch
from repro.packets import (
    ACTIVE_ETHERTYPE,
    AccessConstraintEntry,
    ActivePacket,
    AllocationRequestHeader,
    AllocationResponseHeader,
    ArgumentHeader,
    ControlFlags,
    EthernetHeader,
    HeaderError,
    InitialHeader,
    MacAddress,
    PacketType,
    StageRegion,
    decode_packet,
    encode_packet,
)

SRC = MacAddress.from_host_id(1)
DST = MacAddress.from_host_id(2)


def _program_packet(**kwargs):
    return ActivePacket.program(
        src=SRC,
        dst=DST,
        fid=3,
        instructions=[
            Instruction(Opcode.MAR_LOAD, operand=2),
            Instruction(Opcode.MEM_READ),
            Instruction(Opcode.RETURN),
        ],
        args=[0xDEADBEEF, 0x12345678, 0, 0],
        **kwargs,
    )


def test_program_packet_round_trip():
    packet = _program_packet(payload=b"hello-world")
    decoded = decode_packet(encode_packet(packet))
    assert decoded.fid == 3
    assert decoded.args[:2] == [0xDEADBEEF, 0x12345678]
    assert [i.opcode for i in decoded.instructions] == [
        Opcode.MAR_LOAD,
        Opcode.MEM_READ,
        Opcode.RETURN,
    ]
    assert decoded.payload == b"hello-world"
    assert decoded.eth.src == SRC


def test_shrink_omits_executed_instructions():
    packet = _program_packet()
    packet.executed = 1
    full = encode_packet(packet, shrink=False)
    shrunk = encode_packet(packet, shrink=True)
    assert len(shrunk) == len(full) - 2
    decoded = decode_packet(shrunk)
    assert [i.opcode for i in decoded.instructions] == [
        Opcode.MEM_READ,
        Opcode.RETURN,
    ]


def test_no_shrink_flag_disables_shrinking():
    packet = _program_packet(flags=ControlFlags.NO_SHRINK)
    packet.executed = 1
    assert len(encode_packet(packet, shrink=True)) == len(
        encode_packet(packet, shrink=False)
    )


def test_request_packet_round_trip():
    request = AllocationRequestHeader(
        program_length=11,
        accesses=(
            AccessConstraintEntry(2, 1, 0),
            AccessConstraintEntry(5, 3, 0),
            AccessConstraintEntry(9, 4, 0),
        ),
        ingress_bound_position=8,
    )
    packet = ActivePacket.alloc_request(
        src=SRC, dst=DST, fid=9, request=request, flags=ControlFlags.ELASTIC
    )
    decoded = decode_packet(encode_packet(packet))
    assert decoded.ptype == PacketType.ALLOC_REQUEST
    assert decoded.request == request
    assert decoded.has_flag(ControlFlags.ELASTIC)


def test_response_packet_round_trip():
    response = AllocationResponseHeader.from_map({4: StageRegion(0, 4096)})
    packet = ActivePacket.alloc_response(src=DST, dst=SRC, fid=9, response=response)
    decoded = decode_packet(encode_packet(packet))
    assert decoded.response == response


def test_control_packet_round_trip():
    packet = ActivePacket.control(
        src=SRC, dst=DST, fid=9, flags=ControlFlags.SNAPSHOT_COMPLETE
    )
    decoded = decode_packet(encode_packet(packet))
    assert decoded.ptype == PacketType.CONTROL
    assert decoded.has_flag(ControlFlags.SNAPSHOT_COMPLETE)
    assert decoded.instructions == ()


def test_non_active_ethertype_rejected():
    packet = _program_packet()
    raw = bytearray(encode_packet(packet))
    raw[12:14] = b"\x08\x00"  # IPv4 ethertype
    with pytest.raises(HeaderError):
        decode_packet(bytes(raw))


def test_rts_swaps_and_flags():
    packet = _program_packet()
    packet.return_to_sender()
    assert packet.eth.dst == SRC
    assert packet.has_flag(ControlFlags.FROM_SWITCH)


@given(
    fid=st.integers(0, 0xFFFF),
    seq=st.integers(0, 0xFFFFFFFF),
    flags=st.integers(0, 0xFFFF),
    set_bits=st.integers(0, 0xFFFFF),
    clear_bits=st.integers(0, 0xFFFFF),
)
def test_unvalidated_header_copies_equal_validated_ones(
    fid, seq, flags, set_bits, clear_bits
):
    """``with_flags`` / ``swapped`` / ``return_to_sender`` build their
    headers without ``__post_init__`` (RTS runs them per packet); what
    they build equals what the validated constructors build, field for
    field and byte for byte."""
    initial = InitialHeader(ptype=PacketType.PROGRAM, fid=fid, seq=seq, flags=flags)
    expected = InitialHeader(
        ptype=PacketType.PROGRAM, fid=fid, seq=seq,
        flags=(flags | set_bits) & ~clear_bits & 0xFFFF,
    )
    twin = initial.with_flags(set_bits=set_bits, clear_bits=clear_bits)
    assert twin == expected and hash(twin) == hash(expected)
    assert dataclasses.astuple(twin) == dataclasses.astuple(expected)
    assert twin.encode() == expected.encode() and repr(twin) == repr(expected)

    packet = ActivePacket.program(
        src=SRC, dst=DST, fid=fid, seq=seq, flags=flags,
        instructions=[Instruction(Opcode.RETURN)],
    )
    by_hand = ActivePacket.program(
        src=DST, dst=SRC, fid=fid, seq=seq, flags=flags | ControlFlags.FROM_SWITCH,
        instructions=[Instruction(Opcode.RETURN)],
    )
    packet.return_to_sender()
    assert packet.eth == by_hand.eth == EthernetHeader(dst=SRC, src=DST, ethertype=0x83B2)
    assert dataclasses.astuple(packet.eth) == dataclasses.astuple(by_hand.eth)
    assert packet.initial == by_hand.initial
    assert encode_packet(packet) == encode_packet(by_hand)
    packet.clear_flag(ControlFlags.FROM_SWITCH)
    assert packet.initial == InitialHeader(
        ptype=PacketType.PROGRAM, fid=fid, seq=seq,
        flags=flags & ~ControlFlags.FROM_SWITCH,
    )

    # decode_packet builds its headers unchecked too (the struct codes
    # bound every field); they match validated construction the same way.
    decoded = decode_packet(encode_packet(by_hand))
    validated = [
        (decoded.eth, by_hand.eth),
        (decoded.eth.dst, MacAddress(SRC.value)),
        (decoded.eth.src, MacAddress(DST.value)),
        (decoded.initial, InitialHeader(
            ptype=PacketType.PROGRAM, fid=fid, seq=seq,
            flags=(flags | ControlFlags.FROM_SWITCH) & ~0x3000 | 0x1000,
        )),
    ]
    for got, want in validated:
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)


def test_ethernet_headers_stay_right_past_the_memo_bound():
    """More host pairs than the Ethernet memo holds: misses, the memo
    starting over, then hits, each header equal to a validated one."""
    from repro.packets import codec

    pairs = codec._ETHERNET_ENTRIES + 300
    hosts = [MacAddress.from_host_id(100 + index) for index in range(pairs)]
    for _ in range(2):
        for host in hosts:
            packet = ActivePacket.program(
                src=host, dst=DST, fid=1, instructions=[Instruction(Opcode.RETURN)]
            )
            eth = decode_packet(encode_packet(packet)).eth
            assert eth == packet.eth and repr(eth) == repr(packet.eth)
            assert len(codec._ETHERNET) <= codec._ETHERNET_ENTRIES
    assert decode_packet(encode_packet(packet)).eth is eth  # a hit shares the header


def test_validation_still_guards_the_constructors_and_the_wire():
    for flags in (-1, 0x10000):
        with pytest.raises(HeaderError):
            InitialHeader(ptype=PacketType.PROGRAM, fid=1, flags=flags)
    # No set/clear combination can leave the 16-bit flag word.
    header = InitialHeader(ptype=PacketType.PROGRAM, fid=1, flags=0x8001)
    assert header.with_flags(set_bits=0xFFFFFF).flags == 0xFFFF
    assert header.with_flags(clear_bits=0xFFFFFF).flags == 0
    # decode_packet checks what no struct code bounds: a flag word whose
    # argument-header count overruns the frame, and a packet type no
    # header defines, are both rejected.
    raw = bytearray(encode_packet(_program_packet()))
    flags_at = 14 + 8  # Ethernet, then version/type/fid/seq
    raw[flags_at] |= 0x30  # three argument headers announced, one present
    with pytest.raises(HeaderError):
        decode_packet(bytes(raw))
    raw = bytearray(encode_packet(_program_packet()))
    raw[14 + 1] = 0x7F
    with pytest.raises(HeaderError):
        decode_packet(bytes(raw))


def test_arg_accessors_extend():
    packet = _program_packet()
    packet.set_arg(6, 77)
    assert packet.get_arg(6) == 77
    assert packet.get_arg(7) == 0
    decoded = decode_packet(encode_packet(packet))
    assert decoded.get_arg(6) == 77  # second argument header materialized


def test_clone_is_independent():
    packet = _program_packet()
    twin = packet.clone()
    twin.set_arg(0, 1)
    twin.executed = 2
    twin.code = twin.code[:-INSTRUCTION_WIDTH]
    assert packet.get_arg(0) == 0xDEADBEEF
    assert len(packet.instructions) == 3
    assert not any(instr.executed for instr in packet.instructions)


@given(
    fid=st.integers(0, 0xFFFF),
    seq=st.integers(0, 0xFFFFFFFF),
    args=st.lists(st.integers(0, 0xFFFFFFFF), min_size=0, max_size=8),
    payload=st.binary(max_size=64),
    n_instrs=st.integers(1, 30),
)
def test_program_round_trip_property(fid, seq, args, payload, n_instrs):
    packet = ActivePacket.program(
        src=SRC,
        dst=DST,
        fid=fid,
        seq=seq,
        instructions=[Instruction(Opcode.NOP)] * n_instrs,
        args=args,
        payload=payload,
    )
    decoded = decode_packet(encode_packet(packet))
    assert decoded.fid == fid
    assert decoded.initial.seq == seq
    assert decoded.payload == payload
    assert len(decoded.instructions) == n_instrs
    for slot, value in enumerate(args):
        assert decoded.get_arg(slot) == value


def test_every_truncation_of_a_program_packet_is_rejected():
    """Headers are decoded in place at their offsets; a frame cut
    anywhere before the EOF marker must still raise, never read past
    the end or mistake the tail for a header."""
    packet = ActivePacket.program(
        src=SRC, dst=DST, fid=7, args=[1, 2, 3, 4, 5],
        instructions=[Instruction(Opcode.MBR_LOAD, operand=1), Instruction(Opcode.RETURN)],
    )
    wire = encode_packet(packet)
    assert decode_packet(wire + b"tail").payload == b"tail"
    for cut in range(len(wire)):
        with pytest.raises(ValueError):
            decode_packet(wire[:cut])


def test_program_frame_without_argument_headers_is_rejected():
    """encode_packet always sends at least one argument header, so a
    PROGRAM frame announcing none cannot round-trip: accepted, a 28 B
    frame would charge 44 B to the byte counters and re-encode 16 B
    longer."""
    full = encode_packet(ActivePacket.program(
        src=SRC, dst=DST, fid=3, instructions=[Instruction(Opcode.RETURN)],
    ))
    bare = bytearray(full[:24] + full[24 + ArgumentHeader.SIZE:])
    bare[22] &= ~0x30  # argument-header count 0
    assert len(bare) == 28
    legacy = reference_decode_packet(bytes(bare))
    assert legacy.wire_size() == 44 and len(reference_encode_packet(legacy)) == 44
    with pytest.raises(HeaderError, match="PROGRAM packet without argument headers"):
        decode_packet(bytes(bare))


# ----------------------------------------------------------------------
# The reference codec: the header-by-header codec the one-pass codec
# replaced, kept verbatim as the oracle it is diffed against.  Only its
# instruction memo is spelled out as the validated constructor it
# memoised, and its flag byte as the bit packing it was.
# ----------------------------------------------------------------------

_ARG_COUNT_SHIFT = 12
_ARG_COUNT_MASK = 0x3


def _reference_flag_byte(instr):
    flags = instr.operand & InstructionFlags.OPERAND_MASK
    flags |= (instr.label & InstructionFlags.LABEL_MASK) << InstructionFlags.LABEL_SHIFT
    if instr.executed:
        flags |= InstructionFlags.EXECUTED
    return flags


def _reference_instruction(wire, executed):
    opcode = Opcode(wire >> 8)
    operand = wire & InstructionFlags.OPERAND_MASK if has_operand(opcode) else 0
    label = (wire >> InstructionFlags.LABEL_SHIFT) & InstructionFlags.LABEL_MASK
    return Instruction(opcode, operand, label, executed=bool(executed))


def reference_encode_instructions(instructions, shrink=False):
    out = bytearray()
    for instr in instructions:
        if shrink and instr.executed:
            continue
        out.append(int(instr.opcode))
        out.append(_reference_flag_byte(instr))
    out.extend(bytes((Opcode.EOF, 0)))
    return bytes(out)


def reference_decode_instructions(data, offset=0):
    instructions = []
    semantic = 0xFF ^ InstructionFlags.EXECUTED
    last = len(data) - INSTRUCTION_WIDTH
    pos = offset
    while pos <= last:
        opcode_byte = data[pos]
        if not opcode_byte:  # Opcode.EOF
            return instructions, pos + INSTRUCTION_WIDTH - offset
        flag_byte = data[pos + 1]
        try:
            instr = _reference_instruction(
                opcode_byte << 8 | flag_byte & semantic, flag_byte >> 7
            )
        except ValueError as exc:
            raise EncodingError(
                f"bad instruction at byte {pos - offset}: {exc}"
            ) from exc
        instructions.append(instr)
        pos += INSTRUCTION_WIDTH
    raise EncodingError("instruction stream truncated before EOF")


def reference_encode_packet(packet: ActivePacket, shrink: bool = False) -> bytes:
    out = bytearray(packet.eth.encode())
    initial = packet.initial
    if initial.ptype == PacketType.PROGRAM:
        arg_headers = _args_to_headers(packet.args)
        if len(arg_headers) > _ARG_COUNT_MASK:
            raise HeaderError("too many argument headers (max 3)")
        flags = initial.flags & ~(_ARG_COUNT_MASK << _ARG_COUNT_SHIFT)
        flags |= len(arg_headers) << _ARG_COUNT_SHIFT
        if flags != initial.flags:
            initial = dataclasses.replace(initial, flags=flags)
        out.extend(initial.encode())
        for header in arg_headers:
            out.extend(header.encode())
        do_shrink = shrink and not initial.flags & ControlFlags.NO_SHRINK
        out.extend(
            reference_encode_instructions(tuple(packet.instructions), shrink=do_shrink)
        )
    elif initial.ptype == PacketType.ALLOC_REQUEST:
        if packet.request is None:
            raise HeaderError("ALLOC_REQUEST packet without request header")
        out.extend(initial.encode())
        out.extend(packet.request.encode())
    elif initial.ptype == PacketType.ALLOC_RESPONSE:
        if packet.response is None:
            raise HeaderError("ALLOC_RESPONSE packet without response header")
        out.extend(initial.encode())
        out.extend(packet.response.encode())
    else:  # CONTROL
        out.extend(initial.encode())
    out.extend(packet.payload)
    return bytes(out)


def reference_decode_packet(data: bytes) -> ActivePacket:
    eth = EthernetHeader.decode(data)
    if eth.ethertype != ACTIVE_ETHERTYPE:
        raise HeaderError(
            f"not an active packet (ethertype {eth.ethertype:#06x})"
        )
    offset = EthernetHeader.SIZE
    initial = InitialHeader.decode(data, offset)
    offset += InitialHeader.SIZE
    packet = ActivePacket(eth=eth, initial=initial, args=[])
    if initial.ptype == PacketType.PROGRAM:
        arg_count = (initial.flags >> _ARG_COUNT_SHIFT) & _ARG_COUNT_MASK
        args: List[int] = []
        for _ in range(arg_count):
            args.extend(ArgumentHeader.decode(data, offset).data)
            offset += ArgumentHeader.SIZE
        instructions, consumed = reference_decode_instructions(data, offset)
        offset += consumed
        packet.args = args
        packet.code = reference_encode_instructions(instructions)[:-INSTRUCTION_WIDTH]
    elif initial.ptype == PacketType.ALLOC_REQUEST:
        packet.request = AllocationRequestHeader.decode(data, offset)
        offset += AllocationRequestHeader.SIZE
    elif initial.ptype == PacketType.ALLOC_RESPONSE:
        packet.response = AllocationResponseHeader.decode(data, offset)
        offset += AllocationResponseHeader.SIZE
    packet.payload = data[offset:]
    return packet


def _args_to_headers(args: List[int]) -> List[ArgumentHeader]:
    if not args:
        return [ArgumentHeader()]
    count = math.ceil(len(args) / ArgumentHeader.FIELDS)
    headers = []
    for index in range(count):
        chunk = args[
            index * ArgumentHeader.FIELDS : (index + 1) * ArgumentHeader.FIELDS
        ]
        headers.append(ArgumentHeader.from_values(chunk))
    return headers


# ----------------------------------------------------------------------
# The differential oracle
# ----------------------------------------------------------------------

_BYTE = st.integers(0, 0xFF)
_MACS = st.integers(0, (1 << 48) - 1).map(MacAddress)
#: Mostly u32 words; a few past 32 bits, which both codecs mask.
_ARG_WORDS = st.one_of(st.integers(0, 0xFFFFFFFF), st.integers(-(1 << 33), 1 << 40))


@st.composite
def _any_instruction(draw):
    """Any instruction a packet can carry, EOF and EXECUTED included."""
    opcode = draw(st.sampled_from(list(Opcode)))
    operand = draw(st.integers(0, 7)) if has_operand(opcode) else 0
    label = 0 if is_branch(opcode) and has_operand(opcode) else draw(st.integers(0, 15))
    return Instruction(opcode, operand, label, executed=draw(st.booleans()))


_REGIONS = st.one_of(
    st.just(StageRegion.none()),
    st.tuples(st.integers(0, 0xFFFFFFFE), st.integers(0, 0xFFFFFFFE)).map(
        lambda ends: StageRegion(*sorted(ends))
    ),
)


@st.composite
def _packets(draw):
    """A valid packet of any of the four types, PROGRAM most often."""
    ptype = draw(st.sampled_from(PacketType.ALL + (PacketType.PROGRAM,) * 2))
    header = dict(
        src=draw(_MACS), dst=draw(_MACS), fid=draw(st.integers(0, 0xFFFF)),
        seq=draw(st.integers(0, 0xFFFFFFFF)),
    )
    flags = draw(st.integers(0, 0xFFFF) | st.sampled_from([0, ControlFlags.NO_SHRINK]))
    if ptype == PacketType.PROGRAM:
        packet = ActivePacket.program(
            **header, flags=flags,
            instructions=draw(st.lists(_any_instruction(), max_size=20)),
        )
        packet.args = draw(st.lists(_ARG_WORDS, max_size=12))
    elif ptype == PacketType.ALLOC_REQUEST:
        accesses = draw(st.lists(st.builds(AccessConstraintEntry, _BYTE, _BYTE, _BYTE),
                                 max_size=8))
        request = AllocationRequestHeader(
            program_length=draw(st.integers(1, 0xFF)), accesses=tuple(accesses),
            ingress_bound_position=draw(_BYTE),
        )
        packet = ActivePacket.alloc_request(**header, request=request, flags=flags)
    elif ptype == PacketType.ALLOC_RESPONSE:
        regions = draw(st.lists(_REGIONS, min_size=20, max_size=20))
        response = AllocationResponseHeader(regions=tuple(regions))
        packet = ActivePacket.alloc_response(**header, response=response, flags=flags)
    else:
        packet = ActivePacket.control(**header, flags=flags)
    packet.payload = draw(st.binary(max_size=24))
    return packet


def _outcome(decode, frame):
    """The decoded packet, or the error as ``(class, message)``."""
    try:
        return decode(frame)
    except ValueError as exc:
        return type(exc), str(exc)


def _announces_no_arguments(frame):
    """A well-formed PROGRAM prefix whose argument-header count is 0."""
    return (
        len(frame) >= 24 and frame[12:16] == b"\x83\xb2\x01\x01" and not frame[22] & 0x30
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(packet=_packets(), shrink=st.booleans())
def test_codec_matches_the_reference_on_valid_packets(packet, shrink):
    wire = encode_packet(packet, shrink=shrink)
    assert wire == reference_encode_packet(packet, shrink=shrink)
    assert len(encode_packet(packet)) == packet.wire_size()
    decoded, expected = decode_packet(wire), reference_decode_packet(wire)
    assert decoded == expected and repr(decoded) == repr(expected)


#: A corruption: ``(past the fixed headers?, position, value, xor)``.
#: Positions 12-15 and 22 of the prefix hit the EtherType, version,
#: packet type and argument-header count; past the fixed headers lie
#: the instruction (or request / response) bytes.
_FLIPS = st.tuples(
    st.booleans(),
    st.one_of(st.sampled_from([12, 13, 14, 15, 22]), st.integers(0, 1 << 16)),
    _BYTE,
    st.booleans(),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(packet=_packets(), shrink=st.booleans(), flips=st.lists(_FLIPS, min_size=1, max_size=4))
def test_corrupted_frames_fail_like_the_reference(packet, shrink, flips):
    """Every truncation and single-byte flips in the header and
    instruction bytes (unknown opcodes, junk operand and label bits, a
    bad version, type or EtherType) fail with the reference's exception
    class and message, or decode to the reference's packet.  The one
    intended difference: a PROGRAM frame announcing no argument headers."""
    wire = encode_packet(packet, shrink=shrink)
    frames = [wire[:cut] for cut in range(len(wire))]
    head = len(wire) - len(packet.payload)
    body = 24 + (wire[22] >> 4 & 3) * 16 * (packet.ptype == PacketType.PROGRAM)
    for past_headers, position, value, xor in flips:
        at = body + position % (head - body) if past_headers and head > body else position % head
        frame = bytearray(wire)
        frame[at] = frame[at] ^ value if xor else value
        frames.append(bytes(frame))
    for frame in frames:
        got = _outcome(decode_packet, frame)
        if _announces_no_arguments(frame):
            assert got == (HeaderError, "PROGRAM packet without argument headers")
        else:
            assert got == _outcome(reference_decode_packet, frame)


# ----------------------------------------------------------------------
# The program as wire words: ``code`` and ``executed``
# ----------------------------------------------------------------------


def test_the_instruction_view_reads_code_and_the_executed_prefix():
    packet = _program_packet()
    assert packet.code == bytes.fromhex("1302" "4000" "3000")
    packet.executed = 2
    view = packet.instructions
    assert isinstance(view, tuple)  # read-only: the packet is its code
    assert [instr.executed for instr in view] == [True, True, False]
    assert view == tuple(reference_decode_packet(encode_packet(packet)).instructions)
    assert packet.code == bytes.fromhex("1302" "4000" "3000")  # marks are on emit
    assert encode_packet(packet)[-8:] == bytes.fromhex("1382" "4080" "3000" "0000")
    assert encode_packet(packet, shrink=True)[-4:] == bytes.fromhex("3000" "0000")


def test_the_instruction_view_cannot_be_written():
    """The runtime keeps the view read-only: no setter, and a tuple."""
    packet = _program_packet()
    with pytest.raises(AttributeError):
        packet.instructions = [Instruction(Opcode.RETURN)]
    with pytest.raises(TypeError):
        packet.instructions[0] = Instruction(Opcode.RETURN)
    with pytest.raises(TypeError):
        packet.instructions[:2] = ()
    assert packet.code == bytes.fromhex("1302" "4000" "3000")


def test_a_program_lends_its_words_to_every_packet():
    """Hosts build a packet per request: the words are encoded once per
    program, and a plain list encodes to the same bytes."""
    listing = assemble("NOP\nRETURN")
    first, second = (
        ActivePacket.program(src=SRC, dst=DST, fid=fid, instructions=listing)
        for fid in (1, 2)
    )
    assert first.code is second.code is listing.code
    from_list = ActivePacket.program(src=SRC, dst=DST, fid=1, instructions=list(listing))
    assert from_list.code == listing.code == bytes.fromhex("0100" "3000")
    # A server reply carries no program: nothing to encode.
    empty = ActivePacket.program(src=SRC, dst=DST, fid=1, instructions=[], args=[])
    assert empty.code == b"" and empty.instructions == ()
    assert decode_packet(encode_packet(empty)).code == b""


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    instructions=st.lists(_any_instruction(), max_size=20),
    edits=st.lists(st.tuples(st.booleans(), st.integers(0, 7)), max_size=20),
    executed=st.integers(0, 20),
    flags=st.sampled_from([0, ControlFlags.NO_SHRINK]),
)
def test_marked_and_junk_words_decode_as_the_reference_does(
    instructions, edits, executed, flags
):
    """Frames whose instruction words carry EXECUTED bits, and operand
    bits on opcodes that take none, decode to the reference's packet
    (junk made canonical in ``code``, marks kept) and, with any executed
    prefix on top, encode to the reference's bytes, shrunk or not."""
    packet = ActivePacket.program(
        src=SRC, dst=DST, fid=3, flags=flags, instructions=instructions, payload=b"tail",
    )
    frame = bytearray(encode_packet(packet))
    start = 24 + ArgumentHeader.SIZE
    for at, (mark, bits) in zip(range(start + 1, start + 2 * len(instructions), 2), edits):
        frame[at] |= bits | InstructionFlags.EXECUTED * mark
    decoded, expected = decode_packet(bytes(frame)), reference_decode_packet(bytes(frame))
    assert decoded == expected and repr(decoded) == repr(expected)
    decoded.executed = expected.executed = min(executed, len(decoded.code) // 2)
    for shrink in (False, True):
        assert encode_packet(decoded, shrink=shrink) == reference_encode_packet(
            expected, shrink=shrink
        )
    assert decoded.shrunk_size() == len(encode_packet(decoded, shrink=True))
