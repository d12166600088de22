"""Unit + property tests for the full active-packet codec."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.isa import Instruction, Opcode
from repro.packets import (
    AccessConstraintEntry,
    ActivePacket,
    AllocationRequestHeader,
    AllocationResponseHeader,
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
    packet.instructions[0] = packet.instructions[0].with_executed()
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
    packet.instructions[0] = packet.instructions[0].with_executed()
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
    assert decoded.instructions == []


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


def test_validation_still_guards_the_constructors_and_the_wire():
    for flags in (-1, 0x10000):
        with pytest.raises(HeaderError):
            InitialHeader(ptype=PacketType.PROGRAM, fid=1, flags=flags)
    # No set/clear combination can leave the 16-bit flag word.
    header = InitialHeader(ptype=PacketType.PROGRAM, fid=1, flags=0x8001)
    assert header.with_flags(set_bits=0xFFFFFF).flags == 0xFFFF
    assert header.with_flags(clear_bits=0xFFFFFF).flags == 0
    # decode_packet goes through the validated constructors: a flag word
    # whose argument-header count overruns the frame, and a packet type
    # no header defines, are both rejected.
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
    twin.instructions.pop()
    assert packet.get_arg(0) == 0xDEADBEEF
    assert len(packet.instructions) == 3


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

