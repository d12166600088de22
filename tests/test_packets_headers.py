"""Unit tests for fixed-size active header encodings (Section 3.3)."""

import pytest

from repro.packets import (
    AccessConstraintEntry,
    AllocationRequestHeader,
    AllocationResponseHeader,
    ArgumentHeader,
    EthernetHeader,
    HeaderError,
    InitialHeader,
    MacAddress,
    PacketType,
    StageRegion,
)


def test_initial_header_is_10_bytes():
    header = InitialHeader(ptype=PacketType.PROGRAM, fid=7, seq=42, flags=0x10)
    assert InitialHeader.SIZE == 10
    assert len(header.encode()) == 10
    assert InitialHeader.decode(header.encode()) == header


def test_initial_header_rejects_bad_type():
    with pytest.raises(HeaderError):
        InitialHeader(ptype=0x7F, fid=1)


def test_initial_header_version_check():
    raw = bytearray(InitialHeader(ptype=PacketType.PROGRAM, fid=1).encode())
    raw[0] = 99
    with pytest.raises(HeaderError):
        InitialHeader.decode(bytes(raw))


def test_argument_header_is_16_bytes():
    header = ArgumentHeader(data=(1, 2, 3, 4))
    assert ArgumentHeader.SIZE == 16
    assert len(header.encode()) == 16
    assert ArgumentHeader.decode(header.encode()) == header


def test_argument_header_from_values_pads():
    header = ArgumentHeader.from_values([5])
    assert header.data == (5, 0, 0, 0)


def test_request_header_paper_entry_size():
    # "eight three-byte headers corresponding to eight potential accesses"
    assert AccessConstraintEntry.SIZE == 3
    entry = AccessConstraintEntry(lower_bound=2, min_distance=1, demand_blocks=0)
    assert AccessConstraintEntry.decode(entry.encode()) == entry


def test_request_header_round_trip():
    request = AllocationRequestHeader(
        program_length=11,
        accesses=(
            AccessConstraintEntry(2, 1, 0),
            AccessConstraintEntry(5, 3, 0),
            AccessConstraintEntry(9, 4, 0),
        ),
        ingress_bound_position=8,
    )
    wire = request.encode()
    assert len(wire) == AllocationRequestHeader.SIZE
    decoded = AllocationRequestHeader.decode(wire)
    assert decoded == request


def test_request_header_rejects_too_many_accesses():
    entries = tuple(AccessConstraintEntry(i + 1, 1, 1) for i in range(9))
    with pytest.raises(HeaderError):
        AllocationRequestHeader(program_length=20, accesses=entries)


def test_response_header_is_160_bytes():
    assert AllocationResponseHeader.SIZE == 160
    response = AllocationResponseHeader.empty()
    assert len(response.encode()) == 160
    assert AllocationResponseHeader.decode(response.encode()) == response


def test_response_header_from_map():
    response = AllocationResponseHeader.from_map(
        {2: StageRegion(0, 1024), 5: StageRegion(512, 2048)}
    )
    assert response.allocated_stages() == [2, 5]
    assert response.region_for_stage(2).size == 1024
    assert response.region_for_stage(1).is_none
    decoded = AllocationResponseHeader.decode(response.encode())
    assert decoded == response


def test_stage_region_contains():
    region = StageRegion(10, 20)
    assert region.contains(10)
    assert region.contains(19)
    assert not region.contains(20)
    assert not region.contains(9)
    assert not StageRegion.none().contains(0)


def test_stage_region_rejects_inverted():
    with pytest.raises(HeaderError):
        StageRegion(20, 10)


def test_mac_address_parsing():
    mac = MacAddress.parse("02:00:00:00:00:2a")
    assert mac.value == 0x02000000002A
    assert str(mac) == "02:00:00:00:00:2a"
    assert MacAddress.from_bytes(mac.encode()) == mac


def test_mac_from_host_id_is_deterministic():
    assert MacAddress.from_host_id(3) == MacAddress.from_host_id(3)
    assert MacAddress.from_host_id(3) != MacAddress.from_host_id(4)


def test_ethernet_header_round_trip_and_swap():
    header = EthernetHeader(
        dst=MacAddress.from_host_id(1),
        src=MacAddress.from_host_id(2),
        ethertype=0x83B2,
    )
    assert EthernetHeader.decode(header.encode()) == header
    swapped = header.swapped()
    assert swapped.dst == header.src
    assert swapped.src == header.dst
