"""Active packet wire formats (paper Section 3.3).

Three packet types flow between clients and the switch:

- **allocation requests** describing a program's memory-access pattern,
- **allocation responses** carrying per-stage memory regions, and
- **active programs** (argument headers + instruction headers).

Plus bare-header *control* packets (e.g. the snapshot-complete
notification of Section 4.3).  All are carried in a layer-2
encapsulation after the Ethernet header.
"""

from repro.packets.headers import (
    ACTIVE_ETHERTYPE,
    PacketType,
    ControlFlags,
    InitialHeader,
    ArgumentHeader,
    AccessConstraintEntry,
    AllocationRequestHeader,
    StageRegion,
    AllocationResponseHeader,
    HeaderError,
    MAX_REQUEST_ACCESSES,
    RESPONSE_STAGES,
)
from repro.packets.ethernet import EthernetHeader, MacAddress
from repro.packets.codec import ActivePacket, encode_packet, decode_packet

__all__ = [
    "ACTIVE_ETHERTYPE",
    "PacketType",
    "ControlFlags",
    "InitialHeader",
    "ArgumentHeader",
    "AccessConstraintEntry",
    "AllocationRequestHeader",
    "StageRegion",
    "AllocationResponseHeader",
    "HeaderError",
    "MAX_REQUEST_ACCESSES",
    "RESPONSE_STAGES",
    "EthernetHeader",
    "MacAddress",
    "ActivePacket",
    "encode_packet",
    "decode_packet",
]
