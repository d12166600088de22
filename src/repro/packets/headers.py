"""Active header structures and their fixed-size wire encodings.

Sizes follow Section 3.3 of the paper:

- initial header: 10 bytes (FID, packet type, control flags, sequence),
- argument header: 16 bytes (four 32-bit data fields),
- instruction headers: 2 bytes each (see :mod:`repro.isa.encoding`),
- allocation request: 8 potential memory accesses at 3 bytes each
  (24 bytes), preceded by a 4-byte program descriptor (a documented
  extension -- the paper stores the program length "in the request" but
  does not specify where),
- allocation response: 20 stages at 8 bytes each (160 bytes).
"""

from __future__ import annotations

import dataclasses
import struct
from typing import List, Sequence, Tuple

#: EtherType of the active encapsulation ("a special VLAN tag").
ACTIVE_ETHERTYPE = 0x83B2

#: Number of potential memory accesses encodable in a request.
MAX_REQUEST_ACCESSES = 8

#: Number of per-stage regions in an allocation response.
RESPONSE_STAGES = 20

#: Sentinel word index meaning "no allocation in this stage".
NO_REGION = 0xFFFFFFFF


class HeaderError(ValueError):
    """Raised on malformed header bytes."""


class PacketType:
    """Values of the packet-type field in the initial header."""

    PROGRAM = 0x01
    ALLOC_REQUEST = 0x02
    ALLOC_RESPONSE = 0x03
    CONTROL = 0x04

    ALL = (PROGRAM, ALLOC_REQUEST, ALLOC_RESPONSE, CONTROL)


class ControlFlags:
    """Bits of the 2-byte control-flags field in the initial header."""

    #: Allocation response indicates failure (admission denied).
    ALLOC_FAILED = 0x0001
    #: Control packet: client finished state extraction (Section 4.3).
    SNAPSHOT_COMPLETE = 0x0002
    #: Control packet: client releases its allocation.
    DEALLOCATE = 0x0004
    #: Switch -> client: your FID is deactivated pending reallocation.
    REALLOC_NOTICE = 0x0008
    #: Set by the switch on packets it returned to sender (RTS).
    FROM_SWITCH = 0x0010
    #: Request flag: program is elastic (demands are lower bounds).
    ELASTIC = 0x0020
    #: Request flag: client accepts mutants that require recirculation
    #: (the "least constrained" policy of Section 6.1).
    ALLOW_RECIRCULATION = 0x0040
    #: Program flag: disable packet shrinking (Section 3.1).
    NO_SHRINK = 0x0080
    #: Switch -> client: allocation revoked / FID unknown.
    FAULT = 0x0100
    #: Program flag: preload MAR/MBR/MBR2 from argument slots 2/0/1
    #: before execution begins -- the compiler "preloading" trick of
    #: Appendix C that makes stage-1 memory reachable.
    PRELOAD = 0x0200


_INITIAL_STRUCT = struct.Struct(">BBHIH")  # version, type, fid, seq, flags


@dataclasses.dataclass(frozen=True)
class InitialHeader:
    """The 10-byte global active header present on every active packet."""

    VERSION = 1
    STRUCT = _INITIAL_STRUCT
    SIZE = STRUCT.size  # 10

    ptype: int
    fid: int
    seq: int = 0
    flags: int = 0

    def __post_init__(self) -> None:
        if self.ptype not in PacketType.ALL:
            raise HeaderError(f"unknown packet type {self.ptype:#x}")
        if not 0 <= self.fid <= 0xFFFF:
            raise HeaderError(f"fid {self.fid} out of range")
        if not 0 <= self.seq <= 0xFFFFFFFF:
            raise HeaderError(f"seq {self.seq} out of range")
        if not 0 <= self.flags <= 0xFFFF:
            raise HeaderError(f"flags {self.flags:#x} out of range")

    def encode(self) -> bytes:
        return _INITIAL_STRUCT.pack(
            self.VERSION, self.ptype, self.fid, self.seq, self.flags
        )

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> "InitialHeader":
        if len(data) - offset < cls.SIZE:
            raise HeaderError("initial header truncated")
        version, ptype, fid, seq, flags = _INITIAL_STRUCT.unpack_from(data, offset)
        if version != cls.VERSION:
            raise HeaderError(f"unsupported active header version {version}")
        return cls(ptype=ptype, fid=fid, seq=seq, flags=flags)

    def with_flags(self, set_bits: int = 0, clear_bits: int = 0) -> "InitialHeader":
        """Copy with flag bits set and cleared (RTS runs this per packet).

        Built without ``__post_init__``: the other fields were validated
        when this header was, and the mask keeps the flag word in range.
        """
        twin = object.__new__(InitialHeader)
        object.__setattr__(twin, "ptype", self.ptype)
        object.__setattr__(twin, "fid", self.fid)
        object.__setattr__(twin, "seq", self.seq)
        object.__setattr__(twin, "flags", (self.flags | set_bits) & ~clear_bits & 0xFFFF)
        return twin


_ARGUMENT_STRUCT = struct.Struct(">IIII")


@dataclasses.dataclass(frozen=True)
class ArgumentHeader:
    """A 16-byte argument header carrying four 32-bit data fields."""

    STRUCT = _ARGUMENT_STRUCT
    SIZE = STRUCT.size  # 16
    FIELDS = 4

    data: Tuple[int, int, int, int] = (0, 0, 0, 0)

    def __post_init__(self) -> None:
        if len(self.data) != self.FIELDS:
            raise HeaderError("argument header needs exactly four fields")
        for value in self.data:
            if not 0 <= value <= 0xFFFFFFFF:
                raise HeaderError(f"argument {value} out of 32-bit range")

    def encode(self) -> bytes:
        return _ARGUMENT_STRUCT.pack(*self.data)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> "ArgumentHeader":
        if len(data) - offset < cls.SIZE:
            raise HeaderError("argument header truncated")
        return cls(data=_ARGUMENT_STRUCT.unpack_from(data, offset))

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "ArgumentHeader":
        padded = list(values)[: cls.FIELDS]
        padded.extend(0 for _ in range(cls.FIELDS - len(padded)))
        return cls(data=tuple(v & 0xFFFFFFFF for v in padded))


@dataclasses.dataclass(frozen=True)
class AccessConstraintEntry:
    """One 3-byte memory-access descriptor in an allocation request.

    Attributes:
        lower_bound: earliest logical stage of this access (the position
            in the most compact mutant; 1-indexed).
        min_distance: minimum stage distance from the previous access
            (from the program start, for the first access).
        demand_blocks: demanded blocks in the access's stage; 0 encodes
            an elastic demand ("any amount is beneficial").
    """

    SIZE = 3

    lower_bound: int
    min_distance: int
    demand_blocks: int

    def __post_init__(self) -> None:
        for field in ("lower_bound", "min_distance", "demand_blocks"):
            value = getattr(self, field)
            if not 0 <= value <= 0xFF:
                raise HeaderError(f"{field} {value} out of byte range")

    def encode(self) -> bytes:
        return bytes((self.lower_bound, self.min_distance, self.demand_blocks))

    @classmethod
    def decode(cls, data: bytes) -> "AccessConstraintEntry":
        if len(data) < cls.SIZE:
            raise HeaderError("access constraint entry truncated")
        return cls(
            lower_bound=data[0], min_distance=data[1], demand_blocks=data[2]
        )


_REQUEST_META_STRUCT = struct.Struct(">BBBB")


@dataclasses.dataclass(frozen=True)
class AllocationRequestHeader:
    """Allocation request: program descriptor + up to eight access entries.

    The wire layout is a 4-byte descriptor (program length, access count,
    ingress-bound position, reserved) followed by the paper's 24 bytes of
    eight 3-byte access entries (unused entries zeroed).
    """

    SIZE = _REQUEST_META_STRUCT.size + MAX_REQUEST_ACCESSES * AccessConstraintEntry.SIZE

    program_length: int
    accesses: Tuple[AccessConstraintEntry, ...]
    ingress_bound_position: int = 0  # 0 = no RTS-style constraint

    def __post_init__(self) -> None:
        if not 0 < self.program_length <= 0xFF:
            raise HeaderError(f"program length {self.program_length} invalid")
        if len(self.accesses) > MAX_REQUEST_ACCESSES:
            raise HeaderError(
                f"{len(self.accesses)} accesses exceed the wire limit of "
                f"{MAX_REQUEST_ACCESSES}"
            )
        if not 0 <= self.ingress_bound_position <= 0xFF:
            raise HeaderError("ingress bound position out of byte range")

    def encode(self) -> bytes:
        out = bytearray(
            _REQUEST_META_STRUCT.pack(
                self.program_length,
                len(self.accesses),
                self.ingress_bound_position,
                0,
            )
        )
        for entry in self.accesses:
            out.extend(entry.encode())
        pad = MAX_REQUEST_ACCESSES - len(self.accesses)
        out.extend(b"\x00" * (pad * AccessConstraintEntry.SIZE))
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> "AllocationRequestHeader":
        if len(data) - offset < cls.SIZE:
            raise HeaderError("allocation request header truncated")
        length, count, ingress_pos, _reserved = _REQUEST_META_STRUCT.unpack_from(
            data, offset
        )
        if count > MAX_REQUEST_ACCESSES:
            raise HeaderError(f"access count {count} exceeds wire limit")
        offset += _REQUEST_META_STRUCT.size
        entries: List[AccessConstraintEntry] = []
        for index in range(count):
            start = offset + index * AccessConstraintEntry.SIZE
            entries.append(
                AccessConstraintEntry.decode(
                    data[start : start + AccessConstraintEntry.SIZE]
                )
            )
        return cls(
            program_length=length,
            accesses=tuple(entries),
            ingress_bound_position=ingress_pos,
        )


_REGION_STRUCT = struct.Struct(">II")


@dataclasses.dataclass(frozen=True)
class StageRegion:
    """A half-open word-index interval ``[start, end)`` within one stage.

    ``StageRegion.none()`` encodes "no allocation in this stage".
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start == NO_REGION and self.end == NO_REGION:
            return
        if not 0 <= self.start <= self.end <= 0xFFFFFFFE:
            raise HeaderError(f"bad region [{self.start}, {self.end})")

    @classmethod
    def none(cls) -> "StageRegion":
        return cls(start=NO_REGION, end=NO_REGION)

    @property
    def is_none(self) -> bool:
        return self.start == NO_REGION

    @property
    def size(self) -> int:
        return 0 if self.is_none else self.end - self.start

    def contains(self, index: int) -> bool:
        return not self.is_none and self.start <= index < self.end

    def encode(self) -> bytes:
        return _REGION_STRUCT.pack(self.start, self.end)

    @classmethod
    def decode(cls, data: bytes) -> "StageRegion":
        if len(data) < _REGION_STRUCT.size:
            raise HeaderError("stage region truncated")
        start, end = _REGION_STRUCT.unpack_from(data)
        return cls(start=start, end=end)


@dataclasses.dataclass(frozen=True)
class AllocationResponseHeader:
    """Allocation response: a region per pipeline stage (160 bytes).

    The per-stage tuple is indexed by logical stage - 1; stages without
    an allocation hold :meth:`StageRegion.none`.
    """

    SIZE = RESPONSE_STAGES * _REGION_STRUCT.size  # 160

    regions: Tuple[StageRegion, ...]

    def __post_init__(self) -> None:
        if len(self.regions) != RESPONSE_STAGES:
            raise HeaderError(
                f"response must carry exactly {RESPONSE_STAGES} regions"
            )

    @classmethod
    def empty(cls) -> "AllocationResponseHeader":
        return cls(regions=tuple(StageRegion.none() for _ in range(RESPONSE_STAGES)))

    @classmethod
    def from_map(cls, regions_by_stage: dict) -> "AllocationResponseHeader":
        """Build from ``{1-indexed physical stage: StageRegion}``."""
        regions = [StageRegion.none() for _ in range(RESPONSE_STAGES)]
        for stage, region in regions_by_stage.items():
            if not 1 <= stage <= RESPONSE_STAGES:
                raise HeaderError(f"stage {stage} out of range")
            regions[stage - 1] = region
        return cls(regions=tuple(regions))

    def region_for_stage(self, stage: int) -> StageRegion:
        """Region for a 1-indexed physical stage."""
        if not 1 <= stage <= RESPONSE_STAGES:
            raise HeaderError(f"stage {stage} out of range")
        return self.regions[stage - 1]

    def allocated_stages(self) -> List[int]:
        return [
            index + 1
            for index, region in enumerate(self.regions)
            if not region.is_none
        ]

    def encode(self) -> bytes:
        return b"".join(region.encode() for region in self.regions)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> "AllocationResponseHeader":
        if len(data) - offset < cls.SIZE:
            raise HeaderError("allocation response header truncated")
        regions = tuple(
            StageRegion.decode(data[offset + i * 8 : offset + i * 8 + 8])
            for i in range(RESPONSE_STAGES)
        )
        return cls(regions=regions)
