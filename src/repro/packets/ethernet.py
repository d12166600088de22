"""Minimal Ethernet framing for the layer-2 active encapsulation."""

from __future__ import annotations

import dataclasses
import re
import struct

from repro.packets.headers import HeaderError

_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}$")


@dataclasses.dataclass(frozen=True, order=True)
class MacAddress:
    """A 48-bit MAC address with string/bytes conversions."""

    value: int

    SIZE = 6

    def __post_init__(self) -> None:
        if not 0 <= self.value < 1 << 48:
            raise HeaderError(f"MAC value {self.value:#x} out of range")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        if not _MAC_RE.match(text):
            raise HeaderError(f"bad MAC address {text!r}")
        return cls(int(text.replace(":", ""), 16))

    @classmethod
    def from_bytes(cls, data: bytes) -> "MacAddress":
        if len(data) < cls.SIZE:
            raise HeaderError("MAC address truncated")
        return cls(int.from_bytes(data[: cls.SIZE], "big"))

    @classmethod
    def from_host_id(cls, host_id: int) -> "MacAddress":
        """Deterministic locally-administered MAC for simulated host ids."""
        return cls((0x02 << 40) | (host_id & 0xFFFFFFFFFF))

    def encode(self) -> bytes:
        return self.value.to_bytes(self.SIZE, "big")

    def __str__(self) -> str:
        raw = f"{self.value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))


_ETH_STRUCT = struct.Struct(">6s6sH")


@dataclasses.dataclass(frozen=True)
class EthernetHeader:
    """Destination MAC, source MAC, EtherType."""

    STRUCT = _ETH_STRUCT
    SIZE = STRUCT.size  # 14

    dst: MacAddress
    src: MacAddress
    ethertype: int

    def __post_init__(self) -> None:
        if not 0 <= self.ethertype <= 0xFFFF:
            raise HeaderError(f"ethertype {self.ethertype:#x} out of range")

    def encode(self) -> bytes:
        return _ETH_STRUCT.pack(self.dst.encode(), self.src.encode(), self.ethertype)

    @classmethod
    def decode(cls, data: bytes) -> "EthernetHeader":
        if len(data) < cls.SIZE:
            raise HeaderError("ethernet header truncated")
        dst_raw, src_raw, ethertype = _ETH_STRUCT.unpack_from(data)
        return cls(
            dst=MacAddress.from_bytes(dst_raw),
            src=MacAddress.from_bytes(src_raw),
            ethertype=ethertype,
        )

    def swapped(self) -> "EthernetHeader":
        """Header with source and destination exchanged (RTS support).

        Built without ``__post_init__``: nothing new is there to validate.
        """
        twin = object.__new__(EthernetHeader)
        object.__setattr__(twin, "dst", self.src)
        object.__setattr__(twin, "src", self.dst)
        object.__setattr__(twin, "ethertype", self.ethertype)
        return twin
