"""The in-network object cache (Section 3.4, Listing 1; Section 6.3).

The query program stores 8-byte keys and 4-byte values across three
stages at the same bucket index: key word 0 in the first access stage,
key word 1 in the second, the value in the third.  The client hashes
keys locally (direct addressing) and supplies the translated bucket
address in argument slot 2.

Argument layout for a query packet::

    slot 0: key word 0      (compared by MBR_EQUALS_DATA_1; the value
                             overwrites this slot in the reply)
    slot 1: key word 1      (compared by MBR_EQUALS_DATA_2)
    slot 2: bucket address  (physical, client-translated)

Cache population uses per-stage write packets (Appendix C style),
acknowledged via RTS.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.client.compiler import SynthesizedProgram
from repro.client.memsync import build_write_packet
from repro.core.constraints import AccessPattern
from repro.isa.assembler import assemble
from repro.isa.program import ActiveProgram
from repro.packets.codec import ActivePacket
from repro.packets.ethernet import MacAddress
from repro.packets.headers import ControlFlags

#: Listing 1, verbatim (bucket address in argument slot 2).
CACHE_QUERY_SOURCE = """
    MAR_LOAD $2        ; locate bucket
    MEM_READ           ; first 4 bytes of the key
    MBR_EQUALS_DATA_1  ; compare with slot 0
    CRET               ; partial match? miss -> forward
    MEM_READ           ; next 4 bytes
    MBR_EQUALS_DATA_2  ; compare with slot 1
    CRET               ; full match? miss -> forward
    RTS                ; hit: return the reply to the sender
    MEM_READ           ; read the value
    MBR_STORE $0       ; write it into the packet
    RETURN
"""


def cache_query_program() -> ActiveProgram:
    """The Listing 1 cache-query program."""
    return assemble(CACHE_QUERY_SOURCE, name="cache-query")


def cache_pattern() -> AccessPattern:
    """The cache's (elastic) access pattern: LB=[2,5,9], RTS at 8."""
    return AccessPattern.from_program(cache_query_program())


def key_words(key: bytes) -> Tuple[int, int]:
    """Split an 8-byte key into the two 32-bit words the wire carries."""
    if len(key) != 8:
        raise ValueError(f"cache keys are 8 bytes, got {len(key)}")
    return int.from_bytes(key[:4], "big"), int.from_bytes(key[4:], "big")


class CacheClient:
    """Client-side logic for one cache instance.

    Buckets are chosen by hashing the key locally and taking it modulo
    the instance's capacity -- the smallest granted region across the
    three access stages (regions are congruent when the instance's
    stages share the same resident population, which the progressive-
    filling layout guarantees for same-arrival-order co-tenants).
    """

    def __init__(
        self,
        mac: MacAddress,
        server_mac: MacAddress,
        switch_mac: MacAddress,
        fid: int,
    ) -> None:
        self.mac = mac
        self.server_mac = server_mac
        self.switch_mac = switch_mac
        self.fid = fid
        self.synthesized: Optional[SynthesizedProgram] = None
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------

    def attach(self, synthesized: SynthesizedProgram) -> None:
        """Adopt a (re)allocation; resets nothing but the linkage."""
        self.synthesized = synthesized

    @property
    def capacity(self) -> int:
        """Buckets available under the current allocation."""
        if self.synthesized is None:
            return 0
        return self.synthesized.min_region_words

    def bucket_for(self, key: bytes) -> int:
        """Local (client-side) hash-based bucket selection."""
        if self.capacity == 0:
            raise ValueError("cache has no allocation")
        return zlib.crc32(key) % self.capacity

    def _bucket_address(self, key: bytes) -> int:
        bucket = self.bucket_for(key)
        # All three regions are congruent; translate via access 0.
        return self.synthesized.translate(0, bucket)

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def query_packet(self, key: bytes, payload: bytes = b"") -> ActivePacket:
        """Activate an application-level GET with the query program."""
        if self.synthesized is None:
            raise ValueError("cache has no allocation")
        k0, k1 = key_words(key)
        return ActivePacket.program(
            src=self.mac,
            dst=self.server_mac,
            fid=self.fid,
            instructions=self.synthesized.program,
            args=[k0, k1, self._bucket_address(key), 0],
            payload=payload,
        )

    def handle_reply(self, packet: ActivePacket) -> Optional[int]:
        """Classify a returned packet; returns the value on a hit.

        A cache hit comes back from the switch (RTS) with the value in
        slot 0; a miss is answered by the server instead.
        """
        if packet.fid != self.fid:
            return None
        if packet.has_flag(ControlFlags.FROM_SWITCH):
            self.hits += 1
            return packet.get_arg(0)
        self.misses += 1
        return None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Population path (data-plane cache management, Section 3.4)
    # ------------------------------------------------------------------

    def populate_packets(
        self, items: Iterable[Tuple[bytes, int]]
    ) -> List[ActivePacket]:
        """Write packets that install ``(key, value)`` objects.

        Each object needs three writes (key word 0, key word 1, value),
        one per access stage, all at the same bucket index.  Writes are
        RTS-acknowledged and idempotent (Section 4.3).
        """
        if self.synthesized is None:
            raise ValueError("cache has no allocation")
        packets: List[ActivePacket] = []
        for key, value in items:
            k0, k1 = key_words(key)
            bucket = self.bucket_for(key)
            for access_index, word in ((0, k0), (1, k1), (2, value)):
                stage = self.synthesized.access_stages[access_index]
                address = self.synthesized.translate(access_index, bucket)
                packets.append(
                    build_write_packet(
                        src=self.mac,
                        dst=self.server_mac,
                        fid=self.fid,
                        stage=stage,
                        address=address,
                        value=word,
                    )
                )
        return packets

    def select_cacheable(
        self, frequencies: Dict[bytes, int], limit: Optional[int] = None
    ) -> List[bytes]:
        """Pick the keys worth caching, most frequent first.

        Hash collisions mean each bucket can hold one object, so only
        the most popular key per bucket survives (Section 3.4); the
        caller pairs the returned keys with their values and feeds them
        to :meth:`populate_packets`.
        """
        winners: Dict[int, Tuple[bytes, int]] = {}
        for key, count in frequencies.items():
            bucket = self.bucket_for(key)
            incumbent = winners.get(bucket)
            if incumbent is None or count > incumbent[1]:
                winners[bucket] = (key, count)
        ranked = sorted(winners.values(), key=lambda kv: -kv[1])
        if limit is not None:
            ranked = ranked[:limit]
        return [key for key, _count in ranked]
