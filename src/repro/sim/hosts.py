"""Traffic-generating hosts for the case-study experiments (Section 6.3).

The :class:`CacheClientHost` reproduces the paper's client behaviour:
it sends application-level GET requests as fast as its configured rate
allows, activates them with its cache program once allocated, counts
hits (answered by the switch) versus misses (answered by the server),
and repopulates its cache at multiplicative intervals after every
(re)allocation.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.apps.cache import CacheClient, cache_query_program
from repro.client.shim import ClientShim, ShimState
from repro.packets.codec import ActivePacket
from repro.packets.ethernet import MacAddress
from repro.packets.headers import ControlFlags, PacketType
from repro.sim.eventloop import EventLoop
from repro.sim.kvstore import (
    KVStore,
    decode_get,
    decode_value,
    encode_get,
    encode_value,
)
from repro.sim.network import Host
from repro.workloads.zipf import ZipfKeyGenerator


class KVServerHost(Host):
    """The backend object server; answers GETs after a service delay."""

    def __init__(
        self,
        mac: MacAddress,
        store: Optional[KVStore] = None,
        loop: Optional[EventLoop] = None,
        service_delay_s: float = 20e-6,
    ) -> None:
        super().__init__(mac)
        self.store = store or KVStore()
        self.loop = loop
        self.service_delay_s = service_delay_s

    def on_packet(self, packet: ActivePacket) -> None:
        super().on_packet(packet)
        key = decode_get(packet.payload)
        if key is None:
            return
        value = self.store.get(key)
        reply = ActivePacket.program(
            src=self.mac,
            dst=packet.eth.src,
            fid=packet.fid,
            instructions=[],
            args=[],
            payload=encode_value(key, value),
        )
        if self.loop is not None:
            self.loop.schedule(self.service_delay_s, lambda: self.send(reply))
        else:
            self.send(reply)


class CacheClientHost(Host):
    """A client running the in-network cache service over Zipf traffic.

    Attributes:
        events: ``(time, hit)`` log of answered requests, the raw
            series behind the hit-rate timelines of Figures 9 and 10.
    """

    #: First populate round fires this long after (re)allocation;
    #: subsequent rounds double the interval (Section 6.3).
    POPULATE_BASE_DELAY_S = 0.1
    POPULATE_ROUNDS = 4

    def __init__(
        self,
        mac: MacAddress,
        server_mac: MacAddress,
        switch_mac: MacAddress,
        fid: int,
        loop: EventLoop,
        workload: ZipfKeyGenerator,
        request_interval_s: float = 100e-6,
        populate_limit: Optional[int] = None,
    ) -> None:
        super().__init__(mac)
        self.loop = loop
        self.workload = workload
        self.request_interval_s = request_interval_s
        self.populate_limit = populate_limit
        self.shim = ClientShim(
            mac=mac, switch_mac=switch_mac, fid=fid, program=cache_query_program()
        )
        self.cache = CacheClient(
            mac=mac, server_mac=server_mac, switch_mac=switch_mac, fid=fid
        )
        self.shim.on_allocated = self._on_allocated
        self.events: List[Tuple[float, bool]] = []
        #: Optional override for how requests are activated (used by the
        #: case study to inject the frequent-item monitor instead).
        self.activator: Optional[Callable[[bytes], ActivePacket]] = None
        #: Optional first-look hook on received packets; return True to
        #: consume the packet (the case study intercepts sync replies).
        self.rx_hook: Optional[Callable[[ActivePacket], bool]] = None
        #: Source of keys worth caching, best first (defaults to the
        #: workload's own popularity ranking -- "known request
        #: patterns", Figure 9b).
        self.populate_source: Callable[[int], Sequence[bytes]] = (
            self.workload.top_keys
        )
        self._running = False
        self._populate_generation = 0

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def start_requests(self) -> None:
        """Begin the request loop at the configured rate."""
        if self._running:
            return
        self._running = True
        self.loop.schedule(self.request_interval_s, self._tick)

    def stop_requests(self) -> None:
        self._running = False

    def request_cache_allocation(self) -> None:
        self.send(self.shim.request_allocation())

    def deallocate_cache(self) -> None:
        self.send(self.shim.deallocate())

    # ------------------------------------------------------------------
    # Request loop
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        if not self._running:
            return
        key = self.workload.sample_key()
        self.send(self._request_packet(key))
        self.loop.schedule(self.request_interval_s, self._tick)

    def _request_packet(self, key: bytes) -> ActivePacket:
        payload = encode_get(key)
        if self.activator is not None:
            packet = self.activator(key)
            packet.payload = payload
            return packet
        if self.shim.state is ShimState.OPERATIONAL and self.cache.synthesized:
            return self.cache.query_packet(key, payload=payload)
        # Unactivated request: plain forwarding to the server.
        return ActivePacket.program(
            src=self.mac,
            dst=self.cache.server_mac,
            fid=self.shim.fid,
            instructions=[],
            args=[],
            payload=payload,
        )

    def on_packet(self, packet: ActivePacket) -> None:
        super().on_packet(packet)
        if self.rx_hook is not None and self.rx_hook(packet):
            return
        if packet.ptype != PacketType.PROGRAM:
            # Control traffic: responses, notices.
            for reply in self.shim.handle_packet(packet):
                self.send(reply)
            return
        if packet.has_flag(ControlFlags.FROM_SWITCH):
            if decode_get(packet.payload) is not None:
                # A returned cache query: a hit.
                self.cache.handle_reply(packet)
                self.events.append((self.loop.now, True))
            # Otherwise: a populate/sync acknowledgement; not a request.
            return
        if decode_value(packet.payload) is not None:
            # Answered by the server: a miss.
            self.cache.misses += 1
            self.events.append((self.loop.now, False))

    # ------------------------------------------------------------------
    # Population (multiplicative intervals, Section 6.3)
    # ------------------------------------------------------------------

    def _on_allocated(self, synthesized) -> None:
        self.cache.attach(synthesized)
        self._schedule_population()

    def _schedule_population(self) -> None:
        """Repopulate in doubling-interval rounds after (re)allocation."""
        self._populate_generation += 1
        generation = self._populate_generation
        limit = self.cache.capacity
        if self.populate_limit is not None:
            limit = min(limit, self.populate_limit)
        ranked = list(self.populate_source(limit))
        # One object per bucket: keep the most popular key that hashes
        # there (Section 3.4's collision rule); *ranked* is best-first,
        # so walked in reverse its best key per bucket is written last.
        pairs = [(key, self.cache.bucket_for(key)) for key in ranked]
        winners = {bucket: key for key, bucket in reversed(pairs)}
        items = [key for key, bucket in pairs if winners[bucket] == key]
        if not items:
            return
        # Chunks double in size: 1/15, 2/15, 4/15, 8/15 of the items.
        weights = [1 << k for k in range(self.POPULATE_ROUNDS)]
        total = sum(weights)
        cursor = 0
        delay = self.POPULATE_BASE_DELAY_S
        for round_index, weight in enumerate(weights):
            if round_index == self.POPULATE_ROUNDS - 1:
                chunk = items[cursor:]
            else:
                size = max(1, len(items) * weight // total)
                chunk = items[cursor : cursor + size]
            cursor += len(chunk)
            if not chunk:
                continue
            self.loop.schedule(
                delay, self._populate_round(generation, list(chunk))
            )
            delay *= 2

    def _populate_round(self, generation: int, keys: List[bytes]):
        def run() -> None:
            # A newer (re)allocation supersedes this round.
            if generation != self._populate_generation:
                return
            if self.shim.state is not ShimState.OPERATIONAL:
                return
            from repro.sim.kvstore import value_for_key

            items = [(key, value_for_key(key)) for key in keys]
            for packet in self.cache.populate_packets(items):
                self.send(packet)

        return run

    # ------------------------------------------------------------------

    def hit_rate_since(self, since: float) -> float:
        relevant = [hit for when, hit in self.events if when >= since]
        if not relevant:
            return 0.0
        return sum(relevant) / len(relevant)
