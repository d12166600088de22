"""End-to-end tests for the in-network cache service."""

import zlib

import pytest

from repro.apps import CacheClient, cache_pattern, cache_query_program
from repro.apps.cache import key_words
from repro.client import ClientShim
from repro.controller import ActiveRmtController
from repro.packets import AllocationResponseHeader, MacAddress, StageRegion
from repro.switchsim import ActiveSwitch

CLIENT = MacAddress.from_host_id(1)
SERVER = MacAddress.from_host_id(2)


@pytest.fixture
def stack():
    switch = ActiveSwitch()
    switch.register_host(CLIENT, 1)
    switch.register_host(SERVER, 2)
    controller = ActiveRmtController(switch)
    switch.register_host(controller.mac, 3)
    cache = CacheClient(
        mac=CLIENT, server_mac=SERVER, switch_mac=controller.mac, fid=1
    )
    shim = ClientShim(
        mac=CLIENT,
        switch_mac=controller.mac,
        fid=1,
        program=cache_query_program(),
    )
    shim.on_allocated = cache.attach
    switch.receive(shim.request_allocation(), in_port=1)
    for reply in controller.process_pending():
        shim.handle_packet(reply)
    assert cache.synthesized is not None
    return switch, controller, cache, shim


def _install(switch, cache, key, value):
    for packet in cache.populate_packets([(key, value)]):
        outputs = switch.receive(packet, in_port=1)
        assert outputs, "populate writes must be acknowledged"


def test_pattern_matches_paper():
    pattern = cache_pattern()
    assert pattern.lower_bounds == (2, 5, 9)
    assert pattern.elastic


def test_query_hit_returns_value(stack):
    switch, _controller, cache, _shim = stack
    key = b"objkey01"
    _install(switch, cache, key, 0xCAFED00D)
    outputs = switch.receive(cache.query_packet(key), in_port=1)
    assert len(outputs) == 1
    assert outputs[0].port == 1  # returned to the client, not the server
    value = cache.handle_reply(outputs[0].packet)
    assert value == 0xCAFED00D
    assert cache.hits == 1


def test_query_miss_forwards_to_server(stack):
    switch, _controller, cache, _shim = stack
    _install(switch, cache, b"objkey01", 1)
    outputs = switch.receive(cache.query_packet(b"otherkey"), in_port=1)
    assert len(outputs) == 1
    assert outputs[0].port == 2  # forwarded to the server
    assert cache.handle_reply(outputs[0].packet) is None
    assert cache.misses == 1


def test_partial_key_collision_is_miss(stack):
    """Keys sharing the first four bytes must still be distinguished."""
    switch, _controller, cache, _shim = stack
    _install(switch, cache, b"AAAABBBB", 7)
    probe = b"AAAACCCC"
    if cache.bucket_for(probe) != cache.bucket_for(b"AAAABBBB"):
        pytest.skip("keys do not collide under this capacity")
    outputs = switch.receive(cache.query_packet(probe), in_port=1)
    assert outputs[0].port == 2  # second compare catches the mismatch


def test_capacity_tracks_allocation(stack):
    _switch, _controller, cache, _shim = stack
    # Whole-stage allocation: 256 blocks x 256 words.
    assert cache.capacity == 65536


def test_capacity_follows_a_relink_to_smaller_regions(stack):
    """The capacity is taken once per link, so a relink must not leave
    ``capacity`` or ``bucket_for`` on the old regions."""
    _switch, _controller, cache, shim = stack
    before = cache.synthesized
    key = b"objkey01"
    assert cache.bucket_for(key) == zlib.crc32(key) % 65536
    smaller = AllocationResponseHeader.from_map(
        {stage: StageRegion(4096, 4096 + 1000) for stage in before.regions}
    )
    cache.attach(shim.compiler.relink(before, smaller))
    assert cache.capacity == 1000
    assert cache.bucket_for(key) == zlib.crc32(key) % 1000
    assert before.min_region_words == 65536  # the old link keeps its own
    address = cache.query_packet(key).get_arg(2)
    assert 4096 <= address < 4096 + 1000


def test_hit_rate_statistics(stack):
    switch, _controller, cache, _shim = stack
    key = b"hotkey!!"
    _install(switch, cache, key, 42)
    for _ in range(8):
        out = switch.receive(cache.query_packet(key), in_port=1)
        cache.handle_reply(out[0].packet)
    out = switch.receive(cache.query_packet(b"coldkey!"), in_port=1)
    cache.handle_reply(out[0].packet)
    assert cache.hit_rate == pytest.approx(8 / 9)
    cache.reset_stats()
    assert cache.hit_rate == 0.0


def test_select_cacheable_prefers_popular(stack):
    _switch, _controller, cache, _shim = stack
    frequencies = {b"popular!": 100, b"medium!!": 10, b"rare!!!!": 1}
    ranked = cache.select_cacheable(frequencies)
    assert ranked[0] == b"popular!"


def test_two_instances_are_isolated():
    """Two cache tenants on one switch never see each other's objects."""
    switch = ActiveSwitch()
    switch.register_host(CLIENT, 1)
    switch.register_host(SERVER, 2)
    controller = ActiveRmtController(switch)
    switch.register_host(controller.mac, 3)
    caches = []
    for fid in (1, 2):
        cache = CacheClient(
            mac=CLIENT, server_mac=SERVER, switch_mac=controller.mac, fid=fid
        )
        shim = ClientShim(
            mac=CLIENT,
            switch_mac=controller.mac,
            fid=fid,
            program=cache_query_program(),
        )
        shim.on_allocated = cache.attach
        switch.receive(shim.request_allocation(), in_port=1)
        for reply in controller.process_pending():
            shim.handle_packet(reply)
        caches.append(cache)
    key = b"sharedkk"
    _install(switch, caches[0], key, 111)
    # Tenant 2 misses: it has its own stages/regions.
    outputs = switch.receive(caches[1].query_packet(key), in_port=1)
    assert outputs[0].port == 2


def test_key_words_round_trip():
    k0, k1 = key_words(b"ABCDEFGH")
    assert k0 == int.from_bytes(b"ABCD", "big")
    assert k1 == int.from_bytes(b"EFGH", "big")
    with pytest.raises(ValueError):
        key_words(b"short")


def test_query_without_allocation_raises():
    cache = CacheClient(
        mac=CLIENT, server_mac=SERVER, switch_mac=SERVER, fid=9
    )
    with pytest.raises(ValueError):
        cache.query_packet(b"objkey01")
