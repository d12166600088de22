"""Tests for the discrete-event simulation harness, culminating in an
end-to-end cache scenario with real provisioning over simulated time."""

import pytest

from repro.controller import ActiveRmtController
from repro.packets import MacAddress
from repro.sim import (
    CacheClientHost,
    EventLoop,
    KVServerHost,
    KVStore,
    SimNetwork,
    SimProvisioner,
    decode_get,
    decode_value,
    encode_get,
    encode_value,
)
from repro.sim.kvstore import value_for_key
from repro.switchsim import ActiveSwitch
from repro.workloads import ZipfKeyGenerator

CLIENT = MacAddress.from_host_id(1)
SERVER = MacAddress.from_host_id(2)


def test_eventloop_ordering():
    loop = EventLoop()
    order = []
    loop.schedule(0.2, lambda: order.append("b"))
    loop.schedule(0.1, lambda: order.append("a"))
    loop.schedule(0.3, lambda: order.append("c"))
    loop.run_until(0.25)
    assert order == ["a", "b"]
    assert loop.now == 0.25
    loop.run()
    assert order == ["a", "b", "c"]


def test_eventloop_cancel():
    loop = EventLoop()
    fired = []
    event = loop.schedule(0.1, lambda: fired.append(1))
    event.cancel()
    loop.run()
    assert fired == []


def test_eventloop_rejects_past():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.schedule(-1, lambda: None)


def test_eventloop_every_repeats():
    loop = EventLoop()
    ticks = []
    loop.every(0.1, lambda: ticks.append(loop.now), until=0.55)
    loop.run()
    assert len(ticks) == 5


def test_kv_payload_round_trip():
    assert decode_get(encode_get(b"abcdefgh")) == b"abcdefgh"
    assert decode_value(encode_value(b"abcdefgh", 42)) == (b"abcdefgh", 42)
    assert decode_get(b"") is None
    assert decode_value(encode_get(b"abcdefgh")) is None


def test_kvstore_deterministic_values():
    store = KVStore()
    v1 = store.get(b"abcdefgh")
    assert v1 == value_for_key(b"abcdefgh")
    store.put(b"abcdefgh", 5)
    assert store.get(b"abcdefgh") == 5
    assert store.gets == 2


def _build_world(num_clients=1, request_interval_s=200e-6):
    loop = EventLoop()
    switch = ActiveSwitch()
    controller = ActiveRmtController(switch)
    network = SimNetwork(loop, switch)
    server = KVServerHost(SERVER, loop=loop)
    network.attach(server, 2)
    _provisioner = SimProvisioner(loop, network, controller, horizon_s=60.0)
    clients = []
    for index in range(num_clients):
        workload = ZipfKeyGenerator(num_keys=5000, alpha=0.99, seed=index)
        client = CacheClientHost(
            mac=MacAddress.from_host_id(10 + index),
            server_mac=SERVER,
            switch_mac=controller.mac,
            fid=index + 1,
            loop=loop,
            workload=workload,
            request_interval_s=request_interval_s,
        )
        network.attach(client, 10 + index)
        clients.append(client)
    return loop, switch, controller, network, clients


def test_unactivated_requests_all_miss():
    loop, _switch, _controller, _network, clients = _build_world()
    client = clients[0]
    client.start_requests()
    loop.run_until(0.2)
    assert client.events, "requests must be answered by the server"
    assert all(not hit for _t, hit in client.events)


def test_cache_allocation_over_sim_time_then_hits():
    """End-to-end: allocate, populate, and observe a rising hit rate."""
    loop, _switch, _controller, _network, clients = _build_world()
    client = clients[0]
    client.populate_limit = 2000
    client.start_requests()
    loop.run_until(0.05)
    client.request_cache_allocation()
    # Run long enough for provisioning + all populate rounds (~1.5 s).
    loop.run_until(4.0)
    early = [hit for t, hit in client.events if t < 0.1]
    late = [hit for t, hit in client.events if t > 2.5]
    assert not any(early), "no hits before allocation"
    late_rate = sum(late) / len(late)
    assert late_rate > 0.5, f"late hit rate {late_rate:.2f} too low"
    # Popular objects are served by the switch, not the server.
    assert client.cache.hits > 0


def test_provisioning_log_records_admission():
    loop, _switch, _controller, _network, clients = _build_world()
    client = clients[0]
    client.request_cache_allocation()
    loop.run_until(2.0)
    # Find the provisioner via the loop-closure: re-create instead.
    assert client.shim.synthesized is not None
    assert client.cache.capacity > 0


def test_second_tenant_disrupts_first_only_when_sharing():
    """Figure 9b/10 dynamics: a fourth tenant sharing stages briefly
    disrupts the incumbent, then both stabilize at lower hit rates."""
    loop, switch, controller, _network, clients = _build_world(
        num_clients=4, request_interval_s=500e-6
    )
    for client in clients:
        client.populate_limit = 500
        client.start_requests()
    # Staggered arrivals (compressed from the paper's 5 s spacing).
    for index, client in enumerate(clients):
        loop.schedule_at(0.01 + 2.5 * index, client.request_cache_allocation)
    loop.run_until(12.0)
    # All four obtained allocations.
    for client in clients:
        assert client.shim.synthesized is not None, "tenant not allocated"
    # The fourth tenant shares stages with an incumbent: someone was
    # reallocated at least once.
    assert controller.reports, "no admissions recorded"
    realloc_waves = [r for r in controller.reports if r.reallocated_fids]
    assert realloc_waves, "fourth tenant must have squeezed an incumbent"
    # After the dust settles everyone serves hits again.
    for client in clients:
        late_rate = client.hit_rate_since(11.0)
        assert late_rate > 0.3, f"tenant fid={client.shim.fid} starved"
