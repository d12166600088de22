"""Tests for the discrete-event simulation harness, culminating in an
end-to-end cache scenario with real provisioning over simulated time."""

import pytest

from repro.controller import ActiveRmtController, AdmissionService
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
from repro.switchsim import ActiveSwitch, SwitchConfig
from repro.workloads import ZipfKeyGenerator
from tests.oracles import eventloop as oracle
from tests.test_switchsim_codegen import _python_calls

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


@pytest.mark.parametrize(
    "start, until, expected",
    [
        (0.0, 0.05, []),
        (0.0, 0.3, [0.1, 0.2, 0.3]),
        (1.0, 1.3, [1.1, 1.2, 1.3]),
    ],
)
def test_eventloop_every_stops_at_until(start, until, expected):
    loop = EventLoop()
    loop.run_until(start)
    ticks = []
    loop.every(0.1, lambda: ticks.append(loop.now), until=until)
    loop.run()
    # Tick times are sums of the interval, so compare them rounded.
    assert [round(tick, 9) for tick in ticks] == expected


# ----------------------------------------------------------------------
# The loop's contract, on the loop and on its oracle
# ----------------------------------------------------------------------

LOOPS = pytest.mark.parametrize("make_loop", [EventLoop, oracle.EventLoop], ids=["loop", "oracle"])


@LOOPS
def test_equal_time_events_run_in_scheduling_order(make_loop):
    loop = make_loop()
    order = []
    for name in "abc":
        loop.schedule_at(0.5, order.append, name)
    loop.schedule(0.5, order.append, "d")
    loop.schedule_at(0.25, order.append, "first")
    loop.run()
    assert order == ["first", "a", "b", "c", "d"]
    assert loop.processed == 5


@LOOPS
def test_args_reach_the_callback(make_loop):
    loop = make_loop()
    calls = []
    loop.schedule(0.1, lambda *args: calls.append(args), 1, "two", None)
    loop.schedule(0.2, lambda *args: calls.append(args))
    loop.run()
    assert calls == [(1, "two", None), ()]


@LOOPS
def test_cancelled_event_neither_runs_nor_counts(make_loop):
    loop = make_loop()
    fired = []
    loop.schedule(0.1, fired.append, "kept")
    loop.schedule(0.1, fired.append, "dropped").cancel()
    assert loop.pending == 1
    loop.run_until(0.2)
    assert fired == ["kept"]
    assert loop.processed == 1
    assert loop.pending == 0


@LOOPS
def test_scheduling_into_the_past_raises(make_loop):
    loop = make_loop()
    loop.run_until(1.0)
    with pytest.raises(ValueError):
        loop.schedule(-1e-9, print)
    with pytest.raises(ValueError):
        loop.schedule_at(0.5, print)
    assert loop.pending == 0


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


# ----------------------------------------------------------------------
# One world on the loop and on its oracle
# ----------------------------------------------------------------------


class _ModeledCompute:
    """The inline admission service, reporting a fixed planning time so
    that simulated time does not depend on the host."""

    def __init__(self, service):
        self.service = service

    def submit_and_wait(self, request):
        report = self.service.submit_and_wait(request)
        report.compute_seconds = 0.002
        return report


def _reallocating_world(loop, until=1.0):
    """Four tenants join 0.2 s apart and the fourth squeezes the first;
    the first and the fourth send requests.  Returns the provisioner and
    the two traffic clients after running the loop to *until*."""
    switch = ActiveSwitch(SwitchConfig(words_per_stage=4096))
    controller = ActiveRmtController(switch)
    network = SimNetwork(loop, switch)
    network.attach(KVServerHost(SERVER, loop=loop), 2)
    provisioner = SimProvisioner(
        loop, network, controller, horizon_s=60.0,
        service=_ModeledCompute(AdmissionService(controller, workers=0)),
    )
    clients = []
    for index in range(4):
        client = CacheClientHost(
            mac=MacAddress.from_host_id(10 + index),
            server_mac=SERVER,
            switch_mac=controller.mac,
            fid=index + 1,
            loop=loop,
            workload=ZipfKeyGenerator(num_keys=2000, alpha=0.99, seed=index),
            request_interval_s=500e-6,
            populate_limit=200,
        )
        network.attach(client, 10 + index)
        loop.schedule_at(0.01 + 0.2 * index, client.request_cache_allocation)
        clients.append(client)
    traffic = [clients[0], clients[3]]
    for client in traffic:
        client.start_requests()
    loop.run_until(until)
    return provisioner, traffic


def test_world_counts_the_same_on_the_oracle_loop():
    provisioner, clients = _reallocating_world(loop := EventLoop())
    theirs, their_clients = _reallocating_world(their_loop := oracle.EventLoop())
    assert [entry["reallocated"] for entry in provisioner.provisioning_log] == [[], [], [], [1]]
    assert all(client.cache.hits for client in clients)
    assert loop.processed == their_loop.processed
    for mine, other in zip(clients, their_clients):
        assert mine.events == other.events
    assert provisioner.provisioning_log == theirs.provisioning_log


def test_python_calls_per_event_in_a_provisioned_world():
    """Python-level calls per event over 0.2 s of a provisioned world:
    request ticks, hops, switch hits, server replies and polls.

    Measured: **14.0** calls per event.  The loop before event records
    (a ``SimEvent`` and a closure per event, a lambda per delivery and
    reply, ``_port`` / ``_count_tx`` in ``receive``, headers validated
    per built packet, ``super().on_packet`` per delivery) made **18.48**
    for the same window.  A per-hop closure or helper put back fails here.
    """
    measured, parent = 14.0, 18.48
    loop = EventLoop()
    _reallocating_world(loop, until=0.9)
    before = loop.processed
    calls = _python_calls(lambda: loop.run_until(1.1))
    per_event = calls / (loop.processed - before)
    # One more call per hop adds 0.26 per event; the bound allows 0.2.
    assert per_event <= measured + 0.2 < parent

