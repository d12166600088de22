"""``kv_mixed``: the whole system in simulated time.

Four cache clients send Zipf GETs through one switch to a key-value
server; they join one simulated second apart (allocation request over
the wire, time-staggered provisioning, mutant synthesis, four populate
rounds), and the fourth forces a reallocation of the first.  The event
loop, the hosts and the client shim do most of the host work and the
switch a minority of it, so a data-path-only gain is diluted here and a
change to ``repro.sim`` or ``repro.client`` shows.

The primary operation is one answered request, sampled per 20 ms slice
of simulated time; the second path is one tenant's join: the slices in
which its allocation request is admitted and its response (and the
reallocation notices) are handled.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro import ActiveRmtController, ActiveSwitch, SwitchConfig
from repro.controller import AdmissionService
from repro.device import SimDevice
from repro.packets import MacAddress
from repro.sim import CacheClientHost, EventLoop, KVServerHost, SimNetwork, SimProvisioner
from repro.workloads import ZipfKeyGenerator

from bench.device import TimedDevice
from bench.trace import probed
from bench.workloads.common import (
    Round,
    attach_analysis,
    attach_controller,
    attach_switch,
    control_layers,
    per_call,
    plan_split,
)

_perf = time.perf_counter

SERVER = MacAddress.from_host_id(2)
CLIENTS = 4
NUM_KEYS = 20_000
INTERVAL_S = 500e-6
#: Simulated seconds advanced per timed ``run_until`` call.
SLICE_S = 0.02
#: Simulated seconds every admission's planning takes.
COMPUTE_S = 0.002


class ModeledCompute:
    """The inline admission service, reporting :data:`COMPUTE_S` as planning time.

    The controller reports the host time its planner took, and
    ``SimProvisioner`` sends the response that long after the request:
    simulated time would depend on the machine, a few requests would
    fall on the other side of each response from run to run, and about
    one round in 300 would lose a request in the reallocation window.
    With the planning time modeled like the table update beside it, the
    simulation is a function of the seed, so hits repeat exactly.
    """

    def __init__(self, inner: AdmissionService) -> None:
        self.inner = inner

    def submit_and_wait(self, request: Any) -> Any:
        report = self.inner.submit_and_wait(request)
        report.compute_seconds = COMPUTE_S
        return report


class ReplayKeys(ZipfKeyGenerator):
    """A Zipf source that deals pre-drawn keys and counts the requests.

    Drawing the keys during set-up keeps the generator's cost out of
    the measured loop; the count is the number of requests sent, which
    the every-request-answered check needs.
    """

    def __init__(self, seed: int, count: int) -> None:
        super().__init__(NUM_KEYS, alpha=0.99, seed=seed)
        self.keys = self.sample_keys(count)
        self.sent = 0

    def sample_key(self) -> bytes:
        key = self.keys[self.sent]
        self.sent += 1
        return key


def run_round(scale: str, seed: int, tracer: Any, check: bool) -> Tuple[Round, Dict[str, Optional[float]]]:
    rnd = Round(tracer)
    round_began = _perf()
    stagger = 0.1 if scale == "smoke" else 1.0
    duration = stagger * CLIENTS
    requests_each = int(duration / INTERVAL_S) + 16

    start = _perf()
    rnd.setup_speed.read()
    with tracer.span("bench.setup"):
        loop = EventLoop()
        switch = ActiveSwitch(SwitchConfig(words_per_stage=4096))
        if tracer.enabled:
            controller = ActiveRmtController(TimedDevice(SimDevice(switch), tracer))
        else:
            controller = ActiveRmtController(switch)
        network = SimNetwork(loop, switch)
        server = KVServerHost(SERVER, loop=loop)
        network.attach(server, 2)
        service = AdmissionService(controller, workers=0)
        provisioner = SimProvisioner(
            loop, network, controller, horizon_s=duration + 1.0, service=ModeledCompute(service)
        )
        clients: List[CacheClientHost] = []
        for index in range(CLIENTS):
            with tracer.span("workloads.zipf"):
                keys = ReplayKeys(seed * 16 + index, requests_each)
            client = CacheClientHost(
                mac=MacAddress.from_host_id(10 + index),
                server_mac=SERVER,
                switch_mac=controller.mac,
                fid=index + 1,
                loop=loop,
                workload=keys,
                request_interval_s=INTERVAL_S,
            )
            network.attach(client, 10 + index)
            clients.append(client)
        joins = [0.01 + stagger * index for index in range(CLIENTS)]
        for client, when in zip(clients, joins):
            client.start_requests()
            loop.schedule_at(when, client.request_cache_allocation)
        if tracer.enabled:
            attach_controller(tracer, controller)
            attach_analysis(tracer, controller)
            attach_switch(tracer, switch)
            tracer.shadow(switch, "receive", "switchsim.receive_scalar")
            tracer.shadow(service, "submit", "controller.service_inline")
            tracer.shadow(controller, "commit_plan", "controller.commit_plan")
            tracer.shadow(server, "on_packet", "sim.server_on_packet")
            for client in clients:
                tracer.shadow(client, "on_packet", "sim.client_on_packet")
                tracer.shadow(client.cache, "query_packet", "apps.query_packet")
                tracer.shadow(client.shim.compiler, "synthesize", "client.compile_mutant")
                tracer.shadow(client.shim.compiler, "relink", "client.compile_mutant")
        elif probed(switch, "receive"):
            raise RuntimeError("a probe is installed in a measured round")
    rnd.setup_speed.read()
    rnd.set_up(start, _perf())

    # -- the measured loop: simulated time in fixed slices ---------------
    log = provisioner.provisioning_log
    handshakes: Dict[int, float] = {}
    answered = 0
    mutants = [client.cache.synthesized for client in clients]
    now = 0.0
    rnd.speed.read()
    try:
        while now < duration - 1e-9:
            rnd.speed.tick()
            now = min(duration, now + SLICE_S)
            admitted = len(log)
            began = _perf()
            with tracer.span("sim.run_until"):
                loop.run_until(now)
            took = _perf() - began
            total = sum(len(client.events) for client in clients)
            current = [client.cache.synthesized for client in clients]
            if len(log) != admitted or any(a is not b for a, b in zip(current, mutants)):
                # A handshake slice: a request was admitted, or a response
                # or reallocation notice made a client (re)link its mutant.
                took = rnd.speed.ref(took)
                rnd.stream_s += took
                rnd.ops += total - answered
                handshakes[len(log)] = handshakes.get(len(log), 0.0) + took
            elif total > answered:
                rnd.timed(took, total - answered)
            answered, mutants = total, current
        rnd.speed.read()
        for client in clients:
            client.stop_requests()
        # Requests in flight when the clock stopped still get their answer.
        loop.run_until(duration + 0.01)
    except Exception:
        rnd.crashed("event loop")
    rnd.second_us.extend(took * 1e6 for took in handshakes.values())

    sent = sum(client.workload.sent for client in clients)
    answered = sum(len(client.events) for client in clients)
    rnd.attempted += sent
    rnd.fail(sent - answered, "requests left unanswered")
    rnd.fail(switch.stats()["pipeline"]["faults"], "FAULT in the pipeline")
    provisioned = [entry for entry in provisioner.provisioning_log if entry["success"]]
    rnd.check(len(provisioned) == CLIENTS, "not every tenant was provisioned")
    rnd.check(
        any(entry["reallocated"] for entry in provisioned),
        "no admission forced a reallocation",
    )
    tail = duration - stagger / 2
    hit_rates = [client.hit_rate_since(tail) for client in clients]
    modeled = sorted(
        entry["table_update_seconds"] + entry["snapshot_seconds"] for entry in provisioned
    )
    rnd.exact = {
        "sent": sent,
        "hits": sum(hit for client in clients for _when, hit in client.events),
        "events": loop.processed,
        "provisioned": len(provisioned),
        "modeled_provision_s_p50": modeled[len(modeled) // 2] if modeled else 0.0,
        "kv_hit_rate": sum(hit_rates) / len(hit_rates),
    }
    if not tracer.enabled:
        return rnd, {}
    tracer.detach()
    rnd.wall_s = _perf() - round_began
    totals = tracer.totals()
    layers = control_layers(totals, len(provisioned))
    plan_split([controller], layers)
    run_s = totals.get("sim.run_until", [0, 0.0])[1]
    layers.update(
        {
            "sim.events_per_s": loop.processed / run_s if run_s else None,
            "sim.host_us_per_request": per_call(totals, "sim.run_until", 1e6, over=answered),
            "client.compile_mutant_ms": per_call(totals, "client.compile_mutant", 1e3),
            "client.compile_calls": totals.get("client.compile_mutant", [0])[0],
            "apps.query_packet_us": per_call(totals, "apps.query_packet", 1e6),
            "apps.kv_hit_rate": rnd.exact["kv_hit_rate"],
            "workloads.zipf_us_per_key": per_call(
                totals, "workloads.zipf", 1e6, over=CLIENTS * requests_each
            ),
            "switchsim.receive_scalar_us": per_call(totals, "switchsim.receive_scalar", 1e6),
            "switchsim.execute_us": per_call(totals, "switchsim.execute", 1e6, column=2),
            "switchsim.progcache_lookup_us": per_call(totals, "switchsim.progcache_lookup", 1e6),
            "switchsim.progcache_hit_rate": switch.stats()["program_cache"]["hit_rate"],
            "switchsim.progcache_evictions": switch.stats()["program_cache"]["evictions"],
            "switchsim.progcache_invalidations": switch.stats()["program_cache"]["invalidations"],
            "controller.modeled_provision_s_p50": rnd.exact["modeled_provision_s_p50"],
            "controller.admitted_share": len(provisioned) / CLIENTS,
        }
    )
    return rnd, layers
