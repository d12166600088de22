"""``dp_hot`` and ``dp_wide``: the data path, program cache hot and cold.

Both push pre-built program packets through ``ActiveSwitch.receive_batch``
(the primary path) and then wire bytes through ``decode_packet`` ->
``receive_batch`` -> ``encode_packet(shrink=True)`` (the second path).
They differ in the one input property the switch's own cache depends
on: ``dp_hot`` replays 22 distinct programs against a 256-entry program
cache, ``dp_wide`` cycles more tenants than the cache has entries, so
the LRU never hits and every packet pays digest, decode and specialise.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import (
    ActiveRmtController,
    ActiveSwitch,
    ProvisioningRequest,
    SwitchConfig,
    compile_mutant,
)
from repro.apps import EXEMPLAR_APPS, CacheClient, CheetahLbClient, HeavyHitterClient
from repro.client import ClientShim
from repro.device import SimDevice
from repro.isa import assemble, decode_program, encode_program
from repro.packets import ActivePacket, MacAddress, decode_packet, encode_packet
from repro.workloads import ZipfKeyGenerator

from bench.device import TimedDevice
from bench.inputs import zipf_ranks
from bench.trace import NULL_TRACER, probed
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
SERVER_PORT = 2
NUM_KEYS = 10_000
#: Packets of the sample compared against the cache-disabled switch.
SAMPLE = 2048
#: Client hosts the tenants are spread over (one MAC and port each).
CLIENT_HOSTS = 8


@dataclasses.dataclass(frozen=True)
class DpSpec:
    name: str
    tenants: Tuple[str, ...]
    #: Provision by the wire handshake (request packet -> digest ->
    #: controller -> response -> shim); else ``submit`` + ``compile_mutant``.
    handshake: bool
    #: Hottest keys installed per cache; 0 leaves the caches cold.
    populate: int
    cache_entries: int
    templates: int
    packets: int
    batch: int
    wire_packets: int


def spec(name: str, scale: str) -> DpSpec:
    smoke = scale == "smoke"
    if name == "dp_hot":
        return DpSpec(
            name=name,
            tenants=("cache",) * 4 + ("heavy-hitter",) * 2 + ("load-balancer",) * 2,
            handshake=True,
            populate=64 if smoke else 1024,
            cache_entries=256,
            templates=1024 if smoke else 16384,
            packets=2048 if smoke else 98304,
            batch=256,
            wire_packets=512 if smoke else 4096,
        )
    # More tenants than cache entries, visited round-robin: an LRU
    # evicts each program just before its tenant's next packet.
    return DpSpec(
        name=name,
        tenants=("cache",) * (40 if smoke else 288),
        handshake=False,
        populate=0,
        cache_entries=32 if smoke else 256,
        templates=640 if smoke else 4608,
        packets=1280 if smoke else 18432,
        batch=32,
        wire_packets=640 if smoke else 1728,
    )


@dataclasses.dataclass
class World:
    switch: Any
    controller: Any
    clients: List[Tuple[str, Any, int]]
    templates: List[Tuple[ActivePacket, int]]
    wire: List[Tuple[bytes, int]]


def _valid_keys(client: CacheClient, universe: List[bytes]) -> List[bytes]:
    """Keys whose bucket is granted in all three access stages.

    The cache program reads one bucket index in three stages; with
    inelastic co-tenants the three regions are not congruent, and a
    bucket outside their intersection faults by design.  The contract
    asks for inputs on which no operation fails, so keys are drawn from
    the intersection.
    """
    synth = client.synthesized
    regions = [synth.region_for_access(index) for index in range(3)]
    valid = []
    for key in universe:
        address = synth.translate(0, client.bucket_for(key))
        if all(region.contains(address) for region in regions):
            valid.append(key)
    return valid


def build(spec: DpSpec, seed: int, tracer: Any, rnd: Round, cache_entries: int) -> World:
    """Provision the tenants and generate the packet templates."""
    switch = ActiveSwitch(SwitchConfig(program_cache_entries=cache_entries))
    if tracer.enabled:
        controller = ActiveRmtController(TimedDevice(SimDevice(switch), tracer))
        attach_controller(tracer, controller)
        attach_analysis(tracer, controller)
    else:
        controller = ActiveRmtController(switch)
    switch.register_host(SERVER, SERVER_PORT)
    hosts = [(MacAddress.from_host_id(10 + i), 10 + i) for i in range(CLIENT_HOSTS)]
    for mac, port in hosts:
        switch.register_host(mac, port)

    # -- admit ----------------------------------------------------------
    synthesized: Dict[int, Any] = {}
    shims: Dict[int, ClientShim] = {}
    for index, kind in enumerate(spec.tenants):
        fid = index + 1
        mac, port = hosts[index % CLIENT_HOSTS]
        app = EXEMPLAR_APPS[kind]
        pattern, program = app.pattern(), app.program()
        rnd.setup_speed.tick()
        try:
            if spec.handshake:
                shim = ClientShim(
                    mac, controller.mac, fid, program, demands=list(pattern.demands)
                )
                # The wire request cannot carry same-stage aliases; the
                # shim synthesises against the full pattern.
                shim.pattern = pattern
                shims[fid] = shim
                if tracer.enabled:
                    tracer.shadow(shim.compiler, "synthesize", "client.compile_mutant")
                    tracer.shadow(shim.compiler, "relink", "client.compile_mutant")
                with tracer.span("switchsim.receive_digest"):
                    switch.receive(shim.request_allocation(), port)
                with tracer.span("controller.process_pending"):
                    replies = controller.process_pending()
                for reply in replies:
                    shims[reply.fid].handle_packet(reply)
                rnd.check(shim.can_transmit, f"fid {fid} ({kind}) not provisioned")
            else:
                with tracer.span("controller.submit"):
                    report = controller.submit(
                        ProvisioningRequest.admission(fid, pattern, program=program)
                    )
                rnd.check(report.success, f"fid {fid} refused: {report.reason}")
        except Exception:
            rnd.crashed(f"admit fid {fid}")
    for index, kind in enumerate(spec.tenants):
        fid = index + 1
        rnd.setup_speed.tick()
        try:
            if spec.handshake:
                synthesized[fid] = shims[fid].synthesized
            else:
                # After the last admission: elastic regions move until then.
                with tracer.span("client.compile_mutant"):
                    synthesized[fid] = compile_mutant(
                        EXEMPLAR_APPS[kind].program(),
                        controller.allocator.response_for(fid),
                    )
        except Exception:
            rnd.crashed(f"compile fid {fid}")

    # -- clients, cache contents ----------------------------------------
    universe = ZipfKeyGenerator(NUM_KEYS, seed=seed).top_keys(NUM_KEYS)
    clients: List[Tuple[str, Any, int]] = []
    keys_of: Dict[int, List[bytes]] = {}
    world = World(switch, controller, clients, [], [])
    for index, kind in enumerate(spec.tenants):
        fid = index + 1
        mac, port = hosts[index % CLIENT_HOSTS]
        if synthesized.get(fid) is None:
            continue
        rnd.setup_speed.tick()
        if kind == "cache":
            client = CacheClient(mac, SERVER, controller.mac, fid)
            client.attach(synthesized[fid])
            keys = universe
            if spec.populate:
                keys = _valid_keys(client, universe)
                rnd.check(bool(keys), f"cache fid {fid}: access regions do not intersect")
                if not keys:
                    continue
                weights = {key: len(keys) - rank for rank, key in enumerate(keys)}
                chosen = client.select_cacheable(weights, limit=spec.populate)
                writes = client.populate_packets(
                    [(key, int.from_bytes(key[4:], "big") + 1) for key in chosen]
                )
                with tracer.span("switchsim.populate"):
                    result = switch.receive_batch(writes, in_port=port)
                rnd.attempted += len(writes)
                rnd.fail(len(writes) - result.returned, f"populate fid {fid} not acknowledged")
            keys_of[fid] = keys
        elif kind == "heavy-hitter":
            client = HeavyHitterClient(mac, SERVER, controller.mac, fid)
            client.attach(synthesized[fid])
        else:
            client = CheetahLbClient(mac, SERVER, controller.mac, fid)
            client.attach(synthesized[fid])
            pool = client.install_pool_packets([SERVER_PORT] * 8)
            with tracer.span("switchsim.populate"):
                result = switch.receive_batch(pool, in_port=port)
            rnd.attempted += len(pool)
            rnd.fail(len(pool) - result.returned, f"pool fid {fid} not acknowledged")
        clients.append((kind, client, port))
    # -- packet templates (Zipf over the key universe) ------------------
    with tracer.span("workloads.zipf"):
        ranks = zipf_ranks(seed, spec.templates, NUM_KEYS)
    rnd.setup_speed.tick()
    with tracer.span("apps.query_packet"):
        for index, rank in enumerate(ranks):
            kind, client, port = clients[index % len(clients)]
            if kind == "cache":
                keys = keys_of[client.fid]
                packet = client.query_packet(keys[rank % len(keys)])
            elif kind == "heavy-hitter":
                packet = client.monitor_packet(universe[rank])
            else:
                packet = client.selection_packet(rank)
            world.templates.append((packet, port))
    # The wire phase follows the sample and the switch phase in one
    # round-robin over the templates, so a tenant's turn never comes
    # early (which would be a program-cache hit on dp_wide).
    rnd.setup_speed.tick()
    start = (min(SAMPLE, spec.templates) + spec.packets) % spec.templates
    world.wire = [
        (encode_packet(packet), port)
        for packet, port in (
            world.templates[(start + index) % spec.templates]
            for index in range(spec.wire_packets)
        )
    ]
    return world


def _fresh(chunk: List[Tuple[ActivePacket, int]]) -> List[Tuple[ActivePacket, int]]:
    """Execution mutates a packet in place: every send gets its own copy."""
    return [(packet.clone(), port) for packet, port in chunk]


def _same_outputs(mine: Any, theirs: Any) -> bool:
    if len(mine.outputs) != len(theirs.outputs) or mine.faulted != theirs.faulted:
        return False
    for a, b in zip(mine.outputs, theirs.outputs):
        if a.port != b.port or encode_packet(a.packet) != encode_packet(b.packet):
            return False
        if (a.result is None) != (b.result is None):
            return False
        if a.result is not None and (
            a.result.phv != b.result.phv or a.result.disposition is not b.result.disposition
        ):
            return False
    return True


def _same_registers(world: World, reference: World) -> bool:
    # Fresh adapters: the traced controller's device is a ledger of
    # what the controller did, not of what the checker reads.
    mine, theirs = SimDevice(world.switch), SimDevice(reference.switch)
    words = mine.config.words_per_stage
    return all(
        mine.read_registers(stage, 0, words) == theirs.read_registers(stage, 0, words)
        for stage in range(1, mine.config.num_stages + 1)
    )


def _instruction_probes(world: World, count: int) -> Dict[str, Optional[float]]:
    """Per-instruction cost by opcode class, by difference between programs.

    The NOP cost -- the interpreter's dispatch floor -- is the time a
    16-NOP program takes beyond an 8-NOP one, per NOP.  Each class is
    that floor plus the extra time per instruction of a 16-instruction
    program in which *k* NOPs are replaced by one opcode of the class.
    The memory program reads the start of a cache tenant's region in
    each of its access stages; its base program carries the same
    MAR_LOADs, so the difference is the reads alone.
    """
    length = 16
    cache = next(client for kind, client, _port in world.clients if kind == "cache")
    synth = cache.synthesized
    accesses = [
        (index, stage) for index, stage in enumerate(synth.access_stages) if 2 <= stage <= length
    ]
    loads = {stage - 1: f"MAR_LOAD ${index}" for index, stage in accesses}
    reads = {stage: "MEM_READ" for _index, stage in accesses}
    every = range(2, length + 1)
    programs = {
        "short": (length // 2, {}),
        "nop": (length, {}),
        "alu": (length, {p: "MBR_ADD_MBR2" for p in every}),
        "hash": (length, {p: "HASH $0" for p in every}),
        # MBR stays 0, so CRET never returns: a not-taken branch.
        "branch": (length, {p: "CRET" for p in every}),
        "membase": (length, loads),
        "mem": (length, {**loads, **reads}),
    }
    args = [synth.translate(index, 0) for index in range(len(synth.access_stages))]
    execute = world.switch.pipeline.execute
    templates = {}
    for name, (size, fill) in programs.items():
        lines = [fill.get(position, "NOP") for position in range(1, size + 1)]
        templates[name] = ActivePacket.program(
            src=cache.mac,
            dst=SERVER,
            fid=cache.fid,
            instructions=list(assemble("\n".join(lines + ["RETURN"]))),
            args=args,
        )
    # Differences of a few hundred ns per packet: interleave the
    # programs and keep each one's fastest of four passes (the first
    # also warms the program cache).
    seconds = {name: float("inf") for name in programs}
    for _ in range(4):
        for name, template in templates.items():
            packets = [template.clone() for _ in range(count)]
            start = _perf()
            for packet in packets:
                execute(packet)
            seconds[name] = min(seconds[name], _perf() - start)

    def extra_ns(name: str, base: str, replaced: int) -> float:
        return (seconds[name] - seconds[base]) / (count * replaced) * 1e9

    floor_ns = extra_ns("nop", "short", length - length // 2)
    return {
        "switchsim.ns_per_instr_nop": floor_ns,
        "switchsim.ns_per_instr_alu": floor_ns + extra_ns("alu", "nop", length - 1),
        "switchsim.ns_per_instr_hash": floor_ns + extra_ns("hash", "nop", length - 1),
        "switchsim.ns_per_instr_branch": floor_ns + extra_ns("branch", "nop", length - 1),
        "switchsim.ns_per_instr_mem": (
            floor_ns + extra_ns("mem", "membase", len(reads)) if reads else None
        ),
    }


def run_round(spec: DpSpec, seed: int, tracer: Any, check: bool) -> Tuple[Round, Dict[str, Optional[float]]]:
    """Set up, verify a sample against the uncached switch, measure."""
    rnd = Round(tracer)
    round_began = _perf()
    counters = {"instructions": 0, "passes": 0, "recirculations": 0, "executed": 0}

    def on_execute(result: Any) -> None:
        counters["executed"] += 1
        counters["instructions"] += result.executed_instructions
        counters["passes"] += result.passes
        counters["recirculations"] += result.recirculations

    start = _perf()
    rnd.setup_speed.read()
    with tracer.span("bench.setup"):
        world = build(spec, seed, tracer, rnd, spec.cache_entries)
    rnd.setup_speed.read()
    rnd.set_up(start, _perf())
    switch = world.switch
    if tracer.enabled:
        attach_switch(tracer, switch, on_execute)
    elif probed(switch.pipeline, "execute"):
        raise RuntimeError("a probe is installed in a measured round")

    # -- sample: byte-identical to the cache-disabled interpreter --------
    reference = None
    if check or tracer.enabled:
        with tracer.span("bench.check"):
            reference = build(spec, seed, NULL_TRACER, Round(), 0)
    interp_s = 0.0
    sample = world.templates[:SAMPLE]
    for offset in range(0, len(sample), spec.batch):
        chunk = sample[offset : offset + spec.batch]
        with tracer.span("switchsim.receive_batch"):
            mine = switch.receive_batch(_fresh(chunk))
        rnd.attempted += len(chunk)
        rnd.fail(mine.faulted, "unexpected FAULT in the sample")
        if reference is not None:
            with tracer.span("bench.check"):
                theirs_in = _fresh(chunk)
                began = _perf()
                theirs = reference.switch.receive_batch(theirs_in)
                interp_s += _perf() - began
                rnd.check(_same_outputs(mine, theirs), "sample differs from the uncached switch")
    if reference is not None:
        with tracer.span("bench.check"):
            rnd.check(
                _same_registers(world, reference), "registers differ from the uncached switch"
            )

    # -- primary path: pre-decoded packets through receive_batch ---------
    stats_before = switch.stats()
    templates = world.templates
    tally = {"forwarded": 0, "returned": 0, "dropped": 0, "faulted": 0}
    cursor = len(sample) % len(templates)
    rnd.speed.read()
    for _ in range(spec.packets // spec.batch):
        rnd.speed.tick()
        if cursor + spec.batch > len(templates):
            cursor = 0
        with tracer.span("bench.generate"):
            fresh = _fresh(templates[cursor : cursor + spec.batch])
        cursor += spec.batch
        began = _perf()
        with tracer.span("switchsim.receive_batch"):
            result = switch.receive_batch(fresh)
        rnd.timed(_perf() - began, spec.batch)
        for field in tally:
            tally[field] += getattr(result, field)
    rnd.attempted += rnd.ops
    rnd.fail(tally["faulted"], "unexpected FAULT on the switch path")

    # -- second path: bytes in, bytes out --------------------------------
    wire_bytes = 0
    wire_packets = 0
    emitted = 0
    for offset in range(0, len(world.wire), spec.batch):
        rnd.speed.tick()
        chunk = world.wire[offset : offset + spec.batch]
        began = _perf()
        with tracer.span("packets.decode"):
            decoded = [(decode_packet(data), port) for data, port in chunk]
        with tracer.span("switchsim.receive_batch"):
            result = switch.receive_batch(decoded)
        with tracer.span("packets.encode"):
            out = [encode_packet(output.packet, shrink=True) for output in result.outputs]
        rnd.timed_second(_perf() - began, len(chunk))
        wire_packets += len(chunk)
        wire_bytes += sum(len(data) for data, _port in chunk)
        emitted += len(out)
        rnd.fail(result.faulted, "unexpected FAULT on the wire path")
        rnd.fail(len(chunk) - len(out) - result.dropped, "wire packet not emitted")
    rnd.attempted += wire_packets
    rnd.speed.read()

    stats = switch.stats()
    cache, cache_before = stats["program_cache"], stats_before["program_cache"]
    lookups = (cache["hits"] + cache["misses"]) - (cache_before["hits"] + cache_before["misses"])
    rnd.exact = {
        **tally,
        "tenants": len(world.clients),
        "wire_packets": wire_packets,
        "wire_emitted": emitted,
        "progcache_hits": cache["hits"] - cache_before["hits"],
        "progcache_lookups": lookups,
        "recirculations": stats["pipeline"]["total_recirculations"]
        - stats_before["pipeline"]["total_recirculations"],
    }
    if not tracer.enabled:
        return rnd, {}

    # -- traced round only: per-layer numbers ----------------------------
    tracer.detach()
    rnd.wall_s = _perf() - round_began
    totals = tracer.totals()
    # Micro-probes, after the accounts are closed and the probes are
    # off: what they execute is not the workload's.  The collector
    # would walk the round's half a million spans on every pass (the
    # scalar path read 279 us a packet instead of 17), so it rests.
    scalar = _fresh(world.templates[: min(1024, len(world.templates))])
    blocks = [
        encode_program(client.synthesized.program) for _kind, client, _port in world.clients
    ]
    decodes = max(len(blocks), 2048 // len(blocks) * len(blocks))
    gc.disable()
    try:
        began = _perf()
        for packet, port in scalar:
            switch.receive(packet, port)
        scalar_s = _perf() - began
        began = _perf()
        for index in range(decodes):
            decode_program(blocks[index % len(blocks)])
        decode_s = _perf() - began
        layers = _instruction_probes(world, 256 if spec.packets < 5000 else 2048)
    finally:
        gc.enable()
    executed = counters["executed"] or 1
    layers.update(control_layers(totals, len(spec.tenants)))
    plan_split([world.controller], layers)
    layers.update(
        {
            "packets.decode_us": per_call(totals, "packets.decode", 1e6, over=wire_packets),
            "packets.encode_us": per_call(totals, "packets.encode", 1e6, over=emitted),
            "isa.decode_instr_us": decode_s / decodes * 1e6,
            "packets.wire_bytes_per_pkt": wire_bytes / wire_packets if wire_packets else None,
            "switchsim.progcache_lookup_us": per_call(totals, "switchsim.progcache_lookup", 1e6),
            "switchsim.progcache_hit_rate": (
                rnd.exact["progcache_hits"] / lookups if lookups else None
            ),
            "switchsim.progcache_evictions": cache["evictions"] - cache_before["evictions"],
            "switchsim.progcache_invalidations": cache["invalidations"],
            "switchsim.execute_us": per_call(totals, "switchsim.execute", 1e6, column=2),
            "switchsim.ns_per_instr": (
                totals["switchsim.execute"][2] / counters["instructions"] * 1e9
                if counters["instructions"] and "switchsim.execute" in totals
                else None
            ),
            "switchsim.instr_per_pkt": counters["instructions"] / executed,
            "switchsim.passes_per_pkt": counters["passes"] / executed,
            "switchsim.recirc_per_pkt": counters["recirculations"] / executed,
            "switchsim.receive_overhead_us": per_call(
                totals, "switchsim.receive_batch", 1e6, column=2,
                over=rnd.ops + wire_packets + len(sample),
            ),
            "switchsim.receive_scalar_us": scalar_s / len(scalar) * 1e6,
            "switchsim.interp_execute_us": interp_s / len(sample) * 1e6 if sample else None,
            "apps.query_packet_us": per_call(
                totals, "apps.query_packet", 1e6, over=len(world.templates)
            ),
            "workloads.zipf_us_per_key": per_call(
                totals, "workloads.zipf", 1e6, over=len(world.templates)
            ),
            "client.compile_mutant_ms": per_call(totals, "client.compile_mutant", 1e3),
            "client.compile_calls": totals.get("client.compile_mutant", [0])[0],
        }
    )
    return rnd, layers
