"""Hot-path throughput: program cache on vs off (EXPERIMENTS.md).

A repeated-mutant workload -- a handful of FIDs each replaying a small
set of compiled mutants, the steady state of every paper experiment --
is pushed through two identically provisioned switches: one with the
per-program decode/trace cache enabled (the default) and one with it
disabled (``program_cache_entries=0``).  The cached data path must
produce byte-identical results (dispositions, PHV values, emitted
packets, register state) and hit its cache; the cached/uncached
packets-per-second ratio is printed, not asserted -- what the cache buys
is owned by the repository benchmark's ``dp_wide`` / ``dp_hot``
``ops_per_s`` under BENCHMARK.json's bounds (EXPERIMENTS.md).

Set ``ACTIVERMT_BENCH_SMOKE=1`` to run in smoke mode: every equality
and hit-rate assertion still applies, but the timing gates the ledger
does not cover yet (verifier compile overhead and telemetry-on overhead
below) are skipped, for CI machines with noisy clocks.
"""

import os
import time

from repro.isa import assemble
from repro.packets import ActivePacket, MacAddress
from repro.packets.codec import encode_packet
from repro.switchsim import ActiveSwitch, StageGrant, SwitchConfig

CLIENT = MacAddress.from_host_id(1)
SERVER = MacAddress.from_host_id(2)

SMOKE = os.environ.get("ACTIVERMT_BENCH_SMOKE", "") not in ("", "0")

#: The mutant set each FID replays (program order is the cache key).
MUTANTS = [
    assemble(
        """
        MAR_LOAD $2
        MEM_READ
        MBR_EQUALS_DATA_1
        CRET
        MEM_READ
        MBR_EQUALS_DATA_2
        CRET
        RTS
        MEM_READ
        MBR_STORE $0
        RETURN
        """,
        name="cache-query",
    ),
    assemble(
        """
        MBR_LOAD $0
        COPY_HASHDATA_MBR
        HASH
        ADDR_MASK
        ADDR_OFFSET
        MEM_INCREMENT
        RETURN
        """,
        name="counter",
    ),
    assemble(
        "\n".join(
            ["MAR_LOAD $2"]
            + ["MEM_READ", "NOP"] * 8
            + ["RTS", "RETURN"]
        ),
        name="scan",
    ),
]

FIDS = (1, 2, 3, 4)


def _provisioned_switch(cache_entries, telemetry=None, tracer=None):
    switch = ActiveSwitch(
        SwitchConfig(program_cache_entries=cache_entries),
        telemetry=telemetry,
        tracer=tracer,
    )
    switch.register_host(CLIENT, 1)
    switch.register_host(SERVER, 2)
    for fid in FIDS:
        for stage in range(1, switch.config.num_stages + 1):
            switch.pipeline.stage(stage).table.install_grant(
                StageGrant(fid=fid, start=0, end=1024, mask=0xFF, offset=0)
            )
    # Seed the buckets the cache-query mutant probes.
    for stage in (2, 5, 9):
        switch.pipeline.stage(stage).registers.write(17, 0xAAAA0001)
    return switch


def _workload(repeats):
    """(packet, port) pairs: FIDs round-robin over their mutant set."""
    items = []
    for rep in range(repeats):
        for fid in FIDS:
            program = MUTANTS[rep % len(MUTANTS)]
            items.append(
                (
                    ActivePacket.program(
                        src=CLIENT,
                        dst=SERVER,
                        fid=fid,
                        instructions=list(program),
                        args=[0xAAAA0001, 0xBBBB0002, 17, 0],
                    ),
                    1,
                )
            )
    return items


def _run(switch, repeats):
    packets = _workload(repeats)
    start = time.perf_counter()
    result = switch.receive_batch(packets)
    elapsed = time.perf_counter() - start
    return result, len(packets) / elapsed


def test_hotpath_cached_vs_uncached_equality():
    cached = _provisioned_switch(cache_entries=256)
    uncached = _provisioned_switch(cache_entries=0)
    cached_result = cached.receive_batch(_workload(repeats=30))
    uncached_result = uncached.receive_batch(_workload(repeats=30))

    assert cached_result.packets == uncached_result.packets
    for field in ("forwarded", "returned", "dropped", "faulted"):
        assert getattr(cached_result, field) == getattr(uncached_result, field)
    assert len(cached_result.outputs) == len(uncached_result.outputs)
    for a, b in zip(cached_result.outputs, uncached_result.outputs):
        assert a.port == b.port
        assert encode_packet(a.packet) == encode_packet(b.packet)
        if a.result is not None:
            assert a.result.phv == b.result.phv
            assert a.result.disposition is b.result.disposition
    for stage_a, stage_b in zip(cached.pipeline.stages, uncached.pipeline.stages):
        assert stage_a.registers._cells == stage_b.registers._cells
    assert cached.pipeline.program_cache.stats()["hit_rate"] >= 0.9


def test_hotpath_throughput_ratio_is_reported():
    cached = _provisioned_switch(cache_entries=256)
    uncached = _provisioned_switch(cache_entries=0)

    # Warm-up: populate the cache and JIT-warm both interpreters.
    cached.receive_batch(_workload(repeats=3))
    uncached.receive_batch(_workload(repeats=3))

    _, uncached_pps = _run(uncached, repeats=250)
    _, cached_pps = _run(cached, repeats=250)

    stats = cached.pipeline.program_cache.stats()
    assert stats["hit_rate"] > 0, "repeated mutants must hit the cache"
    print(
        f"\nhot path: cached {cached_pps:,.0f} pps / "
        f"uncached {uncached_pps:,.0f} pps "
        f"({cached_pps / uncached_pps:.2f}x, hit rate {stats['hit_rate']:.3f})"
    )


def test_verifier_compile_overhead():
    """Static verification must stay cheap on the compile path.

    ``compile_mutant`` runs in the allocation-response handler, so the
    default-on ``warn`` verification rides on a latency-sensitive path.
    This pins its cost: full analysis (CFG + dataflow + region checks)
    adds less than 20% to the verify-off compile time.  Smoke mode
    still compiles both ways (exercising the verifier) but skips the
    ratio gate, matching the other timing tests.
    """
    from repro.client import compile_mutant
    from repro.packets import AllocationResponseHeader, StageRegion

    repeats = 50 if SMOKE else 300
    trials = 2 if SMOKE else 7
    program = MUTANTS[0]  # cache-query: 3 accesses, branches, RTS
    response = AllocationResponseHeader.from_map(
        {2: StageRegion(0, 1024), 5: StageRegion(0, 1024), 9: StageRegion(0, 1024)}
    )

    def _compile_loop(verify):
        start = time.perf_counter()
        for _ in range(repeats):
            synthesized = compile_mutant(program, response, verify=verify)
        return time.perf_counter() - start, synthesized

    # Warm-up both paths (imports, first-call analysis caches).
    _compile_loop("off")
    _compile_loop("warn")

    # Paired trials: each off/warn pair runs back-to-back under the
    # same machine load, so the per-trial ratio cancels drift; the
    # median ratio then discards outlier windows entirely.
    ratios = []
    off_seconds = warn_seconds = 0.0
    for _ in range(trials):
        off_seconds, off_result = _compile_loop("off")
        warn_seconds, warn_result = _compile_loop("warn")
        ratios.append(warn_seconds / off_seconds)

    # Same linked program either way; warn additionally carries a report.
    assert warn_result.program == off_result.program
    assert warn_result.mutant == off_result.mutant
    assert off_result.report is None
    assert warn_result.report is not None and not warn_result.report.has_errors

    overhead = sorted(ratios)[len(ratios) // 2] - 1.0
    print(
        f"\nverifier: compile off {off_seconds / repeats * 1e6:,.0f} us / "
        f"warn {warn_seconds / repeats * 1e6:,.0f} us "
        f"(+{overhead:.1%})"
    )
    if not SMOKE:
        assert overhead < 0.20, (
            f"verification added {overhead:.1%} to compile_mutant "
            f"({warn_seconds / repeats * 1e6:,.0f} vs "
            f"{off_seconds / repeats * 1e6:,.0f} us)"
        )


def test_telemetry_overhead():
    """Disabled telemetry must stay ~free; 0%-sampling must stay cheap.

    The default data path runs against the inert NullRegistry and pays
    one predicate per batch; this test pins that contract two ways:

    1. Disabled mode makes NO registry observations at all (checked
       exactly, no timing involved -- this is the <5% overhead
       guarantee's enforcement: no recorded work, just dead branches).
    2. Enabled-at-0%-sampling -- the CI smoke configuration -- keeps
       throughput within 25% of disabled mode (looser than the 5%
       budget purely for shared-runner clock noise; typical local
       ratios are well under 5%).

    The tracer rides the same contract: with tracing off the switch
    resolves the inert NULL_TRACER and records nothing, and a recording
    tracer records no data-path spans unless its sampler selects the
    packet (the default 0% sampling means zero span traffic).
    """
    from repro.telemetry import MetricsRegistry, NULL_TRACER, Tracer

    repeats = 40 if SMOKE else 150
    trials = 2 if SMOKE else 7

    disabled = _provisioned_switch(cache_entries=256)
    assert disabled.telemetry.enabled is False
    # Tracing off: the switch resolved the inert process default.
    assert disabled.tracer is NULL_TRACER
    assert disabled.tracer.enabled is False

    registry = MetricsRegistry()
    tracer = Tracer()
    enabled = _provisioned_switch(
        cache_entries=256, telemetry=registry, tracer=tracer
    )

    disabled.receive_batch(_workload(repeats=3))
    enabled.receive_batch(_workload(repeats=3))

    # Paired trials, as in test_verifier_compile_overhead: each
    # disabled/enabled pair runs back-to-back under the same machine
    # load and the median per-trial ratio is the measurement.  Timing
    # each switch once, one after the other, measured which ran second
    # (four runs read 2.41x, 2.14x, 1.90x, 2.21x "in favour of" the
    # enabled switch).
    ratios = []
    disabled_pps = enabled_pps = 0.0
    for _ in range(trials):
        _, disabled_pps = _run(disabled, repeats)
        _, enabled_pps = _run(enabled, repeats)
        ratios.append(enabled_pps / disabled_pps)

    # 1. Disabled mode left the null registry untouched.
    assert disabled.telemetry.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    # ...while the enabled switch recorded per-FID counters.
    fid_counters = [
        key
        for key in registry.snapshot()["counters"]
        if key.startswith("datapath_fid_packets_total")
    ]
    assert len(fid_counters) == len(FIDS)
    # 0% packet sampling means zero data-path spans even with a live
    # tracer attached (and the null path recorded none at all).
    assert len(tracer.spans()) == 0
    assert disabled.tracer.recorded == 0

    ratio = sorted(ratios)[len(ratios) // 2]
    print(
        f"\ntelemetry: disabled {disabled_pps:,.0f} pps / "
        f"enabled@0% {enabled_pps:,.0f} pps in the last trial; "
        f"median ratio of {trials}: {ratio:.3f}x"
    )
    if not SMOKE:
        assert ratio >= 0.75, (
            f"telemetry at 0% sampling cost {(1 - ratio):.0%} throughput "
            f"({enabled_pps:,.0f} vs {disabled_pps:,.0f} pps)"
        )
