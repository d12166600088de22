"""End-to-end telemetry: instrumented planes, exporters, CLI flag.

Drives real traffic and real admissions through a switch + controller
pair wired to one recording registry, then checks that the acceptance
surface holds: allocation-latency percentiles, per-FID packet
counters, and admission-outcome counts all appear in the JSON
snapshot, and the Prometheus exposition passes the line-format
validator.  Also exercises the experiments CLI's ``--stats-out`` and
``--trace-out``.
"""

import json

from repro import telemetry
from repro.apps.base import EXEMPLAR_APPS
from repro.controller.controller import ActiveRmtController
from repro.isa import assemble
from repro.packets import ActivePacket, MacAddress
from repro.switchsim import ActiveSwitch, StageGrant, SwitchConfig
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    find_spans,
    json_snapshot,
    prometheus_text,
)

from tests.test_telemetry import assert_valid_prometheus

CLIENT = MacAddress.from_host_id(1)
SERVER = MacAddress.from_host_id(2)

PROGRAM = assemble("MAR_LOAD $2\nMEM_READ\nRTS\nRETURN")
LONG_PROGRAM = assemble(
    "\n".join(["MAR_LOAD $2"] + ["NOP"] * 22 + ["RTS", "RETURN"])
)


def _instrumented_switch(registry, tracer=None):
    switch = ActiveSwitch(
        SwitchConfig(), telemetry=registry, tracer=tracer
    )
    switch.register_host(CLIENT, 1)
    switch.register_host(SERVER, 2)
    for fid in (1, 2):
        for stage in range(1, switch.config.num_stages + 1):
            switch.pipeline.stage(stage).table.install_grant(
                StageGrant(fid=fid, start=0, end=1024, mask=0xFF, offset=0)
            )
    return switch


def _packet(fid, program=PROGRAM):
    return ActivePacket.program(
        src=CLIENT,
        dst=SERVER,
        fid=fid,
        instructions=list(program),
        args=[0, 0, 17, 0],
    )


def test_instrumented_run_snapshot_and_exposition():
    registry = MetricsRegistry()
    tracer = Tracer(sample_rate=1.0, seed=7, capacity=64)
    switch = _instrumented_switch(registry, tracer)
    controller = ActiveRmtController(switch, telemetry=registry)

    # Data path: scalar and batched, two FIDs, one recirculating flow.
    switch.receive(_packet(1), in_port=1)
    switch.receive_batch([_packet(1), _packet(2), _packet(2, LONG_PROGRAM)], in_port=1)

    # Control plane: admissions until the elastic app stops fitting,
    # plus one withdrawal.
    pattern = EXEMPLAR_APPS["cache"].pattern()
    for fid in range(10, 16):
        controller.admit(fid=fid, pattern=pattern)
    controller.withdraw(fid=10)

    snapshot = json_snapshot(registry, trace=tracer)

    # Allocation-latency percentiles are present and sane.
    alloc = snapshot["histograms"]["allocator_allocation_seconds"]
    assert alloc["count"] == 6
    for key in ("p50", "p95", "p99"):
        assert alloc[key] >= 0.0

    # Per-FID packet counters saw both FIDs; FID 1 got 2 packets.
    counters = snapshot["counters"]
    assert counters['datapath_fid_packets_total{fid="1"}'] == 2
    assert counters['datapath_fid_packets_total{fid="2"}'] == 2
    # The 25-instruction program recirculated at least once.
    assert counters['datapath_fid_recirculations_total{fid="2"}'] >= 1

    # Admission outcomes are counted.
    assert counters['controller_admissions_total{outcome="admitted"}'] >= 1
    admitted = counters['controller_admissions_total{outcome="admitted"}']
    rejected = counters.get(
        'controller_admissions_total{outcome="no_feasible_mutant"}', 0
    )
    assert admitted + rejected == 6
    assert counters["controller_withdrawals_total"] == 1
    assert counters["table_entries_installed_total"] > 0

    # Batch-size histogram observed the one 3-packet batch.
    assert snapshot["histograms"]["datapath_batch_size"]["count"] == 1

    # Collector-backed gauges mirror the live data path.
    gauges = snapshot["gauges"]
    assert gauges["datapath_packets"] == switch.packets
    assert gauges["datapath_digest_queue_depth"] == switch.digests_pending
    assert gauges["progcache_hits"] == switch.stats()["program_cache"]["hits"]

    # Every packet was traced (rate 1.0), through both front doors,
    # with duration + attributes.
    events = snapshot["traces"]["events"]
    assert len(events) == 4
    assert all(event["name"] == "datapath.packet" for event in events)
    assert all(event["duration_s"] >= 0.0 for event in events)
    assert {event["attrs"]["fid"] for event in events} == {1, 2}
    assert all(event["attrs"]["kind"] == "program" for event in events)

    # The whole snapshot is JSON-serializable as-is.
    json.dumps(snapshot)

    # And the Prometheus exposition parses line by line.
    assert_valid_prometheus(prometheus_text(registry))


def test_trace_sampling_is_deterministic_per_seed():
    def traced_fids(seed):
        registry = MetricsRegistry()
        tracer = Tracer(sample_rate=0.5, seed=seed, capacity=256)
        switch = _instrumented_switch(registry, tracer)
        switch.receive_batch([_packet(1) for _ in range(40)], in_port=1)
        return [s.attrs["fid"] for s in find_spans(tracer.spans(), "datapath.packet")]

    first = traced_fids(seed=21)
    second = traced_fids(seed=21)
    assert first == second
    assert 0 < len(first) < 40  # sampled, not all-or-nothing


def test_zero_sample_rate_traces_nothing():
    registry = MetricsRegistry()
    tracer = Tracer(sample_rate=0.0, seed=3)
    switch = _instrumented_switch(registry, tracer)
    switch.receive_batch([_packet(1) for _ in range(20)], in_port=1)
    switch.receive(_packet(2), in_port=1)
    assert len(tracer) == 0
    # Metrics still flow even though no packet was traced.
    snap = registry.snapshot()
    assert snap["counters"]['datapath_fid_packets_total{fid="1"}'] == 20


def test_default_switch_records_nothing_globally():
    """The default (null) registry keeps the data path telemetry-free."""
    assert telemetry.get_registry().enabled is False
    switch = ActiveSwitch(SwitchConfig())
    switch.register_host(CLIENT, 1)
    switch.register_host(SERVER, 2)
    switch.receive(_packet(1), in_port=1)
    assert switch.telemetry.enabled is False
    assert switch.telemetry.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }


def test_cli_stats_out_writes_snapshot(tmp_path):
    from repro.experiments import cli

    stats_file = tmp_path / "stats.json"
    assert cli.main(["fig12", "--quick", "--stats-out", str(stats_file)]) == 0
    snapshot = json.loads(stats_file.read_text())
    assert snapshot["histograms"]["allocator_allocation_seconds"]["count"] > 0
    assert any(
        key.startswith("controller_admissions_total")
        for key in snapshot["counters"]
    )
    # The run must not leave a recording registry installed globally.
    assert telemetry.get_registry().enabled is False


def test_cli_stats_out_prometheus_format(tmp_path):
    from repro.experiments import cli

    stats_file = tmp_path / "stats.prom"
    assert cli.main(["fig12", "--quick", "--stats-out", str(stats_file)]) == 0
    assert_valid_prometheus(stats_file.read_text())


def test_cli_trace_out_joins_sampled_packets_to_their_commit(tmp_path):
    """README "Causal tracing": a ``--trace-out`` run samples data-path
    packets and parents them on the commit that installed the layout."""
    from repro.experiments import cli

    trace_file = tmp_path / "trace.jsonl"
    cli.run_experiment("fig9a", quick=True, trace_out=str(trace_file))
    spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    by_id = {span["span_id"]: span for span in spans}
    packets = [span for span in spans if span["name"] == "datapath.packet"]
    assert packets
    for packet in packets:
        assert by_id[packet["parent_id"]]["name"].startswith("controller.")
    # The run must not leave a recording tracer installed globally.
    assert telemetry.get_tracer().enabled is False
