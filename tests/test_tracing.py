"""Causal span tracing: tree reconstruction, exporters, flight recorder.

The contracts under test:

- **Deterministic IDs**: trace/span IDs come from the injected
  :class:`IdSource` counters, so tests assert them literally.
- **Stack propagation**: a span parents on the innermost span open on
  its tracer, so every span of one control-plane request shares that
  request's trace ID, and parent links form a tree, its re-planned
  attempts included.
- **Control->data causality**: a sampled packet processed after a
  commit parents on the committing span (``Tracer.layout_context``).
- **Flight recorder**: each rollback dumps the full correlated span
  tree plus a pools fingerprint, and the acceptance rig reconstructs
  the chain request -> re-planned attempts -> journal replay -> first
  packet by IDs alone.
- The satellites: spans copy their attrs and the clock is injectable
  everywhere -- sampled packet spans included, which both switch front
  doors record through one helper.
"""

import json

import pytest

from repro.controller import (
    ActiveRmtController,
    AdmissionService,
    ProvisioningRequest,
    ProvisioningStatus,
)
from repro.controller.service import pools_fingerprint
from repro.device import SimDevice
from repro.faults import FaultKind, FaultyDevice
from repro.isa import assemble
from repro.packets import ActivePacket, MacAddress
from repro.switchsim import ActiveSwitch, SwitchConfig
from repro.telemetry import (
    NULL_SPAN,
    NULL_TRACER,
    FlightRecorder,
    IdSource,
    Span,
    Tracer,
    chrome_trace_events,
    dump_trace,
    find_spans,
    span_tree,
    spans_to_jsonl,
    validate_chrome_trace,
)

from tests.test_core_constraints import listing1_pattern
from tests.test_faults import ScriptedPlan

CLIENT = MacAddress.from_host_id(1)
SERVER = MacAddress.from_host_id(2)

PROGRAM = assemble("MAR_LOAD $2\nMEM_READ\nRTS\nRETURN")


class FakeClock:
    """Deterministic monotonic clock for exact-duration assertions."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def _admission(fid: int) -> ProvisioningRequest:
    return ProvisioningRequest.admission(fid=fid, pattern=listing1_pattern())


def _packet(fid: int) -> ActivePacket:
    return ActivePacket.program(
        src=CLIENT,
        dst=SERVER,
        fid=fid,
        instructions=list(PROGRAM),
        args=[0, 0, 17, 0],
    )


def _traced_controller(tracer, plan=None, **config_kwargs):
    """Controller + switch pair sharing one tracer (built with
    ``sample_rate=1.0`` where data-path continuation is observed); a
    fault *plan* puts a :class:`FaultyDevice` between them."""
    switch = ActiveSwitch(SwitchConfig(**config_kwargs), tracer=tracer)
    switch.register_host(CLIENT, 1)
    switch.register_host(SERVER, 2)
    if plan is None:
        return ActiveRmtController(switch, tracer=tracer)
    return ActiveRmtController(FaultyDevice(SimDevice(switch), plan), tracer=tracer)


# ----------------------------------------------------------------------
# IDs, spans, and the tracer core
# ----------------------------------------------------------------------


def test_id_source_is_deterministic():
    ids = IdSource()
    assert ids.next_trace_id() == "t-000001"
    assert ids.next_trace_id() == "t-000002"
    assert ids.next_span_id() == "s-00000001"
    assert ids.next_span_id() == "s-00000002"
    # A fresh source restarts the sequence: no ambient state.
    assert IdSource().next_trace_id() == "t-000001"


def test_root_and_child_spans_share_trace_exact_durations():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("controller.admit", fid=7) as root:
        assert root.trace_id == "t-000001"
        assert root.span_id == "s-00000001"
        assert root.parent_id is None
        assert root.in_flight
        clock.tick(0.5)
        with tracer.span("allocator.plan") as child:
            assert child.trace_id == root.trace_id
            assert child.parent_id == root.span_id
            clock.tick(0.25)
        # The closed child parents nothing: its sibling hangs off the root.
        with tracer.span("allocator.commit") as sibling:
            assert (sibling.trace_id, sibling.parent_id) == (root.trace_id, root.span_id)
        clock.tick(0.25)

    assert child.duration_s == pytest.approx(0.25)
    assert root.duration_s == pytest.approx(1.0)
    assert tracer.recorded == 3
    # With nothing open, the next span starts a new trace.
    with tracer.span("controller.admit") as other:
        assert (other.trace_id, other.parent_id) == ("t-000002", None)


def test_span_context_manager_records_error_and_reraises():
    tracer = Tracer(clock=FakeClock())
    with pytest.raises(ValueError, match="boom"):
        with tracer.span("controller.commit_plan", fid=3):
            raise ValueError("boom")
    (span,) = tracer.spans()
    assert not span.in_flight
    assert span.attrs["error"] == "ValueError: boom"
    assert span.attrs["fid"] == 3
    # The raising span left the stack: the next one is a root.
    with tracer.span("controller.commit_plan") as after:
        assert after.parent_id is None


def test_record_span_fast_path_parents_and_explicit_trace():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("controller.commit_plan") as parent:
        pass
    packet = tracer.record_span(
        "datapath.packet", start_s=1.0, end_s=2.5, parent=parent, fid=9
    )
    assert packet.trace_id == parent.trace_id
    assert packet.parent_id == parent.span_id
    assert packet.duration_s == pytest.approx(1.5)
    # Explicit trace_id pins the trace without a parent link.
    loose = tracer.record_span(
        "datapath.packet", start_s=0.0, end_s=0.1, trace_id="t-000042"
    )
    assert (loose.trace_id, loose.parent_id) == ("t-000042", None)


def test_tracer_ring_evicts_oldest_and_counts_drops():
    tracer = Tracer(capacity=2, clock=FakeClock())
    for index in range(3):
        tracer.record_span(f"op{index}", start_s=float(index), end_s=float(index))
    spans = tracer.spans()
    assert [s.name for s in spans] == ["op1", "op2"]
    assert tracer.dropped == 1
    assert tracer.recorded == 3
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_spans_include_live_and_spans_for_filters():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("admission.request"):
        pass
    with tracer.span("admission.request") as root:
        # The in-flight root is visible -- flight dumps fired
        # mid-request rely on this.
        assert root in tracer.spans()
        assert root not in tracer.spans(include_live=False)
        assert tracer.spans_for(root.trace_id) == [root]
        assert len(tracer) == 2
    tracer.clear()
    assert len(tracer) == 0


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.record_span("x", start_s=0.0, end_s=1.0) is NULL_SPAN
    with NULL_TRACER.span("x") as span:
        assert span is NULL_SPAN
        assert span.set(fid=1) is NULL_SPAN
    assert NULL_SPAN.attrs == {}
    assert NULL_TRACER.spans() == []
    assert NULL_TRACER.anomaly("rollback") is None
    NULL_TRACER.layout_committed()
    assert NULL_TRACER.layout_context is None
    assert len(NULL_TRACER) == 0


# ----------------------------------------------------------------------
# Tree reconstruction
# ----------------------------------------------------------------------


def _span(span_id, parent_id, name="op", trace_id="t-000001", start=0.0):
    return Span(
        name=name,
        trace_id=trace_id,
        span_id=span_id,
        parent_id=parent_id,
        start_s=start,
        end_s=start + 1.0,
    )


def test_span_tree_roots_children_orphans():
    root = _span("s-1", None, name="admission.request")
    mid = _span("s-2", "s-1", name="admission.attempt", start=1.0)
    leaf = _span("s-3", "s-2", name="controller.commit_plan", start=2.0)
    orphan = _span("s-9", "s-404", name="evicted-child", start=3.0)
    tree = span_tree([leaf, orphan, mid, root])
    assert tree["roots"] == [root]
    assert tree["children"]["s-1"] == [mid]
    assert tree["children"]["s-2"] == [leaf]
    assert tree["orphans"] == [orphan]
    assert find_spans([leaf, mid], "admission.attempt") == [mid]


def test_span_tree_detects_cycles():
    first = _span("s-1", "s-2")
    second = _span("s-2", "s-1")
    with pytest.raises(ValueError, match="cycle"):
        span_tree([first, second])


# ----------------------------------------------------------------------
# Satellites: attrs copy, error spans, injectable clocks
# ----------------------------------------------------------------------


def test_trace_event_copies_caller_attrs():
    attrs = {"fid": 1}
    tracer = Tracer(clock=FakeClock())
    with tracer.span("packet", **attrs) as live:
        timed = tracer.record_span("packet", start_s=0.0, end_s=0.0, **attrs)
    attrs["fid"] = 999
    attrs["late"] = True
    assert live.attrs == timed.attrs == {"fid": 1}
    # The snapshot view is a copy too.
    timed.as_dict()["attrs"]["fid"] = -1
    assert timed.attrs == {"fid": 1}


def test_injected_clock_gives_exact_buffer_durations():
    clock = FakeClock()
    tracer = Tracer(capacity=4, clock=clock)
    with tracer.span("work"):
        clock.tick(2.5)
    (span,) = tracer.spans()
    assert span.start_s == pytest.approx(100.0)
    assert span.duration_s == pytest.approx(2.5)
    # Defaults remain perf_counter-based when nothing is injected.
    import time

    assert Tracer().clock is time.perf_counter


def test_sampled_packet_span_is_stamped_by_the_injected_clock():
    """Packet spans read the tracer's clock, not the wall clock, so one
    trace never mixes two time bases."""

    class SteppingClock(FakeClock):
        def __call__(self) -> float:
            now = self.now
            self.now += 0.25
            return now

    clock = SteppingClock()
    switch = ActiveSwitch(tracer=Tracer(clock=clock, sample_rate=1.0))
    switch.register_host(CLIENT, 1)
    switch.register_host(SERVER, 2)
    switch.receive(_packet(1), in_port=1)
    switch.receive_batch([_packet(1)], in_port=1)
    first, second = find_spans(switch.tracer.spans(), "datapath.packet")
    assert (first.start_s, first.duration_s) == (100.0, 0.25)
    assert (second.start_s, second.duration_s) == (100.5, 0.25)
    # Exactly two clock reads per sampled packet.
    assert clock.now == 101.0


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _two_thread_spans():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("admission.request", fid=1) as root:
        pass
    tracer.record_span(
        "datapath.packet",
        start_s=root.start_s + 0.001,
        end_s=root.start_s + 0.002,
        parent=root,
        disposition=None,
        pattern=listing1_pattern(),  # non-JSON attr: must repr()
    )
    return tracer, root


def test_chrome_trace_events_schema_and_correlation():
    tracer, root = _two_thread_spans()
    payload = chrome_trace_events(tracer.spans())
    assert validate_chrome_trace(payload) == []
    complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["admission.request", "datapath.packet"]
    # Timestamps are rebased to the earliest span, in microseconds.
    assert complete[0]["ts"] == pytest.approx(0.0)
    assert complete[1]["ts"] == pytest.approx(1000.0)
    # IDs ride in args for correlation; non-JSON attrs are repr()ed.
    assert complete[1]["args"]["parent_id"] == root.span_id
    assert complete[1]["args"]["trace_id"] == root.trace_id
    assert isinstance(complete[1]["args"]["pattern"], str)
    json.dumps(payload)  # JSON-serializable end to end
    meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
    assert meta and all(e["name"] == "thread_name" for e in meta)


def test_validate_chrome_trace_flags_malformed_payloads():
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    problems = validate_chrome_trace(
        {
            "traceEvents": [
                {"ph": "Q"},
                {"ph": "X", "name": "op", "pid": 1, "tid": 1, "ts": -5, "dur": 1},
                "not-an-object",
            ]
        }
    )
    assert any("unknown phase" in p for p in problems)
    assert any("'ts' not a non-negative number" in p for p in problems)
    assert any("args.trace_id missing" in p for p in problems)
    assert any("not an object" in p for p in problems)


def test_jsonl_export_and_dump_trace_roundtrip(tmp_path):
    tracer, root = _two_thread_spans()
    jsonl = tmp_path / "spans.jsonl"
    chrome = tmp_path / "spans.json"
    dump_trace(str(jsonl), tracer)
    dump_trace(str(chrome), tracer)

    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert [entry["name"] for entry in lines] == [
        "admission.request",
        "datapath.packet",
    ]
    assert lines[1]["parent_id"] == root.span_id
    assert lines[0]["trace_id"] == lines[1]["trace_id"]

    payload = json.loads(chrome.read_text())
    assert validate_chrome_trace(payload) == []
    # A bare span list (no tracer) exports the same way.
    assert spans_to_jsonl([]) == ""
    assert spans_to_jsonl(tracer.spans()).count("\n") == 2


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------


def test_flight_recorder_trigger_captures_tree_and_fingerprint():
    tracer = Tracer(clock=FakeClock())
    state = {"pools": "v1"}
    recorder = FlightRecorder(
        tracer, capacity=2, fingerprint=lambda: dict(state)
    )
    assert tracer.recorder is recorder

    with tracer.span("admission.request", fid=1) as root:
        with tracer.span("admission.attempt") as child:
            state["pools"] = "v2"  # fingerprint must be evaluated at dump time
            dump = tracer.anomaly("stale_retries", attempts=3)
        assert dump.reason == "stale_retries"
        assert dump.trace_id == root.trace_id
        assert dump.attrs == {"attempts": 3}
        assert dump.fingerprint == {"pools": "v2"}
        # Live spans are part of the dump; the tree reconstructs from it.
        assert {s.span_id for s in dump.spans} == {root.span_id, child.span_id}
        tree = dump.tree()
        assert tree["roots"] == [root]
        assert tree["orphans"] == []
        assert dump.find("admission.attempt") == [child]
        json.dumps(dump.as_dict(), default=repr)

        # Ring bound: oldest dumps evict first.
        tracer.anomaly("shed")
        tracer.anomaly("rollback")
        assert [d.reason for d in recorder.dumps] == ["shed", "rollback"]
        assert recorder.triggered == 3
        assert recorder.dumps_for("shed")[0].reason == "shed"
        assert recorder.dumps_for("shed")[0].trace_id == root.trace_id

        recorder.detach()
        assert tracer.recorder is None
        assert tracer.anomaly("shed") is None  # no recorder -> dropped

    with pytest.raises(ValueError):
        FlightRecorder(tracer, capacity=0)


def test_anomaly_without_context_dumps_no_spans():
    tracer = Tracer(clock=FakeClock())
    recorder = FlightRecorder(tracer, fingerprint=lambda: "fp")
    dump = tracer.anomaly("shed", cause="queue_full")
    assert dump.trace_id is None
    assert dump.spans == []
    assert dump.fingerprint == "fp"
    recorder.detach()


# ----------------------------------------------------------------------
# Control-plane propagation
# ----------------------------------------------------------------------


def test_single_admission_emits_one_correlated_tree():
    tracer = Tracer(sample_rate=1.0)
    controller = _traced_controller(tracer)
    assert controller.admit(fid=1, pattern=listing1_pattern()).success

    spans = tracer.spans()
    (root,) = find_spans(spans, "controller.admit")
    assert root.parent_id is None
    assert root.attrs["fid"] == 1
    assert root.attrs["status"] == "admitted"
    # Every layer of the commit rode the same trace.
    for name in (
        "allocator.plan",
        "allocator.commit",
        "tables.apply_layout",
        "journal.commit",
    ):
        found = find_spans(spans, name)
        assert found, f"missing {name} span"
        assert all(s.trace_id == root.trace_id for s in found)
    tree = span_tree(tracer.spans_for(root.trace_id))
    assert tree["roots"] == [root]
    assert tree["orphans"] == []
    # The commit published its context for data-path continuation.
    assert tracer.layout_context is not None
    assert tracer.layout_context.trace_id == root.trace_id


def test_direct_admission_span_tree():
    """submit plans under ``controller.admit`` and commits through the
    one door: ``controller.commit_plan`` beside the plan, the allocator
    commit, the layout batch and its journal under it."""
    tracer = Tracer(sample_rate=1.0)
    controller = _traced_controller(tracer)
    assert controller.admit(fid=1, pattern=listing1_pattern()).success

    (root,) = find_spans(tracer.spans(), "controller.admit")
    trace = tracer.spans_for(root.trace_id)
    children = {s.parent_id: [] for s in trace}
    for s in trace:
        children[s.parent_id].append(s.name)
    assert sorted(children[root.span_id]) == ["allocator.plan", "controller.commit_plan"]
    (commit,) = find_spans(trace, "controller.commit_plan")
    assert commit.attrs["size"] == 1 and commit.attrs["status"] == "admitted"
    assert commit.attrs["basis_version"] == 0
    assert sorted(children[commit.span_id]) == [
        "allocator.commit",
        "journal.commit",
        "tables.apply_layout",
    ]
    assert len(trace) == 6  # nothing else, at any depth
    # The data path continues under the commit, not the request.
    assert tracer.layout_context.span_id == commit.span_id


def test_withdraw_and_dry_run_traces():
    tracer = Tracer(sample_rate=1.0)
    controller = _traced_controller(tracer)
    pattern = listing1_pattern()
    assert controller.admit(fid=1, pattern=pattern).success
    assert controller.admit(fid=2, pattern=pattern, dry_run=True).success
    controller.withdraw(fid=1)

    spans = tracer.spans()
    admits = find_spans(spans, "controller.admit")
    assert [s.attrs.get("dry_run") for s in admits] == [False, True]
    # Dry runs never touch tables: no install spans in their trace.
    dry_trace = tracer.spans_for(admits[1].trace_id)
    assert find_spans(dry_trace, "tables.apply_layout") == []
    (withdraw,) = find_spans(spans, "controller.withdraw")
    assert withdraw.attrs["status"] == "admitted"
    withdraw_trace = tracer.spans_for(withdraw.trace_id)
    (layout,) = find_spans(withdraw_trace, "tables.apply_layout")
    assert layout.parent_id == withdraw.span_id
    assert layout.attrs["fid"] == 1 and layout.attrs["installed"] == 0
    assert layout.attrs["removed"] > 0
    assert find_spans(withdraw_trace, "journal.commit")
    assert span_tree(withdraw_trace)["orphans"] == []


def test_reallocating_admit_traces_one_layout_span_per_layout_change():
    tracer = Tracer(sample_rate=1.0)
    controller = _traced_controller(tracer)
    pattern = listing1_pattern()
    # Worst fit spreads tenants over empty stages first; keep admitting
    # until a newcomer has to share one.
    fid = 0
    report = controller.admit(fid=fid, pattern=pattern)
    while not report.reallocated_fids:
        fid += 1
        report = controller.admit(fid=fid, pattern=pattern)
        assert report.success and fid < 40

    spans = tracer.spans()
    admit = find_spans(spans, "controller.admit")[-1]
    trace = tracer.spans_for(admit.trace_id)
    (commit,) = find_spans(trace, "controller.commit_plan")
    # The newcomer's entries, every displaced neighbour's and the
    # (de)activations are one batch: one span under the commit, and no
    # per-neighbour or per-FID span beside it.
    (layout,) = find_spans(trace, "tables.apply_layout")
    assert layout.parent_id == commit.span_id
    displaced = len(report.reallocated_fids)
    assert layout.attrs["fid"] == fid and layout.attrs["displaced"] == displaced
    assert layout.attrs["installed"] > 0 and layout.attrs["removed"] == 0
    # Writes: two flips per displaced FID, the entries, a flush per FID
    # with entries and a scrub per newcomer region.
    assert layout.attrs["writes"] >= layout.attrs["installed"] + 2 * displaced
    assert {s.name for s in trace} <= {
        "controller.admit",
        "controller.commit_plan",
        "allocator.plan",
        "allocator.commit",
        "tables.apply_layout",
        "journal.commit",
    }
    assert span_tree(trace)["orphans"] == []


def test_sampled_packet_joins_the_committing_trace():
    tracer = Tracer(sample_rate=1.0)
    controller = _traced_controller(tracer)
    assert controller.admit(fid=1, pattern=listing1_pattern()).success
    committing = tracer.layout_context
    controller.switch.receive(_packet(1), in_port=1)

    (packet,) = find_spans(tracer.spans(), "datapath.packet")
    assert packet.trace_id == committing.trace_id
    assert packet.parent_id == committing.span_id
    assert packet.attrs["fid"] == 1
    assert not packet.in_flight


def test_receive_and_receive_batch_record_identical_packet_spans():
    """Both front doors trace through one helper: the same seeded
    packet list yields the same spans either way."""

    def packet_spans(batched):
        tracer = Tracer(sample_rate=0.5, seed=11)
        controller = _traced_controller(tracer)
        assert controller.admit(fid=1, pattern=listing1_pattern()).success
        switch = controller.switch
        packets = []
        for index in range(40):
            packet = _packet(1 + index % 2)  # fid 2 holds no grant
            if index % 5 == 0:
                packet = ActivePacket.control(
                    src=CLIENT, dst=SERVER, fid=3, flags=0
                )
            packets.append(packet)
        if batched:
            switch.receive_batch(packets, in_port=1)
        else:
            for packet in packets:
                switch.receive(packet, in_port=1)
        return [
            (span.name, span.attrs, span.parent_id)
            for span in find_spans(tracer.spans(), "datapath.packet")
        ]

    scalar = packet_spans(batched=False)
    assert scalar == packet_spans(batched=True)
    assert 0 < len(scalar) < 40
    assert {attrs["kind"] for _, attrs, _ in scalar} == {"program", "digest"}
    assert all(parent is not None for _, _, parent in scalar)


# ----------------------------------------------------------------------
# Acceptance rig: re-planned admission + mid-batch rollback, chain by IDs
# ----------------------------------------------------------------------


def test_flight_dumps_reconstruct_full_causal_chain_by_ids():
    """Rigged churn: a re-planned admission commits, a batch rolls back.

    The whole chain -- request span -> attempt spans -> journal-replay
    span -> first data-path packet under the new layout -- must be
    reconstructible from the flight dumps and span set using only
    trace/span/parent IDs (no names-as-hints shortcuts: every hop
    below follows an ID edge).
    """
    tracer = Tracer(sample_rate=1.0)
    installs = {"count": 0}

    def fault_two_installs(op, index):
        # The first two grant installs fault transiently, with no
        # per-operation retry: two rolled-back attempts, then a commit.
        if op == "install_grant" and installs["count"] < 2:
            installs["count"] += 1
            return FaultKind.TRANSIENT
        return None

    controller = _traced_controller(
        tracer, ScriptedPlan(fault_two_installs), tcam_entries_per_stage=2
    )
    recorder = FlightRecorder(
        tracer, fingerprint=lambda: pools_fingerprint(controller.allocator)
    )
    service = AdmissionService(controller)
    pattern = listing1_pattern()

    # --- Rig 1: two transient-fault rollbacks, then the third attempt
    # commits.
    report = service.submit_and_wait(_admission(1))
    assert report.status is ProvisioningStatus.ADMITTED

    # Each rolled-back attempt fired a rollback anomaly mid-flight.
    first_fault, storm = recorder.dumps_for("rollback")
    assert first_fault.trace_id == storm.trace_id
    assert storm.attrs["scope"] == "single"
    assert storm.fingerprint is not None

    # --- The first packet under the just-committed layout.
    output = controller.switch.receive(_packet(1), in_port=1)
    assert output is not None

    # --- Rig 2: mid-batch TCAM exhaustion forces a journaled rollback
    # (same shape as the seed batch-atomicity test: fill the TCAM with
    # singles, free one tenant, then batch more than fits).
    resident = 0
    while controller.admit(fid=100 + resident, pattern=pattern).success:
        resident += 1
        assert resident < 50
    controller.withdraw(fid=100)
    fingerprint_before = pools_fingerprint(controller.allocator)
    batch_report = service.submit_many(
        [_admission(fid) for fid in (2, 3, 4, 5)]
    )
    assert not batch_report.success
    assert pools_fingerprint(controller.allocator) == fingerprint_before

    # Filling the TCAM with singles produced scope="single" rollback
    # dumps of its own (each failed single admission rolled back); the
    # batch's dump is the one with scope="batch".
    (rollback,) = [
        d for d in recorder.dumps_for("rollback")
        if d.attrs.get("scope") == "batch"
    ]
    assert rollback.fingerprint == fingerprint_before

    # ------------------------------------------------------------------
    # Reconstruction, by IDs alone.
    # ------------------------------------------------------------------

    # 1. The second fault's dump: request root -> attempt spans (the
    #    second still open when it fired).
    storm_tree = storm.tree()
    assert storm_tree["orphans"] == []
    (request_root,) = storm_tree["roots"]
    assert request_root.name == "admission.request"
    attempt_ids = {
        s.span_id
        for s in storm.spans
        if s.parent_id == request_root.span_id
    }
    assert len(attempt_ids) == 2  # the two faulted attempts, by ID link

    # 2. The completed trace extends the same tree: a third attempt
    #    under the same root carried the commit.
    trace = tracer.spans_for(storm.trace_id)
    by_id = {s.span_id: s for s in trace}
    attempts = [s for s in trace if s.parent_id == request_root.span_id]
    assert [a.attrs["attempt"] for a in attempts] == [1, 2, 3]
    final_attempt = max(attempts, key=lambda s: s.attrs["attempt"])
    assert final_attempt.span_id not in attempt_ids
    # The attempt's children: the shadow plan and the commit, both
    # linked by parent ID.
    attempt_children = [
        s for s in trace if s.parent_id == final_attempt.span_id
    ]
    assert {s.name for s in attempt_children} == {
        "allocator.plan",
        "controller.commit_plan",
    }
    (commit,) = [
        s for s in attempt_children if s.name == "controller.commit_plan"
    ]

    # 3. The first data-path packet under the new layout parents on
    #    that commit span: control->data causality closes by IDs.
    packets = find_spans(tracer.spans(), "datapath.packet")
    first_packet = packets[0]
    assert first_packet.parent_id == commit.span_id
    assert first_packet.trace_id == request_root.trace_id
    assert first_packet.attrs["fid"] == 1
    # Walk the chain packet -> commit -> attempt -> request root.
    chain = []
    cursor = first_packet
    while cursor is not None:
        chain.append(cursor.name)
        cursor = by_id.get(cursor.parent_id)
    assert chain == [
        "datapath.packet",
        "controller.commit_plan",
        "admission.attempt",
        "admission.request",
    ]

    # 4. The rollback dump's trace: batch root -> attempt ->
    #    commit_plan -> journal replay, linked hop by hop.
    rollback_tree = rollback.tree()
    assert rollback_tree["orphans"] == []
    (batch_root,) = rollback_tree["roots"]
    assert batch_root.name == "admission.batch"
    assert batch_root.trace_id != request_root.trace_id
    (replay,) = rollback.find("journal.rollback")
    hops = []
    cursor = replay
    ids = {s.span_id: s for s in rollback.spans}
    while cursor is not None:
        hops.append(cursor.name)
        cursor = ids.get(cursor.parent_id)
    assert hops == [
        "journal.rollback",
        "controller.commit_plan",
        "admission.attempt",
        "admission.batch",
    ]
    assert find_spans(rollback.spans, "allocator.rollback")

    recorder.detach()
