"""Isolation certifier + invariant auditor: proofs, rules, rollback.

Covers the interval domain, the effective-translation model, golden
reports for every new rule (ARMT010-ARMT015), the acceptance-criteria
regressions (strict rejection leaves state byte-identical; every
admission in a churn run carries a valid certificate), the sanitizer
hook, and the telemetry counters.
"""

from types import SimpleNamespace

import pytest

from repro.analysis import (
    AddressInterval,
    analyze_address_intervals,
    audit_journal,
    audit_state,
    certify_all,
    certify_fid,
    certify_plan,
    effective_translations,
    replay_findings,
    verify_plan,
)
from repro.analysis.findings import RULES, Severity
from repro.apps.base import EXEMPLAR_APPS
from repro.controller.controller import ActiveRmtController
from repro.controller.service import pools_fingerprint
from repro.controller.table_updater import TableUpdateEngine
from repro.core.blocks import BlockRange
from repro.core.constraints import AccessPattern
from repro.device import SimDevice
from repro.isa import assemble
from repro.switchsim.config import SwitchConfig
from repro.switchsim.switch import ActiveSwitch
from repro.switchsim.tables import StageGrant
from repro.telemetry import FlightRecorder, MetricsRegistry, Tracer, json_snapshot
from repro.workloads.arrivals import (
    ArrivalEvent,
    DepartureEvent,
    poisson_events,
)

from tests.test_transactions import (
    ENTRY_POINTS,
    admit_via,
    assert_entry_points_agree,
    outcome_fingerprint,
)

COUNTER = """
MBR_LOAD $0
COPY_HASHDATA_MBR
HASH
ADDR_MASK
ADDR_OFFSET
MEM_INCREMENT
RETURN
"""

#: 8 instructions, access at position 7: in the 8-stage config below,
#: exactly one pass with MEM_WRITE at physical stage 7.
FILLER = """
MBR_LOAD $0
COPY_HASHDATA_MBR
HASH
NOP
ADDR_MASK
ADDR_OFFSET
MEM_WRITE
RETURN
"""

#: The duplicated ADDR_OFFSET re-adds the region base: provably past
#: the granted region whenever the region starts above word 0.
RIGGED = """
MBR_LOAD $0
COPY_HASHDATA_MBR
HASH
ADDR_MASK
ADDR_OFFSET
ADDR_OFFSET
MEM_WRITE
RETURN
"""


def _controller(config=None, **kwargs):
    return ActiveRmtController(
        ActiveSwitch(config or SwitchConfig()), **kwargs
    )


def _pattern(program, demands):
    return AccessPattern.from_program(
        program, demands=demands, name=program.name
    )


# ----------------------------------------------------------------------
# Interval domain
# ----------------------------------------------------------------------


def test_interval_join_is_hull():
    a = AddressInterval(2, 5)
    b = AddressInterval(10, 12)
    assert a.join(b) == AddressInterval(2, 12)
    assert a.join(AddressInterval.top()).is_top


def test_interval_mask_and_offset():
    top = AddressInterval.top()
    assert top.masked(1023) == AddressInterval(0, 1023)
    assert AddressInterval(0, 100).masked(1023) == AddressInterval(0, 100)
    assert AddressInterval(0, 1023).offset(2048) == AddressInterval(
        2048, 3071
    )
    # 32-bit overflow widens to TOP rather than wrapping.
    assert AddressInterval(0, 0xFFFFFFFF).offset(1).is_top


def test_interval_within_and_disjoint():
    interval = AddressInterval(2048, 3071)
    assert interval.within(2048, 3072)
    assert not interval.within(2048, 3071)
    assert AddressInterval(4096, 5119).disjoint(2048, 3072)
    assert not interval.disjoint(2048, 3072)


def test_analyze_address_intervals_counter():
    program = assemble(COUNTER, name="counter")
    intervals = analyze_address_intervals(
        program, {4: (1023, 2048), 5: (1023, 2048)}, config=SwitchConfig()
    )
    # After ADDR_MASK (pos 4) and ADDR_OFFSET (pos 5), MEM_INCREMENT at
    # position 6 sees the translated window.
    assert intervals[6] == AddressInterval(2048, 3071)


def test_effective_translations_window_and_fallback():
    effective = effective_translations({5: (2048, 3072)})
    assert effective == {
        2: (1023, 2048),
        3: (1023, 2048),
        4: (1023, 2048),
        5: (1023, 2048),
    }


# ----------------------------------------------------------------------
# New rule catalog entries
# ----------------------------------------------------------------------


def test_new_rules_are_registered_errors():
    for index in range(10, 16):
        rule = RULES[f"ARMT{index:03d}"]
        assert rule.severity is Severity.ERROR
        assert rule.title and rule.description


# ----------------------------------------------------------------------
# Certifier: planned admissions
# ----------------------------------------------------------------------


def test_admission_carries_valid_certificate():
    controller = _controller()
    program = assemble(COUNTER, name="counter")
    report = controller.admit(
        fid=1, pattern=_pattern(program, [2]), program=program
    )
    assert report.success
    certificate = report.certificate
    assert certificate is not None and certificate.valid
    assert certificate.static_accesses >= 1
    for proof in certificate.accesses:
        assert proof.verdict in ("static", "runtime")


def test_certify_plan_flags_incumbent_overlap():
    controller = _controller()
    program = assemble(COUNTER, name="counter")
    plan = controller.what_if(fid=1, pattern=_pattern(program, [2]))
    stage, span = next(
        iter(plan.word_regions(SwitchConfig().block_words).items())
    )
    certificate = certify_plan(
        plan, SwitchConfig(), incumbents={99: {stage: span}}
    )
    assert not certificate.valid
    assert {f.rule_id for f in certificate.findings} == {"ARMT011"}


def test_verify_off_skips_certification():
    controller = _controller(verify="off")
    program = assemble(COUNTER, name="counter")
    report = controller.admit(
        fid=1, pattern=_pattern(program, [2]), program=program
    )
    assert report.success and report.certificate is None


# ----------------------------------------------------------------------
# ARMT010: strict rejection with byte-identical state (acceptance)
# ----------------------------------------------------------------------


def _table_surface(controller):
    return controller.device.read_tables()


def test_rigged_mutant_rejected_strict_state_intact():
    config = SwitchConfig(
        num_stages=8, ingress_stages=4, max_recirculations=0
    )
    outcomes = {}
    for entry in ENTRY_POINTS:
        controller = _controller(config, verify="strict")
        filler = assemble(FILLER, name="filler")
        assert controller.admit(
            fid=101, pattern=_pattern(filler, [8]), program=filler
        ).success

        pools_before = pools_fingerprint(controller.allocator)
        tables_before = _table_surface(controller)

        rigged = assemble(RIGGED, name="rigged")
        report = admit_via(
            controller, entry, 102, _pattern(rigged, [4]), program=rigged
        )
        assert not report.success
        assert report.certificate is not None
        assert "ARMT010" in {f.rule_id for f in report.certificate.findings}
        assert "ARMT010" in (report.reason or "")

        # Zero state mutation: allocator pools and the whole table
        # surface are byte-identical to before the attempt.
        assert pools_fingerprint(controller.allocator) == pools_before
        assert _table_surface(controller) == tables_before
        assert 102 not in controller.allocator.resident_fids()
        outcomes[entry] = outcome_fingerprint(controller, report)
    # One commit path: the rejection is the same through every entry.
    assert_entry_points_agree(outcomes)


def test_rigged_mutant_warn_mode_commits_with_invalid_certificate():
    config = SwitchConfig(
        num_stages=8, ingress_stages=4, max_recirculations=0
    )
    controller = _controller(config, verify="warn")
    filler = assemble(FILLER, name="filler")
    assert controller.admit(
        fid=101, pattern=_pattern(filler, [8]), program=filler
    ).success
    rigged = assemble(RIGGED, name="rigged")
    report = controller.admit(
        fid=102, pattern=_pattern(rigged, [4]), program=rigged
    )
    assert report.success  # warn mode records, never blocks
    assert report.certificate is not None and not report.certificate.valid


# ----------------------------------------------------------------------
# Live certificates: ARMT012 / ARMT013 golden reports
# ----------------------------------------------------------------------


def test_certify_fid_flags_missing_grant():
    controller = _controller()
    program = assemble(COUNTER, name="counter")
    assert controller.admit(
        fid=1, pattern=_pattern(program, [2]), program=program
    ).success
    (stage,) = [
        s
        for s, r in controller.allocator.regions_for(1).items()
        if r is not None and r.count > 0
    ]
    # White-box corruption: rip out the grant behind the allocation.
    controller.switch.pipeline.stage(stage).table.remove_grant(1)
    certificate = certify_fid(1, controller.allocator, controller.device)
    assert not certificate.valid
    rules = {f.rule_id for f in certificate.findings}
    assert "ARMT012" in rules
    # The whole-state audit reaches the same verdict via the
    # table-certificates invariant.
    report = controller.audit()
    assert report.has_errors
    assert "ARMT012" in report.rule_ids()


def test_certify_fid_flags_escaping_translation():
    controller = _controller()
    program = assemble(COUNTER, name="counter")
    assert controller.admit(
        fid=1, pattern=_pattern(program, [2]), program=program
    ).success
    (stage,) = [
        s
        for s, r in controller.allocator.regions_for(1).items()
        if r is not None and r.count > 0
    ]
    # Point an installed translation far outside every granted region.
    table = controller.switch.pipeline.stage(max(1, stage - 1)).table
    table.install_translation(1, 1023, 10_000_000)
    certificate = certify_fid(1, controller.allocator, controller.device)
    assert not certificate.valid
    assert "ARMT013" in {f.rule_id for f in certificate.findings}


def _installed(regions, fid=1):
    """A device holding exactly what *regions* implies for *fid*, and an
    allocator stand-in reporting those regions."""
    device = SimDevice(ActiveSwitch(SwitchConfig()))
    TableUpdateEngine(device).install_app(fid, regions)
    return SimpleNamespace(regions_for=lambda _fid: regions, config=device.config), device


#: Accesses at stages 5 and 7: stage 4 sits in both translation windows
#: and resolves to stage 5's pair, the nearest upcoming access.
TWO_REGIONS = {5: BlockRange(0, 4), 7: BlockRange(8, 2)}


def test_certify_fid_flags_stale_but_in_bounds_translation():
    allocator, device = _installed(TWO_REGIONS)
    assert certify_fid(1, allocator, device).valid
    # Stage 7's pair is a valid region of this FID -- ARMT013 is content
    # -- but at stage 4 the next access is stage 5's.
    device.install_translation(4, 1, mask=511, offset=2048)
    certificate = certify_fid(1, allocator, device)
    assert [(f.rule_id, f.stage, f.message) for f in certificate.findings] == [
        (
            "ARMT012",
            4,
            "fid 1 stage 4: translation installed is (mask=511, offset=2048), "
            "the allocation implies (mask=1023, offset=0) (the nearest "
            "upcoming region's pair)",
        )
    ]


def test_certify_fid_flags_removed_window_translation():
    allocator, device = _installed(TWO_REGIONS)
    assert device.remove_translation(6, 1)
    certificate = certify_fid(1, allocator, device)
    assert [(f.rule_id, f.stage, f.message) for f in certificate.findings] == [
        (
            "ARMT012",
            6,
            "fid 1 stage 6: translation installed is none, the allocation "
            "implies (mask=511, offset=2048) (the nearest upcoming "
            "region's pair)",
        )
    ]


def test_audit_flags_entries_left_in_a_stage_the_fid_vacated():
    controller = _controller()
    program = assemble(COUNTER, name="counter")
    for fid in (1, 2):
        assert controller.admit(
            fid=fid, pattern=_pattern(program, [2]), program=program
        ).success
    occupied = set(controller.allocator.regions_for(1))
    vacated = max(occupied) + 5
    # What a delta that forgot a vanished stage would leave behind.
    controller.device.install_grant(
        vacated, StageGrant(fid=1, start=0, end=256, mask=255, offset=0)
    )
    controller.device.install_translation(vacated - 1, 1, mask=255, offset=0)
    messages = {
        (f.rule_id, f.message) for f in certify_fid(
            1, controller.allocator, controller.device
        ).findings
    }
    assert (
        "ARMT012",
        f"fid 1 has an orphaned grant [0, 256) in stage {vacated} with no "
        "allocated region behind it",
    ) in messages
    assert (
        "ARMT012",
        f"fid 1 stage {vacated - 1}: translation installed is (mask=255, "
        "offset=0), the allocation implies none (the nearest upcoming "
        "region's pair)",
    ) in messages
    # Withdrawal visits only the stages the FID occupied, so the planted
    # entries outlive it; the orphan-entries invariant names them.
    controller.withdraw(fid=1)
    surface = controller.device.read_tables()
    assert 1 in surface.grants[vacated]
    assert 1 in surface.translations[vacated - 1]
    orphans = {(f.rule_id, f.stage) for f in controller.audit().errors}
    assert orphans == {("ARMT012", vacated), ("ARMT013", vacated - 1)}


def test_audit_flags_tcam_accounting_drift():
    controller = _controller()
    program = assemble(COUNTER, name="counter")
    assert controller.admit(
        fid=1, pattern=_pattern(program, [2]), program=program
    ).success
    (stage,) = [
        s
        for s, r in controller.allocator.regions_for(1).items()
        if r is not None and r.count > 0
    ]
    controller.switch.pipeline.stage(stage).table._tcam_used += 1
    report = controller.audit()
    assert report.has_errors
    assert "ARMT014" in report.rule_ids()


def test_audit_journal_requires_callable_undo():
    good = SimpleNamespace(undo=lambda: None, description="grant")
    bad = SimpleNamespace(undo=None, description="mystery")
    report = audit_journal(SimpleNamespace(entries=[good, bad]))
    assert report.has_errors
    (finding,) = report.errors
    assert finding.rule_id == "ARMT015"
    assert "mystery" in finding.message
    clean = audit_journal(SimpleNamespace(entries=[good]))
    assert clean.clean


def test_replay_findings_divergence_is_armt015():
    assert replay_findings(("a",), ("a",)) == []
    (finding,) = replay_findings(("a",), ("b",), label="shard sw0")
    assert finding.rule_id == "ARMT015"
    assert "shard sw0" in finding.message


# ----------------------------------------------------------------------
# Churn acceptance: every admission certifies; sanitizer catches drift
# ----------------------------------------------------------------------


def test_churn_run_certifies_every_admission():
    controller = _controller(sanitizer=True)
    patterns = {}
    from repro.apps.base import EXEMPLAR_APPS

    for name, spec in EXEMPLAR_APPS.items():
        patterns[name] = spec.pattern()
    resident = set()
    admitted = 0
    for event in poisson_events(
        epochs=40, arrival_mean=2.0, departure_mean=1.0, seed=7
    ):
        if isinstance(event, DepartureEvent):
            if event.fid in resident:
                controller.withdraw(fid=event.fid)
                resident.discard(event.fid)
            continue
        assert isinstance(event, ArrivalEvent)
        report = controller.admit(
            fid=event.fid, pattern=patterns[event.app_name]
        )
        if report.success:
            resident.add(event.fid)
            admitted += 1
            assert report.certificate is not None
            assert report.certificate.valid
    assert admitted > 0
    # The sanitizer audited after every commit and found nothing.
    assert controller.audit_violations == []
    assert controller.audit().clean
    for certificate in controller.certificates().values():
        assert certificate.valid


def test_sanitizer_detects_corruption_on_next_commit():
    controller = _controller(sanitizer=True)
    program = assemble(COUNTER, name="counter")
    assert controller.admit(
        fid=1, pattern=_pattern(program, [2]), program=program
    ).success
    assert controller.audit_violations == []
    (stage,) = [
        s
        for s, r in controller.allocator.regions_for(1).items()
        if r is not None and r.count > 0
    ]
    controller.switch.pipeline.stage(stage).table.remove_grant(1)
    # The corruption surfaces at the next commit's sanitizer pass.
    assert controller.admit(
        fid=2, pattern=_pattern(program, [2]), program=program
    ).success
    assert controller.audit_violations
    assert "ARMT012" in {f.rule_id for f in controller.audit_violations}


def test_sanitizer_dump_carries_the_commit_that_found_it():
    """The sanitizer's anomaly lands in the trace of the commit whose
    audit found the corruption: fid 2's ``controller.commit_plan`` tree,
    not an empty dump."""
    tracer = Tracer()
    recorder = FlightRecorder(tracer)
    controller = _controller(sanitizer=True, tracer=tracer)
    program = assemble(COUNTER, name="counter")
    assert controller.admit(fid=1, pattern=_pattern(program, [2]), program=program).success
    (stage,) = [
        s for s, r in controller.allocator.regions_for(1).items() if r is not None and r.count > 0
    ]
    controller.switch.pipeline.stage(stage).table.remove_grant(1)
    assert controller.admit(fid=2, pattern=_pattern(program, [2]), program=program).success
    (dump,) = recorder.dumps_for("invariant_violation")
    assert "ARMT012" in dump.attrs["rules"]
    (commit,) = dump.find("controller.commit_plan")
    (admit,) = dump.find("controller.admit")
    assert admit.attrs["fid"] == 2 and commit.parent_id == admit.span_id
    assert dump.trace_id == commit.trace_id
    tree = dump.tree()
    assert tree["roots"] == [admit] and tree["orphans"] == []
    assert {s.name for s in tree["children"][commit.span_id]} == {
        "allocator.commit", "tables.apply_layout", "journal.commit"
    }


def test_sanitizer_off_records_nothing():
    controller = _controller()
    program = assemble(COUNTER, name="counter")
    assert controller.admit(
        fid=1, pattern=_pattern(program, [2]), program=program
    ).success
    assert controller.sanitizer is False
    assert controller.audit_violations == []


# ----------------------------------------------------------------------
# Fleet hooks + telemetry
# ----------------------------------------------------------------------


def test_fabric_audit_and_certificates():
    from repro.fabric import Fabric
    from repro.controller import ProvisioningRequest

    fabric = Fabric.build(2, sanitizer=True)
    program = assemble(COUNTER, name="counter")
    for fid in range(1, 7):
        report = fabric.submit(
            ProvisioningRequest.admission(
                fid=fid, pattern=_pattern(program, [2])
            )
        )
        assert report.success
    audits = fabric.audit()
    assert set(audits) == {"sw0", "sw1"}
    assert all(report.clean for report in audits.values())
    certificates = fabric.certificates()
    total = sum(len(per_shard) for per_shard in certificates.values())
    assert total == 6
    for per_shard in certificates.values():
        for certificate in per_shard.values():
            assert certificate.valid


def test_certificate_and_violation_counters():
    registry = MetricsRegistry()
    controller = _controller(telemetry=registry, sanitizer=True)
    program = assemble(COUNTER, name="counter")
    assert controller.admit(
        fid=1, pattern=_pattern(program, [2]), program=program
    ).success
    counters = json_snapshot(registry)["counters"]
    assert any(
        series.startswith("isolation_certificates_total")
        and 'outcome="valid"' in series
        for series in counters
    )
    (stage,) = [
        s
        for s, r in controller.allocator.regions_for(1).items()
        if r is not None and r.count > 0
    ]
    controller.switch.pipeline.stage(stage).table.remove_grant(1)
    controller.audit()
    counters = json_snapshot(registry)["counters"]
    assert any(
        series.startswith("invariant_violations_total") for series in counters
    )


def test_certificate_to_dict_round_trips():
    controller = _controller()
    program = assemble(COUNTER, name="counter")
    report = controller.admit(
        fid=1, pattern=_pattern(program, [2]), program=program
    )
    payload = report.certificate.to_dict()
    assert payload["fid"] == 1 and payload["valid"] is True
    assert payload["accesses"]
    assert all(
        proof["verdict"] in ("static", "runtime")
        for proof in payload["accesses"]
    )


def test_live_proofs_take_the_block_size_from_the_allocator():
    """On a 4-KiB-block switch an installed cache certifies valid: the
    proofs size regions by the allocator's blocks, not a default switch's
    1-KiB ones (which read every correct grant as mis-ranged)."""
    controller = ActiveRmtController(ActiveSwitch(SwitchConfig(block_bytes=4096)))
    assert controller.admit(fid=1, pattern=EXEMPLAR_APPS["cache"].pattern()).success
    certificates = certify_all(controller.allocator, controller.device)
    assert list(certificates) == [1] and certificates[1].valid
    assert certify_fid(1, controller.allocator, controller.device).valid
    assert audit_state(controller.allocator, controller.device).clean


def test_plan_proofs_take_the_block_size_from_the_switch():
    """A planned cache on a 4-KiB-block switch is proven over the
    regions the plan holds, ``[0, 65536)`` words a stage, not the
    ``[0, 16384)`` a default switch's 1-KiB blocks made of them; the
    plan proofs have no default switch to fall back on."""
    config = SwitchConfig(block_bytes=4096)
    controller = ActiveRmtController(ActiveSwitch(config))
    pattern = EXEMPLAR_APPS["cache"].pattern()
    plan = controller.what_if(fid=1, pattern=pattern)
    certificate = certify_plan(plan, config)
    assert certificate.regions == plan.word_regions(config.block_words)
    assert set(certificate.regions.values()) == {(0, 65536)}
    with pytest.raises(TypeError):
        certify_plan(plan)
    program = EXEMPLAR_APPS["cache"].program()
    with pytest.raises(TypeError):
        verify_plan(program, pattern, plan)
    with pytest.raises(TypeError):
        analyze_address_intervals(program, {})
