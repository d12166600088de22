"""Failure-injection tests: TCAM exhaustion and rollback.

The paper identifies per-stage TCAM capacity as the bottleneck for the
number of distinct protection ranges.  When the allocator finds room in
register memory but the TCAM cannot hold another range, the controller
must deny the admission and leave every incumbent's state untouched.
"""

from repro.controller import ActiveRmtController
from repro.switchsim import ActiveSwitch, SwitchConfig
from repro.telemetry import MetricsRegistry

from tests.test_core_constraints import listing1_pattern


def _tiny_tcam_controller(
    tcam_entries: int, telemetry: MetricsRegistry = None
) -> ActiveRmtController:
    config = SwitchConfig(tcam_entries_per_stage=tcam_entries)
    return ActiveRmtController(ActiveSwitch(config), telemetry=telemetry)


def test_admission_denied_when_tcam_full():
    # Two entries per stage: the third tenant sharing a stage overflows.
    controller = _tiny_tcam_controller(tcam_entries=2)
    pattern = listing1_pattern()
    admitted = []
    denied = None
    for fid in range(40):
        report = controller.admit(fid=fid, pattern=pattern)
        if report.success:
            admitted.append(fid)
        else:
            denied = report
            break
    assert denied is not None, "TCAM must eventually fill"
    assert "TCAM" in denied.reason
    assert admitted, "some tenants fit before exhaustion"


def test_rollback_preserves_incumbents():
    controller = _tiny_tcam_controller(tcam_entries=2)
    pattern = listing1_pattern()
    fid = 0
    while controller.admit(fid=fid, pattern=pattern).success:
        fid += 1
        assert fid < 100
    survivors = controller.allocator.resident_fids()
    utilization = controller.allocator.utilization()
    # The failed fid holds nothing anywhere.
    failed_fid = fid
    assert failed_fid not in controller.allocator.apps
    for stage in controller.switch.pipeline.stages:
        assert stage.table.grant_for(failed_fid) is None
        assert stage.table.translation_for(failed_fid) is None
    # Incumbents keep working: grants intact, fids active.
    for survivor in survivors:
        regions = controller.allocator.regions_for(survivor)
        assert regions
        assert controller.switch.pipeline.is_active(survivor)
        for stage, block_range in regions.items():
            grant = controller.switch.pipeline.stage(stage).table.grant_for(
                survivor
            )
            assert grant is not None
            words = block_range.to_words(controller.switch.config.block_words)
            assert grant.start == words.start
            assert grant.end == words.end
    # A retry fails the same way without corrupting state.
    retry = controller.admit(fid=999, pattern=pattern)
    assert not retry.success
    assert controller.allocator.utilization() == utilization
    assert controller.allocator.resident_fids() == survivors


def test_tcam_failure_counts_as_failed_report():
    controller = _tiny_tcam_controller(tcam_entries=2)
    pattern = listing1_pattern()
    fid = 0
    while controller.admit(fid=fid, pattern=pattern).success:
        fid += 1
    failures = [r for r in controller.reports if not r.success]
    assert failures
    assert failures[-1].table_update_seconds == 0.0
    assert failures[-1].rolled_back


def test_rollback_telemetry_is_not_release_telemetry():
    """A TCAM-failure rollback is not a release: it must increment only
    ``allocator_rollbacks_total``, never the release/blocks-moved
    counters (the old release-and-reinstall rollback polluted both)."""
    registry = MetricsRegistry()
    controller = _tiny_tcam_controller(tcam_entries=2, telemetry=registry)
    pattern = listing1_pattern()
    fid = 0
    while controller.admit(fid=fid, pattern=pattern).success:
        fid += 1
        assert fid < 100

    def value(name: str, **labels) -> float:
        return registry.counter(name, **labels).value

    releases_before = value("allocator_releases_total")
    moved_before = value("allocator_blocks_moved_total")
    displaced_before = value("allocator_apps_displaced_total")
    rollbacks_before = value("allocator_rollbacks_total")
    assert rollbacks_before >= 1  # the admission loop ended in one
    assert releases_before == 0  # no withdraw happened yet

    retry = controller.admit(fid=999, pattern=pattern)
    assert not retry.success and retry.rolled_back
    assert value("allocator_rollbacks_total") == rollbacks_before + 1
    assert value("allocator_releases_total") == releases_before
    assert value("allocator_blocks_moved_total") == moved_before
    assert value("allocator_apps_displaced_total") == displaced_before
    assert (
        value("controller_admissions_total", outcome="tcam_exhausted") >= 2
    )


def test_rollback_restores_register_contents():
    """Rollback must restore scrubbed registers byte-for-byte, not just
    pools and table entries."""
    config = SwitchConfig(tcam_entries_per_stage=2, words_per_stage=2048)
    controller = ActiveRmtController(ActiveSwitch(config))
    pattern = listing1_pattern()
    fid = 0
    while controller.admit(fid=fid, pattern=pattern).success:
        fid += 1
    pipeline = controller.switch.pipeline
    # Give every admitted app's memory a distinctive fill.
    for survivor in controller.allocator.resident_fids():
        for stage, block_range in controller.allocator.regions_for(
            survivor
        ).items():
            words = block_range.to_words(controller.switch.config.block_words)
            registers = pipeline.stage(stage).registers
            for index in range(words.start, words.end):
                registers.write(index, (survivor << 16) | (index & 0xFFFF))
    contents_before = [
        stage.registers.snapshot(0, len(stage.registers))
        for stage in pipeline.stages
    ]
    retry = controller.admit(fid=999, pattern=pattern)
    assert not retry.success and retry.rolled_back
    contents_after = [
        stage.registers.snapshot(0, len(stage.registers))
        for stage in pipeline.stages
    ]
    assert contents_after == contents_before
