"""Unit + integration tests for the switch-CPU controller."""

import ast
from pathlib import Path

import pytest

import repro.controller.controller as controller_module
from repro.controller import (
    ActiveRmtController,
    ProvisioningReport,
    ProvisioningStatus,
    TableUpdateEngine,
    TableUpdateCost,
    withdraw_with_retries,
)
from repro.core import BlockRange
from repro.device import SimDevice
from repro.packets import (
    ActivePacket,
    ControlFlags,
    MacAddress,
    PacketType,
)
from repro.switchsim import ActiveSwitch, SwitchConfig

from tests.test_core_allocator import lb_pattern
from tests.test_core_constraints import listing1_pattern

CLIENT = MacAddress.from_host_id(1)
CLIENT2 = MacAddress.from_host_id(2)


@pytest.fixture
def switch():
    sw = ActiveSwitch()
    sw.register_host(CLIENT, 1)
    sw.register_host(CLIENT2, 2)
    return sw


@pytest.fixture
def controller(switch):
    return ActiveRmtController(switch)


def test_admit_installs_grants(controller, switch):
    report = controller.admit(fid=1, pattern=listing1_pattern())
    assert report.success
    for stage in (2, 5, 9):
        grant = switch.pipeline.stage(stage).table.grant_for(1)
        assert grant is not None
        assert grant.start == 0
        assert grant.end == 256 * 256
    # Translation entries in the window before each access stage.
    assert switch.pipeline.stage(4).table.translation_for(1) is not None


def test_admit_failure_reports_reason(controller):
    from tests.test_core_allocator import hh_pattern

    fid = 0
    while (report := controller.admit(fid=fid, pattern=hh_pattern())).success:
        fid += 1
    assert not report.success
    assert report.reason
    assert report.table_update_seconds == 0.0


def test_provisioning_time_dominated_by_table_updates(controller):
    """Figure 8a: once stages are shared, table updates dominate."""
    reports = [
        controller.admit(fid=fid, pattern=listing1_pattern())
        for fid in range(15)
    ]
    late = [r for r in reports[9:] if r.success and r.reallocated_fids]
    assert late, "late arrivals must trigger reallocations"
    for report in late:
        assert report.table_update_seconds > report.snapshot_seconds
        assert report.table_update_seconds > report.compute_seconds


def test_reallocation_deactivates_and_reactivates(controller, switch):
    for fid in range(12):
        controller.admit(fid=fid, pattern=listing1_pattern())
    # Everyone must end up active again after the waves of reallocation.
    for fid in range(12):
        assert switch.pipeline.is_active(fid)


def test_newcomer_region_scrubbed(controller, switch):
    controller.admit(fid=1, pattern=listing1_pattern())
    # Dirty the whole of stage 2.
    regs = switch.pipeline.stage(2).registers
    for index in range(0, 1024):
        regs.write(index, 0xDEAD)
    report = controller.admit(fid=2, pattern=listing1_pattern())
    # Wherever fid 2 landed, its regions read back as zero.
    for stage, block_range in report.plan.regions.items():
        words = block_range.to_words(switch.config.block_words)
        stage_regs = switch.pipeline.stage(stage).registers
        assert stage_regs.read(words.start) == 0
        assert stage_regs.read(words.end - 1) == 0


def test_withdraw_removes_entries(controller, switch):
    controller.admit(fid=1, pattern=listing1_pattern())
    seconds = controller.withdraw(fid=1)
    assert seconds > 0
    for stage in range(1, 21):
        assert switch.pipeline.stage(stage).table.grant_for(1) is None
        assert switch.pipeline.stage(stage).table.translation_for(1) is None


def test_request_digest_round_trip(controller, switch):
    request = ActivePacket.alloc_request(
        src=CLIENT,
        dst=controller.mac,
        fid=7,
        request=listing1_pattern().to_request(),
    )
    switch.receive(request, in_port=1)
    replies = controller.process_pending()
    assert len(replies) == 1
    response = replies[0]
    assert response.ptype == PacketType.ALLOC_RESPONSE
    assert response.fid == 7
    assert not response.has_flag(ControlFlags.ALLOC_FAILED)
    assert response.response.allocated_stages() == [2, 5, 9]


def test_failed_request_flagged(controller, switch):
    from tests.test_core_allocator import hh_pattern

    fid = 0
    while controller.admit(fid=fid, pattern=hh_pattern()).success:
        fid += 1
    request = ActivePacket.alloc_request(
        src=CLIENT, dst=controller.mac, fid=999, request=hh_pattern().to_request()
    )
    switch.receive(request, in_port=1)
    replies = controller.process_pending()
    assert replies[-1].has_flag(ControlFlags.ALLOC_FAILED)


def test_realloc_notices_sent_to_incumbents(switch):
    """Under first-fit, a same-pattern arrival shares the incumbent's
    stages, so the incumbent must receive a reallocation notice."""
    from repro.core import AllocationScheme

    controller = ActiveRmtController(switch, scheme=AllocationScheme.FIRST_FIT)
    first = ActivePacket.alloc_request(
        src=CLIENT, dst=controller.mac, fid=1, request=listing1_pattern().to_request()
    )
    switch.receive(first, in_port=1)
    controller.process_pending()
    request = ActivePacket.alloc_request(
        src=CLIENT2, dst=controller.mac, fid=50, request=listing1_pattern().to_request()
    )
    switch.receive(request, in_port=2)
    replies = controller.process_pending()
    notices = [r for r in replies if r.has_flag(ControlFlags.REALLOC_NOTICE)]
    assert any(n.fid == 1 for n in notices)
    # The notice carries fid 1's updated (halved) region.
    notice = next(n for n in notices if n.fid == 1)
    assert notice.response.region_for_stage(2).size == 128 * 256


def test_rolled_back_admission_reallocates_nobody():
    """A TCAM-starved admission plans to move incumbents, commits, and is
    undone: its report names none of them as reallocated (the
    provisioning log and Fig. 7c/11's reallocated-cache counts read it)."""
    from repro.apps.cache import cache_pattern

    controller = ActiveRmtController(ActiveSwitch(SwitchConfig(tcam_entries_per_stage=8)))
    fid = 0
    report = None
    while report is None or report.success:
        fid += 1
        assert fid < 64
        regions = {other: controller.allocator.regions_for(other) for other in range(1, fid)}
        report = controller.admit(fid=fid, pattern=cache_pattern())
    assert report.rolled_back and report.fault == "tcam"
    assert report.plan.reallocated_fids  # it had planned to move some...
    for other, before in regions.items():  # ...but moved nobody
        assert controller.allocator.regions_for(other) == before
    assert report.reallocated_fids == []
    assert report.snapshot_seconds == 0.0


def test_deallocate_control_packet(controller, switch):
    controller.admit(fid=3, pattern=listing1_pattern())
    release = ActivePacket.control(
        src=CLIENT, dst=controller.mac, fid=3, flags=ControlFlags.DEALLOCATE
    )
    switch.receive(release, in_port=1)
    controller.process_pending()
    assert 3 not in controller.allocator.apps


def test_a_deallocate_for_a_non_resident_fid_does_not_abort_the_poll(
    controller, switch
):
    for fid, flags in ((99, ControlFlags.DEALLOCATE), (5, ControlFlags.SNAPSHOT_COMPLETE)):
        switch.receive(
            ActivePacket.control(src=CLIENT, dst=controller.mac, fid=fid, flags=flags),
            in_port=1,
        )
    assert controller.process_pending() == []
    assert controller.digests == {"control": 2}
    assert controller.refused_withdrawals == []  # a rejection is not re-sent
    assert controller.device.poll_digests() == []


def test_withdraw_with_retries_resends_only_what_the_switch_refused():
    status = {
        1: ProvisioningStatus.ROLLED_BACK,
        2: ProvisioningStatus.REJECTED,
        3: ProvisioningStatus.ADMITTED,
    }
    sent = []

    def submit(request):
        sent.append(request.fid)
        return ProvisioningReport(fid=request.fid, status=status[request.fid])

    refused = []
    assert withdraw_with_retries(submit, 1, refused) == []
    assert refused == [1]
    assert withdraw_with_retries(submit, 2, refused) == []
    assert refused == [1]  # the switch refused 1 again; 2 is not resident
    status[1] = ProvisioningStatus.ADMITTED
    assert withdraw_with_retries(submit, 3, refused) == [1, 3]
    assert refused == []
    assert sent == [1, 1, 2, 1, 3]


def test_table_update_engine_costs():
    switch = ActiveSwitch(SwitchConfig())
    engine = TableUpdateEngine(
        SimDevice(switch), TableUpdateCost(install_entry_seconds=0.01)
    )
    seconds = engine.install_app(fid=1, regions={5: BlockRange(0, 4)})
    # 1 grant + 3 translation entries in the window = 4 entries.
    assert seconds == pytest.approx(0.04)
    assert engine.entries_installed == 4


def test_inelastic_admission_with_elastic_incumbents(controller):
    for fid in range(20):
        controller.admit(fid=fid, pattern=listing1_pattern())
    report = controller.admit(fid=100, pattern=lb_pattern())
    assert report.success
    assert report.snapshot_seconds > 0  # incumbents paged state


def _names(node):
    """Every bare name an ``except`` clause's type expression mentions."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} if node else set()


def test_arrivals_and_departures_land_through_one_body():
    """One journal, one refusal handler: ``ActiveRmtController`` builds a
    ``TableUpdateJournal`` in exactly one method, and exactly one handler
    catches a forward apply's ``DeviceError`` (the journal rollback's own
    handler, nested inside it, is not a forward apply's)."""
    tree = ast.parse(Path(controller_module.__file__).read_text(encoding="utf-8"))
    (cls,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ActiveRmtController"
    ]
    builders = {
        method.name
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "TableUpdateJournal"
    }
    assert len(builders) == 1, builders
    handlers = [
        node for node in ast.walk(cls)
        if isinstance(node, ast.ExceptHandler) and "DeviceError" in _names(node.type)
    ]
    nested = {
        id(inner)
        for outer in handlers
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, ast.ExceptHandler)
    }
    forward = [handler for handler in handlers if id(handler) not in nested]
    assert len(forward) == 1
    (method,) = [
        method.name
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and forward[0] in ast.walk(method)
    ]
    assert method in builders
