"""Tests for the unified control-plane facade and the public surface.

``ActiveRmtController.submit`` is the single entry point; ``admit``
and ``withdraw`` are thin wrappers that must behave exactly as before,
and ``serve_digest`` decodes a digest into one of their requests.
The blessed API re-exports from ``repro`` are pinned here too.
"""

import pytest

from repro.controller import (
    ActiveRmtController,
    ControllerError,
    ProvisioningReport,
    ProvisioningRequest,
    ProvisioningStatus,
    RequestKind,
)
from repro.controller.service import pools_fingerprint
from repro.fabric import Fabric
from repro.packets import ActivePacket, ControlFlags, MacAddress, PacketType
from repro.switchsim import ActiveSwitch
from repro.telemetry import MetricsRegistry

from tests.test_core_constraints import listing1_pattern

CLIENT = MacAddress.from_host_id(1)


@pytest.fixture
def switch():
    sw = ActiveSwitch()
    sw.register_host(CLIENT, 1)
    return sw


@pytest.fixture
def controller(switch):
    return ActiveRmtController(switch)


def test_submit_admission(controller):
    report = controller.submit(
        ProvisioningRequest.admission(1, listing1_pattern())
    )
    assert isinstance(report, ProvisioningReport)
    assert report.success
    assert report.plan is not None
    assert controller.commit_log == [("admit", 1)]  # the admission landed


def test_admit_wrapper_delegates_to_submit(controller, monkeypatch):
    seen = []
    original = controller.submit

    def spy(request):
        seen.append(request)
        return original(request)

    monkeypatch.setattr(controller, "submit", spy)
    controller.admit(fid=1, pattern=listing1_pattern())
    assert len(seen) == 1
    assert seen[0].kind is RequestKind.ADMIT
    assert seen[0].fid == 1


def test_submit_withdrawal_reports_table_seconds(controller):
    controller.admit(fid=1, pattern=listing1_pattern())
    report = controller.submit(ProvisioningRequest.withdrawal(1))
    assert report.success
    assert report.fid == 1
    assert report.table_update_seconds > 0
    assert report.total_seconds == report.table_update_seconds
    assert controller.commit_log == [("admit", 1), ("withdraw", 1)]


def test_withdraw_wrapper_returns_seconds(controller):
    controller.admit(fid=1, pattern=listing1_pattern())
    seconds = controller.withdraw(fid=1)
    assert isinstance(seconds, float)
    assert seconds > 0


def test_serve_digest_reports_the_admission(controller, switch):
    request = ActivePacket.alloc_request(
        src=CLIENT,
        dst=controller.mac,
        fid=7,
        request=listing1_pattern().to_request(),
    )
    switch.receive(request, in_port=1)
    digest = switch.poll_digests()[0]
    report = controller.serve_digest(digest)
    assert report.success
    assert report.fid == 7
    assert controller.commit_log == [("admit", 7)]  # an admission like any other
    replies = controller.allocation_replies(report, digest)
    assert len(replies) == 1
    assert replies[0].ptype == PacketType.ALLOC_RESPONSE


def test_process_pending_sends_no_reply_to_a_control_digest(controller, switch):
    packet = ActivePacket.control(
        src=CLIENT, dst=controller.mac, fid=9, flags=ControlFlags.SNAPSHOT_COMPLETE
    )
    switch.receive(packet, in_port=1)
    assert controller.process_pending() == []
    assert controller.digests == {"control": 1}


@pytest.mark.parametrize(
    "request_",
    [
        ProvisioningRequest(kind=RequestKind.ADMIT, fid=1),  # missing pattern
        ProvisioningRequest(kind="evict", fid=1),  # not a request kind
    ],
)
def test_submit_rejects_malformed_requests(controller, request_):
    with pytest.raises(ControllerError):
        controller.submit(request_)


@pytest.mark.parametrize("door", ["controller", "service", "fabric"])
def test_withdrawal_of_a_non_resident_fid_is_rejected(door):
    registry = MetricsRegistry()
    fabric = Fabric.build(1, telemetry=registry)
    (shard,) = fabric.shards
    controller = shard.controller
    submit = {
        "controller": controller.submit,
        "service": shard.service.submit,
        "fabric": fabric.submit,
    }[door]
    assert submit(ProvisioningRequest.admission(1, listing1_pattern())).success

    def state():
        counters = registry.snapshot()["counters"]
        return pools_fingerprint(controller.allocator), list(controller.commit_log), counters

    before = state()
    report = submit(ProvisioningRequest.withdrawal(99))  # never admitted
    assert report.status is ProvisioningStatus.REJECTED
    assert not report.success
    assert report.reason == "fid 99 not admitted"
    assert state() == before

    assert submit(ProvisioningRequest.withdrawal(1)).success
    again = submit(ProvisioningRequest.withdrawal(1))  # withdrawn already
    assert again.status is ProvisioningStatus.REJECTED
    assert again.reason == "fid 1 not admitted"
    assert controller.commit_log == [("admit", 1), ("withdraw", 1)]


def test_failed_admission_report_shape(controller):
    from tests.test_core_allocator import hh_pattern

    fid = 0
    while (
        report := controller.submit(ProvisioningRequest.admission(fid, hh_pattern()))
    ).success:
        fid += 1
    assert not report.success
    assert report.reason


# ----------------------------------------------------------------------
# compile_mutant convenience front door
# ----------------------------------------------------------------------


def test_compile_mutant_matches_manual_pipeline(controller):
    from repro.client import ActiveCompiler, compile_mutant
    from repro.isa import assemble

    program = assemble(
        "MAR_LOAD $2\nMEM_READ\nMBR_EQUALS_DATA_1\nCRET\n"
        "MEM_READ\nMBR_EQUALS_DATA_2\nCRET\nRTS\nMEM_READ\n"
        "MBR_STORE $0\nRETURN",
        name="cache-query",
    )
    compiler = ActiveCompiler(controller.switch.config)
    pattern = compiler.derive_pattern(program, name="cache-query")
    assert controller.admit(fid=1, pattern=pattern).success
    response = controller.allocator.response_for(1)

    manual = compiler.synthesize(program, pattern, response)
    one_shot = compile_mutant(
        program, response, config=controller.switch.config, name="cache-query"
    )
    assert one_shot.program.instructions == manual.program.instructions
    assert one_shot.access_stages == manual.access_stages
    assert one_shot.regions == manual.regions


# ----------------------------------------------------------------------
# Blessed top-level surface
# ----------------------------------------------------------------------


def test_repro_public_surface():
    import repro

    for name in (
        "ActiveSwitch",
        "ActiveRmtController",
        "ProgramCache",
        "compile_mutant",
        "SwitchConfig",
        "ProvisioningRequest",
        "ProvisioningReport",
        "BatchResult",
        "infer_recirculations",
    ):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_package_docstring_data_path_example_runs(capsys):
    """The data-path snippet of ``repro.__doc__``, run as written on a
    batch of unactivated program packets."""
    import textwrap

    import repro

    text = repro.__doc__.split("Data path::\n", 1)[1].split("Control plane::", 1)[0]
    packets = [
        ActivePacket.program(src=CLIENT, dst=CLIENT, fid=1, instructions=[])
        for _ in range(3)
    ]
    namespace = {"packets": packets}
    exec(textwrap.dedent(text), namespace)
    assert namespace["result"].outputs == []  # no host is registered
    assert capsys.readouterr().out == "3\n"


def test_repro_star_import_is_bounded():
    namespace = {}
    exec("from repro import *", namespace)
    public = {k for k in namespace if not k.startswith("__")}
    import repro

    assert public == set(repro.__all__)
