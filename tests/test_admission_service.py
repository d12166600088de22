"""Concurrent admission service: optimistic plan/commit under churn.

The contracts under test:

- **Linearizability**: interleaved concurrent admissions leave the
  pools byte-identical to the serial execution of the service's own
  commit log (some serial admission order).
- **Stale-plan retry**: a commit that lost the race re-plans and
  succeeds; conflict/retry counters advance.
- **Deadline shed**: a request past its deadline resolves with a
  ``SHED`` report carrying a retry-after hint -- never an exception.
- **Queue-full shed**: submissions beyond the queue bound shed
  immediately.
- **Batch atomicity**: a mid-batch switch-side failure rolls the whole
  group back byte-identically; an infeasible member rejects the whole
  group before anything is touched.
- The satellite API changes: ``ProvisioningStatus``, keyword-only
  ``admit``/``withdraw``/``what_if``, and the ``CompileOptions`` bag.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import VerifyMode
from repro.apps.base import EXEMPLAR_APPS
from repro.client.compiler import ActiveCompiler, CompileOptions
from repro.controller import (
    ActiveRmtController,
    AdmissionService,
    AdmissionServiceError,
    BackoffPolicy,
    ProvisioningRequest,
    ProvisioningStatus,
)
from repro.controller.service import pools_fingerprint, replay_commit_log
from repro.core.transactions import PlanState, StalePlanError
from repro.device import SimDevice
from repro.faults import FaultKind, FaultyDevice
from repro.switchsim import ActiveSwitch, SwitchConfig
from repro.telemetry import MetricsRegistry

from tests.test_analysis_verifier import (
    _counter_pattern,
    _counter_program,
    _liar_pattern,
    _liar_program,
)
from tests.test_core_constraints import listing1_pattern
from tests.test_faults import ScriptedPlan
from tests.test_transactions import allocator_fingerprint, switch_fingerprint


def _controller(telemetry=None, **config_kwargs) -> ActiveRmtController:
    config = SwitchConfig(**config_kwargs)
    return ActiveRmtController(ActiveSwitch(config), telemetry=telemetry)


def _admission(fid: int) -> ProvisioningRequest:
    return ProvisioningRequest.admission(fid=fid, pattern=listing1_pattern())


class FakeClock:
    """Deterministic clock + sleep pair for deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Linearizability
# ----------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    count=st.integers(min_value=2, max_value=10),
    workers=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_concurrent_admissions_linearize(count, workers, seed):
    """Pools after a concurrent run == serial replay of its commit log."""
    pattern = listing1_pattern()
    controller = _controller()
    with AdmissionService(controller, workers=workers, seed=seed) as service:
        tickets = [
            service.submit(
                ProvisioningRequest.admission(fid=fid, pattern=pattern)
            )
            for fid in range(1, count + 1)
        ]
        reports = [ticket.result(timeout=30) for ticket in tickets]
    assert all(
        report.status
        in (ProvisioningStatus.ADMITTED, ProvisioningStatus.REJECTED)
        for report in reports
    )
    admitted = {r.fid for r in reports if r.success}
    assert {fid for op, fid in service.commit_log} == admitted

    replay = _controller()
    replay_commit_log(
        service.commit_log, {fid: pattern for fid in admitted}, replay
    )
    assert pools_fingerprint(controller.allocator) == pools_fingerprint(
        replay.allocator
    )
    assert allocator_fingerprint(controller.allocator)[:2] == (
        allocator_fingerprint(replay.allocator)[:2]
    )


def test_concurrent_mixed_churn_linearizes():
    """Admissions racing withdrawals still replay byte-identically."""
    pattern = listing1_pattern()
    controller = _controller()
    service = AdmissionService(controller, workers=3, seed=1)
    first_wave = [
        service.submit(ProvisioningRequest.admission(fid=fid, pattern=pattern))
        for fid in range(1, 5)
    ]
    for ticket in first_wave:
        assert ticket.result(timeout=30).success
    # Race withdrawals of the first wave against a second wave.
    for fid in (1, 3):
        service.submit(ProvisioningRequest.withdrawal(fid=fid))
    second_wave = [
        service.submit(ProvisioningRequest.admission(fid=fid, pattern=pattern))
        for fid in range(5, 9)
    ]
    for ticket in second_wave:
        ticket.result(timeout=30)
    service.drain(timeout=30)
    service.close()

    replay = _controller()
    replay_commit_log(
        service.commit_log,
        {fid: pattern for fid in range(1, 9)},
        replay,
    )
    assert pools_fingerprint(controller.allocator) == pools_fingerprint(
        replay.allocator
    )


# ----------------------------------------------------------------------
# Stale-plan retry
# ----------------------------------------------------------------------


def test_stale_plan_retries_and_succeeds():
    """A rival commit between snapshot and commit forces one re-plan."""
    telemetry = MetricsRegistry()
    controller = _controller()
    service = AdmissionService(
        controller, workers=0, telemetry=telemetry, sleep=lambda s: None
    )
    pattern = listing1_pattern()
    original = service._snapshot_shadow
    rigged = {"fired": False}

    def racing_snapshot():
        shadow = original()
        if not rigged["fired"]:
            rigged["fired"] = True
            # Rival lands after our shadow was taken: our plan is stale.
            assert controller.admit(fid=777, pattern=pattern).success
        return shadow

    service._snapshot_shadow = racing_snapshot
    report = service.submit_and_wait(
        ProvisioningRequest.admission(fid=1, pattern=pattern)
    )
    assert report.status is ProvisioningStatus.ADMITTED
    snap = telemetry.snapshot()["counters"]
    assert sum(
        v for k, v in snap.items()
        if k.startswith("admission_commit_conflicts_total")
    ) == 1
    assert sum(
        v for k, v in snap.items()
        if k.startswith("admission_plan_retries_total")
    ) == 1
    # Both tenants resident; the retry planned around the rival.
    assert set(controller.allocator.resident_fids()) == {1, 777}


def test_commit_plan_rejects_stale_basis_directly():
    controller = _controller()
    pattern = listing1_pattern()
    shadow = controller.allocator.shadow()
    plan = shadow.plan(1, pattern)
    assert controller.admit(fid=2, pattern=pattern).success  # version moves
    with pytest.raises(StalePlanError):
        controller.commit_plan([plan])


# ----------------------------------------------------------------------
# Shedding
# ----------------------------------------------------------------------


def test_deadline_shed_is_a_response_not_an_error():
    telemetry = MetricsRegistry()
    clock = FakeClock()
    controller = _controller()
    service = AdmissionService(
        controller,
        workers=0,
        telemetry=telemetry,
        clock=clock,
        sleep=clock.sleep,
        retry_after_s=0.25,
    )
    ticket = service.submit(_admission(1), deadline_s=1.0)
    report = ticket.result(timeout=0)
    assert report.status is not ProvisioningStatus.SHED  # in time: admitted
    clock.now = 100.0
    report = service.submit_and_wait(_admission(2), deadline_s=-1.0)
    assert report.status is ProvisioningStatus.SHED
    assert report.shed
    assert not report.success
    assert report.retry_after_s == 0.25
    snap = telemetry.snapshot()["counters"]
    assert snap.get('admission_shed_total{reason="deadline"}') == 1
    assert 2 not in controller.allocator.apps


def test_deadline_shed_during_backoff():
    """Deadline expiring while backing off sheds instead of retrying."""
    clock = FakeClock()
    controller = _controller()
    service = AdmissionService(
        controller,
        workers=0,
        clock=clock,
        sleep=clock.sleep,
        backoff=BackoffPolicy(base_s=10.0, jitter=0.0),
    )
    pattern = listing1_pattern()
    original = service._snapshot_shadow

    def always_stale():
        shadow = original()
        controller.allocator._version += 1  # every plan goes stale
        return shadow

    service._snapshot_shadow = always_stale
    report = service.submit_and_wait(
        ProvisioningRequest.admission(fid=1, pattern=pattern), deadline_s=5.0
    )
    assert report.status is ProvisioningStatus.SHED
    assert 1 not in controller.allocator.apps


def test_queue_full_sheds_immediately():
    telemetry = MetricsRegistry()
    controller = _controller(telemetry=telemetry)
    # Workers never started: the queue can only fill.
    service = AdmissionService(
        controller, workers=1, queue_limit=2, autostart=False,
        telemetry=telemetry,
    )
    first = service.submit(_admission(1))
    second = service.submit(_admission(2))
    third = service.submit(_admission(3))
    assert not first.done() and not second.done()
    report = third.result(timeout=0)
    assert report.status is ProvisioningStatus.SHED
    assert report.retry_after_s > 0
    snap = telemetry.snapshot()["counters"]
    assert snap.get('admission_shed_total{reason="queue_full"}') == 1
    # Workers drain the backlog once started.
    service.start()
    assert first.result(timeout=30).success
    assert second.result(timeout=30).success
    service.close()


# ----------------------------------------------------------------------
# Batched admission
# ----------------------------------------------------------------------


def test_batch_commits_atomically():
    controller = _controller()
    service = AdmissionService(controller, workers=0)
    batch = service.submit_many([_admission(fid) for fid in (1, 2, 3)])
    report = batch.result(timeout=0)
    assert report.status is ProvisioningStatus.ADMITTED
    assert report.success
    assert [r.success for r in report.reports] == [True, True, True]
    assert service.commit_log == [("admit", 1), ("admit", 2), ("admit", 3)]
    assert set(controller.allocator.resident_fids()) == {1, 2, 3}


def test_batch_rolls_back_whole_group_on_tcam_exhaustion():
    """A mid-batch TCAM overflow undoes every member, byte-identically."""
    controller = _controller(tcam_entries_per_stage=2)
    service = AdmissionService(controller, workers=0)
    pattern = listing1_pattern()
    # Fill most of the TCAM with singles first.
    resident = 0
    while controller.admit(fid=100 + resident, pattern=pattern).success:
        resident += 1
        assert resident < 50
    # Free one tenant so a small batch plans feasibly again, then ask
    # for more than the TCAM can take: the batch must commit partway
    # and roll back in full.
    controller.withdraw(fid=100)
    before_alloc = allocator_fingerprint(controller.allocator)
    before_switch = switch_fingerprint(controller)
    batch = service.submit_many([_admission(fid) for fid in (1, 2, 3, 4)])
    report = batch.result(timeout=0)
    assert report.status is ProvisioningStatus.ROLLED_BACK
    assert not report.success
    # Every member reports like a single rolled-back admission: its own
    # certificate, and its plan -- rolled back (ABORTED) if it had
    # committed before the fault, still PENDING if the fault pre-empted it.
    culprit = next(
        index for index, member in enumerate(report.reports)
        if f"admitting fid {member.fid}:" in member.reason
    )
    for index, member in enumerate(report.reports):
        assert member.rolled_back and member.fault == "tcam"
        assert member.certificate is not None
        assert member.certificate.fid == member.fid
        assert member.plan.state is (
            PlanState.ABORTED if index <= culprit else PlanState.PENDING
        )
        assert member.reallocated_fids == []  # nobody was moved
    assert allocator_fingerprint(controller.allocator) == before_alloc
    assert switch_fingerprint(controller) == before_switch
    assert all(("admit", fid) not in service.commit_log for fid in (1, 2, 3, 4))


def test_batch_rejects_infeasible_member_without_touching_state():
    # A small register file saturates in a few dozen admissions.
    controller = _controller(words_per_stage=1024)
    service = AdmissionService(controller, workers=0)
    pattern = listing1_pattern()
    # Saturate the device so a later member cannot fit.
    fid = 100
    while controller.admit(fid=fid, pattern=pattern).success:
        fid += 1
        assert fid < 500
    before = allocator_fingerprint(controller.allocator)
    batch = service.submit_many([_admission(1), _admission(2)])
    report = batch.result(timeout=0)
    assert report.status is ProvisioningStatus.REJECTED
    assert allocator_fingerprint(controller.allocator) == before
    assert service.commit_log == []


def test_batch_strict_rejection_reports_every_member():
    """A strict verifier rejection fails the whole group before anything
    is touched -- and says so: one report per member, nothing logged
    (an empty report list would read as an all-admitted group)."""
    controller = ActiveRmtController(ActiveSwitch(), verify="strict")
    service = AdmissionService(controller, workers=0)
    before = allocator_fingerprint(controller.allocator)
    clean = _counter_program()
    batch = service.submit_many(
        [
            ProvisioningRequest.admission(
                fid=1, pattern=_counter_pattern(clean), program=clean
            ),
            ProvisioningRequest.admission(
                fid=2, pattern=_liar_pattern(), program=_liar_program()
            ),
            ProvisioningRequest.admission(
                fid=3, pattern=_counter_pattern(clean), program=clean
            ),
        ]
    )
    report = batch.result(timeout=0)
    assert report.status is ProvisioningStatus.REJECTED
    assert [member.fid for member in report.reports] == [1, 2, 3]
    assert not any(member.success for member in report.reports)
    assert report.reports[1].reason.startswith("verifier rejected:")
    assert report.reports[0].reason == "batch aborted: fid 2 rejected by verifier"
    assert report.reports[0].certificate is not None  # analysed before fid 2
    assert report.reports[2].certificate is None  # never reached
    assert service.commit_log == []
    assert allocator_fingerprint(controller.allocator) == before


def test_batch_validates_inputs():
    controller = _controller()
    service = AdmissionService(controller, workers=0)
    with pytest.raises(AdmissionServiceError):
        service.submit_many([])
    with pytest.raises(AdmissionServiceError):
        service.submit_many([_admission(1), _admission(1)])
    with pytest.raises(AdmissionServiceError):
        service.submit_many([ProvisioningRequest.withdrawal(fid=1)])


# ----------------------------------------------------------------------
# Unified front door + status enum (satellites)
# ----------------------------------------------------------------------


def test_report_status_enum_and_outcome_shim():
    controller = _controller()
    report = controller.admit(fid=1, pattern=listing1_pattern())
    assert report.status is ProvisioningStatus.ADMITTED
    assert report.status.value == "admitted"
    assert not hasattr(report, "outcome")
    probe = controller.admit(fid=2, pattern=listing1_pattern(), dry_run=True)
    assert probe.status is ProvisioningStatus.DRY_RUN
    with pytest.raises(TypeError):
        controller.admit(3, listing1_pattern())
    with pytest.raises(TypeError):
        controller.withdraw(1)


def test_what_if_keyword_only_with_shim():
    controller = _controller()
    plan = controller.what_if(fid=9, pattern=listing1_pattern())
    assert plan.feasible
    with pytest.raises(TypeError):
        controller.what_if(9, listing1_pattern())


def test_submit_is_the_single_front_door():
    controller = _controller()
    report = controller.submit(
        ProvisioningRequest.admission(fid=4, pattern=listing1_pattern())
    )
    assert report.status is ProvisioningStatus.ADMITTED
    report = controller.submit(ProvisioningRequest.withdrawal(fid=4))
    assert report.success


# ----------------------------------------------------------------------
# CompileOptions (satellite)
# ----------------------------------------------------------------------


def test_compile_options_bag_everywhere():
    options = CompileOptions(verify="strict")
    assert options.verify is VerifyMode.STRICT
    compiler = ActiveCompiler(verify=options)
    assert compiler.verify is VerifyMode.STRICT
    controller = ActiveRmtController(ActiveSwitch(), verify=options)
    assert controller.verify is VerifyMode.STRICT
    # Plain strings and VerifyMode still work.
    assert ActiveCompiler(verify="off").verify is VerifyMode.OFF
    assert CompileOptions.coerce(None).verify is VerifyMode.WARN
    assert CompileOptions.coerce(options) is options


def test_compile_options_supplies_other_knobs():
    from repro.core.constraints import LEAST_CONSTRAINED

    config = SwitchConfig(num_stages=10, ingress_stages=5)
    options = CompileOptions(
        config=config, synthesis_policy=LEAST_CONSTRAINED, verify="off"
    )
    compiler = ActiveCompiler(verify=options)
    assert compiler.config is config
    assert compiler.synthesis_policy is LEAST_CONSTRAINED
    assert compiler.verify is VerifyMode.OFF


# ----------------------------------------------------------------------
# Service lifecycle
# ----------------------------------------------------------------------


def test_close_rejects_new_submissions_but_drains_queue():
    controller = _controller()
    service = AdmissionService(controller, workers=2)
    tickets = [service.submit(_admission(fid)) for fid in (1, 2, 3)]
    service.close()
    for ticket in tickets:
        ticket.result(timeout=30)
    with pytest.raises(AdmissionServiceError):
        service.submit(_admission(4))


def test_worker_errors_propagate_through_ticket():
    controller = _controller()
    service = AdmissionService(controller, workers=1)

    def boom():
        raise RuntimeError("rigged")

    service._snapshot_shadow = boom
    ticket = service.submit(_admission(1))
    with pytest.raises(RuntimeError, match="rigged"):
        ticket.result(timeout=30)
    service.close()


def test_duplicate_fid_race_resolves_as_rejection():
    controller = _controller()
    service = AdmissionService(controller, workers=0)
    assert service.submit_and_wait(_admission(1)).success
    report = service.submit_and_wait(_admission(1))
    assert not report.success
    assert report.status is ProvisioningStatus.REJECTED


# ----------------------------------------------------------------------
# One loop for every group size (N = 1 the common case)
# ----------------------------------------------------------------------

EXEMPLARS = sorted(EXEMPLAR_APPS)


@settings(max_examples=25, deadline=None)
@given(
    apps=st.lists(st.sampled_from(EXEMPLARS), min_size=1, max_size=4),
    residents=st.integers(min_value=0, max_value=3),
)
def test_n_singles_equal_one_batch_of_n(apps, residents):
    """N x submit() and one submit_many() of the same N feasible
    admissions are the same history: equal pools, equal commit logs,
    equal per-member status and regions (the commit log is the replay
    witness, so equality is by fingerprint)."""
    requests = [
        ProvisioningRequest.admission(
            fid=fid, pattern=EXEMPLAR_APPS[name].pattern()
        )
        for fid, name in enumerate(apps, start=1)
    ]
    singles = AdmissionService(_controller(), workers=0)
    batched = AdmissionService(_controller(), workers=0)
    for service in (singles, batched):
        for fid in range(100, 100 + residents):  # same non-empty start
            assert service.submit_and_wait(_admission(fid)).success
    one_by_one = [singles.submit_and_wait(request) for request in requests]
    group = batched.submit_many(requests).result(timeout=0)
    assert group.status is ProvisioningStatus.ADMITTED
    assert pools_fingerprint(singles.controller.allocator) == pools_fingerprint(
        batched.controller.allocator
    )
    assert singles.commit_log == batched.commit_log
    for lone, member in zip(one_by_one, group.reports):
        assert (lone.fid, lone.status) == (member.fid, member.status)
        assert lone.plan.regions == member.plan.regions


@pytest.mark.parametrize("workers", [0, 1])
def test_batch_with_resident_fid_is_a_rejection_not_an_error(workers):
    """Misuse gets the same answer at every N: re-submitting a resident
    fid inside a group used to raise AllocationError out of the ticket
    where a lone submit() reports REJECTED."""
    controller = _controller()
    with AdmissionService(controller, workers=workers) as service:
        assert service.submit_and_wait(_admission(2), timeout=30).success
        before = pools_fingerprint(controller.allocator)
        report = service.submit_many(
            [_admission(1), _admission(2), _admission(3)]
        ).result(timeout=30)
        assert report.status is ProvisioningStatus.REJECTED
        assert [member.fid for member in report.reports] == [1, 2, 3]
        assert all(
            member.status is ProvisioningStatus.REJECTED
            for member in report.reports
        )
        assert {member.reason for member in report.reports} == {
            "fid 2 already admitted"
        }
        assert service.commit_log == [("admit", 2)]
        assert pools_fingerprint(controller.allocator) == before
        # The service is still up.
        assert service.submit_and_wait(_admission(4), timeout=30).success


def test_batch_replans_after_transient_rollback():
    """The bounded transient-fault re-plan applies to groups too: the
    first attempt rolls the whole group back on one scripted install
    fault, the second commits it."""
    faulted = {"done": False}

    def fault_one_install(op, index):
        if op == "install_grant" and not faulted["done"]:
            faulted["done"] = True
            return FaultKind.TRANSIENT
        return None

    telemetry = MetricsRegistry()
    device = FaultyDevice(
        SimDevice(ActiveSwitch(), device_id="sw0"), ScriptedPlan(fault_one_install)
    )
    controller = ActiveRmtController(device, telemetry=telemetry)
    service = AdmissionService(
        controller, workers=0, telemetry=telemetry, sleep=lambda s: None
    )
    report = service.submit_many(
        [_admission(fid) for fid in (1, 2, 3)]
    ).result(timeout=0)
    assert report.status is ProvisioningStatus.ADMITTED
    assert service.commit_log == [("admit", 1), ("admit", 2), ("admit", 3)]
    counters = telemetry.snapshot()["counters"]
    assert counters.get("admission_fault_retries_total") == 1.0
    assert not controller.audit().errors


def test_batch_infeasible_member_reports_every_member():
    """The controller's commit owns group infeasibility: the first
    member without a feasible mutant carries the planner's verdict, its
    siblings say why they were aborted, nothing is logged."""
    controller = _controller(words_per_stage=1024)
    service = AdmissionService(controller, workers=0)
    fid = 100
    while controller.admit(fid=fid, pattern=listing1_pattern()).success:
        fid += 1
        assert fid < 500
    # Withdraw one tenant: room for exactly one more, not for two.
    controller.withdraw(fid=100)
    before = allocator_fingerprint(controller.allocator)
    recorded = len(controller.reports)
    report = service.submit_many(
        [_admission(1), _admission(2), _admission(3)]
    ).result(timeout=0)
    assert report.status is ProvisioningStatus.REJECTED
    assert [member.fid for member in report.reports] == [1, 2, 3]
    first, culprit, last = report.reports
    assert culprit.plan is not None and not culprit.plan.feasible
    assert culprit.reason == culprit.plan.reason
    assert first.reason == last.reason == (
        "batch aborted: no feasible mutant for fid 2"
    )
    assert controller.reports[recorded:] == [culprit]
    assert service.commit_log == []
    assert allocator_fingerprint(controller.allocator) == before
