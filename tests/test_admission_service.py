"""The inline admission service: plan/commit, groups and the commit log.

The contracts under test:

- **The commit-log witness**: admissions and withdrawals leave the
  pools byte-identical to the serial replay of the controller's commit
  log (which the service reads), however many provisioning windows the
  run is modeled with; only operations that landed are logged.
- **The basis guard**: a plan made against another allocator version
  is refused, and on the inline path the ``StalePlanError`` propagates
  (nothing re-plans it).
- **Batch atomicity**: a mid-batch switch-side failure rolls the whole
  group back byte-identically; an infeasible member rejects the whole
  group before anything is touched.
- The satellite API changes: ``ProvisioningStatus``, keyword-only
  ``admit``/``withdraw``/``what_if``, and one way to set the verify
  policy (a ``VerifyMode`` or its name).
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import VerifyMode
from repro.apps.base import EXEMPLAR_APPS
from repro.client.compiler import ActiveCompiler
from repro.controller import (
    ActiveRmtController,
    AdmissionService,
    AdmissionServiceError,
    ProvisioningRequest,
    ProvisioningStatus,
    replay_commit_log,
)
from repro.controller.service import pools_fingerprint
from repro.core.transactions import PlanState, StalePlanError
from repro.device import SimDevice
from repro.experiments.common import windowed_seconds
from repro.faults import FaultKind, FaultyDevice
from repro.switchsim import ActiveSwitch, SwitchConfig

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


# ----------------------------------------------------------------------
# Linearizability
# ----------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    count=st.integers(min_value=2, max_value=10),
    windows=st.integers(min_value=2, max_value=4),
)
def test_concurrent_admissions_linearize(count, windows):
    """Admissions modeled with several provisioning windows outstanding
    are still the serial execution of the commit log: the pools equal
    its replay, and the modeled time lies between the table updates
    alone and the serial sum."""
    pattern = listing1_pattern()
    controller = _controller()
    service = AdmissionService(controller)
    reports = [
        service.submit(ProvisioningRequest.admission(fid=fid, pattern=pattern))
        for fid in range(1, count + 1)
    ]
    assert all(
        report.status
        in (ProvisioningStatus.ADMITTED, ProvisioningStatus.REJECTED)
        for report in reports
    )
    admitted = {r.fid for r in reports if r.success}
    assert service.commit_log == [("admit", fid) for fid in sorted(admitted)]

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
    modeled = windowed_seconds(reports, windows)
    tables = sum(r.table_update_seconds for r in reports)
    serial = sum(r.table_update_seconds + r.snapshot_seconds for r in reports)
    assert tables <= modeled <= serial


def test_concurrent_mixed_churn_linearizes():
    """Withdrawals interleaved with two waves of admissions replay
    byte-identically, in the order the service committed them."""
    pattern = listing1_pattern()
    controller = _controller()
    service = AdmissionService(controller)
    for fid in range(1, 5):
        assert service.submit(
            ProvisioningRequest.admission(fid=fid, pattern=pattern)
        ).success
    for fid in (1, 3):
        assert service.submit(ProvisioningRequest.withdrawal(fid=fid)).success
    for fid in range(5, 9):
        service.submit(ProvisioningRequest.admission(fid=fid, pattern=pattern))
    assert service.commit_log[4:6] == [("withdraw", 1), ("withdraw", 3)]

    replay = _controller()
    replay_commit_log(
        service.commit_log,
        {fid: pattern for fid in range(1, 9)},
        replay,
    )
    assert pools_fingerprint(controller.allocator) == pools_fingerprint(
        replay.allocator
    )


def test_the_commit_log_holds_only_what_landed():
    """The controller logs an admission or a withdrawal once it landed,
    and nothing else: a rolled-back (8-entry TCAM), rejected, dry-run
    or strict-refused admission and a refused withdrawal add no entry."""
    pattern = listing1_pattern()
    armed = {"remove_grant": False}
    device = FaultyDevice(
        SimDevice(ActiveSwitch(SwitchConfig(tcam_entries_per_stage=8))),
        ScriptedPlan(lambda op, index: FaultKind.TRANSIENT if armed.get(op) else None),
    )
    controller = ActiveRmtController(device)  # no retry: a fault escapes
    statuses = [controller.admit(fid=fid, pattern=pattern).status for fid in range(1, 9)]
    assert statuses == [ProvisioningStatus.ADMITTED] * 6 + [ProvisioningStatus.ROLLED_BACK] * 2
    landed = [("admit", fid) for fid in range(1, 7)]
    assert controller.commit_log == landed
    resident = controller.admit(fid=1, pattern=pattern)
    assert resident.status is ProvisioningStatus.REJECTED
    assert resident.reason == "fid 1 already admitted"
    assert controller.admit(fid=9, pattern=pattern, dry_run=True).status is (
        ProvisioningStatus.DRY_RUN
    )
    armed["remove_grant"] = True
    refused = controller.submit(ProvisioningRequest.withdrawal(fid=2))
    assert refused.status is ProvisioningStatus.ROLLED_BACK
    assert controller.commit_log == landed
    armed["remove_grant"] = False
    assert controller.submit(ProvisioningRequest.withdrawal(fid=2)).success
    assert controller.commit_log == [*landed, ("withdraw", 2)]

    # No feasible mutant: a small register file fills up.
    full = _controller(words_per_stage=1024)
    fid = 1
    while (report := full.admit(fid=fid, pattern=pattern)).success:
        fid += 1
        assert fid < 50
    assert report.status is ProvisioningStatus.REJECTED
    assert full.commit_log == [("admit", admitted) for admitted in range(1, fid)]

    strict = ActiveRmtController(ActiveSwitch(), verify="strict")
    liar = strict.submit(
        ProvisioningRequest.admission(fid=1, pattern=_liar_pattern(), program=_liar_program())
    )
    assert liar.status is ProvisioningStatus.REJECTED
    assert liar.reason.startswith("verifier rejected:")
    assert strict.commit_log == []


# ----------------------------------------------------------------------
# The basis guard
# ----------------------------------------------------------------------


def test_stale_plan_propagates_inline():
    """Nothing moves the allocator between an inline plan and its
    commit, so a stale plan is a bug: the guard refuses it, the error
    reaches the caller, nothing is committed or logged."""
    controller = _controller()
    service = AdmissionService(controller)
    allocator = controller.allocator
    original = allocator.plan

    def stale_plan(*args, **kwargs):
        plan = original(*args, **kwargs)
        allocator._version += 1  # the version moves under the plan
        return plan

    allocator.plan = stale_plan
    before = allocator_fingerprint(allocator)
    with pytest.raises(StalePlanError):
        service.submit(_admission(1))
    del allocator.plan
    assert service.commit_log == []
    assert allocator_fingerprint(allocator)[:2] == before[:2]
    # The service is still up.
    assert service.submit(_admission(1)).success


def test_commit_plan_rejects_stale_basis_directly():
    controller = _controller()
    pattern = listing1_pattern()
    shadow = controller.allocator.shadow()
    plan = shadow.plan(1, pattern)
    assert controller.admit(fid=2, pattern=pattern).success  # version moves
    with pytest.raises(StalePlanError):
        controller.commit_plan([plan])


# ----------------------------------------------------------------------
# Batched admission
# ----------------------------------------------------------------------


def test_batch_commits_atomically():
    controller = _controller()
    service = AdmissionService(controller)
    batch = service.submit_many([_admission(fid) for fid in (1, 2, 3)])
    report = batch
    assert report.status is ProvisioningStatus.ADMITTED
    assert report.success
    assert [r.success for r in report.reports] == [True, True, True]
    assert service.commit_log == [("admit", 1), ("admit", 2), ("admit", 3)]
    assert set(controller.allocator.resident_fids()) == {1, 2, 3}


def test_batch_rolls_back_whole_group_on_tcam_exhaustion():
    """A mid-batch TCAM overflow undoes every member, byte-identically."""
    controller = _controller(tcam_entries_per_stage=2)
    service = AdmissionService(controller)
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
    report = batch
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
    service = AdmissionService(controller)
    pattern = listing1_pattern()
    # Saturate the device so a later member cannot fit.
    fid = 100
    while controller.admit(fid=fid, pattern=pattern).success:
        fid += 1
        assert fid < 500
    before = allocator_fingerprint(controller.allocator)
    logged = list(service.commit_log)  # the fillers, admitted directly
    batch = service.submit_many([_admission(1), _admission(2)])
    report = batch
    assert report.status is ProvisioningStatus.REJECTED
    assert allocator_fingerprint(controller.allocator) == before
    assert service.commit_log == logged


def test_batch_strict_rejection_reports_every_member():
    """A strict verifier rejection fails the whole group before anything
    is touched -- and says so: one report per member, nothing logged
    (an empty report list would read as an all-admitted group)."""
    controller = ActiveRmtController(ActiveSwitch(), verify="strict")
    service = AdmissionService(controller)
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
    report = batch
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
    service = AdmissionService(controller)
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
# The verify policy
# ----------------------------------------------------------------------


def test_verify_takes_a_mode_or_its_name():
    for verify in ("strict", VerifyMode.STRICT):
        assert ActiveCompiler(verify=verify).verify is VerifyMode.STRICT
        assert ActiveRmtController(ActiveSwitch(), verify=verify).verify is VerifyMode.STRICT
    with pytest.raises(ValueError):
        ActiveRmtController(ActiveSwitch(), verify="paranoid")


# ----------------------------------------------------------------------
# Service lifecycle
# ----------------------------------------------------------------------


def test_only_the_inline_mode_exists():
    controller = _controller()
    assert AdmissionService(controller, workers=0).submit(_admission(1)).success
    for workers in (1, 4, -1):
        with pytest.raises(ValueError, match="workers must be 0"):
            AdmissionService(controller, workers=workers)


def test_planner_errors_propagate_to_the_caller():
    controller = _controller()
    service = AdmissionService(controller)

    def boom(*args, **kwargs):
        raise RuntimeError("rigged")

    controller.allocator.plan = boom
    with pytest.raises(RuntimeError, match="rigged"):
        service.submit(_admission(1))
    del controller.allocator.plan
    assert service.commit_log == []
    assert service.submit(_admission(1)).success


def test_duplicate_fid_race_resolves_as_rejection():
    controller = _controller()
    service = AdmissionService(controller)
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
    singles = AdmissionService(_controller())
    batched = AdmissionService(_controller())
    for service in (singles, batched):
        for fid in range(100, 100 + residents):  # same non-empty start
            assert service.submit_and_wait(_admission(fid)).success
    one_by_one = [singles.submit_and_wait(request) for request in requests]
    group = batched.submit_many(requests)
    assert group.status is ProvisioningStatus.ADMITTED
    assert pools_fingerprint(singles.controller.allocator) == pools_fingerprint(
        batched.controller.allocator
    )
    assert singles.commit_log == batched.commit_log
    for lone, member in zip(one_by_one, group.reports):
        assert (lone.fid, lone.status) == (member.fid, member.status)
        assert lone.plan.regions == member.plan.regions


def test_batch_with_resident_fid_is_a_rejection_not_an_error():
    """Misuse gets the same answer at every N: re-submitting a resident
    fid inside a group used to raise AllocationError out of the service
    where a lone submit() reports REJECTED."""
    controller = _controller()
    service = AdmissionService(controller)
    assert service.submit_and_wait(_admission(2)).success
    before = pools_fingerprint(controller.allocator)
    report = service.submit_many([_admission(1), _admission(2), _admission(3)])
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
    assert service.submit_and_wait(_admission(4)).success


def test_batch_infeasible_member_reports_every_member():
    """The controller's commit owns group infeasibility: the first
    member without a feasible mutant carries the planner's verdict, its
    siblings say why they were aborted, nothing is logged."""
    controller = _controller(words_per_stage=1024)
    service = AdmissionService(controller)
    fid = 100
    while controller.admit(fid=fid, pattern=listing1_pattern()).success:
        fid += 1
        assert fid < 500
    # Withdraw one tenant: room for exactly one more, not for two.
    controller.withdraw(fid=100)
    before = allocator_fingerprint(controller.allocator)
    recorded = controller.admissions.copy()
    logged = list(service.commit_log)  # the fillers, admitted directly
    report = service.submit_many(
        [_admission(1), _admission(2), _admission(3)]
    )
    assert report.status is ProvisioningStatus.REJECTED
    assert [member.fid for member in report.reports] == [1, 2, 3]
    first, culprit, last = report.reports
    assert culprit.plan is not None and not culprit.plan.feasible
    assert culprit.reason == culprit.plan.reason
    assert first.reason == last.reason == (
        "batch aborted: no feasible mutant for fid 2"
    )
    # Only the culprit is recorded, as the one infeasible admission.
    assert controller.admissions - recorded == Counter(no_feasible_mutant=1)
    assert service.commit_log == logged
    assert allocator_fingerprint(controller.allocator) == before
