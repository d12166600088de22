"""One state machine over the composed oracles (ROADMAP item 1(a), first slice).

The per-feature tests each hold one oracle against one feature.  This
drives *arbitrary interleavings* of admit / withdraw / batch / dry-run /
device-fault steps through one controller behind an inline
``AdmissionService`` on a ``FaultyDevice`` with a TCAM small enough to
refuse layout changes, against a deliberately naive model -- a dict of
who is resident -- and holds every oracle after every step:

- the model equals ``resident_fids()``;
- the six-invariant audit is clean;
- the live isolation certificates are valid and cover exactly the
  residents;
- the table surface equals a from-scratch install of the layout;
- a serial replay of the commit log reproduces the pools fingerprint;
- a step that did not succeed left pools, tables, registers and
  activation byte-identical.

Two historical bugs are re-injected below, and the derandomized machine
must fail under each: a TCAM refusal escaping the transaction, and a
planner without the one-block slack floor for elastic newcomers.

Not yet covered (the follow-up): device death, failover (replace and
redistribute) and recovery rules, and retiring the per-PR tests this
subsumes.
"""

import inspect
import textwrap

import pytest
from hypothesis import HealthCheck, Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.controller import controller as controller_module
from repro.controller import (
    ActiveRmtController,
    AdmissionService,
    ProvisioningRequest,
    ProvisioningStatus,
    replay_commit_log,
)
from repro.controller.service import pools_fingerprint
from repro.core import allocator as allocator_module
from repro.core.allocator import ActiveRmtAllocator
from repro.device import SimDevice
from repro.experiments.common import exemplar_patterns, table_surface_mismatches
from repro.faults import FaultKind, FaultyDevice, RetryPolicy
from repro.switchsim import ActiveSwitch, SwitchConfig
from repro.switchsim.tables import TcamCapacityError

from tests.test_faults import ScriptedPlan
from tests.test_transactions import full_fingerprint

PATTERNS = exemplar_patterns()
APPS = st.sampled_from(sorted(PATTERNS))

#: Three attempts per device operation: a burst of three faults exhausts
#: exactly one operation (the request rolls back through a device that
#: is clean again), a shorter one is healed by the retries.
RETRY = RetryPolicy(max_attempts=3, base_s=1e-9, cap_s=1e-8)


class ControlPlaneMachine(RuleBasedStateMachine):
    @initialize(tcam_entries=st.integers(16, 64), blocks=st.sampled_from([64, 2]))
    def build(self, tcam_entries, blocks):
        # A quarter of the default register file: cheap to fingerprint,
        # and still enough tenants per stage to starve these TCAMs.  At
        # two blocks a stage, two elastic tenants still share one, and
        # stages fill within a few steps.
        self.config = SwitchConfig(
            tcam_entries_per_stage=tcam_entries, words_per_stage=blocks * 256
        )
        self.faults = []  # answers to the next mutating device ops
        device = FaultyDevice(
            SimDevice(ActiveSwitch(self.config)),
            ScriptedPlan(lambda op, i: self.faults.pop(0) if self.faults else None),
        )
        self.controller = ActiveRmtController(device, retry=RETRY)
        self.service = AdmissionService(self.controller)
        self.resident = {}  # the model: fid -> app name
        self.pattern_of_fid = {}
        self.next_fid = 1
        # The serial replay, extended by each step's new log entries.
        self.replica = ActiveRmtController(ActiveSwitch(self.config))
        self.replayed = 0

    # -- steps ----------------------------------------------------------

    def _step(self, submit, succeeded):
        """Run one request; a non-success leaves the state untouched."""
        before = full_fingerprint(self.controller)
        report = submit()
        assert not self.controller.device_failed
        if not succeeded(report):
            assert full_fingerprint(self.controller) == before
        return report

    def _admission(self, app):
        fid, self.next_fid = self.next_fid, self.next_fid + 1
        self.pattern_of_fid[fid] = PATTERNS[app]
        return ProvisioningRequest.admission(fid, PATTERNS[app])

    @rule(app=APPS)
    def admit(self, app):
        request = self._admission(app)
        report = self._step(
            lambda: self.service.submit(request),
            lambda report: report.success,
        )
        if report.success:
            self.resident[request.fid] = app

    @rule(apps=st.lists(APPS, min_size=2, max_size=3))
    def admit_batch(self, apps):
        requests = [self._admission(app) for app in apps]
        report = self._step(
            lambda: self.service.submit_many(requests),
            lambda report: report.success,
        )
        assert len({r.success for r in report.reports}) == 1  # all or none
        if report.success:
            self.resident.update(
                (request.fid, app) for request, app in zip(requests, apps)
            )

    @rule(pick=st.integers(0, 1 << 16))
    def withdraw(self, pick):
        """Any fid ever handed out (or 0, the probes' fid), resident or
        not: a withdrawal of a non-resident one is ``REJECTED``."""
        fid = pick % self.next_fid
        logged = len(self.service.commit_log)
        report = self._step(
            lambda: self.service.submit(
                ProvisioningRequest.withdrawal(fid)
            ),
            lambda report: report.success,
        )
        if report.success:
            del self.resident[fid]
        elif fid in self.resident:
            assert report.status is ProvisioningStatus.ROLLED_BACK
        else:
            assert report.status is ProvisioningStatus.REJECTED
            assert report.reason == f"fid {fid} not admitted"
            assert len(self.service.commit_log) == logged

    @rule(app=APPS)
    def dry_run(self, app):
        request = ProvisioningRequest.admission(0, PATTERNS[app], dry_run=True)
        report = self._step(
            lambda: self.service.submit(request),
            lambda report: False,  # a probe never changes anything
        )
        assert report.status is ProvisioningStatus.DRY_RUN

    @rule(
        kinds=st.lists(
            st.sampled_from([FaultKind.TRANSIENT, FaultKind.PARTIAL]),
            min_size=1,
            max_size=RETRY.max_attempts,
        )
    )
    def fault_next_ops(self, kinds):
        self.faults[:] = kinds

    # -- oracles, after every step ----------------------------------------

    @invariant()
    def oracles_hold(self):
        controller = self.controller
        assert controller.allocator.resident_fids() == sorted(self.resident)
        assert controller.audit().clean
        certificates = controller.certificates()
        assert sorted(certificates) == sorted(self.resident)
        assert all(certificate.valid for certificate in certificates.values())
        assert table_surface_mismatches(controller) == []
        log = self.service.commit_log
        replay_commit_log(log[self.replayed :], self.pattern_of_fid, self.replica)
        self.replayed = len(log)
        assert pools_fingerprint(self.replica.allocator) == pools_fingerprint(
            controller.allocator
        )


TestControlPlaneMachine = ControlPlaneMachine.TestCase
TestControlPlaneMachine.settings = settings(
    max_examples=12,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------
# Historical bugs, re-injected: the machine must catch each one
# ----------------------------------------------------------------------


def _run_machine_derandomized():
    """The machine above with a fixed example sequence and no shrinking:
    the same steps on every run, and a failure surfaces at once."""
    run_state_machine_as_test(
        ControlPlaneMachine,
        settings=settings(
            TestControlPlaneMachine.settings,
            derandomize=True,
            database=None,
            phases=[Phase.generate],
            print_blob=False,
        ),
    )


def test_the_derandomized_machine_passes():
    _run_machine_derandomized()


def test_the_machine_catches_a_tcam_refusal_escaping_the_transaction(monkeypatch):
    """The withdrawal bug: a layout change the TCAM refuses escapes as
    ``TcamCapacityError`` instead of rolling back, because the commit
    path's ``except`` no longer matches it."""

    class Unmatchable(Exception):
        pass

    monkeypatch.setattr(controller_module, "TcamCapacityError", Unmatchable)
    with pytest.raises(TcamCapacityError):
        _run_machine_derandomized()


@pytest.mark.parametrize(
    "floor", ["slack[stage] < demand", "slack[stage] < (demand or 0)"]
)
def test_the_machine_catches_a_planner_without_the_slack_floor(monkeypatch, floor):
    """The planner bug: an elastic newcomer needs one block of a stage's
    slack, and without that floor it is planned into a full stage.  The
    mutant planner is a source rewrite of ``_plan_impl`` (no seam in the
    production code); the literal ``< demand`` also trips over an
    elastic demand, which is None."""
    method = ActiveRmtAllocator._plan_impl
    source = textwrap.dedent(inspect.getsource(method))
    mutated = source.replace("slack[stage] < (demand or 1)", floor)
    assert mutated != source
    namespace = {}
    code = compile(mutated, inspect.getsourcefile(method), "exec")
    exec(code, dict(vars(allocator_module)), namespace)
    monkeypatch.setattr(ActiveRmtAllocator, "_plan_impl", namespace["_plan_impl"])
    with pytest.raises(Exception):
        _run_machine_derandomized()
