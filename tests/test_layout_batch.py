"""Differential oracle for the staged layout batch.

``TableUpdateEngine.apply_layout`` runs a whole layout change -- the
displaced FIDs' activation sets, every FID's entry delta, the newcomer's
scrubs -- as one ordered list of device calls under one journal record.
The reference is the engine it replaced, kept in
:mod:`tests.oracles.layout`: one journaled ``apply_delta`` per FID, one
``set_active`` record per activation set and one record per scrub, each
forward call wrapped in its own closure.  Both are driven through an
inline admission service by the same Hypothesis streams of admissions,
withdrawals, batches and scripted transient / partial device faults on
a starved TCAM, and must agree exactly: every device call, forward and
undo (reads included), the applied-entry and healed-retry counters, and
the modeled seconds.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.controller import ActiveRmtController, AdmissionService, ProvisioningRequest
from repro.device import SimDevice
from repro.experiments.common import exemplar_patterns
from repro.faults import FaultKind, FaultyDevice, RetryPolicy
from repro.switchsim import ActiveSwitch, SwitchConfig

from tests.oracles.layout import PerNeighbourController
from tests.test_faults import ScriptedPlan

PATTERNS = exemplar_patterns()
RETRY = RetryPolicy(max_attempts=3, base_s=1e-9, cap_s=1e-8)


# ----------------------------------------------------------------------
# The recorder and the lockstep run
# ----------------------------------------------------------------------


class RecordingDevice:
    """*inner* behind the device protocol, logging every call with its
    arguments (keyword arguments by value, in order)."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    def __getattr__(self, name):
        target = getattr(self.__dict__["inner"], name)
        if not callable(target):
            return target

        def recorded(*args, **kwargs):
            self.log.append((name, args + tuple(kwargs.values())))
            return target(*args, **kwargs)

        return recorded


class Side:
    """One controller on a faulty, recorded device with a scripted plan:
    after *skip* clean mutating calls, the queued *kinds* fire in turn."""

    def __init__(self, cls, tcam_entries, retry):
        self.skip, self.kinds = 0, []
        config = SwitchConfig(tcam_entries_per_stage=tcam_entries, words_per_stage=16384)
        faulty = FaultyDevice(SimDevice(ActiveSwitch(config)), ScriptedPlan(self._decide))
        self.device = RecordingDevice(faulty)
        self.controller = cls(self.device, retry=retry)
        self.service = AdmissionService(self.controller)

    def _decide(self, op, index):
        if self.skip:
            self.skip -= 1
            return None
        return self.kinds.pop(0) if self.kinds else None

    def run(self, step, fids):
        kind, argument = step
        if kind == "faults":
            self.skip, self.kinds = argument[0], list(argument[1])
            return None
        if kind == "withdraw":
            request = ProvisioningRequest.withdrawal(fids[argument % len(fids)])
            return [self.service.submit(request)]
        requests = [
            ProvisioningRequest.admission(fid, PATTERNS[app])
            for fid, app in zip(argument[0], argument[1])
        ]
        if kind == "admit":
            return [self.service.submit(requests[0])]
        return self.service.submit_many(requests).reports

    def observed(self):
        updater = self.controller.updater
        return (
            updater.entries_installed,
            updater.entries_removed,
            updater.retries_attempted,
            updater.retries_healed,
            self.controller.device_failed,
        )


apps = st.sampled_from(sorted(PATTERNS))
steps = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.lists(apps, min_size=1, max_size=1)),
        st.tuples(st.just("batch"), st.lists(apps, min_size=2, max_size=3)),
        st.tuples(st.just("withdraw"), st.integers(0, 1 << 16)),
        st.tuples(
            st.just("faults"),
            st.tuples(
                st.integers(0, 40),
                st.lists(
                    st.sampled_from([FaultKind.TRANSIENT, FaultKind.PARTIAL]),
                    min_size=1,
                    max_size=3,
                ),
            ),
        ),
    ),
    min_size=4,
    max_size=24,
)


@pytest.mark.parametrize("retry", [RETRY, None], ids=["retry", "no-retry"])
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(tcam_entries=st.integers(16, 64), stream=steps)
def test_batch_makes_the_per_neighbour_engines_device_calls(retry, tcam_entries, stream):
    batched = Side(ActiveRmtController, tcam_entries, retry)
    reference = Side(PerNeighbourController, tcam_entries, retry)
    resident, next_fid = [], 1
    for kind, argument in stream:
        if kind in ("admit", "batch"):
            fids = list(range(next_fid, next_fid + len(argument)))
            next_fid += len(argument)
            argument = (fids, argument)
        elif kind == "withdraw" and not resident:
            continue
        reports = batched.run((kind, argument), resident)
        expected = reference.run((kind, argument), resident)
        assert batched.device.log == reference.device.log, (kind, argument)
        assert batched.observed() == reference.observed()
        if reports is None:
            continue
        outcome = [(r.status, r.reason, r.fault, r.table_update_seconds) for r in reports]
        assert outcome == [
            (r.status, r.reason, r.fault, r.table_update_seconds) for r in expected
        ]
        for report in reports:
            if report.success and kind == "withdraw":
                resident.remove(report.fid)
            elif report.success:
                resident.append(report.fid)
        batched.device.log.clear()
        reference.device.log.clear()
    assert resident == batched.controller.allocator.resident_fids()
