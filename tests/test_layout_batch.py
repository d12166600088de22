"""Differential oracle for the staged layout batch.

``TableUpdateEngine.apply_layout`` runs a whole layout change -- the
displaced FIDs' activation sets, every FID's entry delta, the newcomer's
scrubs -- as one ordered list of device calls under one journal record.
The reference below is the engine it replaced, kept verbatim in spirit:
one journaled ``apply_delta`` per FID, one ``set_active`` record per
activation set and one record per scrub, each forward call wrapped in
its own closure.  Both are driven through an inline admission service
by the same Hypothesis streams of admissions, withdrawals, batches and
scripted transient / partial device faults on a starved TCAM, and must
agree exactly: every device call, forward and undo (reads included), the
applied-entry and healed-retry counters, and the modeled seconds.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.isolation import implied_entries
from repro.controller import ActiveRmtController, AdmissionService, ProvisioningRequest
from repro.controller.table_updater import TableUpdateEngine
from repro.device import SimDevice
from repro.experiments.common import exemplar_patterns
from repro.faults import FaultKind, FaultyDevice, RetryPolicy, call_with_retries
from repro.switchsim import ActiveSwitch, SwitchConfig

from tests.test_faults import ScriptedPlan

PATTERNS = exemplar_patterns()
RETRY = RetryPolicy(max_attempts=3, base_s=1e-9, cap_s=1e-8)


# ----------------------------------------------------------------------
# The reference: one engine round-trip per FID, as before batching
# ----------------------------------------------------------------------


def _guarded(engine, op):
    if engine.retry is None:
        return op()
    before = engine.retries_attempted
    result = call_with_retries(
        op,
        engine.retry,
        engine._retry_rng,
        clock=engine._clock,
        sleep=engine._sleep,
        on_retry=engine._note_retry,
    )
    if engine.retries_attempted > before:
        engine.retries_healed += 1
    return result


def _put_grant(tables, stage, fid, grant):
    if grant is None:
        tables.remove_grant(stage, fid)
    else:
        tables.install_grant(stage, grant)


def _put_translation(tables, stage, fid, pair):
    if pair is None:
        tables.remove_translation(stage, fid)
    else:
        tables.install_translation(stage, fid, mask=pair[0], offset=pair[1])


def _differing(put, old, new):
    return [
        (put, stage, new.get(stage), old.get(stage))
        for stage in sorted(old.keys() | new.keys())
        if old.get(stage) != new.get(stage)
    ]


def _words(regions, block_words):
    return {s: (r.start * block_words, r.end * block_words) for s, r in regions.items()}


def _apply_delta(engine, fid, old_regions, new_regions, block_words, journal):
    window = engine.TRANSLATION_WINDOW
    old_grants, old_pairs = implied_entries(fid, _words(old_regions, block_words), window)
    new_grants, new_pairs = implied_entries(fid, _words(new_regions, block_words), window)
    writes = _differing(_put_translation, old_pairs, new_pairs)
    writes += _differing(_put_grant, old_grants, new_grants)
    if not writes:
        return 0.0
    tables = engine.tables
    attempted = 0

    def undo():
        for put, stage, _new, old in reversed(writes[:attempted]):
            put(tables, stage, fid, old)
        tables.invalidate_program_cache(fid)

    journal.record(f"delta fid={fid}", undo)
    installed = removed = 0
    seconds = 0.0
    try:
        _guarded(engine, lambda: tables.invalidate_program_cache(fid))
        for put, stage, entry, _old in writes:
            attempted += 1
            _guarded(engine, lambda: put(tables, stage, fid, entry))
            if entry is None:
                removed += 1
                seconds += engine.cost.remove_entry_seconds
            else:
                installed += 1
                seconds += engine.cost.install_entry_seconds
    finally:
        engine._count(installed, removed)
    return seconds


def _set_active(engine, fids, active, journal, seconds=0.0):
    tables = engine.tables
    flip, unflip = tables.reactivate_fid, tables.deactivate_fid
    if not active:
        flip, unflip = unflip, flip
    held = {fid for fid in fids if tables.is_active(fid) == active}
    if fids:
        journal.record("activation", lambda: [unflip(f) for f in fids if f not in held])
    for fid in fids:
        _guarded(engine, lambda: flip(fid))
        seconds += engine.cost.activation_seconds
    return seconds


class PerNeighbourController(ActiveRmtController):
    """The controller with the layout path the batch replaced."""

    def _apply_layout(self, fid, old, new, reallocations, journal, ctx):
        engine = self.updater
        impacted = sorted(reallocations)
        block_words = self.device.config.block_words
        seconds = _set_active(engine, impacted, False, journal)
        if old:
            seconds += _apply_delta(engine, fid, old, {}, block_words, journal)
        for other in impacted:
            seconds += self._move_tables(other, reallocations[other], journal)
        if new:
            for stage, block_range in new.items():
                self._scrub_region(stage, block_range, block_words, journal)
            seconds += _apply_delta(engine, fid, {}, new, block_words, journal)
        return _set_active(engine, impacted, True, journal, seconds)

    def _scrub_region(self, stage, block_range, block_words, journal):
        words = block_range.to_words(block_words)
        device = self.device
        previous = device.read_registers(stage, words.start, words.end)
        journal.record(
            "scrub", lambda: device.write_registers(stage, words.start, previous)
        )
        _guarded(
            self.updater, lambda: device.scrub_registers(stage, words.start, words.end)
        )

    def _move_tables(self, fid, changes, journal):
        window = TableUpdateEngine.TRANSLATION_WINDOW
        near = {s for c in changes for s in range(c - window, c + window + 1)}
        new = {
            s: r
            for s, r in self.allocator.regions_for(fid).items()
            if s in near and r is not None and r.count > 0
        }
        old = dict(new)
        for stage, (before, _after) in changes.items():
            if before is not None and before.count > 0:
                old[stage] = before
            else:
                old.pop(stage, None)
        return _apply_delta(
            self.updater, fid, old, new, self.device.config.block_words, journal
        )


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
        self.service = AdmissionService(self.controller, workers=0, fault_retry_limit=0)

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
            return [self.service.submit(request).result(timeout=0)]
        requests = [
            ProvisioningRequest.admission(fid, PATTERNS[app])
            for fid, app in zip(argument[0], argument[1])
        ]
        if kind == "admit":
            return [self.service.submit(requests[0]).result(timeout=0)]
        return self.service.submit_many(requests).result(timeout=0).reports

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
