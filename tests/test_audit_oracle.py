"""The live-state audit against its older self, and its device reads.

The audit proves the table surface from one read of the device
(:class:`~repro.analysis.isolation.TableSnapshot`) and one diff per FID.
``tests/oracles/audit.py`` keeps the older audit, which read the surface
about twice and scanned every other grant per FID.  Seeded churn states
with table-surface defects planted in them must get the same findings,
in the same order, from both: through ``audit_state``, ``certify_all``,
``certify_fid`` and the sanitizer.
"""

import collections
import dataclasses
import inspect
import random
from unittest import mock

import pytest

from repro.analysis import invariants
from repro.analysis.invariants import INVARIANTS, audit_state
from repro.analysis.isolation import TableSnapshot, certify_all, certify_fid
from repro.controller.controller import ActiveRmtController
from repro.device import Device
from repro.experiments.common import ChurnDriver
from repro.switchsim.config import SwitchConfig
from repro.switchsim.switch import ActiveSwitch
from repro.switchsim.tables import StageGrant, TcamCapacityError
from repro.workloads.arrivals import poisson_events

from tests.oracles import audit as oracle
from tests.test_table_delta import CountingDevice

#: A FID no churn run admits.
STRANGER = 9_999


def _churn_state(seed, epochs=60, sanitizer=False, **config):
    controller = ActiveRmtController(ActiveSwitch(SwitchConfig(**config)), sanitizer=sanitizer)
    ChurnDriver(controller.submit).drive(poisson_events(epochs=epochs, seed=seed))
    return controller


def _installed(controller):
    """``[(stage, fid, grant)]`` and ``[(stage, fid, pair)]`` of residents."""
    snapshot = TableSnapshot.of(controller.device)
    resident = controller.allocator.apps
    grants = [
        (stage, fid, grant)
        for stage, per_stage in snapshot.grants.items()
        for fid, grant in per_stage.items()
        if fid in resident
    ]
    pairs = [
        (stage, fid, pair)
        for stage, per_stage in snapshot.translations.items()
        for fid, pair in per_stage.items()
        if fid in resident
    ]
    return grants, pairs


def _install(device, stage, grant):
    try:
        device.install_grant(stage, grant)
    except TcamCapacityError:
        pass


def _missing_grant(controller, rng):
    stage, fid, _grant = rng.choice(_installed(controller)[0])
    controller.device.remove_grant(stage, fid)


def _orphaned_grant(controller, rng):
    fid = rng.choice(sorted(controller.allocator.apps))
    held = {stage for stage, other, _grant in _installed(controller)[0] if other == fid}
    free = [s for s in range(1, controller.device.config.num_stages + 1) if s not in held]
    start = rng.randrange(0, 4096, 256)
    _install(controller.device, rng.choice(free), StageGrant(fid, start, start + 256, 255, start))


def _misranged_grant(controller, rng):
    stage, fid, grant = rng.choice(_installed(controller)[0])
    changed = rng.choice(
        [
            dataclasses.replace(grant, end=grant.end - 1),
            dataclasses.replace(grant, mask=grant.mask // 2),
            dataclasses.replace(grant, offset=grant.offset + 1),
        ]
    )
    _install(controller.device, stage, changed)


def _overlapping_grants(controller, rng):
    """A resident's grant over another's, or a stranger's over one."""
    by_stage = collections.defaultdict(list)
    for stage, fid, grant in _installed(controller)[0]:
        by_stage[stage].append((fid, grant))
    stage = rng.choice(sorted(s for s, grants in by_stage.items() if len(grants) > 1))
    (fid, grant), (_other, target) = rng.sample(by_stage[stage], 2)
    owner = rng.choice([fid, STRANGER])
    end = rng.choice([target.end, target.start + 1, max(grant.end, target.end)])
    start = min(grant.start, target.start) if owner == fid else target.start
    _install(controller.device, stage, StageGrant(owner, start, end, 0, start))


def _missing_translation(controller, rng):
    stage, fid, _pair = rng.choice(_installed(controller)[1])
    controller.device.remove_translation(stage, fid)


def _stale_translation(controller, rng):
    """Another of the FID's own pairs: in bounds, but not the nearest."""
    pairs = _installed(controller)[1]
    stage, fid, pair = rng.choice(pairs)
    others = sorted({p for _s, f, p in pairs if f == fid and p != pair}) or [(pair[0] // 2, pair[1])]
    controller.device.install_translation(stage, fid, *rng.choice(others))


def _escaping_translation(controller, rng):
    stage, fid, _pair = rng.choice(_installed(controller)[1])
    controller.device.install_translation(stage, fid, 1023, 10_000_000)


def _stranger_entries(controller, rng):
    stage = rng.randrange(1, controller.device.config.num_stages + 1)
    _install(controller.device, stage, StageGrant(STRANGER, 0, 256, 255, 0))
    controller.device.install_translation(max(1, stage - 1), STRANGER, 255, 0)


def _tcam_drift(controller, rng):
    table = controller.switch.pipeline.stage(
        rng.randrange(1, controller.device.config.num_stages + 1)
    ).table
    table._tcam_used = rng.choice([table._tcam_used + 1, table.tcam_capacity + 1])


DEFECTS = {
    "missing-grant": _missing_grant,
    "orphaned-grant": _orphaned_grant,
    "misranged-grant": _misranged_grant,
    "overlapping-grants": _overlapping_grants,
    "missing-translation": _missing_translation,
    "stale-translation": _stale_translation,
    "escaping-translation": _escaping_translation,
    "stranger-entries": _stranger_entries,
    "tcam-drift": _tcam_drift,
}

#: (seed, config): the default switch, and a 32-entry TCAM per stage,
#: where the churn has refusals and rollbacks behind it.
STATES = [(7, {}), (11, {}), (29, {"tcam_entries_per_stage": 32})]


def _plant(controller, kinds, seed, count=3):
    rng = random.Random(seed)
    for kind in kinds:
        for _ in range(count):
            DEFECTS[kind](controller, rng)


def _assert_same_proofs(controller):
    allocator, device, config = controller.allocator, controller.device, controller.device.config
    theirs = oracle.audit_state(allocator, device, config=config)
    mine = audit_state(allocator, device)
    assert mine.findings == theirs.findings
    assert certify_all(allocator, device) == oracle.certify_all(allocator, device, config=config)
    for fid in allocator.resident_fids():
        assert certify_fid(fid, allocator, device) == oracle.certify_fid(
            fid, allocator, device, config
        )
    return mine


@pytest.mark.parametrize("seed,config", STATES)
@pytest.mark.parametrize("kind", sorted(DEFECTS))
def test_each_defect_reads_the_same_as_the_older_audit(seed, config, kind):
    controller = _churn_state(seed, **config)
    assert _assert_same_proofs(controller).clean
    _plant(controller, [kind], seed)
    report = _assert_same_proofs(controller)
    assert report.has_errors


@pytest.mark.parametrize("seed,config", STATES)
def test_every_defect_at_once_reads_the_same_as_the_older_audit(seed, config):
    controller = _churn_state(seed, **config)
    _plant(controller, sorted(DEFECTS), seed)
    report = _assert_same_proofs(controller)
    rules = report.rule_ids()
    assert {"ARMT011", "ARMT012", "ARMT013", "ARMT014"} <= set(rules)


def test_an_overlap_is_reported_for_both_residents():
    """Each resident whose grant is overlapped names the other."""
    controller = _churn_state(7)
    (stage, fid, grant), (_s, other, target) = next(
        (a, b)
        for a in _installed(controller)[0]
        for b in _installed(controller)[0]
        if a[0] == b[0] and a[1] < b[1]
    )
    controller.device.install_grant(
        stage, dataclasses.replace(grant, start=min(grant.start, target.start), end=target.end)
    )
    overlaps = [
        (certificate.fid, f.message)
        for certificate in certify_all(controller.allocator, controller.device).values()
        for f in certificate.findings
        if f.rule_id == "ARMT011"
    ]
    assert [owner for owner, _message in overlaps] == [fid, other]
    _assert_same_proofs(controller)


def test_the_sanitizer_reports_the_same_violations():
    """Two sanitized churns with the same defects planted midway, one
    auditing with the older code: the same violations accumulate."""
    runs = []
    for audit in (audit_state, oracle.audit_state):
        controller = _churn_state(7, epochs=30, sanitizer=True)
        _plant(controller, sorted(DEFECTS), 7, count=1)
        with mock.patch("repro.controller.controller.audit_state", audit):
            ChurnDriver(controller.submit).drive(poisson_events(epochs=50, seed=8))
        runs.append(controller.audit_violations)
    assert runs[0] and runs[0] == runs[1]


def test_the_catalog_keeps_its_six_names():
    assert [invariant.name for invariant in INVARIANTS] == [
        "region-exclusivity",
        "block-accounting",
        "residency",
        "table-certificates",
        "orphan-entries",
        "tcam-accounting",
    ]


# ----------------------------------------------------------------------
# One read of the device per audit
# ----------------------------------------------------------------------


@pytest.mark.parametrize("prove", [audit_state, certify_all])
def test_an_audit_reads_each_stage_and_each_entry_once(prove):
    """However many entries are installed, the audit is one device call."""
    controller = _churn_state(7)
    grants, pairs = _installed(controller)
    device = CountingDevice(controller.device)
    prove(controller.allocator, device)
    assert device.calls == {"read_tables": 1}
    assert (len(grants), len(pairs)) == (181, 458)


def test_the_invariants_module_makes_no_device_call():
    source = inspect.getsource(invariants)
    methods = [name for name in vars(Device) if not name.startswith("_")]
    assert "read_tables" in methods
    for name in methods:
        assert f".{name}(" not in source, name
