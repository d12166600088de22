"""Sharded fabric: placement, routing, parity, and linearizability.

The contracts under test:

- **Placement determinism**: hash placement is a pure function of
  (fid, seed, shard count) -- arrival order and shard load never move
  a fid (Hypothesis property).
- **Per-shard linearizability**: after concurrent churn through the
  fabric, serially replaying each shard's own ``commit_log`` onto a
  fresh controller reproduces that shard's ``pools_fingerprint``
  (Hypothesis property).
- **Single-shard parity**: a 1-shard fabric driven serially is
  byte-identical to the bare controller + admission-service stack --
  same fingerprint, same commit log, same admitted/rejected counts.
- **Sticky routing**: withdrawals follow the fid's admission shard;
  an unplaced withdrawal is a ``REJECTED`` report; dry-run probes do
  not pin a route.
- **One history per shard**: a replace failover's replacement
  controller holds the log its own replay wrote, equal to the failed
  shard's, and the shard and its service read that one list.
"""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import VerifyMode
from repro.controller import (
    ActiveRmtController,
    AdmissionService,
    ProvisioningRequest,
    ProvisioningStatus,
)
from repro.controller.service import pools_fingerprint
from repro.device import SimDevice
from repro.fabric import (
    Fabric,
    FabricError,
    Shard,
    hash_placement,
    replay_shard,
)
from repro.isa import assemble
from repro.switchsim import ActiveSwitch, SwitchConfig

from tests.test_core_constraints import listing1_pattern
from tests.test_isolation import FILLER, RIGGED, _pattern


def _admission(fid: int) -> ProvisioningRequest:
    return ProvisioningRequest.admission(fid=fid, pattern=listing1_pattern())


# ----------------------------------------------------------------------
# Hash placement
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    fid=st.integers(min_value=0, max_value=2**31),
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=1, max_value=16),
)
def test_hash_placement_is_a_pure_function_of_fid_seed_count(fid, seed, count):
    first = hash_placement(fid, seed, count)
    assert hash_placement(fid, seed, count) == first
    assert 0 <= first < count


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


def test_routes_are_sticky_and_withdrawals_follow_them():
    fabric = Fabric.build(4, seed=11)
    report = fabric.submit_and_wait(_admission(42))
    assert report.success
    home = fabric.route_of(42)
    assert home is not None
    fabric.submit_and_wait(ProvisioningRequest.withdrawal(fid=42))
    # Withdrawal stays on the admission shard; the route survives.
    assert fabric.route_of(42) == home
    assert fabric.shards[home].commit_log == [
        ("admit", 42),
        ("withdraw", 42),
    ]


def test_unplaced_withdrawal_is_rejected():
    fabric = Fabric.build(2)
    report = fabric.submit(ProvisioningRequest.withdrawal(fid=99))
    assert report.status is ProvisioningStatus.REJECTED
    assert report.reason == "fid 99 not admitted"
    assert fabric.route_of(99) is None
    assert fabric.requests == {}  # routed nowhere, counted nowhere


def test_dry_run_places_but_does_not_pin():
    fabric = Fabric.build(2)
    probe = ProvisioningRequest.admission(
        fid=7, pattern=listing1_pattern(), dry_run=True
    )
    report = fabric.submit_and_wait(probe)
    assert report.success
    assert fabric.route_of(7) is None  # what-ifs don't decide homes
    fabric.submit_and_wait(_admission(7))
    assert fabric.route_of(7) is not None


def test_build_rejects_empty_fleet():
    with pytest.raises(FabricError):
        Fabric.build(0)


# ----------------------------------------------------------------------
# Single-shard parity: the fabric adds routing, not behavior
# ----------------------------------------------------------------------


def test_single_shard_fabric_matches_bare_stack_exactly():
    fids = [1, 2, 3, 4, 5, 6]
    withdrawn = {2, 5}

    bare_controller = ActiveRmtController(ActiveSwitch(SwitchConfig()))
    bare = AdmissionService(bare_controller)
    bare_reports = {}
    for fid in fids:
        bare_reports[fid] = bare.submit(_admission(fid))
        if fid in withdrawn and bare_reports[fid].success:
            bare.submit(ProvisioningRequest.withdrawal(fid=fid))

    fabric = Fabric.build(1, seed=0)
    fabric_reports = {}
    for fid in fids:
        fabric_reports[fid] = fabric.submit_and_wait(_admission(fid))
        if fid in withdrawn and fabric_reports[fid].success:
            fabric.submit_and_wait(ProvisioningRequest.withdrawal(fid=fid))

    assert {f: r.status for f, r in fabric_reports.items()} == {
        f: r.status for f, r in bare_reports.items()
    }
    assert fabric.shards[0].commit_log == bare.commit_log
    assert fabric.shards[0].fingerprint() == pools_fingerprint(
        bare_controller.allocator
    )


# ----------------------------------------------------------------------
# Per-shard commit logs under churn (Hypothesis)
# ----------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    count=st.integers(min_value=3, max_value=12),
    shard_count=st.sampled_from([1, 2, 3]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_each_shard_commit_log_replays_to_its_fingerprint(count, shard_count, seed):
    pattern = listing1_pattern()
    patterns = {fid: pattern for fid in range(count)}
    fabric = Fabric.build(shard_count, seed=seed)
    reports = {fid: fabric.submit(_admission(fid)) for fid in range(count)}
    # Withdraw every other successfully admitted fid.
    for fid in range(0, count, 2):
        if reports[fid].success:
            assert fabric.submit(ProvisioningRequest.withdrawal(fid=fid)).success
    for shard in fabric.shards:
        live, replayed = replay_shard(shard, patterns)
        assert live == replayed, (
            f"{shard.device_id}: commit log does not replay to the "
            f"live pools fingerprint"
        )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_fabric_routes_deterministic_under_fixed_seed(seed):
    """Two fabrics, same seed and fid set, different submission order:
    identical fid -> shard maps (hash placement is load-oblivious)."""
    fids = [3, 14, 15, 92, 65, 35]
    first = Fabric.build(3, seed=seed)
    for fid in fids:
        first.submit_and_wait(_admission(fid))
    forward = {fid: first.route_of(fid) for fid in fids}
    second = Fabric.build(3, seed=seed)
    for fid in reversed(fids):
        second.submit_and_wait(_admission(fid))
    backward = {fid: second.route_of(fid) for fid in fids}
    assert forward == backward


# ----------------------------------------------------------------------
# Fleet observability
# ----------------------------------------------------------------------


def test_fingerprint_and_stats_cover_every_shard():
    fabric = Fabric.build(3)
    for fid in range(5):
        fabric.submit_and_wait(_admission(fid))
    prints = fabric.fingerprint()
    assert set(prints) == {"sw0", "sw1", "sw2"}
    residents = fabric.metrics()["fabric_shard_resident_fids{device}"]
    assert list(residents) == ["sw0", "sw1", "sw2"]
    assert sum(residents.values()) == 5
    assert sum(len(log) for log in fabric.commit_logs().values()) == 5


# ----------------------------------------------------------------------
# Replace-failover keeps the failed shard's configuration
# ----------------------------------------------------------------------


def _keywords(cls):
    return set(list(inspect.signature(cls.__init__).parameters)[2:])


def test_settings_cover_every_constructor_keyword():
    """settings() is what failover rebuilds from: a constructor keyword
    it does not list silently reverts to its default on the replacement."""
    controller = ActiveRmtController(ActiveSwitch())
    assert set(controller.settings()) == _keywords(ActiveRmtController)


def test_failover_replace_keeps_the_failed_shards_settings():
    """Regression: the replacement column used to be rebuilt from a
    hand-copied knob list that dropped the controller's verify mode --
    a strict shard came back from a failover in warn mode."""
    config = SwitchConfig(num_stages=8, ingress_stages=4, max_recirculations=0)
    controller = ActiveRmtController(
        SimDevice(ActiveSwitch(config), device_id="sw0"),
        verify="strict",
    )
    service = AdmissionService(controller)
    fabric = Fabric([Shard(0, controller, service)])
    filler = assemble(FILLER, name="filler")
    assert fabric.submit_and_wait(
        ProvisioningRequest.admission(
            fid=101, pattern=_pattern(filler, [8]), program=filler
        )
    ).success

    report = fabric.failover(
        0, replacement=SimDevice(ActiveSwitch(config), device_id="sw0r")
    )
    assert report.fingerprint_match
    shard = fabric.shards[0]
    assert shard.controller is not controller and shard.service is not service
    assert shard.controller.verify is VerifyMode.STRICT
    assert shard.controller.settings() == controller.settings()

    # Strict before, strict after: the rigged mutant (ADDR_OFFSET twice
    # re-adds the region base) is still refused, state untouched.
    before = shard.fingerprint()
    rigged = assemble(RIGGED, name="rigged")
    refused = fabric.submit_and_wait(
        ProvisioningRequest.admission(
            fid=102, pattern=_pattern(rigged, [4]), program=rigged
        )
    )
    assert refused.status is ProvisioningStatus.REJECTED
    assert "ARMT010" in refused.reason
    assert shard.fingerprint() == before


def test_replacement_holds_the_log_its_replay_wrote():
    """A replace failover copies no log: the replacement controller's
    own replay of the failed shard's history writes an equal one, and
    the shard and its service read that list, not a copy of it."""
    fabric = Fabric.build(2, seed=3)
    for fid in range(1, 9):
        assert fabric.submit_and_wait(_admission(fid)).success
    index = fabric.route_of(1)
    assert fabric.submit_and_wait(ProvisioningRequest.withdrawal(fid=1)).success
    failed = fabric.shards[index].controller
    history = list(failed.commit_log)
    assert ("withdraw", 1) in history

    report = fabric.failover(
        index, replacement=SimDevice(ActiveSwitch(), device_id="spare")
    )
    assert report.fingerprint_match
    shard = fabric.shards[index]
    recovered = shard.controller
    assert recovered.recoveries == 1
    assert recovered.commit_log == failed.commit_log == history
    assert recovered.commit_log is not failed.commit_log
    assert shard.commit_log is recovered.commit_log
    assert shard.service.commit_log is recovered.commit_log
