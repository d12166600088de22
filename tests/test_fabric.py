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
  unplaced withdrawals are a :class:`FabricError`; dry-run probes do
  not pin a route.
- **Policies**: least-loaded picks the emptiest shard (ties to the
  lower index), first-fit takes the first feasible shard and falls
  back to least-loaded when nothing fits.
"""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import VerifyMode
from repro.controller import (
    ActiveRmtController,
    AdmissionService,
    BackoffPolicy,
    ProvisioningRequest,
    ProvisioningStatus,
    SnapshotCost,
    TableUpdateCost,
)
from repro.controller.service import pools_fingerprint
from repro.device import SimDevice
from repro.fabric import (
    Fabric,
    FabricError,
    FirstFitPlacement,
    HashPlacement,
    LeastLoadedPlacement,
    PlacementError,
    Shard,
    make_policy,
    replay_shard,
)
from repro.isa import assemble
from repro.packets import ActivePacket, MacAddress
from repro.switchsim import ActiveSwitch, SwitchConfig

from tests.test_core_constraints import listing1_pattern
from tests.test_isolation import FILLER, RIGGED, _pattern


def _admission(fid: int) -> ProvisioningRequest:
    return ProvisioningRequest.admission(fid=fid, pattern=listing1_pattern())


# ----------------------------------------------------------------------
# Placement policies (pure, via stub shards)
# ----------------------------------------------------------------------


class StubShard:
    def __init__(self, device_id, blocks, fits=True):
        self.device_id = device_id
        self._blocks = blocks
        self._fits = fits
        self.probes = 0

    def used_blocks(self):
        return self._blocks

    def probe(self, fid, pattern):
        self.probes += 1
        return self._fits


@settings(max_examples=60, deadline=None)
@given(
    fid=st.integers(min_value=0, max_value=2**31),
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=1, max_value=16),
)
def test_hash_placement_is_a_pure_function_of_fid_seed_count(fid, seed, count):
    shards = [StubShard(f"sw{i}", blocks=i * 7) for i in range(count)]
    policy = HashPlacement(seed=seed)
    first = policy.place(fid, None, shards)
    # Same inputs, fresh policy instance, loads perturbed: same answer.
    perturbed = [StubShard(f"sw{i}", blocks=100 - i) for i in range(count)]
    assert HashPlacement(seed=seed).place(fid, None, perturbed) == first
    assert 0 <= first < count


def test_least_loaded_picks_emptiest_with_index_ties():
    shards = [StubShard("a", 5), StubShard("b", 2), StubShard("c", 2)]
    assert LeastLoadedPlacement().place(1, None, shards) == 1


def test_first_fit_takes_first_feasible_shard():
    shards = [
        StubShard("a", 0, fits=False),
        StubShard("b", 9, fits=True),
        StubShard("c", 1, fits=True),
    ]
    assert FirstFitPlacement().place(1, None, shards) == 1
    assert shards[2].probes == 0  # stopped at the first fit


def test_first_fit_falls_back_to_least_loaded_when_nothing_fits():
    shards = [StubShard("a", 5, fits=False), StubShard("b", 3, fits=False)]
    assert FirstFitPlacement().place(1, None, shards) == 1


def test_make_policy_resolves_names_and_passes_instances_through():
    assert make_policy("hash", seed=3).seed == 3
    assert make_policy("least-loaded").name == "least-loaded"
    assert make_policy("first-fit").name == "first-fit"
    policy = LeastLoadedPlacement()
    assert make_policy(policy) is policy
    with pytest.raises(PlacementError, match="unknown placement"):
        make_policy("round-robin")


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


def test_routes_are_sticky_and_withdrawals_follow_them():
    with Fabric.build(4, workers=0, seed=11) as fabric:
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


def test_unplaced_withdrawal_is_a_fabric_error():
    with Fabric.build(2, workers=0) as fabric:
        with pytest.raises(FabricError, match="not placed"):
            fabric.submit(ProvisioningRequest.withdrawal(fid=99))


def test_dry_run_places_but_does_not_pin():
    with Fabric.build(2, workers=0) as fabric:
        probe = ProvisioningRequest.admission(
            fid=7, pattern=listing1_pattern(), dry_run=True
        )
        report = fabric.submit_and_wait(probe)
        assert report.success
        assert fabric.route_of(7) is None  # what-ifs don't decide homes
        fabric.submit_and_wait(_admission(7))
        assert fabric.route_of(7) is not None


def test_place_packet_steers_alloc_requests_to_the_placed_shard():
    with Fabric.build(4, workers=0, seed=5) as fabric:
        client = MacAddress.from_host_id(1)
        packet = ActivePacket.alloc_request(
            src=client,
            dst=MacAddress.from_host_id(2),
            fid=13,
            request=listing1_pattern().to_request(),
        )
        index = fabric.place_packet(packet)
        assert fabric.route_of(13) == index  # request placement pins
        assert fabric.place_packet(packet) == index  # and is sticky


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
    bare = AdmissionService(bare_controller, workers=0, seed=0)
    bare_reports = {}
    for fid in fids:
        bare_reports[fid] = bare.submit(_admission(fid)).result()
        if fid in withdrawn and bare_reports[fid].success:
            bare.submit(ProvisioningRequest.withdrawal(fid=fid)).result()

    with Fabric.build(1, workers=0, seed=0) as fabric:
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
# Per-shard linearizability under concurrent churn (Hypothesis)
# ----------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    count=st.integers(min_value=3, max_value=12),
    shard_count=st.sampled_from([1, 2, 3]),
    workers=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_each_shard_commit_log_replays_to_its_fingerprint(
    count, shard_count, workers, seed
):
    pattern = listing1_pattern()
    patterns = {fid: pattern for fid in range(count)}
    with Fabric.build(shard_count, workers=workers, seed=seed) as fabric:
        tickets = [fabric.submit(_admission(fid)) for fid in range(count)]
        reports = {fid: t.result() for fid, t in zip(range(count), tickets)}
        # Withdraw every other successfully admitted fid, concurrently.
        withdrawals = [
            fabric.submit(ProvisioningRequest.withdrawal(fid=fid))
            for fid in range(0, count, 2)
            if reports[fid].success
        ]
        for ticket in withdrawals:
            ticket.result()
        fabric.drain()
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
    with Fabric.build(3, workers=0, seed=seed) as first:
        for fid in fids:
            first.submit_and_wait(_admission(fid))
        forward = {fid: first.route_of(fid) for fid in fids}
    with Fabric.build(3, workers=0, seed=seed) as second:
        for fid in reversed(fids):
            second.submit_and_wait(_admission(fid))
        backward = {fid: second.route_of(fid) for fid in fids}
    assert forward == backward


# ----------------------------------------------------------------------
# Fleet observability
# ----------------------------------------------------------------------


def test_fingerprint_and_stats_cover_every_shard():
    with Fabric.build(3, workers=0) as fabric:
        for fid in range(5):
            fabric.submit_and_wait(_admission(fid))
        prints = fabric.fingerprint()
        assert set(prints) == {"sw0", "sw1", "sw2"}
        rows = fabric.stats()
        assert [row["device"] for row in rows] == ["sw0", "sw1", "sw2"]
        assert sum(row["routed_fids"] for row in rows) == 5
        assert sum(len(log) for log in fabric.commit_logs().values()) == 5


# ----------------------------------------------------------------------
# Replace-failover keeps the failed shard's configuration
# ----------------------------------------------------------------------


def _keywords(cls, *excluded):
    parameters = list(inspect.signature(cls.__init__).parameters)[2:]
    return {name for name in parameters if name not in excluded}


def test_settings_cover_every_constructor_keyword():
    """settings() is what failover rebuilds from: a constructor keyword
    it does not list silently reverts to its default on the replacement."""
    controller = ActiveRmtController(ActiveSwitch())
    assert set(controller.settings()) == _keywords(ActiveRmtController)
    service = AdmissionService(controller, workers=0)
    assert set(service.settings()) == _keywords(AdmissionService, "autostart")


def test_failover_replace_keeps_the_failed_shards_settings():
    """Regression: the replacement column used to be rebuilt from a
    hand-copied knob list that dropped verify / table_cost /
    snapshot_cost (controller) and backoff / clock / sleep (service) --
    a strict shard came back from a failover in warn mode."""
    config = SwitchConfig(num_stages=8, ingress_stages=4, max_recirculations=0)
    controller = ActiveRmtController(
        SimDevice(ActiveSwitch(config), device_id="sw0"),
        verify="strict",
        table_cost=TableUpdateCost(install_entry_seconds=1.0),
        snapshot_cost=SnapshotCost(per_block_seconds=2.0),
    )
    service = AdmissionService(
        controller,
        workers=0,
        backoff=BackoffPolicy(base_s=9.0),
        clock=lambda: 0.0,
        sleep=lambda seconds: None,
        seed=5,
    )
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
    assert shard.controller.updater.cost.install_entry_seconds == 1.0
    assert shard.controller.snapshot_cost.per_block_seconds == 2.0
    assert shard.service.backoff.base_s == 9.0
    assert shard.controller.settings() == controller.settings()
    assert shard.service.settings() == service.settings()

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
    fabric.close()
