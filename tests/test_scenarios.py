"""Golden counts for the four churn scenarios: churn, fabric, chaos, audit.

Each scenario streams Section 6.1's Poisson arrivals and departures
through the inline control plane.  Every run is a pure function of
(epochs, seed), so the counts are pinned at seed 7 and at seed 29,
which no other test uses, and two runs at one seed print the same
report byte for byte.  The churn and fabric rows report modeled
seconds, which one small function computes from a run's reports
(:func:`~repro.experiments.common.windowed_seconds`); its contract is
tested here too.
"""

import importlib
import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.controller import ProvisioningReport
from repro.experiments import audit, chaos, churn, cli, fabric
from repro.experiments.common import payload_for, windowed_seconds

SEEDS = (7, 29)

#: The rigged-mutant demonstration, identical at every seed.
DEMO = {
    "reason": (
        "certifier rejected: [ARMT010 error @7] MEM_WRITE at 7 provably "
        "accesses [4096, 5119], outside the granted region [2048, 3072) "
        "of stage 7; the protection TCAM faults every packet reaching it"
    ),
    "rejected": True,
    "rules": ["ARMT010"],
    "state_intact": True,
}

#: seed -> per leg (default TCAM, then starved): admitted, withdrawn,
#: rolled-back admissions, refused withdrawals, commit-log entries.
AUDIT_EPOCHS = 30
AUDIT = {
    7: ((58, 25, 0, 0, 83), (44, 22, 14, 2, 66)),
    29: ((59, 35, 0, 0, 94), (54, 33, 5, 0, 87)),
}


def _leg_payload(seed, tcam_entries, counts, demo, starved):
    admitted, withdrawn, rolled_back, refused, entries = counts
    return {
        "admitted": admitted,
        "clean": True,
        "demo": demo,
        "epochs": AUDIT_EPOCHS,
        "live_violations": [],
        "refused_withdrawals": refused,
        "replay_diverged": False,
        "replay_violations": [],
        "replayed_entries": entries,
        "rolled_back_admissions": rolled_back,
        "seed": seed,
        "starved": starved,
        "table_surface": {"live": [], "replay": []},
        "tcam_entries": tcam_entries,
        "uncertified_admissions": 0,
        "violations": [],
        "withdrawn": withdrawn,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_audit_counts_and_report_are_pinned(seed):
    result = audit.run_audit(epochs=AUDIT_EPOCHS, seed=seed)
    default, starved = AUDIT[seed]
    expected = _leg_payload(
        seed,
        2048,
        default,
        DEMO,
        _leg_payload(seed, audit.STARVED_TCAM_ENTRIES, starved, None, None),
    )
    assert payload_for(result) == expected


CHAOS_EPOCHS = 100
#: seed -> every ``chaos_run_*`` gauge.  ``retries_healed`` counts the
#: retired replace column's table engine too.
CHAOS_GAUGES = {
    7: {
        "admitted": 99, "rejected": 6, "rolled_back": 0, "shed": 0,
        "failovers": 2, "failover_readmitted": 43,
        "recovery_fingerprint_match": 1, "replay_match": 1,
        "transient_faults": 313, "retries_healed": 304,
        "audit_errors": 0, "certificates": 99, "invalid_certificates": 0,
    },
    29: {
        "admitted": 93, "rejected": 9, "rolled_back": 0, "shed": 3,
        "failovers": 2, "failover_readmitted": 29,
        "recovery_fingerprint_match": 1, "replay_match": 1,
        "transient_faults": 276, "retries_healed": 268,
        "audit_errors": 0, "certificates": 93, "invalid_certificates": 0,
    },
}
#: seed -> (events, failover_shed, fault_retries, failovers as
#: (mode, readmitted, shed, fingerprint_match)).
CHAOS_FIELDS = {
    7: (289, 0, 0, [
        ("replace", [31, 36, 39, 43, 47, 52, 54, 55, 63, 64, 67, 68, 69],
         [], True),
        ("redistribute", [
            11, 19, 29, 37, 38, 46, 48, 51, 56, 58, 66, 70, 75, 82, 83,
            85, 88, 89, 95, 96, 98, 101, 102, 103, 107, 108, 115, 124,
            130, 131,
        ], [], None),
    ]),
    29: (308, 3, 0, [
        ("replace", [28, 45, 46, 50, 65], [], True),
        ("redistribute", [
            54, 55, 56, 62, 63, 66, 67, 75, 77, 79, 83, 85, 87, 91, 95,
            99, 104, 108, 112, 120, 125, 129, 131, 132,
        ], [98, 110, 130], None),
    ]),
}


def _recording(run):
    """Run *run* under a fresh process registry; returns (result, registry)."""
    registry = telemetry.MetricsRegistry()
    previous = telemetry.set_registry(registry)
    try:
        return run(), registry
    finally:
        telemetry.set_registry(previous)


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_fields_and_gauges_are_pinned(seed):
    result, registry = _recording(
        lambda: chaos.run_chaos(epochs=CHAOS_EPOCHS, seed=seed)
    )
    gauges = {
        series[len("chaos_run_"):]: value
        for series, value in registry.snapshot()["gauges"].items()
        if series.startswith("chaos_run_")
    }
    assert gauges == CHAOS_GAUGES[seed]
    events, failover_shed, fault_retries, failovers = CHAOS_FIELDS[seed]
    assert (result.seed, result.shards, result.events) == (seed, 3, events)
    assert result.failover_shed == failover_shed
    assert result.fault_retries == fault_retries
    assert [
        (report.mode, report.readmitted, report.shed, report.fingerprint_match)
        for report in result.failovers
    ] == failovers


SCENARIO_EPOCHS = 40
#: seed -> (arrivals, admitted, rejected) of the SCENARIO_EPOCHS
#: workload through one switch.
INLINE = {7: (83, 78, 5), 29: (83, 83, 0)}


@pytest.mark.parametrize("seed", SEEDS)
def test_fabric_runs_are_deterministic(seed):
    first, second = (
        fabric.run_fabric(epochs=SCENARIO_EPOCHS, shard_counts=(1, 2), seed=seed)
        for _ in range(2)
    )
    assert str(first) == str(second)
    arrivals, admitted, rejected = INLINE[seed]
    assert (
        f"single-shard parity vs bare stack: OK ({admitted} admitted / "
        f"{rejected} rejected, identical fingerprint and commit log)"
    ) in str(first).splitlines()
    assert first.arrivals == arrivals
    for row in first.rows:
        assert row.diverged is False
        assert not row.proofs.audit_errors and not row.proofs.invalid_certificates
        assert row.outcomes.total == arrivals
        assert row.modeled_s == max(shard.modeled_s for shard in row.per_shard)
    (one_shard, _) = first.rows
    assert (one_shard.outcomes.admitted, one_shard.outcomes.rejected) == (
        admitted,
        rejected,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_churn_runs_are_deterministic(seed):
    first, second = (
        churn.run_churn(epochs=SCENARIO_EPOCHS, seed=seed, batch_size=2)
        for _ in range(2)
    )
    assert str(first) == str(second)
    arrivals, admitted, rejected = INLINE[seed]
    assert first.arrivals == arrivals
    assert first.batch_status == "admitted"
    assert [row.windows for row in first.rows] == [1, 2, 4]
    for row in first.rows:
        assert row.diverged is False
        assert not row.proofs.audit_errors and not row.proofs.invalid_certificates
        assert (row.outcomes.admitted, row.outcomes.rejected) == (admitted, rejected)
        assert row.outcomes.total == arrivals
    modeled = [row.modeled_s for row in first.rows]
    assert modeled == sorted(modeled, reverse=True)


def test_a_churn_run_starts_no_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"the churn run started thread {thread.name!r}")

    before = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", refuse)
    result = churn.run_churn(epochs=5, seed=7, batch_size=2)
    assert result.clean
    assert threading.active_count() == before


def _report(snapshot_s, table_s):
    return ProvisioningReport(
        fid=1, success=True, snapshot_seconds=snapshot_s, table_update_seconds=table_s
    )


def test_windowed_seconds_overlaps_snapshots_not_table_updates():
    # Two admissions and a withdrawal: the second snapshot overlaps the
    # first admission's window, the table updates queue on the channel.
    reports = [_report(1.0, 1.0), _report(1.0, 1.0), _report(0.0, 0.5)]
    assert windowed_seconds(reports, 1) == 4.5
    assert windowed_seconds(reports, 2) == 3.5
    assert windowed_seconds(reports, 3) == 3.5
    assert windowed_seconds([], 4) == 0.0
    with pytest.raises(ValueError):
        windowed_seconds(reports, 0)


@settings(max_examples=60, deadline=None)
@given(
    phases=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2.0),
            st.floats(min_value=0.0, max_value=2.0),
        ),
        max_size=30,
    )
)
def test_windowed_seconds_contract(phases):
    """One window is the serial sum; more windows never lower
    throughput; no window count beats the table updates alone."""
    reports = [_report(snapshot_s, table_s) for snapshot_s, table_s in phases]
    serial = sum(snapshot_s + table_s for snapshot_s, table_s in phases)
    tables = sum(table_s for _, table_s in phases)
    assert windowed_seconds(reports, 1) == pytest.approx(serial)
    previous = serial
    for windows in range(1, 7):
        modeled = windowed_seconds(reports, windows)
        assert modeled <= previous + 1e-9
        assert modeled >= tables - 1e-9
        previous = modeled


def _shed_everything(result):
    result.rows[0].outcomes.shed = result.arrivals


#: scenario -> (its run function, an injected violation).
INJECTED = {
    "churn": ("run_churn", _shed_everything),
    "fabric": ("run_fabric", lambda result: setattr(result, "parity_ok", False)),
    "chaos": (
        "run_chaos",
        lambda result: setattr(result, "recovery_fingerprint_match", False),
    ),
    "audit": ("run_audit", lambda result: setattr(result, "replay_diverged", True)),
}


@pytest.mark.parametrize("scenario", sorted(INJECTED))
def test_each_scenario_cli_exits_1_on_a_violation(scenario, monkeypatch, tmp_path, capsys):
    module = importlib.import_module(f"repro.experiments.{scenario}")
    name, inject = INJECTED[scenario]
    run = getattr(module, name)
    report = tmp_path / "report.json"
    argv = [scenario, "--epochs", "3", "--report-out", str(report)]
    if scenario == "fabric":
        argv += ["--shards", "1"]
    assert cli.main(argv) == 0
    assert json.loads(report.read_text())["clean"] is True

    def injected(**kwargs):
        result = run(**kwargs)
        inject(result)
        return result

    monkeypatch.setattr(module, name, injected)
    assert cli.main(argv) == 1
    payload = json.loads(report.read_text())
    assert payload["clean"] is False and payload["violations"]
    assert f"{scenario}: VIOLATIONS" in capsys.readouterr().out
