"""Golden counts for the four churn scenarios: churn, fabric, chaos, audit.

Each scenario streams Section 6.1's Poisson arrivals and departures
through the control plane.  The inline runs are pure functions of
(epochs, seed), so they are pinned count for count at seed 7 and at
seed 29, which no other test uses.  The threaded rows are pinned on what
must hold under any interleaving -- the commit log replays to the live
pools, the proofs are clean, every arrival resolves exactly once -- and
on admitting what the inline run of the same events admits: a departure
waits for its own fid's admission, so the workers see the same
residents the inline run does.
"""

import importlib
import json

import pytest

from repro import telemetry
from repro.experiments import audit, chaos, churn, cli, fabric
from repro.experiments.common import payload_for

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
#: seed -> every ``chaos_run_*`` gauge.
CHAOS_GAUGES = {
    7: {
        "admitted": 99, "rejected": 6, "rolled_back": 0, "shed": 0,
        "failovers": 2, "failover_readmitted": 43,
        "recovery_fingerprint_match": 1, "replay_match": 1,
        "transient_faults": 313, "retries_healed": 288,
        "audit_errors": 0, "certificates": 99, "invalid_certificates": 0,
    },
    29: {
        "admitted": 93, "rejected": 9, "rolled_back": 0, "shed": 3,
        "failovers": 2, "failover_readmitted": 29,
        "recovery_fingerprint_match": 1, "replay_match": 1,
        "transient_faults": 276, "retries_healed": 248,
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


THREADED_EPOCHS = 40
#: seed -> (arrivals, inline admitted, inline rejected) of the
#: THREADED_EPOCHS workload: the fabric's parity run.
INLINE = {7: (83, 78, 5), 29: (83, 83, 0)}


@pytest.mark.parametrize("seed", SEEDS)
def test_fabric_parity_line_and_threaded_rows(seed):
    result = fabric.run_fabric(
        epochs=THREADED_EPOCHS, shard_counts=(1, 2), seed=seed
    )
    arrivals, admitted, rejected = INLINE[seed]
    assert (
        f"single-shard parity vs bare stack: OK ({admitted} admitted / "
        f"{rejected} rejected, identical fingerprint and commit log)"
    ) in str(result).splitlines()
    assert result.arrivals == arrivals
    for row in result.rows:
        assert row.diverged is False
        assert not row.proofs.audit_errors and not row.proofs.invalid_certificates
        assert row.outcomes.total == arrivals
    (one_shard, _) = result.rows
    assert (one_shard.outcomes.admitted, one_shard.outcomes.rejected) == (
        admitted,
        rejected,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_churn_threaded_rows_hold_their_invariants(seed):
    result = churn.run_churn(
        epochs=THREADED_EPOCHS, worker_counts=(1, 2), seed=seed, batch_size=2
    )
    arrivals, admitted, rejected = INLINE[seed]
    assert result.arrivals == arrivals
    assert result.batch_status == "admitted"
    for row in result.rows:
        assert row.diverged is False
        assert not row.proofs.audit_errors and not row.proofs.invalid_certificates
        assert (row.outcomes.admitted, row.outcomes.rejected) == (admitted, rejected)
        assert row.outcomes.total == arrivals


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
