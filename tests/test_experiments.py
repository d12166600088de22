"""Smoke + shape tests for the experiment regenerators (quick sizes)."""

import pytest

from repro.experiments import (
    fig5_alloc_time,
    fig6_utilization,
    fig7_online,
    fig8a_provisioning,
    fig8b_latency,
    fig9_case_study,
    fig11_schemes,
    fig12_granularity,
    tables,
    whatif,
)
from repro.experiments.common import make_controller


def test_fig5_pure_shapes():
    results = fig5_alloc_time.run_pure(arrivals=80)
    cache_mc = results["cache"]["mc"]
    hh_mc = results["heavy-hitter"]["mc"]
    # Elastic caches keep being admitted; inelastic HH fails early.
    assert cache_mc.placed == 80
    assert 0 < hh_mc.first_failure_epoch < 80
    # The lc policy places at least as many HH instances as mc.
    assert results["heavy-hitter"]["lc"].placed >= hh_mc.placed
    # Failed epochs are brief: mean failed-epoch time is below the mean
    # successful-epoch time (assignment is skipped entirely).
    failed = [
        t for t, ok in zip(hh_mc.alloc_seconds, hh_mc.successes) if not ok
    ]
    succeeded = [
        t for t, ok in zip(hh_mc.alloc_seconds, hh_mc.successes) if ok
    ]
    assert failed and succeeded


def test_fig5_mixed_smoothing():
    results = fig5_alloc_time.run_mixed(arrivals=40, trials=2)
    assert set(results) == {"mc", "lc"}
    smoothed = results["mc"].smoothed_mean()
    assert len(smoothed) == 40
    assert all(v >= 0 for v in smoothed)


def test_fig6_shapes():
    results = fig6_utilization.run(arrivals=60)
    cache = results["cache"]
    # Cache saturates within ~10 arrivals (paper: 8-9) and lc reaches
    # strictly higher utilization than mc (all 20 stages reachable).
    assert cache["mc"].arrivals_to_saturation() <= 15
    assert cache["lc"].max_utilization > cache["mc"].max_utilization
    assert cache["lc"].max_utilization == pytest.approx(1.0)
    # The load balancer's tiny inelastic demand climbs very slowly.
    lb = results["load-balancer"]["mc"]
    assert lb.max_utilization < 0.2


def test_fig7_shapes():
    results = fig7_online.run(epochs=120, trials=2)
    for result in results.values():
        assert 0.4 < result.final_utilization() <= 1.0
        assert result.final_fairness() > 0.8
        residents = result.mean_residents()
        assert residents[-1] > residents[0]
    # lc places at least as many instances as mc.
    assert (
        results["lc"].mean_residents()[-1]
        >= results["mc"].mean_residents()[-1] - 1
    )


def test_fig8a_shapes():
    result = fig8a_provisioning.run(epochs=80)
    assert 0.2 < result.plateau_seconds() < 5.0
    assert result.table_dominance() > 0.8


def test_fig8b_shapes():
    result = fig8b_latency.run()
    assert result.is_monotone()
    assert all(rtt > result.baseline_rtt_us for rtt in result.rtt_us.values())
    assert result.passes[30] == 2  # 30 instructions recirculate


def test_fig9a_case_study_quick():
    result = fig9_case_study.run_case_study(
        monitor_duration_s=0.6,
        total_duration_s=3.0,
        request_interval_s=1e-3,
        num_keys=2000,
    )
    assert result.phase_hit_rate(0.0, result.switch_started_at) == 0.0
    assert result.extracted_keys > 50
    assert result.cache_allocated_at is not None
    stable = result.phase_hit_rate(2.5, 3.0)
    assert stable > 0.5


def test_fig9b_multi_tenant_quick():
    result = fig9_case_study.run_multi_tenant(
        stagger_s=1.5, settle_s=2.5, request_interval_s=1e-3, num_keys=2000
    )
    fids = sorted(result.per_client_events)
    rates = {fid: result.stable_hit_rate(fid) for fid in fids}
    assert all(rate > 0.5 for rate in rates.values()), rates
    # The sharing pair (first and fourth tenants) land close together
    # and below the exclusive tenants.
    sharing = (rates[fids[0]] + rates[fids[-1]]) / 2
    exclusive = (rates[fids[1]] + rates[fids[2]]) / 2
    assert sharing < exclusive
    assert abs(rates[fids[0]] - rates[fids[-1]]) < 0.15
    # Figure 10: the incumbent's disruption is sub-second.
    disruption = result.disruption_window(fids[0], result.arrival_times[fids[-1]])
    assert 0.01 < disruption < 1.0


def test_fig11_shapes():
    results = fig11_schemes.run(epochs=40, trials=2)
    assert set(results) == {"wf", "ff", "bf", "realloc"}
    wf = results["wf"]
    bf = results["bf"]
    # Worst-fit's failure rate does not exceed best-fit's (paper:
    # dramatically lower).
    assert wf.failure_rate <= bf.failure_rate + 0.02
    for result in results.values():
        assert 0 <= result.failure_rate < 1
        assert 0 < result.utilization.median <= 1


def test_fig12_shapes():
    results = fig12_granularity.run(arrivals=30)
    for workload, cells in results.items():
        for cell in cells.values():
            assert cell.total_alloc_seconds >= 0
            assert cell.placed + cell.failed == 30
    # Same byte demand at every granularity: the LB places everywhere.
    lb = results["load-balancer"]
    assert all(cell.failed == 0 for cell in lb.values())


def test_mutant_census_matches_paper_shape():
    census = tables.run_mutant_census()
    counts = census.counts
    # Paper: 34/1/5 (mc) and 915/587/1149 (lc); exact values depend on
    # the deployed programs, but the structure must hold.
    assert counts["heavy-hitter"]["mc"] == 1
    assert counts["cache"]["mc"] > counts["load-balancer"]["mc"]
    for app in counts:
        assert counts[app]["lc"] > counts[app]["mc"]


def test_overheads_match_paper():
    result = tables.run_overheads()
    assert result.monolith_max_instances == 22
    assert result.monolith_compile_seconds == pytest.approx(28.79, abs=0.1)
    assert result.netvrm_usable_fraction < 0.5
    assert result.activermt_usable_fraction == pytest.approx(0.83)


def test_cli_runs_quick_experiment(capsys):
    from repro.experiments.cli import main

    assert main(["fig8b", "--quick"]) == 0
    output = capsys.readouterr().out
    assert "Figure 8b" in output


def test_whatif_probes_leave_state_untouched():
    out = whatif.main(arrivals=20)
    assert "resident caches: 20" in out
    assert "would fit" in out


def test_whatif_catches_a_probe_that_installs_a_translation():
    """The fingerprint covers every table entry, not only grant FIDs
    and TCAM counts: a stray translation is a mutation."""
    controller = make_controller()
    admit = controller.admit

    def leaky_admit(**kwargs):
        controller.device.install_translation(1, kwargs["fid"], mask=255, offset=0)
        return admit(**kwargs)

    controller.admit = leaky_admit
    with pytest.raises(AssertionError, match="mutated state"):
        whatif.probe_all_apps(controller, probe_fid=1_000_000)
