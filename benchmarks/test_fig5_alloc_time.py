"""Figure 5 bench: control-plane allocation time."""

from repro.experiments import fig5_alloc_time


def test_fig5a_pure_workloads(benchmark):
    results = benchmark.pedantic(
        fig5_alloc_time.run_pure, kwargs={"arrivals": 60}, rounds=1, iterations=1
    )
    cache_mc = results["cache"]["mc"]
    assert cache_mc.placed == 60  # elastic: every arrival admitted
    hh = results["heavy-hitter"]
    assert 0 < hh["mc"].first_failure_epoch <= hh["lc"].first_failure_epoch or (
        hh["lc"].first_failure_epoch == -1
    )


def test_fig5b_mixed_workload(benchmark):
    results = benchmark.pedantic(
        fig5_alloc_time.run_mixed,
        kwargs={"arrivals": 40, "trials": 2},
        rounds=1,
        iterations=1,
    )
    for policy in ("mc", "lc"):
        smoothed = results[policy].smoothed_mean()
        assert len(smoothed) == 40


def test_single_allocation_cache_mc(benchmark):
    """Microbenchmark: one cache admission on a busy switch."""
    from repro.apps import cache_pattern
    from repro.experiments.common import make_controller

    pattern = cache_pattern()

    def setup():
        controller = make_controller()
        for fid in range(40):
            controller.admit(fid=fid, pattern=pattern)
        return (controller,), {}

    def admit(controller):
        return controller.admit(fid=999, pattern=pattern)

    report = benchmark.pedantic(admit, setup=setup, rounds=10, iterations=1)
    assert report.success
