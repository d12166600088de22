"""Tests of the benchmark itself.  Run with ``pytest bench/``.

They sit outside the tier-1 ``testpaths`` on purpose: the benchmark is
a tool beside the program, and tier-1 stays a statement about the
program alone.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.workloads import poisson_events

from bench import compare, inputs, runner
from bench.trace import Tracer, probed
from bench.workloads import cp

BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def smoke():
    began = time.perf_counter()
    doc = runner.run_suite(seed=7, seconds=0.0, scale="smoke")
    doc["_took"] = time.perf_counter() - began
    return doc


def test_smoke_is_quick_and_emits_every_metric(smoke):
    assert smoke["_took"] < 20.0
    assert tuple(smoke["workloads"]) == runner.WORKLOADS
    for name, result in smoke["workloads"].items():
        assert result["failed"] == 0, (name, result["problems"])
        assert result["attempted"] > 0
        assert result["repeatable"], name
        assert set(result["end_to_end"]) == set(runner.END_TO_END)
        for metric, row in result["end_to_end"].items():
            assert row["value"] > 0 and row["median"] > 0, (name, metric)
            assert row["n"] == result["rounds"] == runner.MIN_ROUNDS == len(row["rounds"])
        assert set(result["per_layer"]) == set(runner.PER_LAYER)
        assert result["lost_probes"] == []
        coverage = result["per_layer"]["bench.layer_coverage"]["value"]
        assert 0.9 <= coverage <= 1.0, (name, coverage)


def test_workloads_separate_the_layers(smoke):
    def layer(workload, metric):
        return smoke["workloads"][workload]["per_layer"][metric]["value"]

    assert layer("dp_hot", "switchsim.progcache_hit_rate") >= 0.99
    assert layer("dp_wide", "switchsim.progcache_hit_rate") == 0.0
    assert layer("cp_churn", "core.rollbacks") == 0
    assert layer("cp_faults", "core.rollbacks") > 0
    assert layer("cp_faults", "faults.injected") > 0
    assert layer("cp_churn", "faults.injected") is None
    assert layer("kv_mixed", "bench.switch_share") < 0.5
    for op in ("install_grant", "remove_translation", "scrub_registers"):
        assert layer("cp_churn", f"device.{op}.calls") > 0


def test_same_seed_same_exact_metrics_other_seed_other_inputs(smoke):
    for name in runner.WORKLOADS:
        again, _layers, _tracer = runner.one_round(name, "smoke", 7, traced=False, check=False)
        assert again.exact == smoke["workloads"][name]["exact"]
    # Simulated time is a function of the seed, hits and hit rate included.
    assert 0.0 < smoke["workloads"]["kv_mixed"]["exact"]["kv_hit_rate"] < 1.0
    assert smoke["workloads"]["kv_mixed"]["exact"]["hits"] > 0
    apps = ["cache", "heavy-hitter", "load-balancer"]
    assert inputs.churn_events(1, 30, apps) == inputs.churn_events(1, 30, apps)
    assert inputs.churn_events(1, 30, apps) != inputs.churn_events(2, 30, apps)
    assert inputs.zipf_ranks(1, 64, 1000) == inputs.zipf_ranks(1, 64, 1000)
    assert inputs.zipf_ranks(1, 64, 1000) != inputs.zipf_ranks(2, 64, 1000)
    other, _layers, _tracer = runner.one_round("cp_churn", "smoke", 8, traced=False, check=False)
    assert other.exact != smoke["workloads"]["cp_churn"]["exact"]


def test_contract_run_prints_the_declared_metrics():
    for trace, declared in ((False, runner.END_TO_END), (True, runner.PER_LAYER)):
        doc = runner.run_workload("cp_churn", seed=3, seconds=0.0, trace=trace, scale="smoke")
        result = runner.contract_result(doc, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == set(declared)
        for name, row in result["metrics"].items():
            assert isinstance(row["value"], (int, float)), name
            assert row["unit"] == declared[name]["unit"]
    json.dumps(result)


def test_compare_accepts_itself_and_flags_a_regression(smoke, tmp_path):
    rows, failures = compare.compare(smoke, smoke)
    assert failures == [] and len(rows) == 1 + 5 * len(runner.END_TO_END)

    slower = copy.deepcopy(smoke)
    row = slower["workloads"]["dp_hot"]["end_to_end"]["ops_per_s"]  # higher is better
    for key in ("value", "median", "q1", "q3"):
        row[key] *= 0.5
    row["rounds"] = [value * 0.5 for value in row["rounds"]]
    _rows, failures = compare.compare(smoke, slower)
    assert any("dp_hot.ops_per_s" in failure for failure in failures)

    drifted = copy.deepcopy(smoke)
    drifted["workloads"]["cp_churn"]["exact"]["admitted"] += 1
    drifted["workloads"]["kv_mixed"]["failed"] = 1
    _rows, failures = compare.compare(smoke, drifted)
    assert any("exact metric admitted" in failure for failure in failures)
    assert any("failed_ops_share" in failure for failure in failures)

    longer = copy.deepcopy(smoke)
    longer["seconds"] = 20.0
    _rows, failures = compare.compare(smoke, longer)
    assert failures == ["seconds differs (0.0 vs 20.0): not one protocol"]

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(smoke))
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1


def test_churn_stream_is_pinned_against_the_poisson_process(monkeypatch):
    """The stratified stream must load the controller as Section 6.1's
    process does: as much refused, as many incumbents moved per admission."""

    def shares(seeds):
        rounds = [runner.one_round("cp_churn", "full", seed, traced=False, check=False)[0]
                  for seed in seeds]
        assert all(rnd.failed == 0 for rnd in rounds)
        return [
            sum(rnd.exact[key] for rnd in rounds) / len(rounds)
            for key in ("admitted_share", "reinstalls_per_admit")
        ]

    admitted, reinstalls = shares((7, 8))
    monkeypatch.setattr(
        cp,
        "churn_events",
        lambda seed, epochs, names: list(poisson_events(epochs=epochs, seed=seed, app_names=names)),
    )
    poisson_admitted, poisson_reinstalls = shares((7, 8))
    assert admitted == pytest.approx(poisson_admitted, abs=0.05)
    assert reinstalls == pytest.approx(poisson_reinstalls, rel=0.25)


def test_noisy_metric_is_unresolved_not_a_regression():
    def row(low, mid, high):
        return {"value": mid, "median": mid, "q1": low, "q3": high, "rounds": [low, mid, high]}

    quiet, noisy = row(9.9, 10.0, 10.1), row(9.0, 14.0, 16.0)
    worse, faster = row(13.9, 14.0, 14.1), row(7.9, 8.0, 8.1)
    assert compare.verdict(quiet, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(quiet, worse, "lower", 0.1) == "REGRESSION"
    assert compare.verdict(quiet, faster, "lower", 0.1) == "better"
    assert compare.verdict(quiet, quiet, "lower", 0.1) == "ok"
    assert compare.verdict(quiet, worse, "higher", 0.1) == "better"


def test_a_probe_whose_target_moved_is_lost_not_fatal(capsys):
    class Layer:
        def work(self):
            return 1

    tracer, layer = Tracer(), Layer()
    tracer.shadow(layer, "work", "layer.work")
    tracer.shadow(layer, "renamed_away", "layer.gone")
    tracer.shadow(None, "anything", "layer.none")
    tracer.patch_global(sys.modules[__name__], "no_such_function", "layer.global")
    assert tracer.lost == ["layer.gone", "layer.none", "layer.global"]
    assert "not attached" in capsys.readouterr().err
    assert probed(layer, "work") and layer.work() == 1
    assert tracer.totals()["layer.work"][0] == 1
    tracer.detach()
    assert not probed(layer, "work") and "work" not in vars(layer)


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.01)
        with tracer.span("inner"):
            pass
    totals = tracer.totals()
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    assert totals["outer"][1] >= totals["inner"][1] >= 0.01
    assert totals["outer"][2] == pytest.approx(totals["outer"][1] - totals["inner"][1])
    assert [span[4] for span in tracer.spans] == [0, 0, 0]
    events = tracer.chrome_trace()["traceEvents"]
    assert [event["args"]["parent"] for event in events] == [-1, 0, 0]


def test_bench_uses_only_the_package_level_surface():
    """Later changes may not edit bench/, so it must survive refactors
    that move modules: no ``repro.experiments``, no deep imports, no
    reaching into private names."""
    deep_import = re.compile(r"^\s*(from|import)\s+repro\.\w+\.\w+")
    private_reach = re.compile(r"(?<!self)\._(?!_)[a-z]")
    offences = []
    for path in sorted(BENCH.rglob("*.py")):
        if path.name == "test_bench.py":
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            code = line.split("#", 1)[0]
            if "repro.experiments" in code or deep_import.search(code) or private_reach.search(code):
                offences.append(f"{path.relative_to(BENCH)}:{number}: {line.strip()}")
    assert offences == []


def test_ruff_is_clean():
    if shutil.which("ruff") is None:
        pytest.skip("ruff is not installed")
    done = subprocess.run(
        ["ruff", "check", str(BENCH)], capture_output=True, text=True, cwd=BENCH.parent
    )
    assert done.returncode == 0, done.stdout + done.stderr
