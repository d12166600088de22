"""Rounds, runs and the suite.

A *round* is one set-up plus one pass over a workload's measured work,
on inputs that depend only on the seed.  A *run* is rounds of one
workload until ``--seconds`` have passed (:func:`run_workload`); every
number the benchmark reports is aggregated there and nowhere else.
``BENCHMARK.json``'s command prints one projection of a run
(:func:`contract_result`); the *suite* (:func:`run_suite`) is one run
per workload, each in a process of its own.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench.spec import END_TO_END, PER_LAYER, WORKLOADS
from bench.speed import REFERENCE_S, warm_up
from bench.stats import percentile, summary
from bench.trace import NULL_TRACER, Tracer
from bench.workloads import cp, dp, kv
from bench.workloads.common import Round

_perf = time.perf_counter

#: A run's median needs at least this many untraced rounds.
MIN_ROUNDS = 3

RoundFn = Callable[[str, int, Any, bool], Tuple[Round, Dict[str, Optional[float]]]]

_ROUND_FNS: Dict[str, RoundFn] = {
    "dp_hot": lambda scale, seed, tracer, check: dp.run_round(
        dp.spec("dp_hot", scale), seed, tracer, check
    ),
    "dp_wide": lambda scale, seed, tracer, check: dp.run_round(
        dp.spec("dp_wide", scale), seed, tracer, check
    ),
    "cp_churn": cp.run_churn,
    "cp_faults": cp.run_faults,
    "kv_mixed": kv.run_round,
}


def end_to_end(rnd: Round) -> Dict[str, float]:
    """The six user-visible numbers of one round (times at reference speed)."""
    return {
        "setup_s": rnd.setup_s,
        "ops_per_s": rnd.ops / rnd.stream_s if rnd.stream_s else 0.0,
        "op_us_p50": percentile(rnd.op_us, 50) if rnd.op_us else 0.0,
        "op_us_p95": percentile(rnd.op_us, 95) if rnd.op_us else 0.0,
        "second_op_us": statistics.median(rnd.second_us) if rnd.second_us else 0.0,
        "peak_rss_mb": rnd.peak_rss_mb,
    }


def one_round(
    workload: str, scale: str, seed: int, traced: bool, check: bool
) -> Tuple[Round, Dict[str, Optional[float]], Optional[Tracer]]:
    """Run one round; a traced round also returns its layer metrics."""
    tracer = Tracer() if traced else None
    gc.collect()
    try:
        rnd, layers = _ROUND_FNS[workload](scale, seed, tracer or NULL_TRACER, check)
    finally:
        if tracer is not None:
            tracer.detach()
    rnd.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        # Layer times come from raw spans; the round's mean speed puts
        # them at reference speed.
        slow = statistics.fmean(rnd.setup_speed.readings + rnd.speed.readings) / REFERENCE_S
        for name, value in layers.items():
            unit = PER_LAYER.get(name, {}).get("unit")
            if value is not None and unit in ("ns", "us", "ms", "s"):
                layers[name] = value / slow
            elif value is not None and unit == "1/s":
                layers[name] = value * slow
        layers["bench.slowness"] = slow
        totals = tracer.totals()
        wall = rnd.wall_s
        own = sum(row[2] for name, row in totals.items() if name.startswith("bench."))
        switch = sum(row[2] for name, row in totals.items() if name.startswith("switchsim."))
        layers["bench.layer_coverage"] = sum(row[2] for row in totals.values()) / wall
        layers["bench.generator_share"] = own / wall
        # Of the time spent in the program, not in generating its load.
        layers["bench.switch_share"] = switch / (wall - own) if wall > own else None
    for problem in rnd.problems:
        print(f"bench: {workload}: {problem}", file=sys.stderr)
    return rnd, layers, tracer


def _more(began: float, rounds: int, least: int, deadline: float) -> bool:
    """Would another round end nearer the deadline than stopping now?"""
    if rounds < least:
        return True
    now = _perf()
    return now + 0.5 * (now - began) / rounds < deadline


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    chrome_out: Optional[str] = None,
) -> Dict[str, Any]:
    """One run: rounds of *workload* until *seconds* have passed.

    A discarded smoke-scale round comes first: a cold first round read
    1.2-2.8 times the later ones on ``setup_s`` (lazy imports, first-use
    caches), which a median over three rounds does not drop.  The
    end-to-end metrics are medians over untraced rounds.  With *trace*,
    untraced rounds fill the first half of the time and traced rounds
    the second; the per-layer metrics are medians over the traced ones.
    The first round runs the checks that need a second world (the
    uncached reference, the commit-log replay).  *chrome_out* names a
    file for the last traced round's spans as Chrome trace events.
    """
    began = _perf()
    warm_up()
    warm, _layers, _tracer = one_round(workload, "smoke", seed, traced=False, check=False)
    plain: List[Round] = []
    deadline = began + (seconds / 2 if trace else seconds)
    while _more(began, len(plain), MIN_ROUNDS, deadline):
        rnd, _layers, _tracer = one_round(workload, scale, seed, traced=False, check=not plain)
        plain.append(rnd)
    per_round = [end_to_end(rnd) for rnd in plain]
    values = {name: statistics.median(row[name] for row in per_round) for name in END_TO_END}
    # One round has about ten samples beyond its 95th percentile, and the
    # per-round tails spread 29 % over ten runs: pool the rounds.
    values["op_us_p95"] = percentile([sample for rnd in plain for sample in rnd.op_us], 95)
    # The high-water mark is the last reading, taken before any span is kept.
    values["peak_rss_mb"] = per_round[-1]["peak_rss_mb"]

    traced: List[Round] = []
    layer_rounds: List[Dict[str, Optional[float]]] = []
    lost: List[str] = []
    if trace:
        base = statistics.median(rnd.stream_s for rnd in plain)
        phase_began = _perf()
        last = False
        while not last:
            rnd, layers, tracer = one_round(workload, scale, seed, traced=True, check=False)
            assert tracer is not None
            layers["bench.trace_overhead_ratio"] = rnd.stream_s / base
            traced.append(rnd)
            layer_rounds.append(layers)
            lost = list(tracer.lost)
            last = not _more(phase_began, len(traced), 1, began + seconds)
            if last and chrome_out is not None:
                pid = WORKLOADS.index(workload) + 1
                Path(chrome_out).write_text(json.dumps(tracer.chrome_trace(pid)))
            # A control-plane round holds ~200 MB of spans; the rounds
            # of a run are kept, their spans need not be.
            tracer.spans.clear()

    every = plain + traced
    counted = [warm] + every
    per_layer: Dict[str, Any] = {}
    for name, meta in PER_LAYER.items():
        seen = [layers[name] for layers in layer_rounds if layers.get(name) is not None]
        per_layer[name] = {"unit": meta["unit"], "value": statistics.median(seen) if seen else None}
    doc: Dict[str, Any] = {
        "workload": workload,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "end_to_end": {
            name: {
                "unit": meta["unit"],
                "value": values[name],
                **summary([row[name] for row in per_round]),
            }
            for name, meta in END_TO_END.items()
        },
        "exact": plain[0].exact,
        "repeatable": all(rnd.exact == plain[0].exact for rnd in every),
        "attempted": sum(rnd.attempted for rnd in counted),
        "failed": sum(rnd.failed for rnd in counted),
        "problems": sorted({problem for rnd in counted for problem in rnd.problems}),
        "per_layer": per_layer if trace else {},
        "lost_probes": lost,
    }
    if not doc["repeatable"]:
        print(f"bench: {workload}: rounds of one seed disagree on exact counts", file=sys.stderr)
    return doc


def contract_result(doc: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """What ``BENCHMARK.json``'s command prints as its last line."""
    rows = doc["per_layer"] if trace else doc["end_to_end"]
    return {
        "correct": doc["failed"] == 0 and doc["repeatable"] and doc["attempted"] > 0,
        "attempted": max(1, doc["attempted"]),
        "failed": doc["failed"],
        "metrics": {
            # A layer the workload does not exercise reads 0 here.
            name: {"value": 0.0 if row["value"] is None else row["value"], "unit": row["unit"]}
            for name, row in rows.items()
        },
    }


def run_suite(
    seed: int, seconds: float, scale: str, trace_out: Optional[str] = None
) -> Dict[str, Any]:
    """A traced run of twice *seconds* per workload, each in a fresh process.

    The untraced half of each run is what the contract's command
    measures in *seconds*.  One process per workload keeps
    ``peak_rss_mb`` the workload's own and the spans of one workload out
    of the memory of the next.  This process must stay small too: a
    child's ``ru_maxrss`` starts at its parent's resident size (Linux
    carries the mark across fork and exec), so the children write their
    Chrome trace events to files, merged here after the last has ended.
    """
    context = multiprocessing.get_context("spawn")
    workloads: Dict[str, Any] = {}
    parts = {name: f"{trace_out}.{name}.part" if trace_out else None for name in WORKLOADS}
    with context.Pool(1, maxtasksperchild=1) as pool:
        for name in WORKLOADS:
            workloads[name] = pool.apply(
                run_workload, (name, seed, 2 * seconds, True, scale, parts[name])
            )
    if trace_out:
        events: List[Dict[str, Any]] = []
        for part in parts.values():
            events.extend(json.loads(Path(part).read_text())["traceEvents"])
            Path(part).unlink()
        Path(trace_out).write_text(json.dumps({"traceEvents": events}))
    return {
        "schema": 2,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": workloads,
    }


def format_suite(doc: Dict[str, Any]) -> str:
    """Every metric by name, with its unit, one row each."""
    lines = [f"seed {doc['seed']}  scale {doc['scale']}  seconds {doc['seconds']}"]
    for name, result in doc["workloads"].items():
        share = result["failed"] / result["attempted"] if result["attempted"] else 1.0
        lines.append("")
        lines.append(
            f"{name}: rounds {result['rounds']}+{result['traced_rounds']} traced  "
            f"attempted {result['attempted']}  failed {result['failed']}  "
            f"failed_ops_share {share:.6f}  repeatable {result['repeatable']}"
        )
        for metric, row in result["end_to_end"].items():
            lines.append(
                f"  {metric:<34} {row['value']:>14.4f} {row['unit']:<6} "
                f"median {row['median']:.4f}  q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  n {row['n']}"
            )
        for metric, value in result["exact"].items():
            lines.append(f"  {'exact.' + metric:<34} {value:>14.6g}")
        for metric, row in result["per_layer"].items():
            value = "null" if row["value"] is None else f"{row['value']:.4f}"
            lines.append(f"  {metric:<34} {value:>14} {row['unit']}")
        if result["lost_probes"]:
            lines.append(f"  lost probes: {', '.join(result['lost_probes'])}")
    return "\n".join(lines)
