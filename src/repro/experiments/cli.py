"""Command-line entry point: regenerate any paper figure or table.

Usage::

    python -m repro.experiments <experiment> [--quick] [--stats-out FILE]
    activermt-experiments all --quick

``--quick`` shrinks workload sizes for smoke runs; the defaults match
the paper's scales.  The churn scenarios take their size explicitly:
``--epochs N`` (churn, fabric, chaos, audit) and ``--shards 1,4``
(fabric) override the quick/full defaults -- the CI jobs pin both.  A
scenario exits 1 when any of its checks fails (its result's
``violations``); ``--report-out FILE`` writes every result field and
the violations as JSON.

``--stats-out FILE`` enables the telemetry subsystem for the run: a
fresh metrics registry is installed as the process default before each
figure, so every allocator decision, admission outcome, table update,
and data-path packet lands in it, and the registry is dumped after the
figure finishes.  Files ending in ``.prom`` are written in Prometheus
text exposition format; anything else gets the JSON snapshot (with
histogram percentiles).  When several figures run (``all``), each
figure writes its own file with the figure name spliced in before the
extension.

``--trace-out FILE`` enables causal span tracing the same way: a fresh
:class:`~repro.telemetry.tracing.Tracer` becomes the process default
for the run, every controller/service/allocator/journal operation and
sampled data-path packet records into it, and the span set is exported
afterwards -- ``.jsonl`` selects the compact span log, anything else
gets Chrome trace-event JSON that loads directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, Optional, Tuple

#: Share of data-path packets a ``--trace-out`` run records as
#: ``datapath.packet`` spans: enough to see packets join the commit that
#: installed their layout, few enough to leave the ring to the control
#: plane.  (The sampler seed stays at the Tracer default.)
TRACE_PACKET_SAMPLE_RATE = 0.01


def _fig5(quick: bool) -> str:
    from repro.experiments import fig5_alloc_time

    arrivals = 120 if quick else 500
    trials = 3 if quick else 10
    return fig5_alloc_time.main(arrivals=arrivals, trials=trials)


def _fig6(quick: bool) -> str:
    from repro.experiments import fig6_utilization

    return fig6_utilization.main(arrivals=120 if quick else 500)


def _fig7(quick: bool) -> str:
    from repro.experiments import fig7_online

    epochs = 150 if quick else 1000
    trials = 3 if quick else 10
    return fig7_online.main(epochs=epochs, trials=trials)


def _fig8a(quick: bool) -> str:
    from repro.experiments import fig8a_provisioning

    return fig8a_provisioning.main(epochs=80 if quick else 300)


def _fig8b(quick: bool) -> str:
    from repro.experiments import fig8b_latency

    return fig8b_latency.main()


def _fig9a(quick: bool) -> str:
    from repro.experiments import fig9_case_study

    if quick:
        result = fig9_case_study.run_case_study(
            monitor_duration_s=0.8,
            total_duration_s=3.5,
            request_interval_s=500e-6,
            num_keys=3000,
        )
    else:
        result = fig9_case_study.run_case_study()
    return fig9_case_study.format_case_study(result)


def _fig9b(quick: bool) -> str:
    from repro.experiments import fig9_case_study

    if quick:
        result = fig9_case_study.run_multi_tenant(
            stagger_s=2.0, settle_s=3.0, request_interval_s=1e-3, num_keys=2000
        )
    else:
        result = fig9_case_study.run_multi_tenant()
    return fig9_case_study.format_multi_tenant(result)


def _fig11(quick: bool) -> str:
    from repro.experiments import fig11_schemes

    epochs = 40 if quick else 100
    trials = 3 if quick else 10
    return fig11_schemes.main(epochs=epochs, trials=trials)


def _fig12(quick: bool) -> str:
    from repro.experiments import fig12_granularity

    return fig12_granularity.main(arrivals=40 if quick else 100)


def _tables(quick: bool) -> str:
    from repro.experiments import tables

    return tables.main()


def _ablation(quick: bool) -> str:
    from repro.experiments import ablation_mutants

    return ablation_mutants.main(arrivals=40 if quick else 100)


def _whatif(quick: bool) -> str:
    from repro.experiments import whatif

    return whatif.main(arrivals=20 if quick else 60)


def _churn(quick: bool, epochs: int = 0) -> object:
    from repro.experiments import churn

    # The CI soak job runs a few hundred epochs against a fixed seed.
    return churn.run_churn(epochs=epochs or (10 if quick else 30))


def _fabric(quick: bool, epochs: int = 0, shards: Tuple[int, ...] = ()) -> object:
    from repro.experiments import fabric

    # The CI smoke job pins epochs and the shard ladder.
    return fabric.run_fabric(
        epochs=epochs or (10 if quick else 30),
        shard_counts=shards or ((1, 2) if quick else (1, 2, 4, 8)),
    )


def _chaos(quick: bool, epochs: int = 0) -> object:
    from repro.experiments import chaos

    # *epochs* is the churn between failovers (the CI chaos-smoke job
    # pins it with a fixed seed).
    return chaos.run_chaos(epochs=epochs or (30 if quick else 60))


def _audit(quick: bool, epochs: int = 0) -> object:
    from repro.experiments import audit

    return audit.run_audit(epochs=epochs or 30)


#: The workload-size flags each churn scenario takes.
SIZED_BY = {
    "churn": ("epochs",),
    "fabric": ("epochs", "shards"),
    "chaos": ("epochs",),
    "audit": ("epochs",),
}

#: A figure returns its text; a churn scenario returns a
#: :class:`~repro.experiments.common.ScenarioResult`, which prints itself
#: and whose violations set the exit status.
EXPERIMENTS: Dict[str, Callable[..., object]] = {
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8a": _fig8a,
    "fig8b": _fig8b,
    "fig9a": _fig9a,
    "fig9b": _fig9b,  # figure 10 metrics are printed with 9b
    "fig11": _fig11,
    "fig12": _fig12,
    "tables": _tables,
    "ablation": _ablation,
    # Not a paper figure: dry-run admission probing enabled by the
    # transactional control plane (plans are free until committed).
    "whatif": _whatif,
    # Not a paper figure: Poisson churn through the inline admission
    # service (modeled throughput vs provisioning windows outstanding).
    "churn": _churn,
    # Not a paper figure: the same churn workload scaled across a
    # sharded multi-switch fabric (modeled throughput vs shard count, plus
    # single-shard parity and per-shard commit-log replay checks).
    "fabric": _fabric,
    # Not a paper figure: fixed-seed churn under injected device faults
    # with two shard failovers (replace + redistribute); the run must
    # end with clean audits and matching recovery fingerprints.
    "chaos": _chaos,
    # Not a paper figure: a churn commit log replayed through the
    # invariant auditor, on a default and a TCAM-starved switch.
    "audit": _audit,
}


def _shard_counts(spec: str) -> Tuple[int, ...]:
    """``--shards 1,4`` -> ``(1, 4)``."""
    return tuple(int(part) for part in spec.split(",") if part)


def _stats_path(template: str, name: str, multi: bool) -> str:
    """Per-figure output path: splice the figure name in before the
    extension when several figures share one --stats-out template."""
    if not multi:
        return template
    stem, ext = os.path.splitext(template)
    return f"{stem}.{name}{ext}"


def _dump_stats(path: str, registry) -> None:
    from repro.telemetry import dump_json, prometheus_text

    if path.endswith(".prom"):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(prometheus_text(registry))
    else:
        dump_json(path, registry)


def run_experiment(
    name: str,
    quick: bool,
    stats_out: Optional[str] = None,
    trace_out: Optional[str] = None,
    **scale: object,
) -> object:
    """Run one experiment, optionally dumping telemetry and/or spans.

    *scale* holds the workload-size flags *name* takes (:data:`SIZED_BY`).

    With *stats_out* set, a fresh recording registry becomes the
    process default for the duration of the run (restored afterwards),
    so the controllers and switches the experiment builds report into
    it; the registry is written to *stats_out* before returning.
    *trace_out* does the same for the causal span tracer: components
    built during the run resolve it, and the span set is exported to
    the file (.jsonl = span log, else Chrome trace-event JSON).
    """
    if stats_out is None and trace_out is None:
        return EXPERIMENTS[name](quick, **scale)
    from repro import telemetry

    registry = telemetry.MetricsRegistry() if stats_out else None
    # A fresh Tracer is empty and Tracer defines __len__, so these
    # guards must test identity, not truthiness.
    tracer = (
        telemetry.Tracer(capacity=1 << 16, sample_rate=TRACE_PACKET_SAMPLE_RATE)
        if trace_out
        else None
    )
    if registry is not None:
        previous_registry = telemetry.set_registry(registry)
    if tracer is not None:
        previous_tracer = telemetry.set_tracer(tracer)
    try:
        output = EXPERIMENTS[name](quick, **scale)
    finally:
        if registry is not None:
            telemetry.set_registry(previous_registry)
        if tracer is not None:
            telemetry.set_tracer(previous_tracer)
    if registry is not None and stats_out is not None:
        _dump_stats(stats_out, registry)
    if tracer is not None and trace_out is not None:
        from repro.telemetry import dump_trace

        dump_trace(trace_out, tracer)
    return output


def run_lint(report_out: Optional[str] = None) -> int:
    """Statically verify the bundled apps (the ``lint`` pseudo-experiment).

    Prints the per-program findings report and returns a process exit
    code: 0 when no error-severity finding exists, 1 otherwise.  With
    *report_out*, the machine-readable summary (per-program findings
    plus totals) is written there as JSON.
    """
    from repro.analysis import lint_catalog

    text, payload, exit_code = lint_catalog()
    print(text)
    if report_out is not None:
        _write_report(report_out, payload)
    return exit_code


def _write_report(path: str, payload: object) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[report written to {path}]", file=sys.stderr)


def run_codelint(root: Optional[str] = None) -> int:
    """Mutation-discipline lint (the ``codelint`` pseudo-experiment).

    Lints the installed ``repro`` package sources (or *root*) for
    direct mutation of journaled state and layering violations;
    returns 0 only when the tree is clean.
    """
    from repro.analysis.codelint import format_findings, lint_tree

    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    findings, files = lint_tree(root)
    print(format_findings(findings, files))
    return 0 if not findings else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="activermt-experiments",
        description="Regenerate the ActiveRMT paper's figures and tables.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "codelint", "lint"],
        help=(
            "which figure/table to regenerate; 'lint' statically "
            "verifies the bundled active programs, 'audit' replays a "
            "churn commit log through the invariant auditor, and "
            "'codelint' checks the package sources for mutation-"
            "discipline violations"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads for a fast smoke run",
    )
    parser.add_argument(
        "--stats-out",
        metavar="FILE",
        default=None,
        help=(
            "enable telemetry and dump the metrics registry here after "
            "each figure run (.prom = Prometheus text, else JSON)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help=(
            "enable causal span tracing and export the spans here after "
            "each figure run (.jsonl = span log, else Chrome "
            "trace-event JSON loadable in Perfetto)"
        ),
    )
    parser.add_argument(
        "--report-out",
        metavar="FILE",
        default=None,
        help=(
            "(lint and churn/fabric/chaos/audit only) write the JSON "
            "report (every result field plus the violations) here"
        ),
    )
    parser.add_argument(
        "--epochs",
        type=int,
        metavar="N",
        default=0,
        help=(
            "(churn/fabric/chaos/audit only) epochs of Poisson churn to "
            "drive; default 0: the experiment's own quick/full size"
        ),
    )
    parser.add_argument(
        "--shards",
        type=_shard_counts,
        metavar="N,N",
        default=(),
        help="(fabric only) shard counts to sweep, e.g. 1,4 (default: 1,2 / 1,2,4,8)",
    )
    args = parser.parse_args(argv)
    if args.experiment == "lint":
        return run_lint(report_out=args.report_out)
    if args.experiment == "codelint":
        return run_codelint()
    from repro.experiments.common import ScenarioResult, payload_for

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    exit_code = 0
    for name in names:
        started = time.perf_counter()
        stats_out, trace_out, report_out = (
            _stats_path(path, name, len(names) > 1) if path else None
            for path in (args.stats_out, args.trace_out, args.report_out)
        )
        scale = {flag: getattr(args, flag) for flag in SIZED_BY.get(name, ())}
        output = run_experiment(name, args.quick, stats_out, trace_out, **scale)
        print(output)
        if isinstance(output, ScenarioResult):
            for violation in output.violations:
                print(f"violation: {violation}")
            print(f"{name}: {'CLEAN' if output.clean else 'VIOLATIONS'}")
            if report_out:
                _write_report(report_out, payload_for(output))
            if not output.clean:
                exit_code = 1
        # Host time and the notices naming output files go to stderr,
        # so a seeded run's report on stdout repeats byte for byte.
        elapsed = time.perf_counter() - started
        print(f"[{name} regenerated in {elapsed:.1f} s]", file=sys.stderr)
        print()
        if stats_out:
            print(f"[telemetry snapshot written to {stats_out}]\n", file=sys.stderr)
        if trace_out:
            print(f"[span trace written to {trace_out}]\n", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
