"""Command line of the benchmark.

``python3 -m bench --workload dp_hot --seed 7 --seconds 20 --trace 0``
    one run of one workload, the way ``BENCHMARK.json``'s command is
    run: the last line of standard output is the JSON result.

``python3 -m bench --seed 7 --out BENCH.json [--trace-out TRACE.json]``
    the suite: a traced run of every workload, each in its own process,
    every metric printed by name; ``--out`` is a ledger row.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", help="run this one workload and print its JSON result")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="length of one run (default: run_seconds of BENCHMARK.json; "
                             "at smoke scale, the fewest rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="one workload: 1 prints the per-layer metrics instead")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="suite: write the full result here")
    parser.add_argument("--trace-out", help="suite: write a traced round of each as Chrome trace")
    args = parser.parse_args(argv)

    from bench import runner
    from bench.spec import SPEC

    seconds = args.seconds
    if seconds is None:
        seconds = float(SPEC["run_seconds"]) if args.scale == "full" else 0.0
    if args.workload is not None:
        if args.workload not in runner.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {runner.WORKLOADS}")
        doc = runner.run_workload(args.workload, args.seed, seconds, bool(args.trace), args.scale)
        print(json.dumps(runner.contract_result(doc, bool(args.trace))))
        return 0
    doc = runner.run_suite(args.seed, seconds, args.scale, args.trace_out)
    print(runner.format_suite(doc))
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    failed = sum(result["failed"] for result in doc["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
