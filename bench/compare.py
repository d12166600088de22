"""``python3 -m bench.compare A.json B.json``: did B get worse than A?

A and B are suite results (``python3 -m bench --out``) of one protocol:
the same scale and run length.  One row per (workload, end-to-end
metric) with both values, both quartile pairs of the rounds and the
ratio B/A -- base A.  Bounds and directions come from
``BENCHMARK.json``.  Verdicts:

``better``      every round of B reads better than every round of A
``ok``          B's value is within the bound of A's
``unresolved``  the run-to-run spread of A or B exceeds the bound, so a
                difference of that size cannot be told from noise
``REGRESSION``  B's value is worse than A's by more than the bound

Exit status is 1 on a regression, on an exact (simulated-time or count)
metric that differs between equal seeds, on a higher share of failed
operations, or when A and B were not measured by the same protocol;
else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from bench.spec import END_TO_END


def _worse_by(a: float, b: float, better: str) -> float:
    """Share of A's value by which B is worse (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def _spread(row: Dict[str, Any]) -> float:
    return abs(row["q3"] - row["q1"]) / abs(row["median"]) if row["median"] else 0.0


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    worse = _worse_by(a["value"], b["value"], better)
    if better == "lower":
        all_better = max(b["rounds"]) < min(a["rounds"])
        all_worse = min(b["rounds"]) > max(a["rounds"])
    else:
        all_better = min(b["rounds"]) > max(a["rounds"])
        all_worse = max(b["rounds"]) < min(a["rounds"])
    if all_better:
        return "better"
    if worse > bound and all_worse:
        return "REGRESSION"
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    return "REGRESSION" if worse > bound else "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """Report rows, and the reasons (if any) the comparison fails."""
    rows = [
        f"{'workload':<10} {'metric':<15} {'A value':>12} {'A q1..q3':>23} "
        f"{'B value':>12} {'B q1..q3':>23} {'B/A':>7}  verdict"
    ]
    failures: List[str] = []
    for key in ("schema", "scale", "seconds"):
        if a.get(key) != b.get(key):
            failures.append(f"{key} differs ({a.get(key)} vs {b.get(key)}): not one protocol")
    if failures:
        return rows, failures
    same_inputs = a["seed"] == b["seed"]
    for name, result_a in a["workloads"].items():
        result_b = b["workloads"].get(name)
        if result_b is None:
            failures.append(f"{name}: missing from B")
            continue
        for metric, meta in END_TO_END.items():
            row_a, row_b = result_a["end_to_end"][metric], result_b["end_to_end"][metric]
            what = verdict(row_a, row_b, meta["better"], meta["bound"])
            ratio = row_b["value"] / row_a["value"] if row_a["value"] else float("nan")
            rows.append(
                f"{name:<10} {metric:<15} {row_a['value']:>12.4f} "
                f"{row_a['q1']:>11.4f}..{row_a['q3']:<10.4f} {row_b['value']:>12.4f} "
                f"{row_b['q1']:>11.4f}..{row_b['q3']:<10.4f} {ratio:>7.3f}  {what}"
            )
            if what == "REGRESSION":
                failures.append(f"{name}.{metric}: worse by more than {meta['bound']:.0%}")
        share_a = result_a["failed"] / max(1, result_a["attempted"])
        share_b = result_b["failed"] / max(1, result_b["attempted"])
        if share_b > share_a:
            failures.append(f"{name}: failed_ops_share rose from {share_a:.6f} to {share_b:.6f}")
        if same_inputs:
            for key, value in result_a["exact"].items():
                other = result_b["exact"].get(key)
                if other != value:
                    failures.append(f"{name}: exact metric {key} differs: {value} vs {other}")
    if not same_inputs:
        rows.append("seeds differ: exact metrics not compared")
    return rows, failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.compare", description=__doc__)
    parser.add_argument("a", help="suite result of the base")
    parser.add_argument("b", help="suite result of the change")
    args = parser.parse_args(argv)
    rows, failures = compare(
        json.loads(Path(args.a).read_text()), json.loads(Path(args.b).read_text())
    )
    print("\n".join(rows))
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
