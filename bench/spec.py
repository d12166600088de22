"""``BENCHMARK.json``: the workloads and metrics this package must print."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END: Dict[str, Dict[str, Any]] = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER: Dict[str, Dict[str, Any]] = {m["name"]: m for m in SPEC["per_layer"]}
