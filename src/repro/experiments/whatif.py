"""What-if admission probing: dry-run capacity analysis.

A consequence of the transactional control plane: because
:meth:`ActiveRmtAllocator.plan` is side-effect-free until committed,
the controller can answer "would this app fit right now, and what would
it displace?" without touching any switch or allocator state.  This
harness loads a switch with a mixed tenant population, then probes each
exemplar app with ``dry_run=True`` admissions at several load points,
verifying after every probe that nothing changed.

Usage::

    python -m repro.experiments whatif [--quick]
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.base import EXEMPLAR_APPS
from repro.controller.controller import ActiveRmtController
from repro.experiments.common import format_table, make_controller


def _state_fingerprint(controller: ActiveRmtController) -> tuple:
    """Everything a probe could possibly disturb: the allocator's pools
    and every entry on the device's table surface, read through the
    device."""
    allocator = controller.allocator
    pools = tuple(
        (stage, pool.export_residents())
        for stage, pool in sorted(allocator.pools.items())
    )
    return (
        tuple(allocator.resident_fids()),
        allocator.version,
        pools,
        controller.device.read_tables(),
    )


def probe_all_apps(
    controller: ActiveRmtController, probe_fid: int
) -> List[Dict]:
    """Dry-run one admission probe per exemplar app.

    Returns one row per app with the would-be outcome; raises if any
    probe mutated controller state.
    """
    rows = []
    for offset, (name, spec) in enumerate(sorted(EXEMPLAR_APPS.items())):
        before = _state_fingerprint(controller)
        report = controller.admit(
            fid=probe_fid + offset, pattern=spec.pattern(), dry_run=True
        )
        if _state_fingerprint(controller) != before:
            raise AssertionError(f"dry-run probe for {name!r} mutated state")
        plan = report.plan
        assert plan is not None and plan.fid == probe_fid + offset
        rows.append(
            {
                "app": name,
                "fits": report.success,
                "stages": sorted(plan.regions),
                "blocks": sum(r.count for r in plan.regions.values()),
                "displaced": len(plan.reallocated_fids),
            }
        )
    return rows


def main(arrivals: int = 60) -> str:
    """Probe what-if admissions as a switch fills with cache tenants."""
    controller = make_controller()
    cache = EXEMPLAR_APPS["cache"].pattern()
    lines = ["What-if admission probes (dry_run=True, zero state mutated)"]
    checkpoints = sorted({0, arrivals // 4, arrivals // 2, arrivals})
    admitted = 0
    next_fid = 0
    for target in checkpoints:
        while admitted < target:
            if controller.admit(fid=next_fid, pattern=cache).success:
                admitted += 1
            next_fid += 1
            if next_fid > 4 * arrivals:
                break  # device saturated; probe at whatever stuck
        rows = probe_all_apps(controller, probe_fid=1_000_000)
        utilization = controller.allocator.utilization()
        lines.append(
            f"\nresident caches: {admitted}  utilization: {utilization:.2f}"
        )
        lines.append(
            format_table(
                ["app", "would fit", "stages", "blocks", "displaced"],
                [
                    [
                        row["app"],
                        "yes" if row["fits"] else "no",
                        ",".join(map(str, row["stages"])) or "-",
                        row["blocks"],
                        row["displaced"],
                    ]
                    for row in rows
                ],
            )
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(main())
