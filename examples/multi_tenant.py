#!/usr/bin/env python3
"""Multi-programmability: many services sharing one switch at runtime.

Admits a stream of cache, heavy-hitter, and load-balancer instances
(the paper's three exemplars) onto a single shared runtime, printing
how the allocator places them: inelastic apps pinned, elastic apps
squeezed fairly, reallocations only where stages are shared.

Run:  python examples/multi_tenant.py
"""

from repro.apps import EXEMPLAR_APPS
from repro.core import jain_index
from repro.experiments.common import make_controller
from repro.workloads import mixed_arrivals


def main() -> None:
    controller = make_controller()
    patterns = {name: spec.pattern() for name, spec in EXEMPLAR_APPS.items()}
    app_of_fid = {}

    print(f"{'fid':>4} {'app':<14} {'ok':<4} {'stages':<22} "
          f"{'blocks':>6} {'realloc’d':>10} {'util':>6}")
    for event in mixed_arrivals(count=40, seed=7):
        report = controller.admit(fid=event.fid, pattern=patterns[event.app_name])
        allocator = controller.allocator
        if report.success:
            app_of_fid[event.fid] = event.app_name
            stages = sorted(report.plan.regions)
            blocks = allocator.app_total_blocks(event.fid)
        else:
            stages, blocks = [], 0
        print(f"{event.fid:>4} {event.app_name:<14} "
              f"{'yes' if report.success else 'NO':<4} "
              f"{str(stages):<22} {blocks:>6} "
              f"{len(report.reallocated_fids):>10} "
              f"{allocator.utilization():>6.1%}")

    # --- Fairness among the elastic tenants. --------------------------
    cache_fids = [f for f, name in app_of_fid.items() if name == "cache"]
    shares = [controller.allocator.app_total_blocks(f) for f in cache_fids]
    print(f"\n{len(app_of_fid)} services resident; "
          f"utilization {controller.allocator.utilization():.1%}")
    print(f"cache instances: {len(cache_fids)}, "
          f"Jain fairness of their shares: {jain_index(shares):.3f}")

    # --- A departure: elastic co-tenants expand immediately. ----------
    allocator = controller.allocator
    victim = cache_fids[0]
    victim_stages = set(allocator.regions_for(victim))
    neighbour = next(
        (
            fid
            for fid in cache_fids[1:]
            if victim_stages & set(allocator.regions_for(fid))
        ),
        None,
    )
    if neighbour is None:
        print(f"\nfid {victim} shares no stage; its departure just frees memory")
        controller.withdraw(fid=victim)
    else:
        before = allocator.app_total_blocks(neighbour)
        controller.withdraw(fid=victim)
        after = allocator.app_total_blocks(neighbour)
        print(f"\nafter releasing fid {victim}: co-tenant cache fid "
              f"{neighbour} grew {before} -> {after} blocks")


if __name__ == "__main__":
    main()
