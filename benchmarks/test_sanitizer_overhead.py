"""Sanitizer-mode cost: zero when off, bounded on the churn harness.

The commit-time sanitizer re-runs the whole invariant catalog after
every commit, so it must be (a) literally free when disabled -- not one
``audit_state`` call on the admission path -- and (b) cheap enough to
leave on during experiments: the churn harness (Poisson admissions
through the admission service, each dwelling ``pacing`` x its modeled
provisioning time, standing in for the switch RPCs a hardware
deployment waits out) must stay within 20% of the sanitizer-off wall
clock.

Set ``ACTIVERMT_BENCH_SMOKE=1`` to skip the timing gate (noisy CI
clocks); the zero-cost-when-off check always applies.
"""

import os
import time
from unittest import mock

from repro.apps.base import EXEMPLAR_APPS
from repro.controller.controller import ActiveRmtController
from repro.experiments.churn import run_churn
from repro.switchsim import ActiveSwitch, SwitchConfig
from repro.workloads.arrivals import (
    ArrivalEvent,
    DepartureEvent,
    poisson_events,
)

SMOKE = os.environ.get("ACTIVERMT_BENCH_SMOKE", "") not in ("", "0")

EPOCHS = 60
SEED = 7


def _drive(sanitizer: bool) -> float:
    """One fixed-seed serial churn pass with no dwell (worst case)."""
    controller = ActiveRmtController(
        ActiveSwitch(SwitchConfig()), sanitizer=sanitizer
    )
    patterns = {name: spec.pattern() for name, spec in EXEMPLAR_APPS.items()}
    resident = set()
    started = time.perf_counter()
    for event in poisson_events(
        epochs=EPOCHS, arrival_mean=2.0, departure_mean=1.0, seed=SEED
    ):
        if isinstance(event, DepartureEvent):
            if event.fid in resident:
                controller.withdraw(fid=event.fid)
                resident.discard(event.fid)
            continue
        assert isinstance(event, ArrivalEvent)
        if controller.admit(
            fid=event.fid, pattern=patterns[event.app_name]
        ).success:
            resident.add(event.fid)
    elapsed = time.perf_counter() - started
    assert controller.audit_violations == []
    return elapsed


def _run_harness(sanitizer: bool) -> float:
    """One single-worker churn-harness run; returns its wall clock."""
    env = {"ACTIVERMT_SANITIZE": "1" if sanitizer else "0"}
    with mock.patch.dict(os.environ, env):
        result = run_churn(
            epochs=10, worker_counts=(1,), seed=SEED, batch_size=2
        )
    (row,) = result.rows
    assert not row.diverged
    assert row.proofs.audit_errors == 0 and row.proofs.invalid_certificates == 0
    if sanitizer:
        assert row.proofs.certificates > 0
    return row.elapsed_s


def test_sanitizer_off_never_audits():
    """With sanitizer off, the admission path makes zero audit calls."""
    with mock.patch(
        "repro.controller.controller.audit_state",
        side_effect=AssertionError("audit_state called with sanitizer off"),
    ):
        _drive(sanitizer=False)


def test_sanitizer_on_audits_every_commit():
    calls = []
    from repro.analysis.invariants import audit_state as real_audit_state

    def counting(*args, **kwargs):
        calls.append(1)
        return real_audit_state(*args, **kwargs)

    with mock.patch(
        "repro.controller.controller.audit_state", side_effect=counting
    ):
        _drive(sanitizer=True)
    assert len(calls) > 0


def test_sanitizer_overhead_bounded_on_churn_harness():
    """Sanitizer-on harness wall clock stays within 20% of off."""
    _run_harness(sanitizer=False)  # warm caches before timing
    off = min(_run_harness(sanitizer=False) for _ in range(3))
    on = min(_run_harness(sanitizer=True) for _ in range(3))
    ratio = on / off if off > 0 else 1.0
    raw_off = _drive(sanitizer=False)
    raw_on = _drive(sanitizer=True)
    print(
        f"\nsanitizer overhead: harness off={off:.3f}s on={on:.3f}s "
        f"ratio={ratio:.3f} (raw no-dwell ratio="
        f"{raw_on / raw_off if raw_off > 0 else 1.0:.3f})"
    )
    if not SMOKE:
        assert ratio <= 1.20, (
            f"sanitizer overhead {ratio:.2f}x exceeds the 1.20x budget"
        )
