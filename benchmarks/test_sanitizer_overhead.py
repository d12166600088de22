"""Sanitizer-mode cost: zero when off, bounded on the churn harness.

The commit-time sanitizer re-runs the whole invariant catalog after
every commit, so it must be (a) literally free when disabled -- not one
``audit_state`` call on the admission path -- and (b) cheap enough to
leave on during experiments: the churn harness must stay within 20% of
the sanitizer-off figure.  The harness figure is the host wall clock of
one serial churn run (Poisson admissions and withdrawals through the
admission service) plus ``DWELL`` x the run's modeled provisioning
seconds, which stand in for the switch RPCs and client snapshots a
hardware deployment waits out.  The dwell is added, not slept.

Set ``ACTIVERMT_BENCH_SMOKE=1`` to skip the timing gate (noisy CI
clocks); the zero-cost-when-off check always applies.
"""

import os
import time
from unittest import mock

from repro.apps.base import EXEMPLAR_APPS
from repro.controller.controller import ActiveRmtController, replay_commit_log
from repro.controller.service import AdmissionService, pools_fingerprint
from repro.experiments.common import (
    ChurnDriver,
    Proofs,
    make_controller,
    windowed_seconds,
)
from repro.switchsim import ActiveSwitch, SwitchConfig
from repro.workloads.arrivals import (
    ArrivalEvent,
    DepartureEvent,
    poisson_events,
)

SMOKE = os.environ.get("ACTIVERMT_BENCH_SMOKE", "") not in ("", "0")

EPOCHS = 60
SEED = 7
#: Epochs of the harness run.
HARNESS_EPOCHS = 10
#: Host seconds the harness charges per modeled provisioning second.
DWELL = 0.03
#: Timed harness runs per side, off and on interleaved.
ROUNDS = 5


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
    """One serial churn-harness run: its host wall clock plus ``DWELL``
    x its modeled seconds (one provisioning window)."""
    events = list(poisson_events(epochs=HARNESS_EPOCHS, seed=SEED))
    env = {"ACTIVERMT_SANITIZE": "1" if sanitizer else "0"}
    with mock.patch.dict(os.environ, env):
        controller = make_controller()
        service = AdmissionService(controller)
        drive = ChurnDriver(service.submit)
        started = time.perf_counter()
        drive.drive(events)
        elapsed = time.perf_counter() - started
        replay = make_controller()
    replay_commit_log(service.commit_log, drive.pattern_of_fid, replay)
    assert pools_fingerprint(replay.allocator) == pools_fingerprint(controller.allocator)
    proofs = Proofs.of([controller.audit()], [controller.certificates()])
    assert proofs.audit_errors == 0 and proofs.invalid_certificates == 0
    assert proofs.certificates > 0
    assert controller.audit_violations == []
    return elapsed + DWELL * windowed_seconds(drive.history, 1)


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
    """Sanitizer-on harness figure stays within 20% of off."""
    _run_harness(sanitizer=False)  # warm caches before timing
    offs, ons = [], []
    for _ in range(ROUNDS):
        offs.append(_run_harness(sanitizer=False))
        ons.append(_run_harness(sanitizer=True))
    off, on = min(offs), min(ons)
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
