"""Fault injection and crash recovery: plans, retries, rollback, failover.

The contracts under test:

- **Plan determinism**: a :class:`FaultPlan` is a pure function of
  (seed, op index) -- two plans with the same seed emit the same
  decision sequence.
- **FaultyDevice semantics**: TRANSIENT raises before applying,
  PARTIAL applies then raises (idempotent retry heals it), DELAY
  sleeps through the injected clock, death makes every operation raise
  :class:`PermanentDeviceError` while identity stays readable.
- **Retry loop**: heals transients within budget; exhaustion (attempts
  or fake-clock timeout) raises :class:`RetryExhaustedError` chained
  to the last fault; nested exhaustion is not re-retried; permanent
  faults pass through unretried.
- **Rollback**: exhausted retries and mid-journal timeouts resolve as
  ``ROLLED_BACK`` reports -- never exceptions -- leaving allocator and
  switch byte-identical; a ``DeviceError`` mid-batch undoes the whole
  group exactly like TCAM exhaustion (regression).
- **Recovery**: replaying the commit log onto a fresh device
  reproduces the live pools fingerprint -- deterministically and as a
  Hypothesis property under random fault schedules.
- **Failover**: replace-mode rebuilds a dead shard from its commit log
  with a fingerprint-equality proof; redistribute-mode re-admits
  residents on survivors and sheds gracefully when capacity is gone;
  routing to a dead shard is a :class:`FabricError`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller import (
    ActiveRmtController,
    AdmissionService,
    ControllerError,
    ProvisioningRequest,
    ProvisioningStatus,
)
from repro.controller.service import pools_fingerprint
from repro.controller.table_updater import TableUpdateEngine
from repro.device import (
    Device,
    PermanentDeviceError,
    SimDevice,
    TransientDeviceError,
    as_device,
)
from repro.fabric import Fabric, FabricError, replay_shard
from repro.faults import (
    FaultDecision,
    FaultKind,
    FaultPlan,
    FaultyDevice,
    RetryExhaustedError,
    RetryPolicy,
    call_with_retries,
)
from repro.packets import ActivePacket, ControlFlags, MacAddress
from repro.switchsim import ActiveSwitch, SwitchConfig
from repro.switchsim.tables import StageGrant
from repro.telemetry import FlightRecorder, MetricsRegistry, Tracer

from tests.test_core_constraints import listing1_pattern
from tests.test_transactions import (
    ENTRY_POINTS,
    admit_via,
    allocator_fingerprint,
    assert_entry_points_agree,
    outcome_fingerprint,
    switch_fingerprint,
)

import random


def _sim(device_id: str = "sw0", **config_kwargs) -> SimDevice:
    return SimDevice(
        ActiveSwitch(SwitchConfig(**config_kwargs)), device_id=device_id
    )


def _admission(fid: int) -> ProvisioningRequest:
    return ProvisioningRequest.admission(fid=fid, pattern=listing1_pattern())


#: Retry policy with sub-microsecond sleeps: tests never really wait.
FAST_RETRY = RetryPolicy(max_attempts=5, base_s=1e-9, cap_s=1e-8)


class ScriptedPlan(FaultPlan):
    """Fault exactly where a predicate says; clean everywhere else.

    ``predicate(op, index)`` returning a :class:`FaultKind` injects
    that fault; returning None lets the op through.  Keeps targeted
    tests (fault the Nth install, fault only translations) independent
    of the Bernoulli schedule.
    """

    def __init__(self, predicate):
        super().__init__()
        self._predicate = predicate

    def decide(self, op):
        index = self.op_index
        self.op_index += 1
        kind = self._predicate(op, index)
        if kind is None:
            return None
        self.injected += 1
        return FaultDecision(kind, index, op)


class FakeClock:
    """Deterministic clock + sleep pair; sleeping advances time."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------


def test_fault_plan_is_deterministic():
    kwargs = dict(seed=42, transient_rate=0.3, partial_rate=0.2, delay_rate=0.1)
    a, b = FaultPlan(**kwargs), FaultPlan(**kwargs)
    decisions_a = [a.decide("op") for _ in range(200)]
    decisions_b = [b.decide("op") for _ in range(200)]
    assert decisions_a == decisions_b
    assert any(d is not None for d in decisions_a)


def test_fault_plan_validates_rates():
    with pytest.raises(ValueError):
        FaultPlan(transient_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(digest_drop_rate=-0.1)


def test_fault_plan_max_transients_caps_injections():
    plan = FaultPlan(seed=1, transient_rate=1.0, max_transients=3)
    faults = [plan.decide("op") for _ in range(10)]
    assert sum(1 for d in faults if d is not None) == 3
    assert all(d is None for d in faults[3:])


def test_fault_plan_kill_at_op_is_permanent_from_there_on():
    plan = FaultPlan(kill_at_op=2)
    assert plan.decide("a") is None
    assert plan.decide("b") is None
    for _ in range(3):
        decision = plan.decide("c")
        assert decision is not None and decision.kind is FaultKind.PERMANENT


# ----------------------------------------------------------------------
# FaultyDevice
# ----------------------------------------------------------------------


def test_faulty_device_satisfies_device_protocol():
    device = FaultyDevice(_sim(), FaultPlan())
    assert isinstance(device, Device)
    assert as_device(device) is device


def test_transient_fault_raises_before_applying():
    device = FaultyDevice(
        _sim(),
        ScriptedPlan(lambda op, i: FaultKind.TRANSIENT if i == 0 else None),
        telemetry=MetricsRegistry(),
    )
    controller = ActiveRmtController(device)
    grants_before = device.inner.read_tables().grants[1]
    with pytest.raises(TransientDeviceError):
        device.install_grant(1, _probe_grant(controller))
    assert device.inner.read_tables().grants[1] == grants_before
    assert device.injected == {"transient": 1}


def test_partial_fault_applies_then_raises():
    device = FaultyDevice(
        _sim(),
        ScriptedPlan(lambda op, i: FaultKind.PARTIAL if i == 0 else None),
    )
    controller = ActiveRmtController(device)
    grant = _probe_grant(controller)
    with pytest.raises(TransientDeviceError):
        device.install_grant(1, grant)
    # The op landed despite the error: that is the ambiguity retries heal.
    assert device.inner.read_tables().grants[1][grant.fid] == grant
    device.install_grant(1, grant)  # idempotent retry succeeds


def test_delay_fault_sleeps_through_injected_clock():
    sleeps = []
    device = FaultyDevice(
        _sim(),
        ScriptedPlan(lambda op, i: FaultKind.DELAY if i == 0 else None),
        sleep=sleeps.append,
    )
    device.plan.delay_s = 0.25
    controller = ActiveRmtController(device)
    device.install_grant(1, _probe_grant(controller))
    assert sleeps == [0.25]


def test_dead_device_raises_permanently_but_identity_stays_readable():
    device = FaultyDevice(_sim("sw7"), FaultPlan())
    device.kill()
    with pytest.raises(PermanentDeviceError):
        device.read_tables()
    with pytest.raises(PermanentDeviceError):
        device.scrub_registers(0, 0, 1)
    # Failover bookkeeping reads identity off the dead chassis.
    assert device.device_id == "sw7"
    assert device.config is device.inner.config
    assert device.dead


def test_a_table_read_consults_no_fault_plan_and_dies_with_the_device():
    """The audit's one read passes a faulty channel untouched (a flaky
    channel corrupts commands, not the installed state), and a dead
    device refuses it like every other call."""
    asked = []
    device = FaultyDevice(
        _sim(), ScriptedPlan(lambda op, i: asked.append(op) or FaultKind.TRANSIENT)
    )
    assert device.read_tables() == device.inner.read_tables()
    assert asked == [] and device.plan.op_index == 0
    assert device.faults == {}
    device.kill()
    with pytest.raises(PermanentDeviceError, match="read_tables"):
        device.read_tables()
    assert asked == [] and device.faults == {("kill", "permanent"): 1}


def test_digest_drops_are_counted():
    class _DigestStub:
        device_id = "stub"

        def poll_digests(self, limit=None):
            return ["d0", "d1", "d2", "d3"]

    plan = FaultPlan(seed=0, digest_drop_rate=1.0)
    device = FaultyDevice(_DigestStub(), plan)
    assert device.poll_digests() == []
    assert device.digests_dropped == 4
    assert device.injected == {"drop_digest": 4}


def _probe_grant(controller):
    """One real StageGrant, obtained by planning a dry-run admission."""
    plan = controller.what_if(fid=999, pattern=listing1_pattern())
    assert plan.feasible
    stage, block_range = next(iter(sorted(plan.regions.items())))
    words = block_range.to_words(controller.device.config.block_words)
    from repro.switchsim.tables import StageGrant

    return StageGrant(fid=999, start=words.start, end=words.end)


# ----------------------------------------------------------------------
# call_with_retries
# ----------------------------------------------------------------------


def test_retries_heal_within_budget():
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise TransientDeviceError("flaky")
        return "ok"

    clock = FakeClock()
    result = call_with_retries(
        flaky, FAST_RETRY, random.Random(0), clock=clock, sleep=clock.sleep
    )
    assert result == "ok"
    assert len(attempts) == 3
    assert len(clock.sleeps) == 2


def test_exhausted_attempts_raise_chained_retry_exhausted():
    def always_fails():
        raise TransientDeviceError("still down")

    clock = FakeClock()
    with pytest.raises(RetryExhaustedError) as exc:
        call_with_retries(
            always_fails,
            RetryPolicy(max_attempts=3, base_s=1e-9),
            random.Random(0),
            clock=clock,
            sleep=clock.sleep,
        )
    assert "attempts" in str(exc.value)
    assert isinstance(exc.value.__cause__, TransientDeviceError)
    assert len(clock.sleeps) == 2  # 3 attempts, 2 backoffs


def test_timeout_exhausts_before_attempt_budget():
    clock = FakeClock()

    def always_fails():
        clock.now += 1.0  # each attempt burns simulated wall-clock
        raise TransientDeviceError("still down")

    with pytest.raises(RetryExhaustedError) as exc:
        call_with_retries(
            always_fails,
            RetryPolicy(max_attempts=100, base_s=1e-9, timeout_s=2.5),
            random.Random(0),
            clock=clock,
            sleep=clock.sleep,
        )
    assert "timeout" in str(exc.value)
    assert clock.now < 10  # nowhere near 100 attempts


def _via_engine(op, policy, rng, clock, sleep, on_retry):
    """*op* as a forward device call of a :class:`TableUpdateEngine`,
    with the same rng, clock, sleep and retry hook as the reference."""
    engine = TableUpdateEngine(_sim(), telemetry=MetricsRegistry(), retry=policy)
    engine._retry_rng, engine._clock, engine._sleep = rng, clock, sleep

    def note(attempt, fault):
        TableUpdateEngine._note_retry(engine, attempt, fault)
        on_retry(attempt, fault)

    engine._note_retry = note
    engine._retried(op, ())
    return engine


def test_nested_exhaustion_is_not_multiplied():
    """Through :func:`call_with_retries` and the engine's retry rule alike."""
    for retry in (call_with_retries, _via_engine):
        inner_calls = []

        def inner_exhausts():
            inner_calls.append(1)
            raise RetryExhaustedError("inner budget spent")

        clock = FakeClock()
        with pytest.raises(RetryExhaustedError, match="inner budget spent"):
            retry(
                inner_exhausts,
                RetryPolicy(max_attempts=5, base_s=1e-9),
                random.Random(0),
                clock=clock,
                sleep=clock.sleep,
                on_retry=lambda attempt, fault: pytest.fail("retried"),
            )
        assert len(inner_calls) == 1  # re-raised immediately, not re-retried
        assert clock.sleeps == []


class ReadClock(FakeClock):
    """A :class:`FakeClock` that logs the time at every read."""

    def __init__(self) -> None:
        super().__init__()
        self.now = 100.0
        self.reads = []

    def __call__(self) -> float:
        self.reads.append(self.now)
        return self.now


#: The retry rule's outcomes on attempts 1 and 2 faulted: healed on the
#: third attempt, out of attempts, and out of time (base 1 s, jittered
#: by Random(0) to 0.58 s, clamped to the 0.5 s budget).
RETRY_CASES = {
    "heals": RetryPolicy(max_attempts=3, base_s=1e-3, cap_s=1e-2),
    "attempts": RetryPolicy(max_attempts=2, base_s=1e-3),
    "timeout": RetryPolicy(max_attempts=10, base_s=1.0, cap_s=4.0, timeout_s=0.5),
}


@pytest.mark.parametrize("case", sorted(RETRY_CASES))
@pytest.mark.parametrize(
    "kinds",
    [
        (FaultKind.TRANSIENT, FaultKind.TRANSIENT),
        (FaultKind.TRANSIENT, FaultKind.PARTIAL),
        (FaultKind.PARTIAL, FaultKind.TRANSIENT),
        (FaultKind.PARTIAL, FaultKind.PARTIAL),
    ],
    ids=lambda kinds: "-".join(kind.value for kind in kinds),
)
def test_engine_retries_exactly_as_call_with_retries(case, kinds):
    """The engine's plain first attempt and :func:`retry_after` backoff
    against :func:`call_with_retries` around a closure: the same device
    calls, retry hook arguments, rng draws, sleeps and clock reads (each
    device call takes 0.125 s, so a deadline read after the first attempt
    would show), the same outcome and the same attempted/healed counts."""
    policy = RETRY_CASES[case]
    seen = {}
    for entry in ("call_with_retries", "engine"):
        clock, rng, retries = ReadClock(), random.Random(0), []

        def script(op, index):
            clock.now += 0.125
            return kinds[index] if index < len(kinds) else None

        device = FaultyDevice(_sim(), ScriptedPlan(script), telemetry=MetricsRegistry())
        grant = StageGrant(fid=7, start=0, end=32, mask=0x1F, offset=0)
        op = lambda: device.install_grant(1, grant)
        on_retry = lambda attempt, fault: retries.append((attempt, str(fault)))
        outcome = engine = None
        try:
            if entry == "engine":
                engine = _via_engine(op, policy, rng, clock, clock.sleep, on_retry)
            else:
                call_with_retries(
                    op, policy, rng, clock=clock, sleep=clock.sleep, on_retry=on_retry
                )
        except RetryExhaustedError as exhausted:
            outcome = (str(exhausted), str(exhausted.__cause__))
        healed = engine.retries_healed if engine else int(outcome is None and bool(retries))
        if engine:
            assert engine.retries_attempted == len(retries)
        seen[entry] = (
            outcome, retries, healed, rng.getstate(), clock.sleeps, clock.reads,
            device.plan.op_index, device.inner.read_tables().grants[1].get(7),
        )
    assert seen["engine"] == seen["call_with_retries"]
    outcome, retries, healed = seen["engine"][:3]
    assert (outcome is None, healed) == ((True, 1) if case == "heals" else (False, 0))
    assert outcome is None or case in outcome[0]
    assert len(retries) == {"heals": 2, "attempts": 1, "timeout": 1}[case]


def test_a_healthy_forward_call_reaches_the_device_once():
    """Under a retry policy, an admission on a device that never faults
    makes exactly the device calls it makes with no policy -- each once
    -- and never reads the clock, sleeps or draws from the rng."""
    calls = {}
    for retry in (None, RetryPolicy(max_attempts=5)):
        ops = []
        device = FaultyDevice(_sim(), ScriptedPlan(lambda op, i: ops.append(op)))
        controller = ActiveRmtController(device, retry=retry)
        engine = controller.updater
        engine._clock = engine._sleep = lambda *args: pytest.fail("clock or sleep")
        rng_state = engine._retry_rng.getstate()
        assert controller.admit(fid=1, pattern=listing1_pattern()).success
        assert engine._retry_rng.getstate() == rng_state
        assert engine.retries_attempted == engine.retries_healed == 0
        calls[retry is None] = ops
    assert calls[True] == calls[False]
    assert "install_grant" in calls[True]


def test_permanent_faults_pass_through_unretried():
    calls = []

    def dies():
        calls.append(1)
        raise PermanentDeviceError("dead")

    with pytest.raises(PermanentDeviceError):
        call_with_retries(dies, FAST_RETRY, random.Random(0))
    assert len(calls) == 1


def test_retry_policy_delay_is_capped_and_jittered():
    policy = RetryPolicy(
        max_attempts=10, base_s=1.0, multiplier=10.0, cap_s=4.0, jitter=0.5
    )
    rng = random.Random(0)
    for attempt in range(1, 10):
        delay = policy.delay(attempt, rng)
        assert 0.0 < delay <= 4.0
        assert delay >= 4.0 * 0.5 or attempt == 1  # jitter scales in [0.5, 1]


# ----------------------------------------------------------------------
# Controller integration: retries, rollback, batches
# ----------------------------------------------------------------------


def test_engine_retries_heal_admission():
    device = FaultyDevice(
        _sim(), FaultPlan(seed=3, transient_rate=0.4, max_transients=4)
    )
    controller = ActiveRmtController(device, retry=FAST_RETRY)
    report = controller.admit(fid=1, pattern=listing1_pattern())
    assert report.success
    assert controller.updater.retries_healed >= 1
    assert controller.updater.retries_attempted >= 1


def test_exhausted_retries_resolve_as_rolled_back_report():
    """Retry exhaustion is an admission outcome, not an exception --
    the same one through every commit entry point."""
    outcomes = {}
    for entry in ENTRY_POINTS:
        device = FaultyDevice(
            _sim(),
            ScriptedPlan(
                lambda op, i: (
                    FaultKind.TRANSIENT if op == "install_grant" else None
                )
            ),
        )
        controller = ActiveRmtController(device, retry=FAST_RETRY)
        before_alloc = allocator_fingerprint(controller.allocator)
        before_switch = switch_fingerprint(controller)
        report = admit_via(controller, entry, 1, listing1_pattern())
        assert not report.success
        assert report.rolled_back
        assert report.status is ProvisioningStatus.ROLLED_BACK
        assert report.fault == "transient"
        assert not controller.device_failed
        assert allocator_fingerprint(controller.allocator) == before_alloc
        assert switch_fingerprint(controller) == before_switch
        outcomes[entry] = outcome_fingerprint(controller, report)
    assert_entry_points_agree(outcomes)


def test_timeout_mid_journal_rolls_back_byte_identically():
    """A timeout after some installs landed undoes them exactly."""
    device = FaultyDevice(
        _sim(),
        ScriptedPlan(
            lambda op, i: (
                FaultKind.TRANSIENT if op == "install_translation" else None
            )
        ),
    )
    clock = FakeClock()
    controller = ActiveRmtController(
        device,
        retry=RetryPolicy(max_attempts=10_000, base_s=1.0, timeout_s=3.0),
    )
    controller.updater._clock = clock
    controller.updater._sleep = clock.sleep
    before_alloc = allocator_fingerprint(controller.allocator)
    before_switch = switch_fingerprint(controller)
    report = controller.admit(fid=1, pattern=listing1_pattern())
    assert not report.success
    assert report.status is ProvisioningStatus.ROLLED_BACK
    assert report.fault == "transient"
    # Grants were journaled before the translation timed out; the
    # rollback removed them byte-identically.
    assert allocator_fingerprint(controller.allocator) == before_alloc
    assert switch_fingerprint(controller) == before_switch
    assert clock.now >= 3.0  # the fake clock actually drove the timeout


def test_device_error_mid_batch_rolls_back_whole_group():
    """Regression: a DeviceError mid-batch must undo every member,
    exactly like TCAM exhaustion does."""
    grants = {"count": 0}

    def fault_fourth_install(op, index):
        if op != "install_grant":
            return None
        grants["count"] += 1
        # Listing 1 takes three stages: the fourth install is the
        # second batch member's first grant.
        return FaultKind.TRANSIENT if grants["count"] == 4 else None

    device = FaultyDevice(_sim(), ScriptedPlan(fault_fourth_install))
    controller = ActiveRmtController(device)  # no retry: the fault escapes
    service = AdmissionService(controller)
    before_alloc = allocator_fingerprint(controller.allocator)
    before_switch = switch_fingerprint(controller)
    report = service.submit_many([_admission(fid) for fid in (1, 2, 3)])
    assert report.status is ProvisioningStatus.ROLLED_BACK
    assert not report.success
    assert all(r.rolled_back for r in report.reports)
    assert all(r.fault == "transient" for r in report.reports)
    assert allocator_fingerprint(controller.allocator) == before_alloc
    assert switch_fingerprint(controller) == before_switch
    assert all(("admit", fid) not in service.commit_log for fid in (1, 2, 3))


@pytest.mark.parametrize("op", ["install_grant", "scrub_registers"])
def test_a_lost_response_on_the_last_retry_survives_no_rollback(op):
    """Every attempt of one *op* lands and loses its response (PARTIAL):
    the retries exhaust, the admission rolls back, and what the last
    attempt applied goes with it -- a grant nobody journaled would stay
    as an orphan entry (ARMT012), a scrub as zeroed registers."""
    state = {"armed": False, "hits": 0}

    def lose_three_responses(name, index):
        if state["armed"] and name == op and state["hits"] < 3:
            state["hits"] += 1
            return FaultKind.PARTIAL
        return None

    device = FaultyDevice(
        _sim(words_per_stage=1024), ScriptedPlan(lose_three_responses)
    )
    controller = ActiveRmtController(
        device, retry=RetryPolicy(max_attempts=3, base_s=1e-9, cap_s=1e-8)
    )
    for fid in range(1, 5):
        assert controller.admit(fid=fid, pattern=listing1_pattern()).success
    # Dirty every register, so a scrub that is not undone shows.
    for stage in range(1, device.config.num_stages + 1):
        device.inner.write_registers(stage, 0, [0xA5] * 1024)
    before = (
        allocator_fingerprint(controller.allocator),
        switch_fingerprint(controller),
    )
    state["armed"] = True
    report = controller.admit(fid=9, pattern=listing1_pattern())
    assert state["hits"] == 3
    assert report.status is ProvisioningStatus.ROLLED_BACK
    assert report.fault == "transient"
    assert not controller.device_failed
    assert (
        allocator_fingerprint(controller.allocator),
        switch_fingerprint(controller),
    ) == before
    assert controller.audit().clean


def test_exhausted_retries_mid_withdrawal_roll_the_withdrawal_back():
    """A withdrawal the switch refuses is a ``ROLLED_BACK`` report over
    untouched state, is not logged, and can be sent again."""
    state = {"armed": False, "hits": 0}

    def exhaust_one_install(op, index):
        # One operation's whole retry budget; the undo then runs clean.
        if (
            state["armed"]
            and op == "install_translation"
            and state["hits"] < FAST_RETRY.max_attempts
        ):
            state["hits"] += 1
            return FaultKind.TRANSIENT
        return None

    telemetry = MetricsRegistry()
    device = FaultyDevice(
        _sim(words_per_stage=1024), ScriptedPlan(exhaust_one_install)
    )
    tracer = Tracer(sample_rate=1.0)
    recorder = FlightRecorder(tracer)
    controller = ActiveRmtController(
        device, retry=FAST_RETRY, telemetry=telemetry, tracer=tracer
    )
    service = AdmissionService(controller)
    for fid in range(1, 7):
        assert service.submit(_admission(fid)).success
    before = (
        allocator_fingerprint(controller.allocator),
        switch_fingerprint(controller),
    )
    state["armed"] = True
    report = service.submit(
        ProvisioningRequest.withdrawal(fid=2)
    )
    # The departing entries were removed and a neighbour's grown range
    # half-written when the retries ran out; all of it is undone.
    assert not report.success
    assert report.status is ProvisioningStatus.ROLLED_BACK
    assert report.fault == "transient"
    assert not controller.device_failed
    assert (
        allocator_fingerprint(controller.allocator),
        switch_fingerprint(controller),
    ) == before
    assert controller.audit().clean
    assert 2 in controller.allocator.apps
    assert ("withdraw", 2) not in service.commit_log
    # The same anomaly and span status a rolled-back admission leaves.
    (dump,) = recorder.dumps_for("rollback")
    assert dump.attrs["scope"] == "withdraw" and dump.attrs["fid"] == 2
    (span,) = [s for s in tracer.spans() if s.name == "controller.withdraw"]
    assert span.attrs["status"] == "rolled_back"
    assert dump.find("journal.rollback") and dump.find("allocator.rollback")
    # withdraw() has no room for a refusal in its return value: it raises.
    state["hits"] = 0
    with pytest.raises(ControllerError, match="refused"):
        controller.withdraw(fid=2)
    counters = telemetry.snapshot()["counters"]
    assert counters.get("controller_withdrawals_total") is None
    assert counters.get("allocator_releases_total") is None
    assert counters["allocator_rollbacks_total"] == 2.0

    state["armed"] = False
    assert service.submit(
        ProvisioningRequest.withdrawal(fid=2)
    ).success
    assert service.commit_log[-1] == ("withdraw", 2)
    assert telemetry.snapshot()["counters"]["controller_withdrawals_total"] == 1.0
    assert controller.audit().clean


def test_a_refused_deallocate_digest_is_resent_with_the_next_one():
    """The packet-driven door honours a refusal too: the poll that
    carried the refused ``DEALLOCATE`` finishes (no escaped exception,
    later digests still handled), the fid stays resident, and -- its
    client has gone idle and will not ask again -- the withdrawal is
    sent again with the next ``DEALLOCATE`` the controller handles."""
    state = {"armed": False, "hits": 0}

    def exhaust_one_install(op, index):
        if (
            state["armed"]
            and op == "install_translation"
            and state["hits"] < FAST_RETRY.max_attempts
        ):
            state["hits"] += 1
            return FaultKind.TRANSIENT
        return None

    device = FaultyDevice(
        _sim(words_per_stage=1024), ScriptedPlan(exhaust_one_install)
    )
    controller = ActiveRmtController(device, retry=FAST_RETRY)
    client = MacAddress.from_host_id(1)
    controller.switch.register_host(client, 1)
    for fid in range(1, 7):
        assert controller.admit(fid=fid, pattern=listing1_pattern()).success

    def deallocate(fid):
        controller.switch.receive(
            ActivePacket.control(
                src=client, dst=controller.mac, fid=fid,
                flags=ControlFlags.DEALLOCATE,
            ),
            in_port=1,
        )

    before = (
        allocator_fingerprint(controller.allocator),
        switch_fingerprint(controller),
    )
    state["armed"] = True
    deallocate(2)
    controller.switch.receive(
        ActivePacket.control(
            src=client, dst=controller.mac, fid=4,
            flags=ControlFlags.SNAPSHOT_COMPLETE,
        ),
        in_port=1,
    )
    assert controller.process_pending() == []
    assert state["hits"] == FAST_RETRY.max_attempts
    # The digest behind the refused one was not dropped.
    assert controller.digests == {"control": 2}
    assert controller.refused_withdrawals == [2]
    assert (
        allocator_fingerprint(controller.allocator),
        switch_fingerprint(controller),
    ) == before
    assert controller.audit().clean

    deallocate(5)
    controller.process_pending()
    assert controller.refused_withdrawals == []
    assert controller.allocator.resident_fids() == [1, 3, 4, 6]
    assert controller.audit().clean


def test_permanent_fault_latches_device_failed():
    outcomes = {}
    for entry in ENTRY_POINTS:
        device = FaultyDevice(
            _sim(),
            ScriptedPlan(
                lambda op, i: (
                    FaultKind.PERMANENT if op == "install_grant" else None
                )
            ),
        )
        controller = ActiveRmtController(device, retry=FAST_RETRY)
        report = admit_via(controller, entry, 1, listing1_pattern())
        assert not report.success
        assert report.fault == "device"
        assert controller.device_failed
        outcomes[entry] = outcome_fingerprint(controller, report)
    assert_entry_points_agree(outcomes)


# ----------------------------------------------------------------------
# Recovery from the commit log
# ----------------------------------------------------------------------


def test_recover_rebuilds_pools_from_commit_log():
    pattern = listing1_pattern()
    device = FaultyDevice(
        _sim(), FaultPlan(seed=11, transient_rate=0.3, max_transients=4)
    )
    controller = ActiveRmtController(device, retry=FAST_RETRY)
    service = AdmissionService(controller)
    for fid in (1, 2, 3, 4):
        assert service.submit(_admission(fid)).success
    service.submit(
        ProvisioningRequest.withdrawal(fid=2)
    )

    recovered = ActiveRmtController.recover(
        _sim("sw0-replacement"),
        service.commit_log,
        {fid: pattern for fid in (1, 2, 3, 4)},
    )
    assert pools_fingerprint(recovered.allocator) == pools_fingerprint(
        controller.allocator
    )
    assert set(recovered.allocator.resident_fids()) == {1, 3, 4}
    assert not recovered.audit().errors


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    transient_rate=st.floats(min_value=0.0, max_value=0.8),
    partial_rate=st.floats(min_value=0.0, max_value=0.2),
)
@settings(max_examples=15, deadline=None)
def test_recovery_matches_live_under_random_fault_schedules(
    seed, transient_rate, partial_rate
):
    """Commit-log recovery equals the live fingerprint no matter what
    transient/partial schedule the device threw at the admissions.

    ``max_transients`` stays below the retry budget so no operation can
    exhaust: every admission either commits (and is logged) or was
    never attempted -- the linearization witness recovery relies on.
    """
    pattern = listing1_pattern()
    plan = FaultPlan(
        seed=seed,
        transient_rate=transient_rate,
        partial_rate=partial_rate,
        max_transients=FAST_RETRY.max_attempts - 1,
    )
    controller = ActiveRmtController(
        FaultyDevice(_sim(), plan), retry=FAST_RETRY
    )
    service = AdmissionService(controller)
    withdraw_rng = random.Random(seed)
    admitted = []
    for fid in range(1, 7):
        if service.submit(_admission(fid)).success:
            admitted.append(fid)
        if admitted and withdraw_rng.random() < 0.3:
            victim = admitted.pop(withdraw_rng.randrange(len(admitted)))
            service.submit(
                ProvisioningRequest.withdrawal(fid=victim)
            )

    recovered = ActiveRmtController.recover(
        _sim("fresh"),
        service.commit_log,
        {fid: pattern for fid in range(1, 7)},
    )
    assert pools_fingerprint(recovered.allocator) == pools_fingerprint(
        controller.allocator
    )


# ----------------------------------------------------------------------
# Fabric failover
# ----------------------------------------------------------------------


def _faulty_fabric(num_shards=3, **config_kwargs):
    devices = []

    def factory(index):
        device = FaultyDevice(
            _sim(f"sw{index}", **config_kwargs),
            FaultPlan(seed=index, transient_rate=0.1, max_transients=3),
        )
        devices.append(device)
        return device

    fabric = Fabric.build(
        num_shards,
        config=SwitchConfig(**config_kwargs),
        device_factory=factory,
        retry=FAST_RETRY,
    )
    return fabric, devices


def test_failover_replace_proves_fingerprint_equality():
    fabric, devices = _faulty_fabric()
    for fid in range(1, 13):
        assert fabric.submit_and_wait(_admission(fid)).success
    residents = sorted(fabric.shards[0].controller.allocator.resident_fids())
    assert residents  # hash placement put someone on shard 0

    devices[0].kill()
    report = fabric.failover(0, replacement=_sim("sw0-replacement"))
    assert report.mode == "replace"
    assert report.fingerprint_match is True
    assert report.readmitted == residents
    assert not report.shed
    # The recovered column still carries the commit log: the serial
    # replay witness keeps holding on the replacement.
    patterns = {fid: listing1_pattern() for fid in range(1, 13)}
    live, replayed = replay_shard(fabric.shards[0], patterns)
    assert live == replayed
    # Sticky routes still resolve to the recovered shard.
    for fid in residents:
        assert fabric.route_of(fid) == 0
    assert fabric.submit_and_wait(
        ProvisioningRequest.withdrawal(fid=residents[0])
    ).success


def test_device_death_mid_withdrawal_fails_over_with_the_fid_resident():
    """The device dies three operations into a withdrawal: the
    withdrawal did not happen (not logged, fid still in the pools), so
    the replacement comes up with the fid resident and the client's
    re-sent withdrawal lands there."""
    fabric, devices = _faulty_fabric()
    for fid in range(1, 13):
        assert fabric.submit_and_wait(_admission(fid)).success
    shard = fabric.shards[0]
    residents = sorted(shard.controller.allocator.resident_fids())
    victim = residents[0]
    devices[0].plan.kill_at_op = devices[0].plan.op_index + 3

    report = fabric.submit_and_wait(ProvisioningRequest.withdrawal(fid=victim))
    assert not report.success
    assert report.status is ProvisioningStatus.ROLLED_BACK
    assert report.fault == "device"
    assert shard.controller.device_failed
    assert ("withdraw", victim) not in shard.commit_log
    assert victim in shard.controller.allocator.apps

    failover = fabric.failover(0, replacement=_sim("sw0-replacement"))
    assert failover.fingerprint_match is True
    assert failover.readmitted == residents
    recovered = fabric.shards[0].controller
    assert victim in recovered.allocator.apps
    assert fabric.submit_and_wait(
        ProvisioningRequest.withdrawal(fid=victim)
    ).success
    assert victim not in recovered.allocator.apps
    assert recovered.audit().clean


def test_failover_redistribute_readmits_on_survivors():
    fabric, devices = _faulty_fabric()
    for fid in range(1, 13):
        assert fabric.submit_and_wait(_admission(fid)).success
    residents = sorted(fabric.shards[1].controller.allocator.resident_fids())
    assert residents

    devices[1].kill()
    report = fabric.failover(1)
    assert report.mode == "redistribute"
    assert sorted(report.readmitted + report.shed) == residents
    assert not fabric.shards[1].alive
    for fid in report.readmitted:
        assert fabric.route_of(fid) != 1
    # The degraded fleet still audits clean (dead shard skipped).
    assert all(not r.errors for r in fabric.audit().values())


def test_failover_redistribute_sheds_when_survivors_are_full():
    # A small register file: each shard only fits a few tenants.
    fabric, devices = _faulty_fabric(num_shards=2, words_per_stage=1024)
    fid = 1
    rejected = 0
    while rejected < 4 and fid < 200:
        if not fabric.submit_and_wait(_admission(fid)).success:
            rejected += 1
        fid += 1
    assert rejected >= 4  # the fleet is saturated
    victims = sorted(fabric.shards[1].controller.allocator.resident_fids())
    assert victims

    devices[1].kill()
    report = fabric.failover(1)
    assert report.mode == "redistribute"
    assert report.shed  # survivor had no room for everyone
    for fid in report.shed:
        assert fabric.route_of(fid) is None


def test_routing_to_dead_shard_raises_until_failover():
    fabric, devices = _faulty_fabric()
    for fid in range(1, 13):
        assert fabric.submit_and_wait(_admission(fid)).success
    residents = sorted(fabric.shards[2].controller.allocator.resident_fids())
    assert residents

    devices[2].kill()
    fabric.shards[2].alive = False
    with pytest.raises(FabricError, match="dead shard"):
        fabric.submit(ProvisioningRequest.withdrawal(fid=residents[0]))


def test_failover_validates_index_and_liveness():
    fabric, devices = _faulty_fabric()
    with pytest.raises(FabricError):
        fabric.failover(99)
    devices[0].kill()
    fabric.failover(0)
    with pytest.raises(FabricError, match="already"):
        fabric.failover(0)
