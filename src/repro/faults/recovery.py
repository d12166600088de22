"""Per-operation retry with jittered backoff and a transaction timeout.

The control plane's first line of defense against
:class:`~repro.device.TransientDeviceError`: retry the exact same
operation a bounded number of times, decorrelating colliding retriers
with jitter, and give up when either the attempt budget or the
wall-clock budget runs out.  Only *transient* faults are retried --
:class:`~repro.device.PermanentDeviceError` (and any other error)
propagates immediately, because retrying a dead device just burns the
transaction's time budget.

Clock and sleep are injectable so tests drive the timeout with a fake
clock and assert byte-identical rollbacks without real waiting.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Any, Callable, Optional, Tuple, TypeVar

from repro.device import TransientDeviceError

T = TypeVar("T")


class RetryExhaustedError(TransientDeviceError):
    """Retries ran out (attempts or timeout) on a transient fault.

    Still a :class:`TransientDeviceError`: the operation might succeed
    later, but *this transaction* is out of budget.  Carries the last
    underlying fault as ``__cause__``.
    """


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded, jittered exponential backoff for device operations.

    Delay before retry *k* (1-based) is ``base_s * multiplier**(k-1)``
    capped at ``cap_s``, scaled by a uniform factor in
    ``[1 - jitter, 1]``.  ``timeout_s`` bounds the whole
    retry loop in wall-clock terms (None = attempts only).
    """

    max_attempts: int = 3
    base_s: float = 1e-4
    multiplier: float = 2.0
    cap_s: float = 1e-2
    jitter: float = 0.5
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.cap_s, self.base_s * self.multiplier ** max(0, attempt - 1))
        if self.jitter <= 0:
            return raw
        return raw * (1.0 - self.jitter * rng.random())


def call_with_retries(
    op: Callable[[], T],
    policy: RetryPolicy,
    rng: random.Random,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[int, TransientDeviceError], None]] = None,
) -> T:
    """Run *op*, retrying transient device faults under *policy*.

    Returns *op*'s result on the first success.  Raises
    :class:`RetryExhaustedError` (chained to the last transient fault)
    when the attempt budget or ``policy.timeout_s`` runs out; every
    non-transient exception propagates unretried.  *on_retry* is
    invoked with ``(attempt, fault)`` before each backoff sleep, for
    telemetry.
    """
    deadline = None if policy.timeout_s is None else clock() + policy.timeout_s
    try:
        return op()
    except TransientDeviceError as fault:
        return retry_after(fault, op, (), policy, rng, deadline, clock, sleep, on_retry)


def retry_after(
    fault: TransientDeviceError, op: Callable[..., T], args: Tuple[Any, ...],
    policy: RetryPolicy, rng: random.Random, deadline: Optional[float],
    clock: Callable[[], float], sleep: Callable[[float], None],
    on_retry: Optional[Callable[[int, TransientDeviceError], None]],
) -> T:
    """:func:`call_with_retries`' backoff, entered once the first attempt
    of ``op(*args)`` raised *fault*; *deadline* is the clock read before
    that attempt plus ``policy.timeout_s`` (None without a timeout)."""
    attempt = 1
    while True:
        if isinstance(fault, RetryExhaustedError):
            # A nested retry loop already spent its budget; do not
            # multiply budgets by re-retrying its failure here.
            raise fault
        out_of_attempts = attempt >= policy.max_attempts
        out_of_time = deadline is not None and clock() >= deadline
        if out_of_attempts or out_of_time:
            cause = "attempts" if out_of_attempts else "timeout"
            raise RetryExhaustedError(
                f"retries exhausted ({cause}) after attempt {attempt}: {fault}"
            ) from fault
        if on_retry is not None:
            on_retry(attempt, fault)
        pause = policy.delay(attempt, rng)
        if deadline is not None:
            pause = min(pause, max(0.0, deadline - clock()))
        if pause > 0:
            sleep(pause)
        attempt += 1
        try:
            return op(*args)
        except TransientDeviceError as again:
            fault = again
