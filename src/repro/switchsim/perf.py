"""Data-path performance counters (hot-path observability).

:class:`PerfCounters` accumulates what the switch's data path did --
packets by disposition, digest deliveries, batch sizes -- plus a
wall-clock window for deriving packets/sec.  The batched receive path
rolls a whole batch into the counters with one call, which is part of
the per-packet overhead amortization; the scalar path records packets
one at a time.

Counter snapshots surface through :meth:`ActiveSwitch.stats`, merged
with the program cache's hit/miss statistics and the pipeline's
drop/fault totals.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Dict, Optional, Union

if TYPE_CHECKING:
    from repro.switchsim.switch import BatchResult


@dataclasses.dataclass
class PerfCounters:
    """Monotonic data-path counters plus a throughput window.

    Attributes:
        packets: total packets the data path accepted (all types).
        programs: active-program packets executed by the pipeline.
        plain_forwarded: packets taking the baseline L2 path.
        digested: packets delivered to the switch CPU as digests.
        suppressed: program packets the recirculation governor demoted
            to plain forwarding.
        forwarded/returned/dropped/faulted: pipeline dispositions.
        batches: calls to the batched receive path.
        batched_packets: packets processed through those calls.
    """

    packets: int = 0
    programs: int = 0
    plain_forwarded: int = 0
    digested: int = 0
    suppressed: int = 0
    forwarded: int = 0
    returned: int = 0
    dropped: int = 0
    faulted: int = 0
    batches: int = 0
    batched_packets: int = 0
    _window_start: Optional[float] = None
    _window_end: Optional[float] = None

    # ------------------------------------------------------------------

    def touch(self, now: Optional[float] = None) -> None:
        """Extend the throughput window to *now* (perf_counter time)."""
        if now is None:
            now = time.perf_counter()
        if self._window_start is None:
            self._window_start = now
        self._window_end = now

    @property
    def elapsed_seconds(self) -> float:
        if self._window_start is None or self._window_end is None:
            return 0.0
        return self._window_end - self._window_start

    @property
    def packets_per_second(self) -> float:
        """Observed data-path throughput over the activity window.

        Zero until at least two distinct timestamps have been recorded
        (a single packet has no measurable rate).
        """
        elapsed = self.elapsed_seconds
        if elapsed <= 0.0:
            return 0.0
        return self.packets / elapsed

    # ------------------------------------------------------------------

    def merge_batch(self, batch: "BatchResult") -> None:
        """Roll one batch's tallies into the counters (single call)."""
        for name in _BATCH_TALLIES:
            setattr(self, name, getattr(self, name) + getattr(batch, name))
        self.batches += 1
        self.batched_packets += batch.packets
        self.touch()

    def reset(self) -> None:
        """Zero every counter and forget the throughput window.

        Back-to-back benchmark phases call this between runs so one
        phase's activity window (and totals) never bleeds into the
        next phase's packets-per-second figure.
        """
        for field in dataclasses.fields(self):
            setattr(self, field.name, field.default)

    def snapshot(self) -> Dict[str, Union[int, float]]:
        """Counter values as a plain dict (stable keys for stats()).

        Counts are ints; the two derived window values
        (``packets_per_second``, ``elapsed_seconds``) are floats.
        """
        data: Dict[str, Union[int, float]] = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if not field.name.startswith("_")
        }
        data["packets_per_second"] = self.packets_per_second
        data["elapsed_seconds"] = self.elapsed_seconds
        return data


#: The per-batch tallies: every counter a ``BatchResult`` carries under
#: the same name (all but the two batch-count counters).
_BATCH_TALLIES = tuple(
    field.name
    for field in dataclasses.fields(PerfCounters)
    if not field.name.startswith(("_", "batch"))
)
