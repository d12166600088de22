"""Match-table (de)installation with a BFRT-style cost model.

Provisioning time in the paper is "dominated by the time taken to
update table entries on the switch, including removing old entries and
installing new ones" (Section 6.2).  The engine below performs the
actual installs against the device's table surface
(:class:`~repro.device.DeviceTables`) and charges a per-entry latency
so experiments can reproduce Figure 8a's breakdown.  A bare
:class:`~repro.switchsim.pipeline.Pipeline` is accepted for
convenience and adapted behind :class:`~repro.device.PipelineTables`.

Every mutating operation optionally records itself in a
:class:`~repro.core.transactions.TableUpdateJournal` as a reversible
op: the undo closure captures the exact prior entry (or its absence)
and restores it on rollback.  The controller opens one journal per
admission transaction; when a mid-flight install trips
:class:`~repro.switchsim.tables.TcamCapacityError`, replaying the
journal backwards walks the device through the same intermediate
states in reverse, so no step of the rollback can itself exceed a
capacity limit.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union

from repro.core.blocks import BlockRange
from repro.core.transactions import TableUpdateJournal
from repro.device import DeviceTables, PipelineTables, TransientDeviceError
from repro.faults import RetryPolicy, call_with_retries
from repro.switchsim.pipeline import Pipeline
from repro.switchsim.tables import StageGrant
from repro.telemetry import AnyTracer, MetricsRegistry, resolve, resolve_tracer
from repro.telemetry.tracing import ParentLike

T = TypeVar("T")


@dataclasses.dataclass(frozen=True)
class TableUpdateCost:
    """Latency charged per control-plane table operation.

    Defaults are calibrated so that a large reallocation wave (a few
    hundred entry operations) lands at the paper's ~1 s provisioning
    plateau on a Tofino's 4-core control CPU.
    """

    install_entry_seconds: float = 2.5e-3
    remove_entry_seconds: float = 2.5e-3
    activation_seconds: float = 1.0e-3  # (de)activating a FID


def _pow2_mask(words: int) -> int:
    """Mask mapping a 32-bit hash into a region of *words* entries.

    Uses the largest power-of-two prefix of the region so masked
    addresses always stay inside it (non-power-of-two remainders are
    unreachable by hashed addressing, but remain usable by direct
    addressing).
    """
    if words <= 0:
        return 0
    return (1 << (words.bit_length() - 1)) - 1


class TableUpdateEngine:
    """Applies allocation decisions to the device's match tables."""

    #: Stages immediately before a memory access where the controller
    #: installs translation entries for ADDR_MASK/ADDR_OFFSET.
    TRANSLATION_WINDOW = 3

    def __init__(
        self,
        tables: Union[DeviceTables, Pipeline],
        cost: Optional[TableUpdateCost] = None,
        telemetry: Optional[MetricsRegistry] = None,
        tracer: Optional[AnyTracer] = None,
        retry: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if isinstance(tables, Pipeline):
            tables = PipelineTables(tables)
        self.tables: DeviceTables = tables
        self.cost = cost or TableUpdateCost()
        self.telemetry = resolve(telemetry)
        self.tracer = resolve_tracer(tracer)
        self.retry = retry
        self._retry_rng = random.Random(retry_seed)
        self._clock = clock
        self._sleep = sleep
        self.entries_installed = 0
        self.entries_removed = 0
        self.retries_attempted = 0
        self.retries_healed = 0

    # ------------------------------------------------------------------
    # Retry wrapper for forward device mutations
    # ------------------------------------------------------------------

    def _note_retry(self, attempt: int, fault: TransientDeviceError) -> None:
        self.retries_attempted += 1
        tel = self.telemetry
        if tel.enabled:
            tel.counter(
                "device_retry_attempts_total",
                help="Transient device faults retried by the table engine",
            ).inc()

    def _apply(self, op: Callable[[], T]) -> T:
        """Run one forward device mutation under the retry policy.

        Undo closures are deliberately *not* wrapped: a fault during
        rollback is escalated by the controller (device marked failed)
        rather than silently absorbed, because a half-rolled-back
        journal is unrecoverable in place.
        """
        if self.retry is None:
            return op()
        before = self.retries_attempted
        result = call_with_retries(
            op,
            self.retry,
            self._retry_rng,
            clock=self._clock,
            sleep=self._sleep,
            on_retry=self._note_retry,
        )
        if self.retries_attempted > before:
            self.retries_healed += 1
            tel = self.telemetry
            if tel.enabled:
                tel.counter(
                    "device_retries_healed_total",
                    help="Device operations that succeeded after retries",
                ).inc()
        return result

    def guarded(self, op: Callable[[], T]) -> T:
        """Run a caller-supplied device operation under this engine's
        retry policy (the controller's register scrubs share the table
        engine's budget and telemetry)."""
        return self._apply(op)

    # ------------------------------------------------------------------
    # Journaled single-entry primitives
    # ------------------------------------------------------------------

    def _install_grant(
        self,
        stage: int,
        grant: StageGrant,
        journal: Optional[TableUpdateJournal],
    ) -> None:
        """Install one grant; journal the exact prior entry (if any)."""
        tables = self.tables
        previous = tables.grant_for(stage, grant.fid)
        self._apply(lambda: tables.install_grant(stage, grant))
        if journal is not None:

            def undo(
                stage: int = stage,
                fid: int = grant.fid,
                previous: Optional[StageGrant] = previous,
            ) -> None:
                if previous is None:
                    tables.remove_grant(stage, fid)
                else:
                    tables.install_grant(stage, previous)

            journal.record(f"install_grant fid={grant.fid}", undo)

    def _install_translation(
        self,
        stage: int,
        fid: int,
        mask: int,
        offset: int,
        journal: Optional[TableUpdateJournal],
    ) -> None:
        tables = self.tables
        previous = tables.translation_for(stage, fid)
        self._apply(
            lambda: tables.install_translation(stage, fid, mask=mask, offset=offset)
        )
        if journal is not None:

            def undo(
                stage: int = stage,
                fid: int = fid,
                previous: Optional[Tuple[int, int]] = previous,
            ) -> None:
                if previous is None:
                    tables.remove_translation(stage, fid)
                else:
                    tables.install_translation(
                        stage, fid, mask=previous[0], offset=previous[1]
                    )

            journal.record(f"install_translation fid={fid}", undo)

    def _invalidate_cache(
        self, fid: int, journal: Optional[TableUpdateJournal]
    ) -> None:
        """Flush cached schedules; on rollback, flush again so entries
        decoded against the transaction's tables cannot survive it."""
        self._apply(lambda: self.tables.invalidate_program_cache(fid))
        if journal is not None:
            journal.record(
                f"invalidate_program_cache fid={fid}",
                lambda: self.tables.invalidate_program_cache(fid),
            )

    # ------------------------------------------------------------------

    def install_app(
        self,
        fid: int,
        regions: Dict[int, BlockRange],
        block_words: int,
        journal: Optional[TableUpdateJournal] = None,
        ctx: ParentLike = None,
    ) -> float:
        """Install grants + translations for an app's per-stage regions.

        Returns the modeled control-plane seconds spent.  With a
        *journal*, each applied entry is recorded as a reversible op
        (entries applied before a mid-flight ``TcamCapacityError`` are
        thereby exactly undoable).
        """
        with self.tracer.span("tables.install_app", parent=ctx, fid=fid) as span:
            before = self.entries_installed
            seconds = self._install_app_impl(fid, regions, block_words, journal)
            span.set(entries=self.entries_installed - before, seconds=seconds)
            return seconds

    def _install_app_impl(
        self,
        fid: int,
        regions: Dict[int, BlockRange],
        block_words: int,
        journal: Optional[TableUpdateJournal],
    ) -> float:
        # New decode state makes any cached schedule for this FID
        # stale; flush eagerly (the version stamps would also catch it,
        # but eager flushes keep the cache from serving dead entries).
        self._invalidate_cache(fid, journal)
        installed_before = self.entries_installed
        seconds = 0.0
        # Translations first, descending, so the entry for the nearest
        # upcoming access wins where windows overlap.
        for stage in sorted(regions, reverse=True):
            words = regions[stage].to_words(block_words)
            mask = _pow2_mask(words.size)
            for prior in range(
                max(1, stage - self.TRANSLATION_WINDOW), stage
            ):
                self._install_translation(
                    prior,
                    fid,
                    mask=mask,
                    offset=words.start,
                    journal=journal,
                )
                seconds += self.cost.install_entry_seconds
                self.entries_installed += 1
        for stage, block_range in regions.items():
            words = block_range.to_words(block_words)
            self._install_grant(
                stage,
                StageGrant(
                    fid=fid,
                    start=words.start,
                    end=words.end,
                    mask=_pow2_mask(words.size),
                    offset=words.start,
                ),
                journal=journal,
            )
            seconds += self.cost.install_entry_seconds
            self.entries_installed += 1
        tel = self.telemetry
        if tel.enabled:
            tel.counter(
                "table_entries_installed_total",
                help="Match-table entries installed by the controller",
            ).inc(self.entries_installed - installed_before)
        return seconds

    def remove_app(
        self,
        fid: int,
        journal: Optional[TableUpdateJournal] = None,
        ctx: ParentLike = None,
    ) -> float:
        """Remove every grant and translation entry for *fid*."""
        with self.tracer.span("tables.remove_app", parent=ctx, fid=fid) as span:
            before = self.entries_removed
            seconds = self._remove_app_impl(fid, journal)
            span.set(entries=self.entries_removed - before, seconds=seconds)
            return seconds

    def _remove_app_impl(
        self, fid: int, journal: Optional[TableUpdateJournal]
    ) -> float:
        self._invalidate_cache(fid, journal)
        tables = self.tables
        removed_before = self.entries_removed
        seconds = 0.0
        for stage in range(1, tables.num_stages + 1):
            removed_grant = self._apply(
                lambda stage=stage: tables.remove_grant(stage, fid)
            )
            if removed_grant is not None:
                seconds += self.cost.remove_entry_seconds
                self.entries_removed += 1
                if journal is not None:
                    journal.record(
                        f"remove_grant fid={fid} stage={stage}",
                        lambda stage=stage, grant=removed_grant: (
                            tables.install_grant(stage, grant)
                        ),
                    )
            removed_translation = tables.translation_for(stage, fid)
            if self._apply(lambda stage=stage: tables.remove_translation(stage, fid)):
                seconds += self.cost.remove_entry_seconds
                self.entries_removed += 1
                if journal is not None:
                    journal.record(
                        f"remove_translation fid={fid} stage={stage}",
                        lambda stage=stage,
                        fid=fid,
                        pair=removed_translation: tables.install_translation(
                            stage, fid, mask=pair[0], offset=pair[1]
                        ),
                    )
        tel = self.telemetry
        if tel.enabled:
            tel.counter(
                "table_entries_removed_total",
                help="Match-table entries removed by the controller",
            ).inc(self.entries_removed - removed_before)
        return seconds

    def reinstall_app(
        self,
        fid: int,
        regions: Dict[int, BlockRange],
        block_words: int,
        journal: Optional[TableUpdateJournal] = None,
        ctx: ParentLike = None,
    ) -> float:
        """Replace an app's entries after a reallocation."""
        return self.remove_app(fid, journal=journal, ctx=ctx) + self.install_app(
            fid, regions, block_words, journal=journal, ctx=ctx
        )

    def deactivate(
        self,
        fid: int,
        journal: Optional[TableUpdateJournal] = None,
        ctx: ParentLike = None,
    ) -> float:
        span = self.tracer.start("tables.deactivate", parent=ctx, fid=fid)
        if journal is not None:
            was_active = self.tables.is_active(fid)

            def undo(fid: int = fid, was_active: bool = was_active) -> None:
                if was_active:
                    self.tables.reactivate_fid(fid)
                else:
                    self.tables.deactivate_fid(fid)

            journal.record(f"deactivate fid={fid}", undo)
        self._apply(lambda: self.tables.deactivate_fid(fid))
        self.tracer.finish(span)
        return self.cost.activation_seconds

    def reactivate(
        self,
        fid: int,
        journal: Optional[TableUpdateJournal] = None,
        ctx: ParentLike = None,
    ) -> float:
        span = self.tracer.start("tables.reactivate", parent=ctx, fid=fid)
        if journal is not None:
            was_active = self.tables.is_active(fid)

            def undo(fid: int = fid, was_active: bool = was_active) -> None:
                if was_active:
                    self.tables.reactivate_fid(fid)
                else:
                    self.tables.deactivate_fid(fid)

            journal.record(f"reactivate fid={fid}", undo)
        self._apply(lambda: self.tables.reactivate_fid(fid))
        self.tracer.finish(span)
        return self.cost.activation_seconds
