"""Delta match-table updates with a BFRT-style cost model.

Provisioning time in the paper is "dominated by the time taken to
update table entries on the switch, including removing old entries and
installing new ones" (Section 6.2).  The engine below applies layout
changes to the device's table surface
(:class:`~repro.device.DeviceTables`) and charges a per-entry latency
so experiments can reproduce Figure 8a's breakdown.  A bare
:class:`~repro.switchsim.pipeline.Pipeline` is accepted for
convenience and adapted behind :class:`~repro.device.PipelineTables`.

There is one update path, :meth:`TableUpdateEngine.apply_delta`: the
entry sets a FID's old and new region maps imply
(:func:`~repro.analysis.isolation.implied_entries`, the same function
the certifier audits the device against) are diffed, and exactly one
device write is issued per entry that differs -- an in-place install
for an added or changed entry (the stage table replaces the entry and
re-accounts its TCAM cost in one step, so occupancy never passes
through a state the remove-then-install order would not also have
passed its capacity check in), a remove for one that vanishes.  An
entry both maps imply costs no device call, reads included; where the
paper removes and re-installs, this writes only what moved, and the
modeled time falls with the entry count.  Admission of a newcomer and
withdrawal are the degenerate deltas (``install_app`` / ``remove_app``).

With a :class:`~repro.core.transactions.TableUpdateJournal` (the
controller opens one per layout change, arrival or departure) a delta
is one reversible record and its undo is the reverse delta: the writes
attempted so far, newest first, back to what the old map implies.
When a mid-flight install trips
:class:`~repro.switchsim.tables.TcamCapacityError`, replaying the
journal walks the device back through the same intermediate states,
so no step of the rollback can itself exceed a capacity limit.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Callable, Mapping, Optional, Sequence, Tuple, TypeVar, Union

from repro.analysis.isolation import WordRegions, implied_entries
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

    The defaults were sized when a reallocation wave removed and
    re-installed every entry of every displaced tenant (a few hundred
    writes, the paper's ~1 s plateau on a Tofino's 4-core control CPU).
    Delta updates write a fraction of those entries at the same price
    per write, so modeled provisioning now reads lower than the paper's;
    the constants are deliberately not retuned to hide that.
    """

    install_entry_seconds: float = 2.5e-3
    remove_entry_seconds: float = 2.5e-3
    activation_seconds: float = 1.0e-3  # (de)activating a FID


def _words(regions: Mapping[int, BlockRange], block_words: int) -> WordRegions:
    return {
        stage: (block_range.start * block_words, block_range.end * block_words)
        for stage, block_range in regions.items()
    }


def _put_grant(
    tables: DeviceTables, stage: int, fid: int, grant: Optional[StageGrant]
) -> None:
    """Make *fid*'s grant in *stage* be *grant* (None = no entry)."""
    if grant is None:
        tables.remove_grant(stage, fid)
    else:
        tables.install_grant(stage, grant)


def _put_translation(
    tables: DeviceTables, stage: int, fid: int, pair: Optional[Tuple[int, int]]
) -> None:
    """Make *fid*'s translation in *stage* be *pair* (None = no entry)."""
    if pair is None:
        tables.remove_translation(stage, fid)
    else:
        tables.install_translation(stage, fid, mask=pair[0], offset=pair[1])


def _differing(put: Callable[..., None], old: Mapping, new: Mapping) -> list:
    """One ``(put, stage, new entry, old entry)`` per stage whose entry
    differs between the two maps (None = no entry)."""
    writes = []
    for stage in sorted(old.keys() | new.keys()):
        before, after = old.get(stage), new.get(stage)
        if before != after:
            writes.append((put, stage, after, before))
    return writes


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

    def guarded(self, op: Callable[[], T]) -> T:
        """Run one forward device mutation under the retry policy (the
        controller's register scrubs share the engine's budget and
        telemetry).

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

    def _count(self, installed: int, removed: int) -> None:
        """The one place applied entries are counted: the attributes and
        the registry move together, also when a delta fails mid-way."""
        self.entries_installed += installed
        self.entries_removed += removed
        tel = self.telemetry
        if tel.enabled and installed:
            tel.counter(
                "table_entries_installed_total",
                help="Match-table entries installed by the controller",
            ).inc(installed)
        if tel.enabled and removed:
            tel.counter(
                "table_entries_removed_total",
                help="Match-table entries removed by the controller",
            ).inc(removed)

    # ------------------------------------------------------------------

    def apply_delta(
        self,
        fid: int,
        old_regions: Mapping[int, BlockRange],
        new_regions: Mapping[int, BlockRange],
        block_words: int,
        journal: Optional[TableUpdateJournal] = None,
        ctx: ParentLike = None,
    ) -> float:
        """Move *fid*'s entries from what *old_regions* implies to what
        *new_regions* implies, writing only the entries that differ.

        Returns the modeled control-plane seconds spent (an in-place
        change is charged as one install).  An empty diff touches
        nothing: no device call, no cache flush, no journal record.

        With a *journal*, the delta is one record whose undo is the
        reverse delta.  The forward path already trusts
        ``implied_entries(old_regions)`` to be what the device holds
        (that is how it decides which writes to skip), so those same
        values are what an undo puts back -- no prior entry is read.
        The record precedes the first write and its undo covers every
        write *attempted*, the one in flight included: a write whose
        response was lost has landed, and putting the implied-old entry
        back is idempotent whether it did or not.
        """
        window = self.TRANSLATION_WINDOW
        old_grants, old_pairs = implied_entries(
            fid, _words(old_regions, block_words), window
        )
        new_grants, new_pairs = implied_entries(
            fid, _words(new_regions, block_words), window
        )
        # Translations before grants, each in ascending stage order.
        writes = _differing(_put_translation, old_pairs, new_pairs)
        writes += _differing(_put_grant, old_grants, new_grants)
        if not writes:
            return 0.0
        tables = self.tables
        attempted = 0

        def undo() -> None:
            # Newest first, so the device walks back through the states
            # it came through (none of which exceeded a TCAM); then the
            # flush, so nothing decoded against the transaction's
            # tables survives it.  Unretried and uncounted, as every
            # undo is (see ``guarded``).
            for put, stage, _new, old in reversed(writes[:attempted]):
                put(tables, stage, fid, old)
            tables.invalidate_program_cache(fid)

        if journal is not None:
            journal.record(f"delta fid={fid}", undo)
        installed = removed = 0
        # Charged entry by entry, as the per-entry cost always was, so a
        # modeled time is bit-identical for an unchanged entry count.
        seconds = 0.0
        with self.tracer.span("tables.apply_delta", parent=ctx, fid=fid) as span:
            try:
                # New decode state makes any cached schedule for this
                # FID stale; flush eagerly (the version stamps would
                # also catch it, but eager flushes keep the cache from
                # serving dead entries).
                self.guarded(lambda: tables.invalidate_program_cache(fid))
                for put, stage, entry, _old in writes:
                    attempted += 1
                    self.guarded(lambda: put(tables, stage, fid, entry))
                    if entry is None:
                        removed += 1
                        seconds += self.cost.remove_entry_seconds
                    else:
                        installed += 1
                        seconds += self.cost.install_entry_seconds
            finally:
                self._count(installed, removed)
                span.set(installed=installed, removed=removed)
        return seconds

    def install_app(
        self,
        fid: int,
        regions: Mapping[int, BlockRange],
        block_words: int,
        journal: Optional[TableUpdateJournal] = None,
        ctx: ParentLike = None,
    ) -> float:
        """Install a newcomer's entries: the delta from no regions."""
        with self.tracer.span("tables.install_app", parent=ctx, fid=fid) as span:
            seconds = self.apply_delta(fid, {}, regions, block_words, journal, span)
            span.set(seconds=seconds)
            return seconds

    def remove_app(
        self,
        fid: int,
        regions: Mapping[int, BlockRange],
        block_words: int,
        journal: Optional[TableUpdateJournal] = None,
        ctx: ParentLike = None,
    ) -> float:
        """Remove a departing app's entries: the delta to no regions.

        *regions* is what the FID held; stages it never occupied are not
        visited, so an entry the allocator does not know about stays for
        the auditor to report (ARMT012).
        """
        with self.tracer.span("tables.remove_app", parent=ctx, fid=fid) as span:
            seconds = self.apply_delta(fid, regions, {}, block_words, journal, span)
            span.set(seconds=seconds)
            return seconds

    def set_active(
        self,
        fids: Sequence[int],
        active: bool,
        journal: TableUpdateJournal,
        ctx: ParentLike = None,
        seconds: float = 0.0,
    ) -> float:
        """Reactivate (*active*) or deactivate every FID in *fids*.

        One journal record for the set, made before the first flip: its
        undo flips back every FID the set changes, and is idempotent for
        those the forward pass never reached.  The few it does not
        change are read up front (*held*): a caller may hold a FID
        inactive outside any journal -- the simulated-time provisioner's
        snapshot window -- and a rollback must leave it so.  Returns
        *seconds* plus the modeled cost, charged flip by flip so a
        running total stays bit-identical to per-FID calls.
        """
        flip, unflip = self.tables.reactivate_fid, self.tables.deactivate_fid
        if not active:
            flip, unflip = unflip, flip
        name = "tables.reactivate" if active else "tables.deactivate"
        held = {fid for fid in fids if self.tables.is_active(fid) == active}
        if fids:
            undo = lambda: [unflip(fid) for fid in fids if fid not in held]
            journal.record(f"{name} fids={list(fids)}", undo)
        for fid in fids:
            span = self.tracer.start(name, parent=ctx, fid=fid)
            self.guarded(lambda: flip(fid))
            self.tracer.finish(span)
            seconds += self.cost.activation_seconds
        return seconds
