"""Layout changes as staged device batches, with a BFRT-style cost model.

Provisioning time in the paper is "dominated by the time taken to
update table entries on the switch, including removing old entries and
installing new ones" (Section 6.2).  :meth:`TableUpdateEngine.apply_layout`
applies one layout change to the device's table surface
(:class:`~repro.device.DeviceTables`; a bare pipeline is adapted) as one
staged batch of device calls for every FID it touches, run by one loop,
and charges a per-entry latency for Figure 8a's breakdown.  A FID's
entries are a delta of the tuples its old and new maps imply
(:func:`~repro.analysis.isolation.implied_bounds`, the definition the
certifier audits against): an in-place install per added or changed
entry, a remove per vanished one, no call for an unchanged one.  Its one
journal record replays the reached groups newest first, through the
forward pass's own intermediate states, so a rollback after
:class:`~repro.switchsim.tables.TcamCapacityError` cannot itself exceed
a capacity limit.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.analysis.isolation import implied_bounds
from repro.core.blocks import BlockRange
from repro.core.transactions import TableUpdateJournal
from repro.device import DeviceTables, PipelineTables, TransientDeviceError
from repro.faults import RetryPolicy, call_with_retries
from repro.switchsim.pipeline import Pipeline
from repro.switchsim.tables import StageGrant
from repro.telemetry import AnyTracer, MetricsRegistry, resolve, resolve_tracer
from repro.telemetry.tracing import ParentLike

#: A displaced neighbour's entry move: ``(fid, old regions, new regions)``.
Move = Tuple[int, Mapping[int, BlockRange], Mapping[int, BlockRange]]
#: One staged device call: a bound method, its arguments, and the tally
#: slot it counts in once it returns (OTHER, INSTALLED or REMOVED).
Op = Tuple[Callable[..., Any], Tuple[Any, ...], int]
OTHER, INSTALLED, REMOVED = 0, 1, 2


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


def _translation_op(tables: Any, stage: int, fid: int, pair: Any) -> Op:
    """The call making *fid*'s translation in *stage* be *pair* (None = none)."""
    if pair is None:
        return tables.remove_translation, (stage, fid), REMOVED
    return tables.install_translation, (stage, fid, pair[0], pair[1]), INSTALLED


def _grant_op(tables: Any, stage: int, fid: int, bounds: Any) -> Op:
    """The call making *fid*'s grant in *stage* be *bounds* (None = none)."""
    if bounds is None:
        return tables.remove_grant, (stage, fid), REMOVED
    start, end, mask = bounds
    return tables.install_grant, (stage, StageGrant(fid, start, end, mask, start)), INSTALLED


class _Flips:
    """An activation set: each FID flipped, after reading which already
    are what the set makes them (*held*: the simulated-time provisioner
    holds FIDs inactive outside any journal, and a rollback must leave
    them so).  The undo flips back every other FID, reached or not."""

    reads = 1

    def __init__(self, tables: Any, fids: Sequence[int], active: bool) -> None:
        self.tables, self.fids, self.active = tables, fids, active
        self.held: Set[int] = set()

    def read_held(self) -> None:
        self.held = {f for f in self.fids if self.tables.is_active(f) == self.active}

    def undo(self, started: int) -> None:
        unflip = self.tables.deactivate_fid if self.active else self.tables.reactivate_fid
        for fid in self.fids:
            if fid not in self.held:
                unflip(fid)


class _Scrub:
    """A newcomer region zeroed after its words are read: they may hold
    blocks an incumbent just vacated, and the undo writes them back."""

    reads = 1

    def __init__(self, tables: Any, stage: int, start: int, end: int) -> None:
        self.tables, self.stage, self.start, self.end = tables, stage, start, end
        self.previous: List[int] = []

    def snapshot(self) -> None:
        self.previous = self.tables.read_registers(self.stage, self.start, self.end)

    def undo(self, started: int) -> None:
        self.tables.write_registers(self.stage, self.start, self.previous)


class _Delta:
    """A FID's cache flush, then one write per entry that differs:
    *writes* holds ``(op maker, stage, old entry)`` for each.
    The undo puts the old entry back for every write started, newest
    first, then flushes, so nothing decoded against the transaction's
    tables survives it."""

    reads = 0

    def __init__(self, tables: Any, fid: int, writes: List[Tuple[Any, ...]]) -> None:
        self.tables, self.fid, self.writes = tables, fid, writes

    def undo(self, started: int) -> None:
        for op_for, stage, old in reversed(self.writes[: started - 1]):
            method, args, _tally = op_for(self.tables, stage, self.fid, old)
            method(*args)
        self.tables.invalidate_program_cache(self.fid)


class _LayoutBatch:
    """One layout change, staged: its undo groups in call order and,
    beside each, that group's device calls (its read among them).  The
    calls are one list per group, not one for the whole change: a list
    past 64 entries leaves CPython's small-object allocator for malloc,
    and one made and freed per request lets glibc trim the heap under a
    dropped switch, so the next ``ActiveSwitch()`` re-faults its register
    file (``cp_churn``'s ``setup_s`` turns bimodal).  They sit beside
    their group, not in it: a read is a bound method of its group, and
    the cycle would leave a register snapshot for the collector."""

    def __init__(self, tables: Any, block_words: int, window: int, cost: TableUpdateCost) -> None:
        self.tables, self.block_words, self.window, self.cost = tables, block_words, window, cost
        self.groups: List[Union[_Flips, _Scrub, _Delta]] = []
        self.calls: List[List[Op]] = []
        #: Where the forward pass stopped: the groups it entered, and the
        #: calls it started in the last one (the one in flight included).
        self.reached = self.done = 0

    def flips(self, fids: Sequence[int], active: bool, seconds: float) -> float:
        """Stage an activation set; returns *seconds* plus its cost, flip by flip."""
        if fids:
            group = _Flips(self.tables, fids, active)
            flip = self.tables.reactivate_fid if active else self.tables.deactivate_fid
            self.groups.append(group)
            read = (group.read_held, (), OTHER)
            self.calls.append([read] + [(flip, (fid,), OTHER) for fid in fids])
        for _ in fids:
            seconds += self.cost.activation_seconds
        return seconds

    def scrub(self, stage: int, block_range: BlockRange) -> None:
        words = block_range.to_words(self.block_words)
        group = _Scrub(self.tables, stage, words.start, words.end)
        self.groups.append(group)
        scrub = (self.tables.scrub_registers, (stage, words.start, words.end), OTHER)
        self.calls.append([(group.snapshot, (), OTHER), scrub])

    def _implied(self, regions: Mapping[int, BlockRange]) -> Tuple[Dict, Dict]:
        words = self.block_words
        bounds = {s: (r.start * words, (r.start + r.count) * words) for s, r in regions.items()}
        return implied_bounds(bounds, self.window)

    def delta(
        self, fid: int, old: Mapping[int, BlockRange], new: Mapping[int, BlockRange]
    ) -> float:
        """Stage *fid*'s writes from what *old* implies to what *new*
        implies; returns their modeled seconds, charged entry by entry
        (an in-place change as one install).  An unchanged FID stages
        nothing, not even its cache flush."""
        tables, cost = self.tables, self.cost
        old_grants, old_pairs = self._implied(old)
        new_grants, new_pairs = self._implied(new)
        # New decode state makes any cached schedule for this FID stale;
        # flush eagerly (the version stamps would also catch it, but
        # eager flushes keep the cache from serving dead entries).
        ops: List[Op] = [(tables.invalidate_program_cache, (fid,), OTHER)]
        writes: List[Tuple[Any, ...]] = []
        seconds = 0.0
        # Translations before grants, each in ascending stage order.
        for op_for, befores, afters in (
            (_translation_op, old_pairs, new_pairs),
            (_grant_op, old_grants, new_grants),
        ):
            for stage in sorted(befores.keys() | afters.keys()):
                before, after = befores.get(stage), afters.get(stage)
                if before != after:
                    ops.append(op_for(tables, stage, fid, after))
                    writes.append((op_for, stage, before))
                    if after is None:
                        seconds += cost.remove_entry_seconds
                    else:
                        seconds += cost.install_entry_seconds
        if writes:
            self.groups.append(_Delta(tables, fid, writes))
            self.calls.append(ops)
        return seconds

    @property
    def writes(self) -> int:
        """Device writes staged: every call but the groups' reads."""
        return sum(len(calls) - group.reads for group, calls in zip(self.groups, self.calls))

    def started(self, index: int) -> int:
        """Calls of reached group *index* the forward pass started."""
        return self.done if index == self.reached - 1 else len(self.calls[index])

    def undo(self) -> None:
        """Replay the groups the forward pass reached (their first write
        started), newest first.  Unretried and uncounted, as every undo is."""
        for index in reversed(range(self.reached)):
            started = self.started(index)
            if started > self.groups[index].reads:
                self.groups[index].undo(started)


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
    ) -> None:
        if isinstance(tables, Pipeline):
            tables = PipelineTables(tables)
        self.tables: DeviceTables = tables
        self.cost = cost or TableUpdateCost()
        self.telemetry = resolve(telemetry)
        self.tracer = resolve_tracer(tracer)
        self.retry = retry
        self._retry_rng = random.Random(0)
        self._clock: Callable[[], float] = time.monotonic
        self._sleep: Callable[[float], None] = time.sleep
        self.entries_installed = 0
        self.entries_removed = 0
        self.retries_attempted = 0
        self.retries_healed = 0

    # ------------------------------------------------------------------
    # Retry rule for forward device calls
    # ------------------------------------------------------------------

    def _note_retry(self, attempt: int, fault: TransientDeviceError) -> None:
        self.retries_attempted += 1
        tel = self.telemetry
        if tel.enabled:
            tel.counter(
                "device_retry_attempts_total",
                help="Transient device faults retried by the table engine",
            ).inc()

    def _retried(self, method: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        """Run one forward device call under the retry policy.

        Undo calls are deliberately *not* retried: a fault during
        rollback is escalated by the controller (device marked failed)
        rather than silently absorbed, because a half-rolled-back
        journal is unrecoverable in place.
        """
        before = self.retries_attempted
        call_with_retries(
            lambda: method(*args),
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

    def _count(self, installed: int, removed: int) -> None:
        """The one place applied entries are counted: the attributes and
        the registry move together, also when a change fails mid-way."""
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

    def apply_layout(
        self,
        fid: int,
        old: Mapping[int, BlockRange],
        new: Mapping[int, BlockRange],
        block_words: int,
        journal: Optional[TableUpdateJournal] = None,
        ctx: ParentLike = None,
        moves: Sequence[Move] = (),
        scrub: bool = False,
    ) -> float:
        """Apply one layout change: *fid* goes from regions *old* to
        *new*, each displaced neighbour in *moves* (ascending FID) from
        its old regions to its new ones.  The device sees: the neighbours
        deactivated; *fid*'s delta when it departs (its removals free the
        TCAM space a grown neighbour may need); each neighbour's delta;
        with *scrub*, each region of *new* zeroed (register access
        needed); *fid*'s delta when it arrives; the neighbours
        reactivated.  Returns the modeled seconds, charged in that order.

        With a *journal*, the change is one record made before the first
        call, whose undo covers every call *started*: a write whose
        response was lost has landed, and putting back the entry *old*
        implies (what the forward pass trusts the device to hold, so
        none is read) is idempotent either way.
        """
        batch = _LayoutBatch(self.tables, block_words, self.TRANSLATION_WINDOW, self.cost)
        displaced = [other for other, _before, _after in moves]
        seconds = batch.flips(displaced, False, 0.0)
        if old:
            seconds += batch.delta(fid, old, new)
        for other, before, after in moves:
            seconds += batch.delta(other, before, after)
        for stage, block_range in new.items() if scrub else ():
            batch.scrub(stage, block_range)
        if not old:
            seconds += batch.delta(fid, old, new)
        seconds = batch.flips(displaced, True, seconds)
        if not batch.groups:
            return 0.0
        if journal is not None:
            journal.record(f"layout fid={fid}", batch.undo)
        reached = done = 0
        retry, tally = self.retry, [0, 0, 0]
        with self.tracer.span(
            "tables.apply_layout",
            parent=ctx,
            fid=fid,
            displaced=len(displaced),
            writes=batch.writes,
        ) as span:
            try:
                for reached, calls in enumerate(batch.calls, 1):
                    for done, (method, args, slot) in enumerate(calls, 1):
                        if retry is None:
                            method(*args)
                        else:
                            self._retried(method, args)
                        tally[slot] += 1
            finally:
                # The call in flight is started (the undo covers it) but
                # not applied (the tally skips it).
                batch.reached, batch.done = reached, done
                self._count(tally[INSTALLED], tally[REMOVED])
                span.set(installed=tally[INSTALLED], removed=tally[REMOVED])
        return seconds

    def install_app(
        self,
        fid: int,
        regions: Mapping[int, BlockRange],
        block_words: int,
        journal: Optional[TableUpdateJournal] = None,
        ctx: ParentLike = None,
    ) -> float:
        """Install a newcomer's entries: the layout change from no regions."""
        return self.apply_layout(fid, {}, regions, block_words, journal, ctx)

    def remove_app(
        self,
        fid: int,
        regions: Mapping[int, BlockRange],
        block_words: int,
        journal: Optional[TableUpdateJournal] = None,
        ctx: ParentLike = None,
    ) -> float:
        """Remove a departing app's entries: the layout change to no regions.

        *regions* is what the FID held; stages it never occupied are not
        visited, so an entry the allocator does not know about stays for
        the auditor to report (ARMT012).
        """
        return self.apply_layout(fid, regions, {}, block_words, journal, ctx)
