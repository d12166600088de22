"""The layout path as of commit cc06cdc, kept as an oracle.

- :class:`PerNeighbourController` is the engine the staged layout batch
  replaced: one journaled ``_apply_delta`` per FID, one ``_set_active``
  record per activation set and one record per scrub, each forward call
  wrapped in its own closure.  ``tests/test_layout_batch.py`` drives it
  in lockstep with the batched controller and compares device-call logs.
- :func:`implied_bounds` (with :func:`_pow2_mask`) and
  :func:`diff_layouts` are that commit's ``repro.analysis.isolation
  .implied_bounds`` and ``ActiveRmtAllocator._diff_layouts``, verbatim
  (the latter as a free function); ``tests/test_layout_change.py``
  checks the live ones against them.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.analysis.verifier import TRANSLATION_WINDOW as DEFAULT_TRANSLATION_WINDOW
from repro.controller import ActiveRmtController
from repro.controller.table_updater import ACTIVATION_S, INSTALL_ENTRY_S, REMOVE_ENTRY_S
from repro.core.blocks import BlockRange
from repro.faults import call_with_retries
from repro.switchsim.tables import StageGrant

WordRegions = Mapping[int, Tuple[int, int]]
ReallocationMap = Dict[int, Dict[int, Tuple]]


# ----------------------------------------------------------------------
# Implied entries and the layout diff
# ----------------------------------------------------------------------


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


def implied_bounds(
    regions: WordRegions,
    translation_window: int = DEFAULT_TRANSLATION_WINDOW,
) -> Tuple[Dict[int, Tuple[int, int, int]], Dict[int, Tuple[int, int]]]:
    """The table entries a region map implies, as plain tuples.

    The one definition of "what should be installed" for a FID: the
    table engine diffs two of these to update the device, the certifier
    compares one (as :func:`implied_entries`) against the installed
    surface.  Every granted stage carries a grant ``(start, end, mask)``
    with exactly the region's bounds (its offset is its start); every
    stage in the ``translation_window`` before a granted stage carries
    that stage's ``(mask, offset)`` pair, and where windows overlap the
    nearest upcoming access wins (regions are visited in descending
    stage order, so a nearer one overwrites).
    """
    grants: Dict[int, Tuple[int, int, int]] = {}
    translations: Dict[int, Tuple[int, int]] = {}
    for stage in sorted(regions, reverse=True):
        start, end = regions[stage]
        mask = _pow2_mask(end - start)
        grants[stage] = (start, end, mask)
        for prior in range(max(1, stage - translation_window), stage):
            translations[prior] = (mask, start)
    return grants, translations


def implied_entries(
    fid: int,
    regions: WordRegions,
    translation_window: int = DEFAULT_TRANSLATION_WINDOW,
) -> Tuple[Dict[int, StageGrant], Dict[int, Tuple[int, int]]]:
    """:func:`implied_bounds` with each grant as *fid*'s :class:`StageGrant`."""
    bounds, translations = implied_bounds(regions, translation_window)
    grants = {
        stage: StageGrant(fid, start, end, mask, start)
        for stage, (start, end, mask) in bounds.items()
    }
    return grants, translations


def diff_layouts(
    new_fid: int,
    before: Mapping[int, Mapping[int, BlockRange]],
    after: Mapping[int, Mapping[int, BlockRange]],
) -> Tuple[Dict[int, BlockRange], ReallocationMap]:
    regions: Dict[int, BlockRange] = {}
    reallocations: ReallocationMap = {}
    for stage in after:
        old_layout = before.get(stage, {})
        new_layout = after[stage]
        fids = set(old_layout) | set(new_layout)
        for fid in fids:
            old = old_layout.get(fid)
            new = new_layout.get(fid)
            if fid == new_fid:
                if new is not None:
                    regions[stage] = new
                continue
            if old != new:
                reallocations.setdefault(fid, {})[stage] = (old, new)
    return regions, reallocations


# ----------------------------------------------------------------------
# The per-neighbour engine: one round-trip per FID, as before batching
# ----------------------------------------------------------------------


def _guarded(engine, op):
    if engine.retry is None:
        return op()
    before = engine.retries_attempted
    result = call_with_retries(
        op,
        engine.retry,
        engine._retry_rng,
        clock=engine._clock,
        sleep=engine._sleep,
        on_retry=engine._note_retry,
    )
    if engine.retries_attempted > before:
        engine.retries_healed += 1
    return result


def _put_grant(tables, stage, fid, grant):
    if grant is None:
        tables.remove_grant(stage, fid)
    else:
        tables.install_grant(stage, grant)


def _put_translation(tables, stage, fid, pair):
    if pair is None:
        tables.remove_translation(stage, fid)
    else:
        tables.install_translation(stage, fid, mask=pair[0], offset=pair[1])


def _differing(put, old, new):
    return [
        (put, stage, new.get(stage), old.get(stage))
        for stage in sorted(old.keys() | new.keys())
        if old.get(stage) != new.get(stage)
    ]


def _words(regions, block_words):
    return {s: (r.start * block_words, r.end * block_words) for s, r in regions.items()}


def _apply_delta(engine, fid, old_regions, new_regions, block_words, journal):
    window = DEFAULT_TRANSLATION_WINDOW
    old_grants, old_pairs = implied_entries(fid, _words(old_regions, block_words), window)
    new_grants, new_pairs = implied_entries(fid, _words(new_regions, block_words), window)
    writes = _differing(_put_translation, old_pairs, new_pairs)
    writes += _differing(_put_grant, old_grants, new_grants)
    if not writes:
        return 0.0
    tables = engine.tables
    attempted = 0

    def undo():
        for put, stage, _new, old in reversed(writes[:attempted]):
            put(tables, stage, fid, old)
        tables.invalidate_program_cache(fid)

    journal.record(f"delta fid={fid}", undo)
    installed = removed = 0
    seconds = 0.0
    try:
        _guarded(engine, lambda: tables.invalidate_program_cache(fid))
        for put, stage, entry, _old in writes:
            attempted += 1
            _guarded(engine, lambda: put(tables, stage, fid, entry))
            if entry is None:
                removed += 1
                seconds += REMOVE_ENTRY_S
            else:
                installed += 1
                seconds += INSTALL_ENTRY_S
    finally:
        engine.entries_installed += installed
        engine.entries_removed += removed
    return seconds


def _set_active(engine, fids, active, journal, seconds=0.0):
    tables = engine.tables
    flip, unflip = tables.reactivate_fid, tables.deactivate_fid
    if not active:
        flip, unflip = unflip, flip
    held = {fid for fid in fids if tables.is_active(fid) == active}
    if fids:
        journal.record("activation", lambda: [unflip(f) for f in fids if f not in held])
    for fid in fids:
        _guarded(engine, lambda: flip(fid))
        seconds += ACTIVATION_S
    return seconds


class PerNeighbourController(ActiveRmtController):
    """The controller with the layout path the batch replaced."""

    def _apply_layout(self, fid, old, new, reallocations, journal):
        engine = self.updater
        impacted = sorted(reallocations)
        block_words = self.device.config.block_words
        seconds = _set_active(engine, impacted, False, journal)
        if old:
            seconds += _apply_delta(engine, fid, old, {}, block_words, journal)
        for other in impacted:
            seconds += self._move_tables(other, reallocations[other], journal)
        if new:
            for stage, block_range in new.items():
                self._scrub_region(stage, block_range, block_words, journal)
            seconds += _apply_delta(engine, fid, {}, new, block_words, journal)
        return _set_active(engine, impacted, True, journal, seconds)

    def _scrub_region(self, stage, block_range, block_words, journal):
        words = block_range.to_words(block_words)
        device = self.device
        previous = device.read_registers(stage, words.start, words.end)
        journal.record(
            "scrub", lambda: device.write_registers(stage, words.start, previous)
        )
        _guarded(
            self.updater, lambda: device.scrub_registers(stage, words.start, words.end)
        )

    def _move_tables(self, fid, changes, journal):
        window = DEFAULT_TRANSLATION_WINDOW
        near = {s for c in changes for s in range(c - window, c + window + 1)}
        new = {
            s: r
            for s, r in self.allocator.regions_for(fid).items()
            if s in near and r is not None and r.count > 0
        }
        old = dict(new)
        for stage, (before, _after) in changes.items():
            if before is not None and before.count > 0:
                old[stage] = before
            else:
                old.pop(stage, None)
        return _apply_delta(
            self.updater, fid, old, new, self.device.config.block_words, journal
        )
