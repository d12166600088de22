"""Per-stage register arrays and their stateful-ALU micro-programs.

Each stage owns one large register array used as a dynamic memory pool
(Section 4.1).  Its stateful ALU implements the four register-action
semantics of Section 3.2 / Appendix A.4.  Values are 32-bit unsigned
with wrap-around, matching the Tofino register extern.

The array enforces *physical* bounds only; *protection* (is this FID
allowed to touch this address?) is the match table's job
(:mod:`repro.switchsim.tables`), exactly as in the paper.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.switchsim.phv import u32


class RegisterFault(Exception):
    """Physical out-of-bounds register access (a runtime bug if raised
    on traffic that passed table protection)."""


class RegisterArray:
    """A stage's register memory plus its stateful ALU actions."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("register array must have positive size")
        self._size = size
        #: Made by the first access (:meth:`_check`), not here: a switch
        #: holds 10 MB of words, and writing them all at construction
        #: made ``ActiveSwitch()`` cost whatever page faults the heap
        #: left behind -- a stage never granted is never touched.
        self._cells: List[int] = []
        self._reads = 0
        self._writes = 0

    def __len__(self) -> int:
        return self._size

    def _check(self, index: int) -> None:
        if not 0 <= index < len(self._cells):
            if 0 <= index < self._size:  # the first access
                self._cells = [0] * self._size
                return
            raise RegisterFault(
                f"index {index} outside array of {self._size} words"
            )

    # ------------------------------------------------------------------
    # Stateful ALU actions (Appendix A.4)
    # ------------------------------------------------------------------

    def read(self, index: int) -> int:
        """``MEM_READ``: return the stored word."""
        self._check(index)
        self._reads += 1
        return self._cells[index]

    def write(self, index: int, value: int) -> None:
        """``MEM_WRITE``: store a word."""
        self._check(index)
        self._writes += 1
        self._cells[index] = u32(value)

    def increment(self, index: int, amount: int = 1) -> int:
        """``MEM_INCREMENT``: add *amount* and return the new value."""
        self._check(index)
        self._writes += 1
        self._cells[index] = u32(self._cells[index] + amount)
        return self._cells[index]

    def min_read(self, index: int, value: int) -> int:
        """``MEM_MINREAD``: min of the stored word and *value*."""
        self._check(index)
        self._reads += 1
        return min(self._cells[index], u32(value))

    def min_read_increment(self, index: int, value: int, amount: int = 1) -> Tuple[int, int]:
        """``MEM_MINREADINC``: increment, then min with *value*.

        Returns ``(new_count, min(new_count, value))`` -- the pair the
        instruction deposits into MBR and MBR2 (Appendix B.1).
        """
        new_count = self.increment(index, amount)
        return new_count, min(new_count, u32(value))

    # ------------------------------------------------------------------
    # Control-plane API (BFRT-style register access, Section 4.3)
    # ------------------------------------------------------------------

    def snapshot(self, start: int, end: int) -> List[int]:
        """Copy out ``[start, end)`` -- the consistent-snapshot primitive."""
        self._check(start)
        if not start <= end <= len(self._cells):
            raise RegisterFault(f"bad snapshot range [{start}, {end})")
        return list(self._cells[start:end])

    def load(self, start: int, values: Sequence[int]) -> None:
        """Bulk-write values at *start* (controller-driven restore)."""
        end = start + len(values)
        if not 0 <= start <= end <= self._size:
            raise RegisterFault(f"bad load range [{start}, {end})")
        if start < end:
            self._check(start)
        self._cells[start:end] = [u32(v) for v in values]

    def clear(self, start: int, end: int) -> None:
        """Zero ``[start, end)`` (region scrub between tenants)."""
        self._check(start)
        if not start <= end <= len(self._cells):
            raise RegisterFault(f"bad clear range [{start}, {end})")
        self._cells[start:end] = [0] * (end - start)

    @property
    def stats(self) -> Tuple[int, int]:
        """``(reads, writes)`` performed by the data plane."""
        return self._reads, self._writes
