"""Unit + property tests for register arrays and stateful ALU actions."""

import pytest
from hypothesis import given, strategies as st

from repro.switchsim import RegisterArray, RegisterFault


def test_read_write_round_trip():
    regs = RegisterArray(16)
    regs.write(3, 0xABCD)
    assert regs.read(3) == 0xABCD
    assert regs.read(0) == 0  # zero-initialized


def test_write_wraps_32_bits():
    regs = RegisterArray(4)
    regs.write(0, 0x1_0000_0001)
    assert regs.read(0) == 1


def test_increment_returns_new_value():
    regs = RegisterArray(4)
    assert regs.increment(2) == 1
    assert regs.increment(2) == 2
    assert regs.increment(2, amount=10) == 12


def test_increment_wraps():
    regs = RegisterArray(2)
    regs.write(0, 0xFFFFFFFF)
    assert regs.increment(0) == 0


def test_min_read():
    regs = RegisterArray(4)
    regs.write(1, 100)
    assert regs.min_read(1, 50) == 50
    assert regs.min_read(1, 150) == 100


def test_min_read_increment_semantics():
    # Appendix B.1: counter incremented, count -> MBR, min(count, MBR2)
    regs = RegisterArray(4)
    regs.write(0, 5)
    count, running_min = regs.min_read_increment(0, value=3)
    assert count == 6
    assert running_min == 3
    count, running_min = regs.min_read_increment(0, value=100)
    assert count == 7
    assert running_min == 7


def test_out_of_bounds_faults():
    regs = RegisterArray(4)
    with pytest.raises(RegisterFault):
        regs.read(4)
    with pytest.raises(RegisterFault):
        regs.write(-1, 0)
    with pytest.raises(RegisterFault):
        regs.increment(100)


def test_cells_are_made_by_the_first_access():
    regs = RegisterArray(8)
    assert len(regs) == 8 and regs.stats == (0, 0)
    with pytest.raises(RegisterFault):  # bounds hold before the first access
        regs.read(8)
    with pytest.raises(RegisterFault):
        regs.load(6, [1, 2, 3])
    regs.load(8, [])
    assert regs._cells == []  # nothing touched the words yet
    regs.load(6, [1, 2])
    assert regs.snapshot(0, 8) == [0] * 6 + [1, 2]


def test_snapshot_and_load():
    regs = RegisterArray(8)
    for i in range(8):
        regs.write(i, i * 10)
    snap = regs.snapshot(2, 6)
    assert snap == [20, 30, 40, 50]
    regs.load(0, [7, 8])
    assert regs.read(0) == 7
    assert regs.read(1) == 8


def test_snapshot_bad_range_rejected():
    regs = RegisterArray(8)
    with pytest.raises(RegisterFault):
        regs.snapshot(6, 2)
    with pytest.raises(RegisterFault):
        regs.snapshot(0, 9)


def test_clear_region():
    regs = RegisterArray(8)
    regs.write(3, 9)
    regs.write(4, 9)
    regs.clear(3, 5)
    assert regs.read(3) == 0
    assert regs.read(4) == 0


def test_stats_count_data_plane_ops():
    regs = RegisterArray(4)
    regs.read(0)
    regs.write(1, 2)
    regs.min_read(0, 5)
    reads, writes = regs.stats
    assert reads == 2
    assert writes == 1


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 0xFFFFFFFF)), max_size=50
    )
)
def test_register_array_matches_dict_model(ops):
    """Property: the array behaves like a plain dict of 32-bit cells."""
    regs = RegisterArray(16)
    model = {}
    for index, value in ops:
        regs.write(index, value)
        model[index] = value & 0xFFFFFFFF
    for index, expected in model.items():
        assert regs.read(index) == expected
