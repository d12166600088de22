"""Unit + property tests for register arrays and stateful ALU actions."""

import gc
from array import array

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
    assert len(regs._cells) == 0  # nothing touched the words yet
    regs.load(6, [1, 2])
    assert regs.snapshot(0, 8) == array("I", [0] * 6 + [1, 2])


def test_words_are_not_walked_by_the_cyclic_collector():
    """A full collection visits every reference a tracked container
    holds; the words hold none, so a switch's 1.3 M words cost it nothing."""
    regs = RegisterArray(1 << 16)
    regs.write(5, 7)
    assert gc.get_referents(regs._cells) in ([], [type(regs._cells)])


def test_snapshot_and_load():
    regs = RegisterArray(8)
    for i in range(8):
        regs.write(i, i * 10)
    snap = regs.snapshot(2, 6)
    assert snap == array("I", [20, 30, 40, 50])
    regs.load(0, [7, 8])
    assert regs.read(0) == 7
    assert regs.read(1) == 8


def test_an_image_is_a_copy():
    """A snapshot is the words as read: a later write, increment, clear
    or load of the array leaves it as it was."""
    regs = RegisterArray(8)
    regs.load(0, [1, 2, 3, 4])
    image = regs.snapshot(0, 4)
    regs.write(0, 9)
    regs.increment(1)
    regs.clear(2, 3)
    regs.load(3, image[:1])
    assert image == array("I", [1, 2, 3, 4])
    assert regs.snapshot(0, 4) == array("I", [9, 3, 0, 1])


@pytest.mark.parametrize("start", [0, 5, 6, 7, 8, 9, -1])
@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_loading_an_image_is_loading_its_list(start, count):
    """An ``array("I")`` image and the list of the same words load the
    same words and refuse the same ranges, with the same message."""
    words = [0xFFFFFFFF, 7, 0][:count]
    by_image, by_list = RegisterArray(8), RegisterArray(8)
    outcomes = []
    for regs, values in ((by_image, array("I", words)), (by_list, words)):
        try:
            regs.load(start, values)
            outcomes.append(None)
        except RegisterFault as fault:
            outcomes.append(str(fault))
    assert outcomes[0] == outcomes[1]
    assert by_image.snapshot(0, 8) == by_list.snapshot(0, 8)
    assert len(by_image._cells) == len(by_list._cells)


@pytest.mark.parametrize("at", [7, 8])
def test_an_empty_range_in_bounds_is_a_no_op(at):
    """``[n-1, n-1)`` and ``[n, n)`` are empty ranges inside an n-word
    array: snapshot gives an empty image, clear and load change nothing,
    and none of them makes the words of an untouched array."""
    regs = RegisterArray(8)
    assert regs.snapshot(at, at) == array("I")
    regs.clear(at, at)
    regs.load(at, [])
    regs.load(at, array("I"))
    assert len(regs._cells) == 0  # no words made
    regs.write(0, 5)
    assert regs.snapshot(at, at) == array("I")
    regs.clear(at, at)
    regs.load(at, [])
    assert regs.snapshot(0, 8) == array("I", [5] + [0] * 7)


def test_an_empty_range_past_the_end_is_refused():
    """``[n+1, n+1)`` lies outside an n-word array, empty or not."""
    regs = RegisterArray(8)
    with pytest.raises(RegisterFault, match="snapshot"):
        regs.snapshot(9, 9)
    with pytest.raises(RegisterFault, match="clear"):
        regs.clear(9, 9)
    with pytest.raises(RegisterFault, match="load"):
        regs.load(9, [])
    assert len(regs._cells) == 0


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
