"""Tests for linear forwarding tables."""

import numpy as np
import pytest

from repro.ib.lft import LinearForwardingTable


def test_lookup_is_one_based_dlid():
    lft = LinearForwardingTable([3, 1, 2], num_physical_ports=4)
    assert lft.lookup(1) == 3
    assert lft.lookup(2) == 1
    assert lft.lookup(3) == 2


def test_unknown_dlid_raises():
    lft = LinearForwardingTable([1], num_physical_ports=2)
    with pytest.raises(KeyError):
        lft.lookup(0)
    with pytest.raises(KeyError):
        lft.lookup(2)


def test_port_zero_rejected():
    """Port 0 is the management port and never a data output."""
    with pytest.raises(ValueError):
        LinearForwardingTable([0], num_physical_ports=4)


def test_port_above_max_rejected():
    with pytest.raises(ValueError):
        LinearForwardingTable([5], num_physical_ports=4)


def test_from_zero_based_shifts():
    lft = LinearForwardingTable.from_zero_based([0, 3, 2], num_physical_ports=4)
    assert [lft.lookup(lid) for lid in (1, 2, 3)] == [1, 4, 3]


def test_len():
    assert len(LinearForwardingTable([1, 2], num_physical_ports=4)) == 2


def test_equality():
    a = LinearForwardingTable([1, 2], 4)
    b = LinearForwardingTable([1, 2], 4)
    c = LinearForwardingTable([2, 1], 4)
    assert a == b
    assert a != c
    assert a != "not a table"


def test_needs_at_least_one_port():
    with pytest.raises(ValueError):
        LinearForwardingTable([], num_physical_ports=0)


def test_getitem_is_lookup():
    lft = LinearForwardingTable([3, 1, 2], num_physical_ports=4)
    assert lft[1] == 3
    assert lft[3] == 2
    with pytest.raises(KeyError):
        lft[4]
    with pytest.raises(KeyError):
        lft[0]


def test_as_array_matches_entries_and_is_read_only():
    lft = LinearForwardingTable([3, 1, 2], num_physical_ports=4)
    arr = lft.as_array()
    assert arr.tolist() == [3, 1, 2]
    assert arr.dtype == np.int64
    with pytest.raises(ValueError):
        arr[0] = 9
    # Built on each call: the table keeps one copy, its port list.
    assert lft.as_array() is not arr
    assert np.array_equal(lft.as_array(), arr)


def test_from_zero_based_as_array_equal():
    lft = LinearForwardingTable.from_zero_based([0, 3, 2], 4)
    arr = lft.as_array()
    assert arr.tolist() == [1, 4, 3]
    with pytest.raises(ValueError):
        arr[0] = 9
    assert not hasattr(lft, "_array")


def test_from_zero_based_validates_range():
    """The vectorized validation raises the same per-entry message as
    the constructor's loop."""
    with pytest.raises(ValueError, match=r"LID 2 is port 5"):
        LinearForwardingTable.from_zero_based([0, 4, 1], num_physical_ports=4)
    with pytest.raises(ValueError, match=r"LID 1 is port 0"):
        LinearForwardingTable.from_zero_based([-1, 2], num_physical_ports=4)
    with pytest.raises(ValueError, match=r"LID 3 is port 0"):
        LinearForwardingTable([1, 2, 0], num_physical_ports=4)


def test_from_zero_based_equals_constructor_table():
    a = LinearForwardingTable.from_zero_based([0, 1, 2], 4)
    b = LinearForwardingTable([1, 2, 3], 4)
    assert a == b
