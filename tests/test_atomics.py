"""Tests for the DecrementAndFetch / Join semantics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.costmodel import CostModel
from repro.primitives.atomics import decrement_and_fetch, fetch_and_add


class TestDecrementAndFetch:
    def test_simple_release(self):
        counters = np.array([1, 2, 1])
        released = decrement_and_fetch(counters, np.array([0]))
        np.testing.assert_array_equal(released, [0])
        np.testing.assert_array_equal(counters, [0, 2, 1])

    def test_duplicates_accumulate(self):
        counters = np.array([3])
        released = decrement_and_fetch(counters, np.array([0, 0, 0]))
        np.testing.assert_array_equal(released, [0])
        assert counters[0] == 0

    def test_partial_decrement_no_release(self):
        counters = np.array([5])
        released = decrement_and_fetch(counters, np.array([0, 0]))
        assert released.size == 0
        assert counters[0] == 3

    def test_exactly_once_release(self):
        counters = np.array([1])
        first = decrement_and_fetch(counters, np.array([0]))
        second = decrement_and_fetch(counters, np.array([0]))
        np.testing.assert_array_equal(first, [0])
        assert second.size == 0  # already released, never again

    def test_empty_batch(self):
        counters = np.array([1, 1])
        released = decrement_and_fetch(counters, np.array([], dtype=np.int64))
        assert released.size == 0
        np.testing.assert_array_equal(counters, [1, 1])

    def test_multiple_targets(self):
        counters = np.array([1, 2, 1, 0])
        released = decrement_and_fetch(counters, np.array([0, 1, 2, 1]))
        np.testing.assert_array_equal(np.sort(released), [0, 1, 2])

    def test_cost_charged(self):
        c = CostModel()
        counters = np.array([10])
        decrement_and_fetch(counters, np.array([0, 0, 0]), cost=c)
        assert c.work == 3


def _daf_reference(counters, targets, cost=None):
    """The original O(n)-per-call implementation, kept as the oracle."""
    targets = np.asarray(targets, dtype=np.int64)
    if cost is not None:
        dec = np.bincount(targets, minlength=1)
        max_coll = int(dec.max()) if dec.size else 1
        cost.scatter_decrement(targets.size, max_coll)
    if targets.size == 0:
        return np.empty(0, dtype=np.int64)
    before_positive = counters > 0
    np.subtract.at(counters, targets, 1)
    hit = np.unique(targets)
    return hit[(counters[hit] <= 0) & before_positive[hit]]


class TestDecrementAndFetchParity:
    @given(st.lists(st.integers(-3, 4), min_size=1, max_size=40),
           st.lists(st.lists(st.integers(0, 39), max_size=30), max_size=5),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, init, batches, crew):
        # Counters may start at zero or below; targets repeat; batches
        # may be empty.  Released sets, counters and books must agree.
        n = len(init)
        got_c = np.array(init, dtype=np.int64)
        ref_c = got_c.copy()
        got_cost, ref_cost = CostModel(crew=crew), CostModel(crew=crew)
        for batch in batches:
            targets = np.array([t % n for t in batch], dtype=np.int64)
            got = decrement_and_fetch(got_c, targets, cost=got_cost)
            ref = _daf_reference(ref_c, targets, cost=ref_cost)
            np.testing.assert_array_equal(got, ref)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got_c, ref_c)
        assert (got_cost.work, got_cost.depth) == (ref_cost.work,
                                                   ref_cost.depth)


class TestFetchAndAdd:
    def test_adds(self):
        counters = np.array([0, 0])
        fetch_and_add(counters, np.array([0, 0, 1]), amount=2)
        np.testing.assert_array_equal(counters, [4, 2])

    def test_empty(self):
        counters = np.array([7])
        fetch_and_add(counters, np.array([], dtype=np.int64))
        assert counters[0] == 7
