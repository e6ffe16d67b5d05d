"""Atomic read-modify-write primitives of the CRCW setting (paper SS II-D).

``DecrementAndFetch`` (DAF) atomically decrements and returns the new
value; ``Join`` releases a waiter when its counter hits zero (used by JP
to detect that all predecessors of a vertex are colored, Alg. 3 line 22).
In the vectorized implementation a whole batch of DAFs is applied with a
scatter-add; ties are resolved exactly as hardware atomics would —
each counter reaches zero exactly once.
"""

from __future__ import annotations

import numpy as np

from ..machine.costmodel import CostModel


def decrement_and_fetch(counters: np.ndarray, targets: np.ndarray,
                        cost: CostModel | None = None) -> np.ndarray:
    """Apply one DAF per entry of ``targets`` (duplicates allowed), in place.

    Returns the indices whose counter reached exactly zero as a result of
    this batch — the set of vertices ``Join`` would release.  A vertex
    already at zero before the batch is *not* returned (it was released
    earlier), matching the exactly-once semantics of DAF+Join.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        return np.empty(0, dtype=np.int64)
    # Everything below is sized by the batch, never by the counter
    # array, so a wave costs O(batch) as the cost book charges it.
    hit, mult = np.unique(targets, return_counts=True)
    if cost is not None:
        cost.scatter_decrement(targets.size, int(mult.max()))
    after = counters[hit] - mult
    counters[hit] = after
    # Released: positive before this batch, non-positive after it.
    return hit[(after <= 0) & (after + mult > 0)]


def fetch_and_add(counters: np.ndarray, targets: np.ndarray, amount: int = 1,
                  cost: CostModel | None = None) -> None:
    """Batched atomic add (the dual of DAF), in place."""
    targets = np.asarray(targets, dtype=np.int64)
    if cost is not None:
        cost.scatter_decrement(targets.size)
    if targets.size:
        np.add.at(counters, targets, amount)
