"""Independent oracles the benchmark checks the program's outputs with.

Written against raw CSR arrays with NumPy only, so a regression inside
the package (in its own verifier or degeneracy peel) cannot vouch for
itself.
"""

from __future__ import annotations

import numpy as np


def neighbors_of(indptr: np.ndarray, indices: np.ndarray,
                 vs: np.ndarray) -> np.ndarray:
    """Concatenated adjacency rows of the vertices ``vs``."""
    starts = indptr[vs]
    counts = indptr[vs + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    # Position of every arc: its row's start plus its offset in the row.
    offsets = np.arange(total, dtype=np.int64)
    offsets -= np.repeat(np.cumsum(counts) - counts, counts)
    return indices[np.repeat(starts, counts) + offsets]


def exact_degeneracy(indptr: np.ndarray, indices: np.ndarray) -> int:
    """Degeneracy by batch peeling: raise k to the smallest live degree,
    then strip every vertex of degree <= k until none is left."""
    n = indptr.size - 1
    deg = np.diff(indptr).astype(np.int64)
    alive = np.ones(n, dtype=bool)
    left = n
    k = 0
    while left:
        k = max(k, int(deg[alive].min()))
        while True:
            drop = np.flatnonzero(alive & (deg <= k))
            if drop.size == 0:
                break
            alive[drop] = False
            left -= drop.size
            deg -= np.bincount(neighbors_of(indptr, indices, drop),
                               minlength=n)
    return k


def coloring_problem(indptr: np.ndarray, indices: np.ndarray,
                     colors) -> str | None:
    """None when ``colors`` properly colors the graph, else the reason."""
    colors = np.asarray(colors)
    n = indptr.size - 1
    if colors.shape != (n,):
        return f"colors has shape {colors.shape}, graph has {n} vertices"
    if n and colors.min() <= 0:
        return "uncolored vertex"
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    clash = int(np.count_nonzero(colors[src] == colors[indices]))
    if clash:
        return f"{clash // 2} monochromatic edges"
    return None
