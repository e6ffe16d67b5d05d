"""Graph-theoretic properties: degeneracy, coreness, components, stats.

The exact degeneracy / coreness computation is the Matula-Beck peeling
(paper SS II-B): iteratively remove a minimum-degree vertex.  It doubles
as the oracle for the SL ordering and for verifying ADG's approximation
guarantee in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..primitives import native
from .csr import CSRGraph


@dataclass(frozen=True)
class PeelResult:
    """Output of the exact min-degree peeling.

    ``order[i]`` is the i-th removed vertex; ``coreness[v]`` is the
    largest k such that v lies in a k-core; ``degeneracy`` is
    max(coreness).  The *degeneracy ordering* ranks vertices by removal
    time (earlier removal = lower rank), so each vertex has at most d
    higher-ranked neighbors.
    """

    order: np.ndarray
    coreness: np.ndarray
    degeneracy: int


def peel_degeneracy(g: CSRGraph) -> PeelResult:
    """O(n + m) bucket-queue peeling (Matula & Beck).

    Removes a minimum-degree vertex at every step; the running maximum
    of the removal degrees is the degeneracy, and the removal degree
    capped by that maximum is the coreness.  Runs the C peel of the
    package's native library (:mod:`repro.primitives.native`) when it
    builds, else the identical Python loop.
    """
    if g.n == 0:
        return PeelResult(order=np.empty(0, dtype=np.int64),
                          coreness=np.empty(0, dtype=np.int64), degeneracy=0)
    out = _peel_c(g)
    return out if out is not None else _peel_python(g)


def _peel_c(g: CSRGraph) -> PeelResult | None:
    """The native peel, or None when the library is unavailable."""
    fn = native.function("peel")
    if fn is None:
        return None
    n = g.n
    indptr = np.ascontiguousarray(g.indptr, dtype=np.int64)
    indices = np.ascontiguousarray(g.indices, dtype=np.int64)
    # The C loop indexes without bounds checks: refuse rows or ids
    # that would send it outside the arrays.
    if indptr[0] != 0 or indptr[-1] != indices.size \
            or np.any(indptr[1:] < indptr[:-1]):
        raise ValueError("indptr does not describe the neighbor array")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError("neighbor id out of range")
    max_deg = g.max_degree
    coreness = np.array(g.degrees, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    bins = np.empty(max_deg + 1, dtype=np.int64)
    d = fn(n, indptr.ctypes.data, indices.ctypes.data, max_deg,
           coreness.ctypes.data, order.ctypes.data, pos.ctypes.data,
           bins.ctypes.data)
    return PeelResult(order=order, coreness=coreness, degeneracy=int(d))


def _peel_python(g: CSRGraph) -> PeelResult:
    """The pure-Python peel: the fallback without a C compiler and the
    parity oracle for :func:`_peel_c`."""
    n = g.n
    deg = g.degrees.tolist()
    max_deg = max(deg) if n else 0

    # Batagelj-Zaversnik bucket queue: ``vert`` holds vertices sorted by
    # current degree, ``bins[d]`` is the first index of the degree-d
    # bucket, and a decrement is an O(1) swap with the bucket head.
    counts = [0] * (max_deg + 1)
    for d in deg:
        counts[d] += 1
    bins = [0] * (max_deg + 2)
    for d in range(max_deg + 1):
        bins[d + 1] = bins[d] + counts[d]
    bins = bins[:-1]
    vert = [0] * n
    pos = [0] * n
    fill = bins.copy()
    for v in range(n):
        pos[v] = fill[deg[v]]
        vert[pos[v]] = v
        fill[deg[v]] += 1

    indptr = g.indptr
    indices = g.indices.tolist()
    for i in range(n):
        v = vert[i]
        dv = deg[v]
        for j in range(indptr[v], indptr[v + 1]):
            u = indices[j]
            du = deg[u]
            if du > dv:
                pu = pos[u]
                pw = bins[du]
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bins[du] += 1
                deg[u] = du - 1

    order = np.asarray(vert, dtype=np.int64)
    coreness = np.asarray(deg, dtype=np.int64)
    degeneracy = int(coreness.max()) if n else 0
    return PeelResult(order=order, coreness=coreness, degeneracy=degeneracy)


def degeneracy(g: CSRGraph) -> int:
    """d(G): the smallest s such that G is s-degenerate."""
    return peel_degeneracy(g).degeneracy


def coreness(g: CSRGraph) -> np.ndarray:
    """Per-vertex coreness (k-core numbers)."""
    return peel_degeneracy(g).coreness


def connected_components(g: CSRGraph) -> np.ndarray:
    """Component label per vertex, via BFS over CSR (labels are 0-based)."""
    labels = np.full(g.n, -1, dtype=np.int64)
    current = 0
    for s in range(g.n):
        if labels[s] != -1:
            continue
        labels[s] = current
        frontier = np.asarray([s], dtype=np.int64)
        while frontier.size:
            seg, nbrs = g.batch_neighbors(frontier)
            fresh = np.unique(nbrs[labels[nbrs] == -1])
            labels[fresh] = current
            frontier = fresh
        current += 1
    return labels


def num_components(g: CSRGraph) -> int:
    """Number of connected components (0 for the empty graph)."""
    if g.n == 0:
        return 0
    return int(connected_components(g).max()) + 1


def is_bipartite(g: CSRGraph) -> bool:
    """Two-colorability check via BFS layering."""
    color = np.full(g.n, -1, dtype=np.int8)
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        frontier = np.asarray([s], dtype=np.int64)
        while frontier.size:
            seg, nbrs = g.batch_neighbors(frontier)
            same = color[nbrs] == color[frontier[seg]]
            if np.any(same):
                return False
            fresh_mask = color[nbrs] == -1
            fresh = nbrs[fresh_mask]
            color[fresh] = 1 - color[frontier[seg[fresh_mask]]]
            frontier = np.unique(fresh)
    return True


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics reported by the dataset registry."""

    name: str
    n: int
    m: int
    max_degree: int
    min_degree: int
    avg_degree: float
    degeneracy: int

    @property
    def degeneracy_to_sqrt_m(self) -> float:
        """d / sqrt(m): the paper proves this is <= 2 (Lemma 13)."""
        if self.m == 0:
            return 0.0
        return self.degeneracy / float(np.sqrt(self.m))


def stats(g: CSRGraph) -> GraphStats:
    """Compute the summary statistics of a graph."""
    return GraphStats(
        name=g.name, n=g.n, m=g.m,
        max_degree=g.max_degree, min_degree=g.min_degree,
        avg_degree=g.avg_degree, degeneracy=degeneracy(g),
    )
