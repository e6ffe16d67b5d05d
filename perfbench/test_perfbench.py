"""The benchmark's own tests, on the seconds-long ``tiny`` sizes.

    python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Per-layer metrics that are counts, and so must repeat exactly.
EXACT_LAYERS = (
    "import.modules", "graphs.degeneracy.calls", "coloring.rounds",
    "coloring.work", "coloring.depth",
    "primitives.decrement_and_fetch.calls", "primitives.grouped_mex.calls",
    "runtime.map_chunks.calls", "coloring.incremental.repaired",
    "coloring.incremental.full_recomputes",
    "coloring.incremental.certified_peel", "service.cache.hit_ratio",
)


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def parse(lines):
    counts = json.loads(next(x for x in lines if x.startswith("counts "))[7:])
    return counts, json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced runs on seed 3 and one on seed 4, per workload."""
    out = {}
    for w in run.WORKLOADS:
        out[w] = []
        for seed in (3, 3, 4):
            proc, lines = bench(w, seed, trace=1)
            assert proc.returncode == 0, proc.stderr
            out[w].append(parse(lines))
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc, lines = bench(workload, 1, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = run.metric_units("end_to_end")
    assert set(result["metrics"]) == set(units)
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name]
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_repeats_digests_and_counts(traced, workload):
    (c1, r1), (c2, r2), _ = traced[workload]
    assert c1 == c2
    for name in EXACT_LAYERS:
        assert r1["metrics"][name] == r2["metrics"][name], name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_other_seed_changes_input_digest(traced, workload):
    (c1, _), _, (c3, _) = traced[workload]
    assert c1["input_digest"] != c3["input_digest"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_layer_metric(traced, workload):
    _, result = traced[workload][0]
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.metric_units("per_layer"))


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    assert workloads == list(run.WORKLOADS)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)["metrics"]
    assert list(predictions) == list(run.metric_units("per_layer"))


def test_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("kron-jp-warm", 1, trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(x.startswith("{") for x in lines)


def _peel_reference(adj: list[set]) -> int:
    """Textbook min-degree peeling."""
    adj = [set(a) for a in adj]
    alive = set(range(len(adj)))
    d = 0
    while alive:
        v = min(alive, key=lambda x: len(adj[x]))
        d = max(d, len(adj[v]))
        for u in adj[v]:
            adj[u].discard(v)
        alive.discard(v)
    return d


def _csr(n: int, edges) -> tuple[np.ndarray, np.ndarray, list[set]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(a) for a in adj])
    indices = np.array([v for a in adj for v in sorted(a)], dtype=np.int64)
    return indptr, indices, adj


@pytest.mark.parametrize("seed", range(20))
def test_exact_degeneracy_matches_reference_peel(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    m = int(rng.integers(0, 4 * n))
    edges = rng.integers(0, n, size=(m, 2))
    indptr, indices, adj = _csr(n, edges)
    assert checks.exact_degeneracy(indptr, indices) == _peel_reference(adj)


def test_coloring_problem_flags_conflicts_and_gaps():
    # A triangle plus a pendant vertex.
    indptr, indices, _ = _csr(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert checks.coloring_problem(indptr, indices, [1, 2, 3, 1]) is None
    assert "monochromatic" in checks.coloring_problem(indptr, indices,
                                                      [1, 2, 3, 3])
    assert "uncolored" in checks.coloring_problem(indptr, indices,
                                                  [1, 2, 3, 0])
    assert "shape" in checks.coloring_problem(indptr, indices, [1, 2, 3])
