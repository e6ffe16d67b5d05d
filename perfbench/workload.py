"""One workload process: set-up, closed-loop requests, checks.

``run.py`` starts this file once per set-up sample (``--role setup``)
and once for the measured run (``--role main``); it prints one JSON
line.  Set-up time is counted from ``--spawn-t``, the parent's
``time.monotonic()`` just before it started this process, to the
moment the first timed request could go out, so it includes
interpreter start and ``import repro``.

Inputs come from ``--seed`` alone; the program only ever sees the
generated files, graphs and request script.
"""

from __future__ import annotations

import time

T_ENTRY = time.monotonic()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from wrappers import (  # noqa: E402
    Layers,
    install_cli_layers,
    install_ingest_layer,
    install_service_layers,
    install_setup_layers,
)

#: Graph sizes per workload; ``tiny`` is the seconds-long smoke size.
#: The CLI graph is sized so that one request takes about 0.3 s: the
#: gated latency is a low percentile of a run's requests, and on a
#: shared host that is steady only over many short requests (see
#: README.md).
SIZES = {
    "full": {"kron-jp-warm": {"scale": 14, "edge_factor": 16},
             "svc-delta-mix": {"scale": 15, "edge_factor": 16}},
    "tiny": {"kron-jp-warm": {"scale": 10, "edge_factor": 8},
             "svc-delta-mix": {"scale": 9, "edge_factor": 8}},
}
EPS = 0.01
#: One block of the svc-delta-mix script, its units shuffled per block:
#: 75% single-edge deltas (14 adds to 1 delete), 10% 64-edge batches,
#: 10% colors (a pair: a miss, then a cache hit) and 5% verifies.  The
#: delete and the verify each peel the graph and the first color runs a
#: full solve, so 3 ops in 20 are slow.  With two clients a reply also
#: waits for the op ahead of it, so the fast tenth of single-edge
#: delta replies is a delta behind another delta.
SVC_BLOCK = ["add"] * 14 + ["del", "batch", "batch", "color2", "verify"]
#: Script blocks per requested second (closed loop, so the script, not
#: the clock, fixes which ops run).
SVC_BLOCKS_PER_SECOND = 0.6
SVC_CLIENTS = 2
SVC_WORKERS = 2
SVC_BATCH_EDGES = 64
#: Minimum timed requests of a CLI workload, however short --seconds.
MIN_REQUESTS = 3
EXPECTED = {"backend": "serial", "kernel_tier": "numpy", "parser": "c"}


def quantile(values, q: float) -> float:
    """The q-quantile in the same convention as statistics.quantiles."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])


def latency_record(lat, wall: float) -> dict:
    """Latency figures printed for reading but not gated: on a shared
    host a run's median and tail move with the host's speed, while its
    fast requests (``latency_s.p10``) repeat between runs."""
    return {"p50": quantile(lat, 0.5), "p90": quantile(lat, 0.9),
            "requests_per_s": len(lat) / wall, "samples": len(lat)}


class Failures:
    """Every failed check, kept with its reason; none is dropped."""

    def __init__(self) -> None:
        self.reasons: list[str] = []
        self.failed = 0

    def request(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.reasons.extend(problems)

    def run(self, problem: str | None) -> None:
        """A check of the whole run; each counts as one more failure."""
        if problem:
            self.failed += 1
            self.reasons.append(problem)


def pause() -> None:
    """Tell run.py this process is idle between two timed segments and
    wait until it says go (it runs a set-up sample meanwhile)."""
    print("pause", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("run.py went away during a pause")


def import_repro(extra: str) -> dict:
    """``import repro`` plus the entry module a workload drives."""
    import importlib

    before = len(sys.modules)
    t0 = time.perf_counter()
    importlib.import_module("repro")
    importlib.import_module(extra)
    return {"import.wall_s": time.perf_counter() - t0,
            "import.modules": len(sys.modules) - before}


# -- CLI workload ------------------------------------------------------------

def cli_setup(size: dict, seed: int, work: str, layers: Layers | None):
    """Generate the input file; returns (argv, generated graph, imports)."""
    imports = import_repro("repro.cli")
    if layers is not None:
        install_setup_layers(layers)
        layers.install()
    import repro.graphs.generators as gen
    import repro.graphs.io as gio

    g = gen.kronecker(size["scale"], size["edge_factor"], seed=seed)
    path = os.path.join(work, "kron.npz")
    gio.save_npz(g, path)
    argv = ["color", "--graph", path, "--algorithm", "JP-ADG"]
    if layers is not None:
        layers.uninstall()
    argv += ["--seed", str(seed), "--eps", str(EPS), "--json"]
    return argv, g, imports


def cli_request(argv, captured: list):
    """One in-process CLI call; returns (wall, JSON row or error)."""
    import repro.cli

    captured.clear()
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = repro.cli.main(argv)
        row = json.loads(buf.getvalue().strip().splitlines()[-1])
    except Exception as exc:  # a failed request is counted, never fatal
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if rc != 0:
        return wall, f"exit code {rc}"
    return wall, row


def check_cli_row(row, captured: list, expect: dict) -> list[str]:
    """Every check one CLI request must pass; returns the failures."""
    if isinstance(row, str):
        return [row]
    problems = []
    if row.get("colors", 1 << 62) > expect["bound"]:
        problems.append(f"{row.get('colors')} colors > bound "
                        f"{expect['bound']} (d={expect['degeneracy']})")
    if row.get("degeneracy") != expect["degeneracy"]:
        problems.append(f"reported degeneracy {row.get('degeneracy')} "
                        f"!= {expect['degeneracy']}")
    if not captured:
        return ["no coloring result captured"]
    g, res = captured[-1]
    if g.content_digest != expect["digest"]:
        problems.append(f"loaded graph digest {g.content_digest} != "
                        f"generated {expect['digest']}")
    bad = checks.coloring_problem(g.indptr, g.indices, res.colors)
    if bad:
        problems.append(f"invalid coloring: {bad}")
    if row.get("colors") != int(np.max(res.colors, initial=0)):
        problems.append("reported colors differ from the coloring")
    if row.get("algorithm") != expect["algorithm"]:
        problems.append(f"algorithm {row.get('algorithm')!r}")
    for key in ("backend", "kernel_tier"):
        if row.get(key) != EXPECTED[key]:
            problems.append(f"{key} {row.get(key)!r} != {EXPECTED[key]!r}")
    return problems


def run_cli(args, size: dict, work: str) -> dict:
    trace = args.trace == 1
    layers = Layers() if trace else None
    argv, g, imports = cli_setup(size, args.seed, work, layers)
    import repro.cli

    # Keep the CLI's coloring result for the validity check; this is a
    # capture, not a timer, and stays in place on untraced requests.
    captured: list = []
    engine = repro.cli.color

    def capture(name, graph, *a, **kw):
        res = engine(name, graph, *a, **kw)
        captured.append((graph, res))
        return res

    repro.cli.color = capture
    # One warm-up request belongs to set-up: it pays every lazy import
    # and first-use cost on the request path, so none lands in a timed
    # request.
    _, warm_row = cli_request(argv, captured)
    warm_result = list(captured)
    setup_s = time.monotonic() - args.spawn_t
    if args.role == "setup":
        return {"setup_s": setup_s}

    from repro.analysis.bounds import GraphParams, quality_bound

    algorithm = argv[argv.index("--algorithm") + 1]
    expect_digest = g.content_digest
    # The quality bound rests on an exact degeneracy from the
    # benchmark's own peel, computed before the timed loop.
    d = checks.exact_degeneracy(g.indptr, g.indices)
    bound = quality_bound(algorithm, GraphParams(
        n=g.n, m=g.m, max_degree=g.max_degree, degeneracy=d), EPS)
    expect = {"digest": expect_digest, "algorithm": algorithm,
              "degeneracy": d, "bound": bound}
    if trace:
        install_cli_layers(layers)

    fails = Failures()
    fails.run("; ".join(f"warm-up request: {p}" for p in
                        check_cli_row(warm_row, warm_result, expect))
              or None)
    captured.clear()
    walls = {"untraced": [], "traced": []}
    per_request: list[dict] = []
    rows = []

    def cli_step(i: int) -> None:
        """One timed request; with tracing every second one is traced."""
        traced = trace and i % 2 == 1
        if traced:
            before = layers.snapshot()
            n_reports = len(layers.reports)
            layers.install()
        wall, row = cli_request(argv, captured)
        if traced:
            layers.uninstall()
            after = layers.snapshot()
            per_request.append({
                "wall": wall,
                "calls": {k: v - before[0].get(k, 0)
                          for k, v in after[0].items()},
                "walls": {k: v - before[1].get(k, 0.0)
                          for k, v in after[1].items()},
                "report": layers.reports[n_reports:],
                "result": captured[-1][1] if captured else None,
            })
        walls["traced" if traced else "untraced"].append(wall)
        fails.request(check_cli_row(row, captured, expect))
        if not isinstance(row, str):
            rows.append(row)
        captured.clear()

    timed_wall = 0.0
    i = 0
    per_segment = -(-MIN_REQUESTS // args.segments) * (2 if trace else 1)
    for seg in range(args.segments):
        if seg:
            pause()
        t_seg = time.perf_counter()
        first = i
        while i - first < per_segment or \
                time.perf_counter() - t_seg < args.seconds / args.segments:
            cli_step(i)
            i += 1
        timed_wall += time.perf_counter() - t_seg
    peak_kb = _peak_rss_kb()

    # Exact counts must not vary between identical requests.
    for key in ("colors", "rounds", "work", "depth"):
        if len({row.get(key) for row in rows}) > 1:
            fails.run(f"{key} varies between identical requests")

    env = {"backend": rows[0]["backend"] if rows else None,
           "kernel_tier": rows[0]["kernel_tier"] if rows else None}

    lat = walls["untraced"]
    out = {
        "setup_s": setup_s,
        "attempted": i,
        "failed": fails.failed,
        "problems": fails.reasons,
        "env": env,
        "counts": {"colors": rows[0]["colors"] if rows else 0,
                   "rounds": rows[0]["rounds"] if rows else 0,
                   "work": rows[0]["work"] if rows else 0,
                   "degeneracy": d, "bound": bound,
                   "input_digest": expect_digest},
        "metrics": {
            "latency_s.p10": quantile(lat, 0.1),
            "colors": rows[0]["colors"] if rows else 0,
            "peak_rss_mb": peak_kb / 1024.0,
        },
        "latency": latency_record(lat, sum(lat)),
        "timed_wall_s": timed_wall,
    }
    if trace:
        out["layers"] = cli_layer_metrics(per_request, walls, imports,
                                          layers)
    return out


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def cli_layer_metrics(per_request, walls, imports, layers) -> dict:
    def per_req(kind: str, metric: str) -> float:
        return _mean(p[kind].get(metric, 0) for p in per_request)

    def phase(key: str) -> float:
        return _mean(p["result"].phase_walls.get(key, 0.0)
                     for p in per_request if p["result"] is not None)

    results = [p["result"] for p in per_request if p["result"] is not None]
    top = ("graphs.ingest", "graphs.io.load_npz", "coloring.color",
           "coloring.verify", "graphs.degeneracy")
    unattributed = _mean(
        1.0 - sum(p["walls"].get(k, 0.0) for k in top) / p["wall"]
        for p in per_request)
    out = dict(imports)
    out.update(setup_layer_metrics(layers))
    out.update(ingest_metrics([r for p in per_request for r in p["report"]],
                              per_req("walls", "graphs.ingest")))
    out.update({
        "graphs.io.load_npz.wall_s": per_req("walls", "graphs.io.load_npz"),
        "graphs.degeneracy.calls": per_req("calls", "graphs.degeneracy"),
        "graphs.degeneracy.wall_s": per_req("walls", "graphs.degeneracy"),
        "ordering.adg.wall_s": _mean(r.reorder_wall_seconds
                                     for r in results),
        "coloring.color.wall_s": per_req("walls", "coloring.color"),
        "coloring.jp.color_s": phase("jp:color"),
        "coloring.jp.dag_s": phase("jp:dag"),
        "coloring.itr.color_s": phase("dec-itr:color"),
        "coloring.rounds": _mean(r.rounds for r in results),
        "coloring.work": _mean(r.total_work for r in results),
        "coloring.depth": _mean(r.total_depth for r in results),
        "primitives.decrement_and_fetch.calls":
            per_req("calls", "primitives.decrement_and_fetch"),
        "primitives.decrement_and_fetch.wall_s":
            per_req("walls", "primitives.decrement_and_fetch"),
        "runtime.map_chunks.calls": per_req("calls", "runtime.map_chunks"),
        "runtime.map_chunks.wall_s": per_req("walls", "runtime.map_chunks"),
        "coloring.verify.wall_s": per_req("walls", "coloring.verify"),
        "bench.unattributed_frac": unattributed,
        "bench.trace_overhead_frac":
            quantile(walls["traced"], 0.1)
            / quantile(walls["untraced"], 0.1) - 1.0,
    })
    return out


def ingest_metrics(reports: list[dict], wall_s: float) -> dict:
    """The ingest layer: its wall plus means over its reports' phases."""
    def mean(key: str, sub: str | None = None) -> float:
        vals = [r.get(key, {}).get(sub, 0.0) if sub else r.get(key, 0.0)
                for r in reports]
        return _mean(vals)

    return {"graphs.ingest.wall_s": wall_s,
            "graphs.ingest.parse_s": mean("phase_walls", "ingest.parse"),
            "graphs.ingest.count_s": mean("phase_walls", "ingest.count"),
            "graphs.ingest.scatter_s": mean("phase_walls", "ingest.scatter"),
            "graphs.ingest.compact_s": mean("phase_walls", "ingest.compact"),
            "graphs.ingest.edges_per_s": mean("edges_per_s")}


def setup_layer_metrics(layers: Layers) -> dict:
    return {"graphs.generators.wall_s": layers.wall.get("graphs.generators",
                                                        0.0),
            "graphs.from_edges.wall_s": layers.wall.get("graphs.from_edges",
                                                        0.0)}


# -- service workload --------------------------------------------------------

def make_script(n: int, blocks: int, seed: int) -> list[dict]:
    """The seeded svc-delta-mix request script.

    Op 0 is the single-edge delta that builds the incremental engine
    (part of set-up); then come ``blocks`` shuffles of
    :data:`SVC_BLOCK`, so every seed runs the same mix of ops; the last
    op is a ``verify``.  A delete removes an edge that an earlier op
    added and no op has removed since, so it exists at that point.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EC]))
    live: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    algo = {"algorithm": "DEC-ADG-ITR", "eps": EPS, "seed": seed}

    def new_edge() -> list[int]:
        while True:
            u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
            if (u, v) not in seen:
                break
        seen.add((u, v))
        live.append((u, v))
        return [u, v]

    def delta(**edges) -> dict:
        return {"op": "apply_delta", "graph": "g", "delta": edges, **algo}

    script = [delta(add_edges=[new_edge()])]
    for _ in range(blocks):
        for kind in rng.permutation(SVC_BLOCK):
            if kind == "del":
                u, v = live.pop(int(rng.integers(len(live))))
                seen.discard((u, v))
                script.append(delta(remove_edges=[[u, v]]))
            elif kind == "add":
                script.append(delta(add_edges=[new_edge()]))
            elif kind == "batch":
                script.append(delta(add_edges=[
                    new_edge() for _ in range(SVC_BATCH_EDGES)]))
            elif kind == "color2":
                script += [{"op": "color", "graph": "g", **algo}
                           for _ in range(2)]
            else:
                script.append({"op": "verify", "graph": "g", **algo})
    script.append({"op": "verify", "graph": "g", **algo})
    return script


def svc_graph(size: dict, seed: int):
    """The service's graph: the seeded Kronecker graph plus the path
    0-1-...-(n-1).  With no isolated vertex, every id 0..n-1 appears in
    the edge list, so the ingest's id compaction keeps every id."""
    import repro.graphs.generators as gen

    g = gen.kronecker(size["scale"], size["edge_factor"], seed=seed)
    src = np.repeat(np.arange(g.n), np.diff(g.indptr))
    ids = np.arange(g.n)
    return gen.from_edges(np.concatenate([src, ids[:-1]]),
                          np.concatenate([g.indices, ids[1:]]), n=g.n)


def svc_input(size: dict, seed: int, work: str) -> str:
    """The service's graph, written as a text edge list; its path."""
    from repro.graphs.io import write_edge_list

    path = os.path.join(work, "kron.txt")
    write_edge_list(svc_graph(size, seed), path)
    return path


async def svc_setup(path: str, script: list[dict]):
    """Service up, graph loaded, incremental engine built by op 0."""
    from repro.service.server import ColoringService

    svc = ColoringService(workers=SVC_WORKERS)
    await svc.start()
    # A small second graph loads alongside, so both engine threads start
    # here.  Otherwise whether the executor ever starts its second thread
    # is a race, and that thread's scratch buffers move peak RSS by ~18 MB.
    # The main graph loads by path, so the streaming ingest parses it
    # (its binary cache is off in the workload processes).
    loaded, _ = await asyncio.gather(
        svc.submit({"op": "load", "graph": "g", "path": path}),
        svc.submit({"op": "load", "graph": "side",
                    "gen": {"kind": "ring", "n": 64}}))
    first = await svc.submit(script[0])
    return svc, [loaded, first]


async def svc_drive(svc, script: list[dict], segments: int):
    """Closed loop: each client sends the next script op once its
    previous reply is in.  Submission order is script order, and the
    service's per-graph FIFO makes it the execution order too.  The
    script runs in ``segments`` parts with a :func:`pause` between
    them; the returned wall adds up the parts."""
    replies: list = [None] * len(script)
    lat: list = [None] * len(script)
    cuts = np.linspace(1, len(script), segments + 1).round().astype(int)
    wall = 0.0
    for seg in range(segments):
        if seg:
            pause()
        cursor = iter(range(cuts[seg], cuts[seg + 1]))

        async def client() -> None:
            for i in cursor:
                t0 = time.perf_counter()
                replies[i] = await svc.submit(script[i])
                lat[i] = time.perf_counter() - t0

        t0 = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(SVC_CLIENTS)))
        wall += time.perf_counter() - t0
    return replies, lat, wall


def check_svc(size: dict, seed: int, script, setup_replies, replies,
              fails: Failures) -> dict:
    """Replay the script's deltas functionally and hold every reply to
    the replayed graph; returns the final graph's facts."""
    from repro.analysis.bounds import GraphParams, quality_bound
    from repro.graphs.delta import GraphDelta, apply_delta

    g = svc_graph(size, seed)
    loaded, first = setup_replies
    if not loaded.get("ok") or loaded.get("digest") != g.content_digest:
        fails.run(f"load reply {loaded}")
    replies = [first] + replies[1:]
    tiers = set()
    for i, (op, reply) in enumerate(zip(script, replies)):
        problems = []
        if not reply or not reply.get("ok"):
            fails.request([f"op {i} ({op['op']}) failed: {reply}"])
            continue
        if op["op"] == "apply_delta":
            d = op["delta"]

            def pairs(key):
                if key not in d:
                    return None
                return np.asarray(d[key], np.int64).reshape(-1, 2)

            g = apply_delta(g, GraphDelta(
                add_edges=pairs("add_edges"),
                remove_edges=pairs("remove_edges"))).graph
        elif op["op"] == "verify":
            if not (reply.get("valid") and reply.get("within_bound")):
                problems.append(f"op {i} verify {reply}")
        elif op["op"] == "color":
            block = reply.get("result", {})
            tiers.add(block.get("kernel_tier"))
            if block.get("kernel_tier") != EXPECTED["kernel_tier"]:
                problems.append(f"op {i} kernel tier "
                                f"{block.get('kernel_tier')!r}")
            if block.get("digest") != g.content_digest:
                problems.append(f"op {i} colored digest "
                                f"{block.get('digest')} != replay "
                                f"{g.content_digest}")
        if op["op"] != "color" and reply.get("digest") != g.content_digest:
            problems.append(f"op {i} digest {reply.get('digest')} != "
                            f"replay {g.content_digest}")
        if i > 0:
            fails.request(problems)
        else:
            fails.run("; ".join(problems) or None)
    final = replies[-1] or {}
    d = checks.exact_degeneracy(g.indptr, g.indices)
    bound = quality_bound("DEC-ADG-ITR", GraphParams(
        n=g.n, m=g.m, max_degree=g.max_degree, degeneracy=d), EPS)
    if final.get("degeneracy") != d:
        fails.run(f"final verify degeneracy {final.get('degeneracy')} "
                  f"!= {d}")
    if not final.get("colors") or final["colors"] > bound:
        fails.run(f"final colors {final.get('colors')} > bound {bound}")
    return {"digest": g.content_digest, "degeneracy": d, "bound": bound,
            "kernel_tier": "+".join(sorted(map(str, tiers)))}


async def svc_pass(args, size: dict, script, layers: Layers | None):
    """Set up a fresh service and run the script once through it."""
    imports = import_repro("repro.service.server")
    dispatch: dict[int, float] = {}
    if layers is not None:
        install_setup_layers(layers)
        install_ingest_layer(layers)
        install_service_layers(
            layers, lambda a, out, dt: dispatch.__setitem__(id(a[2]), dt))
        layers.install()
    path = svc_input(size, args.seed, args.work)
    svc, setup_replies = await svc_setup(path, script)
    setup_s = time.monotonic() - args.spawn_t
    if args.role == "setup":
        await svc.stop()
        return {"setup_s": setup_s}
    entry = svc.graphs["g"]
    stats0 = dict(entry.incremental.stats)
    cache0 = svc.cache.stats()
    calls0 = layers.snapshot() if layers is not None else None
    replies, lat, timed_wall = await svc_drive(svc, script, args.segments)
    if layers is not None:
        layers.uninstall()
    stats1 = dict(entry.incremental.stats)
    cache1 = svc.cache.stats()
    await svc.stop()
    return {"setup_s": setup_s, "imports": imports, "path": path,
            "setup_replies": setup_replies, "replies": replies,
            "lat": lat, "timed_wall": timed_wall,
            "inc": {k: stats1[k] - stats0.get(k, 0) for k in stats1},
            "hits": cache1["hits"] - cache0["hits"],
            "misses": cache1["misses"] - cache0["misses"],
            "dispatch": [dispatch.get(id(op)) for op in script],
            "calls0": calls0}


def single_edge_latencies(script: list[dict], lat: list) -> list[float]:
    """Reply latencies of the timed single-edge deltas, the mix's main
    request.  ``latency_s.p10`` is taken over these alone: cache hits
    reply in well under a millisecond when the queue is empty, so a low
    percentile over all replies would mix hits and deltas."""
    return [t for op, t in zip(script[1:], lat[1:])
            if op["op"] == "apply_delta"
            and sum(len(e) for e in op["delta"].values()) == 1]


def run_svc(args, size: dict) -> dict:
    blocks = max(1, round(args.seconds * SVC_BLOCKS_PER_SECOND))
    script = make_script(1 << size["scale"], blocks, args.seed)
    trace = args.trace == 1
    if args.role == "setup":
        return asyncio.run(svc_pass(args, size, script, None))
    plain = asyncio.run(svc_pass(args, size, script, None))
    traced = None
    layers = None
    if trace:
        layers = Layers()
        traced = asyncio.run(svc_pass(args, size, script, layers))
    peak_kb = _peak_rss_kb()

    fails = Failures()
    facts = check_svc(size, args.seed, script, plain["setup_replies"],
                      plain["replies"], fails)
    if traced is not None and \
            traced["replies"][-1].get("digest") != facts["digest"]:
        fails.run("traced pass ended on another graph")
    if trace:
        reports = layers.reports
    else:
        from repro.graphs.ingest import ingest_report
        reports = [ingest_report(plain["path"], cache=False)[1]]
    parsers = sorted({str(r.get("parser_used")) for r in reports})
    if parsers != [EXPECTED["parser"]]:
        fails.run(f"ingest parser {parsers} != {EXPECTED['parser']!r}")
    lat = plain["lat"][1:]
    single = single_edge_latencies(script, plain["lat"])
    final = plain["replies"][-1] or {}
    out = {
        "setup_s": plain["setup_s"],
        "attempted": len(script) - 1,
        "failed": fails.failed,
        "problems": fails.reasons,
        "env": {"backend": EXPECTED["backend"],
                "kernel_tier": facts["kernel_tier"],
                "parser_used": "+".join(parsers)},
        "counts": {"colors": final.get("colors", 0),
                   "degeneracy": facts["degeneracy"],
                   "bound": facts["bound"], "ops": len(script),
                   "input_digest": plain["setup_replies"][0].get("digest"),
                   "final_digest": facts["digest"]},
        "metrics": {
            "latency_s.p10": quantile(single, 0.1),
            "colors": final.get("colors", 0),
            "peak_rss_mb": peak_kb / 1024.0,
        },
        "latency": latency_record(lat, plain["timed_wall"]),
        "timed_wall_s": plain["timed_wall"],
    }
    if trace:
        out["layers"] = svc_layer_metrics(traced, layers, single,
                                          single_edge_latencies(
                                              script, traced["lat"]),
                                          plain["imports"])
    return out


def svc_layer_metrics(traced: dict, layers: Layers, plain_single,
                      traced_single, imports: dict) -> dict:
    calls0, walls0 = traced["calls0"]
    nreq = len(traced["lat"]) - 1

    def per_req(kind: str, metric: str) -> float:
        now = layers.calls if kind == "calls" else layers.wall
        base = calls0 if kind == "calls" else walls0
        return (now.get(metric, 0) - base.get(metric, 0)) / nreq

    lat = traced["lat"][1:]
    waits = [w - d for w, d in zip(lat, traced["dispatch"][1:])
             if d is not None]
    apply_samples = layers.samples.get("graphs.delta.apply", [])
    # The first apply belongs to set-up (op 0 builds the engine).
    apply_samples = apply_samples[calls0.get("graphs.delta.apply", 0):]
    dispatch_total = sum(d for d in traced["dispatch"][1:] if d is not None)
    hits, misses = traced["hits"], traced["misses"]
    results = layers.results
    out = dict(imports)
    out.update(setup_layer_metrics(layers))
    # The service ingests its graph once, at set-up: totals, not per op.
    out.update(ingest_metrics(layers.reports,
                              layers.wall.get("graphs.ingest", 0.0)))
    out.update({
        "graphs.degeneracy.calls": per_req("calls", "graphs.degeneracy"),
        "graphs.degeneracy.wall_s": per_req("walls", "graphs.degeneracy"),
        "ordering.adg.wall_s":
            sum(r.reorder_wall_seconds for r in results) / nreq,
        "coloring.color.wall_s": per_req("walls", "coloring.color"),
        "coloring.itr.color_s":
            sum(r.phase_walls.get("dec-itr:color", 0.0)
                for r in results) / nreq,
        "coloring.rounds": _mean(r.rounds for r in results),
        "coloring.work": _mean(r.total_work for r in results),
        "coloring.depth": _mean(r.total_depth for r in results),
        "primitives.grouped_mex.calls":
            per_req("calls", "primitives.grouped_mex"),
        "primitives.grouped_mex.wall_s":
            per_req("walls", "primitives.grouped_mex"),
        "coloring.verify.wall_s": per_req("walls", "coloring.verify"),
        "graphs.delta.apply_s.p50":
            quantile(apply_samples, 0.5) if apply_samples else 0.0,
        "coloring.incremental.repaired": traced["inc"]["repaired"],
        "coloring.incremental.full_recomputes":
            traced["inc"]["full_recomputes"],
        "coloring.incremental.certified_peel":
            traced["inc"]["certified_peel"],
        "service.cache.hit_ratio": hits / max(hits + misses, 1),
        "service.queue_wait_s.p50": quantile(waits, 0.5) if waits else 0.0,
        "bench.unattributed_frac": 1.0 - dispatch_total
        / traced["timed_wall"],
        "bench.trace_overhead_frac":
            quantile(traced_single, 0.1)
            / quantile(plain_single, 0.1) - 1.0,
    })
    return out


def _peak_rss_kb() -> int:
    from repro.obs.resources import peak_rss_kb
    return peak_rss_kb()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "main"), default="main")
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawn-t", dest="spawn_t", type=float, default=None)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--segments", type=int, default=1,
                    help="split the timed requests into this many parts, "
                         "with a pause() between two")
    args = ap.parse_args(argv)
    if args.spawn_t is None:
        args.spawn_t = T_ENTRY
    size = SIZES[args.size][args.workload]
    os.makedirs(args.work, exist_ok=True)
    if args.workload == "svc-delta-mix":
        out = run_svc(args, size)
    else:
        out = run_cli(args, size, args.work)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
