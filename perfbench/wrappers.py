"""Outside-in layer timers: wrappers installed over the package's names.

Each wrapper replaces one public name *where the caller looks it up*
(``repro.cli.degeneracy``, ``repro.coloring.jp.decrement_and_fetch``,
...), so the program itself is never edited and carries no spans.
Wrappers count calls and add up wall time per metric; they are
installed and removed as a set, so requests can alternate between
traced and untraced.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from importlib import import_module as module


class Layers:
    """A set of wrappers plus the per-metric call counts and walls."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.wall: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.reports: list[dict] = []   # ingest reports
        self.results: list = []         # ColoringResults of engine calls
        self._patches: list[tuple[object, str, object, object]] = []
        self._lock = threading.Lock()

    def _record(self, metric: str, dt: float) -> None:
        with self._lock:
            self.calls[metric] += 1
            self.wall[metric] += dt
            self.samples[metric].append(dt)

    def wrap(self, owner, attr: str, metric: str, call=None,
             on_result=None) -> None:
        """Time ``owner.attr`` as ``metric``.

        ``call`` replaces the original callable (same signature), and
        ``on_result(args, result, wall)`` sees every return value.
        """
        orig = getattr(owner, attr)
        target = call or orig
        record = self._record

        if inspect.iscoroutinefunction(orig):
            @functools.wraps(orig)
            async def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    out = await target(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    record(metric, dt)
                if on_result is not None:
                    on_result(args, out, dt)
                return out
        else:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    out = target(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    record(metric, dt)
                if on_result is not None:
                    on_result(args, out, dt)
                return out

        self._patches.append((owner, attr, orig, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    def snapshot(self) -> tuple[dict, dict]:
        with self._lock:
            return dict(self.calls), dict(self.wall)


def install_ingest_layer(layers: Layers) -> None:
    """Time the streaming ingest and keep its reports (phase walls)."""
    # repro.graphs re-exports the function ingest under its module's name.
    ingest_mod = module("repro.graphs.ingest")

    def ingest_via_report(*args, **kwargs):
        # ingest() is ingest_report() minus the report; same arguments.
        g, report = ingest_mod.ingest_report(*args, **kwargs)
        layers.reports.append(report)
        return g

    layers.wrap(ingest_mod, "ingest", "graphs.ingest", call=ingest_via_report)


def install_cli_layers(layers: Layers) -> None:
    """Wrappers for one in-process ``repro.cli.main(["color", ...])``."""
    cli = module("repro.cli")
    jp = module("repro.coloring.jp")
    context = module("repro.runtime.context")

    install_ingest_layer(layers)
    layers.wrap(cli, "load_npz", "graphs.io.load_npz")
    layers.wrap(cli, "color", "coloring.color")
    layers.wrap(cli, "assert_valid_coloring", "coloring.verify")
    layers.wrap(cli, "degeneracy", "graphs.degeneracy")
    layers.wrap(jp, "decrement_and_fetch", "primitives.decrement_and_fetch")
    layers.wrap(context.ExecutionContext, "map_chunks", "runtime.map_chunks")


def install_setup_layers(layers: Layers) -> None:
    """Wrappers around the graph generators and their CSR builder.

    The service imports the generators by name, so its copies are
    wrapped too when the service module is already loaded.
    """
    gen = module("repro.graphs.generators")
    layers.wrap(gen, "from_edges", "graphs.from_edges")
    for owner in (gen, sys.modules.get("repro.service.server")):
        for name in ("kronecker", "gnm_random"):
            if owner is not None and hasattr(owner, name):
                layers.wrap(owner, name, "graphs.generators")


def install_service_layers(layers: Layers, on_dispatch) -> None:
    """Wrappers for the in-process ``ColoringService`` delta mix."""
    inc = module("repro.coloring.incremental")
    repair = module("repro.coloring.repair")
    server = module("repro.service.server")

    layers.wrap(server.ColoringService, "_dispatch", "service.dispatch",
                on_result=on_dispatch)
    layers.wrap(server, "color", "coloring.color",
                on_result=lambda args, res, wall: layers.results.append(res))
    layers.wrap(inc, "apply_delta", "graphs.delta.apply")
    layers.wrap(inc, "peel_degeneracy", "graphs.degeneracy")
    layers.wrap(inc, "is_valid_coloring", "coloring.verify")
    layers.wrap(repair, "grouped_mex", "primitives.grouped_mex")
