"""ExecutionContext: the unified per-run execution runtime.

Every algorithm in this library is a sequence of *parallel rounds* over
NumPy arrays.  An :class:`ExecutionContext` bundles everything one run
needs to execute those rounds and account for them:

- a ``backend`` switch (``'serial'``, ``'threaded'`` or ``'process'``)
  with a worker count (argument, else ``$REPRO_WORKERS``, else the CPU
  count);
- the chunked execution machinery (:mod:`repro.machine.parallel`, the
  shared-memory arena and worker pool of :mod:`repro.runtime.shm`)
  behind one :meth:`map_chunks` seam, with optional *work-balanced*
  chunking: engines pass per-item weights (frontier degrees, batch
  degrees) and chunk boundaries come from a prefix-sum split of total
  weight instead of an even split by count;
- *adaptive round dispatch* (:mod:`repro.runtime.adaptive`): on the
  parallel backends each multi-chunk round passes a break-even test —
  an online overhead estimator (per-chunk dispatch cost per backend,
  kernel seconds per work unit, both EWMA-updated and seeded by a
  one-shot calibration) decides whether the round is worth shipping to
  the pool or cheaper to run inline on the coordinator over the same
  chunk plan (``$REPRO_ADAPTIVE``; decisions are counted, traced, and
  summarized by :meth:`dispatch_record`);
- fault tolerance at the same seam (:mod:`repro.runtime.faults`):
  per-chunk retry with capped exponential backoff, a per-round deadline
  that cancels stragglers, dead-worker detection with pool respawn and
  re-dispatch of only the lost chunks, and graceful backend degradation
  (process -> threaded -> serial) once the respawn budget is spent;
- the :class:`~repro.machine.costmodel.CostModel` and
  :class:`~repro.machine.memmodel.MemoryModel` accounting books;
- per-phase wall-clock timers (:meth:`phase`), recording *exclusive*
  (self) time so nested phases never double-count;
- a run tracer (:mod:`repro.obs`): span events per phase, per-chunk
  events with worker ids and an imbalance summary per chunked round,
  and the per-round metric series engines emit.  The default is the
  no-op null tracer — every traced code path branches on
  ``tracer.enabled``, so an untraced run executes exactly the
  pre-tracing instructions.

The contract every engine written against this context obeys: the
parallel backends chunk each round over independent spans and combine
the partial results in deterministic chunk order, so colors, waves, and
the recorded work/depth/memory totals are **bit-identical** to the
serial backend — for any worker count, with weighted chunking on or
off, and under any recovery the fault layer performs.  Chunk kernels
are *pure* (all mutation happens on the coordinator, between rounds, in
chunk order), so re-running a failed chunk, re-dispatching a dead
worker's chunks, or finishing a round on a degraded backend recomputes
exactly the same partial results.  On the serial backend
:meth:`map_chunks` degrades to a single chunk — zero chunking
overhead, exactly the monolithic vectorized round.  Tracing is
observation only: enabling it never changes results or accounting.

Backends:

- ``'serial'`` — one inline chunk per round.
- ``'threaded'`` — a shared :class:`ThreadPoolExecutor`; NumPy kernels
  release the GIL, so chunks overlap inside the C kernels.
- ``'process'`` — a persistent forkserver worker pool plus a
  :class:`~repro.runtime.shm.SharedArena`: the graph and per-run state
  arrays live in shared memory with zero-copy views on both sides, and
  engines describe each round as a picklable
  :class:`~repro.runtime.kernels.Kernel` descriptor (module-level
  kernel + array names + scalars) instead of a closure.  True
  parallelism — no GIL — at the cost of pickling each chunk's result.

Serial and threaded accept plain ``fn(lo, hi)`` closures; the process
backend requires the descriptor form (every engine in this library
passes descriptors, which the other backends simply call inline).

Recovery policy (see DESIGN.md for the full argument):

- A chunk that raises is retried up to ``retries`` times
  (``$REPRO_RETRIES``, default 2) with capped exponential backoff
  (``backoff * 2**(attempt-1)`` seconds, capped at 1s); exhaustion
  raises :class:`ChunkError` naming the (round, chunk) coordinates.
- With a ``round_timeout`` (``$REPRO_ROUND_TIMEOUT``), each dispatch
  wave of a round gets that deadline; stragglers are cancelled,
  counted as ``fault.timeouts``, and retried against the same budget.
- A dead worker (``BrokenProcessPool`` on the process backend, the
  injected :class:`~repro.runtime.faults.WorkerDeath` elsewhere) tears
  the pool down; it is respawned up to ``max_respawns`` times
  (``$REPRO_RESPAWNS``, default 2), then the run *degrades* one
  backend level (process -> threaded -> serial) and finishes there.
  Only the lost chunks are re-dispatched — completed partial results
  and the round's chunk boundaries are kept, so the combine order
  never changes.
- Everything is recorded: ``fault.*`` counters in the metrics
  registry, instant events in the tracer, and the
  :meth:`fault_record` digest engines attach to ``ColoringResult``.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
from concurrent.futures import ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Callable, TypeVar

from ..machine.costmodel import CostModel
from ..machine.memmodel import MemoryModel
from ..machine.parallel import (
    default_workers,
    split_chunks,
    split_chunks_weighted,
)
from ..obs import resolve_tracer
from ..obs.ledger import resolve_ledger, run_record
from ..obs.resources import (
    ResourceSampler,
    merge_worker_probes,
    resolve_resources,
)
from ..primitives.kernels import ScratchArena
from ..primitives.tiers import resolve_kernel_tier, set_kernel_tier
from .adaptive import (
    DispatchEstimator,
    effective_parallelism,
    resolve_adaptive,
)
from .faults import (
    WorkerDeath,
    apply_fault,
    default_backoff,
    default_max_respawns,
    default_retries,
    default_round_timeout,
    resolve_fault_plan,
)
from .kernels import Kernel
from .shard import default_shards
from .shm import (
    SharedArena,
    create_pool,
    live_segment_bytes,
    run_kernel_task,
    worker_probe,
)

T = TypeVar("T")

BACKENDS = ("serial", "threaded", "process")

#: Chunks per worker: oversubscription smooths load imbalance between
#: spans (frontier vertices have wildly varying degrees).
CHUNKS_PER_WORKER = 4

#: Smallest chunk adaptive dispatch plans, in items.  Below it a chunk's
#: fixed per-call cost (tens of microseconds of NumPy calls) outweighs
#: its work, and a round pays that cost once per planned chunk whether
#: it is dispatched or inlined.
MIN_CHUNK_ITEMS = 32

#: Cap on one retry-backoff sleep, seconds.
MAX_BACKOFF = 1.0

#: "Not computed yet" marker in a round's partial-result slots (chunk
#: kernels may legitimately return None).
_PENDING = object()


class ChunkError(RuntimeError):
    """A chunk of a :meth:`ExecutionContext.map_chunks` round failed
    for good.

    Raised only after the retry budget is exhausted (or a straggler
    outlives the round deadline on its last attempt); the message names
    the round id, the chunk id, and the chunk's ``[lo, hi)`` range, and
    the original exception is chained.  Remaining futures of the wave
    are cancelled (pending) or drained (running) before this is raised,
    so no worker outlives the call and no stale chunk can write into a
    later round.
    """


def default_backend() -> str:
    """Backend: $REPRO_BACKEND if set (and valid), else 'serial'."""
    env = os.environ.get("REPRO_BACKEND", "").strip().lower()
    if not env:
        return "serial"
    if env not in BACKENDS:
        raise ValueError(f"$REPRO_BACKEND must be one of {BACKENDS}, "
                         f"got {env!r}")
    return env


def default_weighted_chunks() -> bool:
    """Weighted chunking: $REPRO_WEIGHTED_CHUNKS if set, else on.

    Weighted chunking never changes results (only chunk boundaries),
    so it defaults on; the switch exists for A/B benchmarking and for
    bisecting imbalance regressions.
    """
    env = os.environ.get("REPRO_WEIGHTED_CHUNKS", "").strip().lower()
    if not env:
        return True
    if env in ("0", "off", "false", "no"):
        return False
    if env in ("1", "on", "true", "yes"):
        return True
    raise ValueError(f"$REPRO_WEIGHTED_CHUNKS must be a boolean flag "
                     f"(1/0/on/off), got {env!r}")


class ExecutionContext:
    """One object carrying backend, pool, accounting, timers, tracer,
    and the fault-recovery state of a run.

    Parameters
    ----------
    backend:
        ``'serial'``, ``'threaded'`` or ``'process'``; ``None``
        resolves via :func:`default_backend` (``$REPRO_BACKEND``, else
        serial).  Read it back through the :attr:`backend` property:
        after a degradation it reports the backend the run is *now*
        executing on.
    workers:
        Worker count for the parallel backends; ``None`` resolves via
        ``$REPRO_WORKERS``, else the CPU count.  Forced to 1 on the
        serial backend.
    weighted_chunks:
        Honor per-round ``weights`` in :meth:`map_chunks` (work-
        proportional chunk boundaries); ``None`` resolves via
        ``$REPRO_WEIGHTED_CHUNKS``, else on.  Results are identical
        either way — only the chunk boundaries (and the load balance)
        move.
    cost, mem:
        Accounting books to record into; fresh models when ``None``.
    crew:
        Passed to a freshly created :class:`CostModel` (CREW charging
        for scatter primitives).
    trace:
        A :class:`~repro.obs.Tracer`, a sink path, ``True`` (in-memory),
        ``False`` (off), or ``None`` to defer to ``$REPRO_TRACE`` — see
        :func:`repro.obs.resolve_tracer`.  Defaults to the zero-overhead
        null tracer.
    faults:
        A :class:`~repro.runtime.faults.FaultPlan`, a plan string
        (``"error@3.0;kill@5.*;seed=7"``), ``False`` (injection off),
        or ``None`` to defer to ``$REPRO_FAULTS`` — see
        :func:`repro.runtime.faults.resolve_fault_plan`.
    retries, backoff, round_timeout, max_respawns:
        Recovery budgets; ``None`` resolves via ``$REPRO_RETRIES``
        (2), ``$REPRO_BACKOFF`` (0.02s), ``$REPRO_ROUND_TIMEOUT``
        (off; pass 0 to force off), ``$REPRO_RESPAWNS`` (2).
    adaptive:
        Adaptive round dispatch (:mod:`repro.runtime.adaptive`):
        ``'on'`` (break-even estimator inlines rounds too small to
        amortize dispatch overhead), ``'off'`` (always dispatch — the
        pre-adaptive behavior), or the forced modes ``'inline'`` /
        ``'parallel'``; booleans map to on/off and ``None`` resolves
        via ``$REPRO_ADAPTIVE``, else on.  Results are bit-identical
        in every mode — the decision moves scheduling only.
    shards:
        Shard count for the sharding layer (:mod:`repro.runtime.shard`):
        engines that support sharded execution (the DEC family) split
        the run into this many per-shard engines.  ``None`` resolves
        via ``$REPRO_SHARDS``; 0 (the default) and 1 mean unsharded.
        Like the backend, the knob is run-wide (carried on the pool
        host) and readable through the :attr:`shards` property;
        :meth:`sharded` flips it fluently.  Colors are shard-count
        independent — the boundary-repair protocol restores exactly
        the engine's quality bound.
    ledger:
        The flight recorder (:mod:`repro.obs.ledger`): a
        :class:`~repro.obs.ledger.Ledger`, a JSONL path, ``True``
        (default ``results/ledger.jsonl``), ``False`` (off), or
        ``None`` to defer to ``$REPRO_LEDGER``.  Defaults to the
        zero-overhead null ledger; when enabled, engine entry points
        that *own* their context append one schema-versioned run
        record on completion (:meth:`ledger_record`).  Run-wide,
        carried on the pool host.
    resources:
        Resource telemetry (:mod:`repro.obs.resources`): ``True``
        starts a coordinator sampler thread (peak RSS, CPU, live
        arena bytes) and enables per-worker probes; ``False`` forces
        it off; ``None`` defers to ``$REPRO_RESOURCES`` and, when
        that is silent too, follows the ledger (telemetry on iff the
        run is being recorded).  Digest via :meth:`resource_record`.

    The context is a context manager; the thread pool is created lazily
    on first threaded :meth:`map_chunks` and shut down by
    :meth:`close` / ``__exit__`` (which also flushes a path-bound
    tracer).  :meth:`child` derives a context with fresh accounting
    books that *shares* the pool, the tracer, and the fault state (used
    to account an ordering phase separately from the coloring phase of
    one run: round ids and recovery budgets are run-wide).
    """

    def __init__(self, backend: str | None = None, workers: int | None = None,
                 cost: CostModel | None = None, mem: MemoryModel | None = None,
                 crew: bool = False, trace=None,
                 weighted_chunks: bool | None = None,
                 faults=None, retries: int | None = None,
                 backoff: float | None = None,
                 round_timeout: float | None = None,
                 max_respawns: int | None = None,
                 adaptive=None,
                 shards: int | None = None,
                 kernel_tier: str | None = None,
                 ledger=None, resources=None,
                 _pool_host: "ExecutionContext | None" = None):
        # The host carries the run-wide state (pool, arena, backend,
        # fault budgets, round counter); set it before anything that
        # reads the `backend` property.
        self._pool_host = _pool_host if _pool_host is not None else self
        resolved = backend if backend is not None else default_backend()
        if resolved not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, "
                             f"got {resolved!r}")
        self._backend = resolved
        if self._pool_host is self:
            # Resolve the run's kernel tier (argument > $REPRO_KERNEL_TIER
            # > auto) and make it the process-global active tier now, so
            # any one-shot calibration the adaptive layer runs measures
            # the tier the run will actually execute.
            self._kernel_tier = resolve_kernel_tier(kernel_tier)
            set_kernel_tier(self._kernel_tier)
        if resolved == "serial":
            self.workers = 1
        else:
            self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.weighted_chunks = weighted_chunks if weighted_chunks is not None \
            else default_weighted_chunks()
        self.adaptive = resolve_adaptive(adaptive)
        self.cost = cost if cost is not None else CostModel(crew=crew)
        self.mem = mem if mem is not None else MemoryModel()
        self.wall_by_phase: dict[str, float] = {}
        self.tracer = resolve_tracer(trace)
        if self.tracer.enabled:
            self.tracer.meta.setdefault("backend", self.backend)
            self.tracer.meta.setdefault("workers", self.workers)
            self.tracer.meta.setdefault("adaptive", self.adaptive)
            self.tracer.meta.setdefault("kernel_tier", self.kernel_tier)
        self._pool: ThreadPoolExecutor | None = None
        self._procpool = None
        self._arena: SharedArena | None = None
        # Open-phase stack: [name, child_wall_seconds] frames, for
        # exclusive timing and for labeling traced rounds.
        self._phase_stack: list[list] = []
        if self._pool_host is self:
            self._faultplan = resolve_fault_plan(faults)
            self._retries = retries if retries is not None \
                else default_retries()
            self._backoff = backoff if backoff is not None \
                else default_backoff()
            self._round_timeout = default_round_timeout() \
                if round_timeout is None else (round_timeout or None)
            self._max_respawns = max_respawns if max_respawns is not None \
                else default_max_respawns()
            if self._retries < 0:
                raise ValueError(f"retries must be >= 0, "
                                 f"got {self._retries}")
            if self._backoff < 0:
                raise ValueError(f"backoff must be >= 0, "
                                 f"got {self._backoff}")
            if self._max_respawns < 0:
                raise ValueError(f"max_respawns must be >= 0, "
                                 f"got {self._max_respawns}")
            self._fault_stats: dict[str, int] = {}
            self._fault_events: list[dict] = []
            self._respawns = 0
            self._round_seq = 0
            self._estimator = DispatchEstimator() \
                if self.adaptive != "off" else None
            self._scratch = ScratchArena()
            self._shards = shards if shards is not None else default_shards()
            if self._shards < 0:
                raise ValueError(f"shards must be >= 0, "
                                 f"got {self._shards}")
            self._ledger = resolve_ledger(ledger)
            res_on = resolve_resources(resources)
            self._resources_on = self._ledger.enabled \
                if res_on is None else res_on
            self._sampler: ResourceSampler | None = None
            if self._resources_on:
                self._sampler = ResourceSampler(
                    tracer=self.tracer,
                    arena_bytes=live_segment_bytes).start()

    @property
    def shards(self) -> int:
        """The run's shard count (0/1 = unsharded) — run-wide, like
        the backend."""
        return self._pool_host._shards

    def sharded(self, n_shards: int) -> "ExecutionContext":
        """Set the run-wide shard count; returns ``self`` for fluent
        use: ``ExecutionContext(backend='process').sharded(4)``."""
        if n_shards < 0:
            raise ValueError(f"n_shards must be >= 0, got {n_shards}")
        self._pool_host._shards = n_shards
        return self

    @property
    def backend(self) -> str:
        """The backend the run executes on *now* — run-wide, so a
        degradation in any context of the run (ordering child, coloring
        parent) is visible everywhere."""
        return self._pool_host._backend

    @property
    def kernel_tier(self) -> str:
        """The run's *resolved* kernel tier ('numpy' or 'numba', never
        'auto') — run-wide, like the backend."""
        return self._pool_host._kernel_tier

    @property
    def ledger(self):
        """The run's flight-recorder ledger (run-wide; the null ledger
        when recording is off)."""
        return self._pool_host._ledger

    @property
    def scratch(self) -> ScratchArena:
        """The run's coordinator-side scratch arena: reusable buffers
        for the per-round intermediates engines build *between* chunk
        rounds (wave weights, successor concatenations, batch unions).
        Run-wide and single-threaded — only the coordinator touches it;
        kernels running on workers use their own per-thread arena
        (:func:`repro.runtime.kernels.scratch`)."""
        return self._pool_host._scratch

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def ledger_record(self, result, graph=None, *, kind: str = "run",
                      eps: float | None = None, valid: bool | None = None,
                      extra: dict | None = None):
        """Append one run record to the ledger; no-op (returning
        ``None``) when recording is off.

        Called by engine entry points that *own* their context — the
        owner-append rule keeps exactly one record per run however many
        engines and child contexts the run composes.
        """
        host = self._pool_host
        if not host._ledger.enabled:
            return None
        return host._ledger.append(run_record(result, graph=graph,
                                              kind=kind, eps=eps,
                                              valid=valid, extra=extra))

    def resource_record(self, workers=None) -> dict | None:
        """The run's resource digest: coordinator sampler maxima plus
        deduped per-worker probes.  ``None`` when telemetry is off.

        ``workers`` is an optional iterable of extra worker rows (the
        sharded path passes per-shard pid/RSS rows); live pool workers
        are additionally probed in place.
        """
        host = self._pool_host
        if not host._resources_on or host._sampler is None:
            return None
        probes = list(workers or [])
        probes += host._probe_workers()
        return {"coordinator": host._sampler.digest(),
                "workers": merge_worker_probes(probes)}

    def _probe_workers(self) -> list[dict]:
        """Probe the live process pool's workers (best effort).

        Submits a few more probe tasks than workers — pool scheduling
        is not round-robin, so extras raise the odds every worker
        answers at least once; duplicates merge away by pid.
        """
        host = self._pool_host
        if host._procpool is None:
            return []
        futures = [host._procpool.submit(worker_probe)
                   for _ in range(2 * self.workers)]
        out = []
        for fut in futures:
            try:
                out.append(fut.result(timeout=5.0))
            except Exception:  # pragma: no cover - dead/respawning pool
                pass
        return out

    def close(self) -> None:
        """Shut down pools and the shared arena, and flush a path-bound
        tracer (only if this context is the pool host)."""
        if self._pool_host is self:
            if self._sampler is not None:
                self._sampler.stop()
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            if self._procpool is not None:
                self._procpool.shutdown(wait=True)
                self._procpool = None
            if self._arena is not None:
                self._arena.close()
                self._arena = None
            # The host references itself (_pool_host), so a finished
            # run is reclaimed only by the cyclic collector; drop the
            # scratch buffers now rather than whenever that runs.
            self._scratch = ScratchArena()
            self.tracer.flush()

    def reset_books(self) -> None:
        """Zero the cost/mem books and phase timers, keep the machinery.

        The service layer calls this between requests so one long-lived
        context (pools, arena, kernel tier, fault budgets all persist)
        yields per-request accounting instead of a running total.
        """
        self.cost = CostModel(crew=self.cost.crew)
        self.mem = MemoryModel()
        self.wall_by_phase = {}

    def child(self, cost: CostModel | None = None,
              mem: MemoryModel | None = None,
              crew: bool = False) -> "ExecutionContext":
        """Same backend/workers/pool/arena/tracer/fault state, fresh
        books and timers."""
        return ExecutionContext(backend=self.backend, workers=self.workers,
                                cost=cost, mem=mem, crew=crew,
                                trace=self.tracer,
                                weighted_chunks=self.weighted_chunks,
                                adaptive=self.adaptive,
                                _pool_host=self._pool_host)

    def _acquire_pool(self) -> ThreadPoolExecutor | None:
        host = self._pool_host
        if host._pool is None and self.backend == "threaded" \
                and self.workers > 1:
            host._pool = ThreadPoolExecutor(max_workers=self.workers)
        return host._pool

    def _acquire_procpool(self):
        host = self._pool_host
        if host._procpool is None:
            host._procpool = create_pool(self.workers,
                                         kernel_tier=self.kernel_tier)
        return host._procpool

    def _acquire_arena(self) -> SharedArena:
        host = self._pool_host
        if host._arena is None:
            host._arena = SharedArena()
        return host._arena

    # -- shared state (process backend) --------------------------------------

    def share(self, ns: str, name: str, arr):
        """Adopt a per-run state array into the shared arena.

        On the process backend the array is copied once into shared
        memory and the *shared view* comes back: the engine keeps
        reading and writing through it, workers see every coordinator
        write with no further transfer, and :meth:`map_chunks` ships
        only the array's name.  On every other backend (or with one
        worker) the array is returned unchanged — the call is free.

        Arrays an engine rebuilds every round (frontiers, batches) need
        no ``share``: :meth:`map_chunks` uploads them per round.

        Arena views stay valid across a degradation (the arena lives
        until :meth:`close`), so an engine that shared its state on the
        process backend keeps running unchanged after a mid-run
        degradation to threaded or serial.
        """
        if self.backend != "process" or self.workers <= 1:
            return arr
        return self._acquire_arena().put(f"{ns}:{name}", arr)

    def localize(self, arr):
        """A private copy when ``arr`` is an arena view, else ``arr``.

        Call on any shared array that outlives the run (result colors):
        the arena's segments are unlinked by :meth:`close`.
        """
        host = self._pool_host
        if host._arena is not None and host._arena.owns(arr):
            return arr.copy()
        return arr

    # -- execution -----------------------------------------------------------

    def map_chunks(self, fn: Callable[[int, int], T], n: int,
                   weights=None) -> list[T]:
        """Run ``fn(lo, hi)`` over a chunking of range(n), in chunk order.

        Serial backend (or 1 worker): one chunk, executed inline — the
        call is exactly ``[fn(0, n)]``.  Parallel backends: balanced
        chunks on the shared pool; results are returned in chunk order,
        so order-dependent combines are deterministic.  With adaptive
        dispatch ``on``, no chunk is planned below
        :data:`MIN_CHUNK_ITEMS` items, so a small round has fewer chunks
        (one when ``n < 2 * MIN_CHUNK_ITEMS``).  The list holds one
        result per planned chunk whether the round is dispatched or
        inlined.

        ``weights`` (per-item non-negative work estimates, e.g. the
        frontier's vertex degrees) switches the chunk boundaries to a
        prefix-sum split of total weight — work-balanced chunks for
        skewed inputs.  Ignored on the serial path, when
        ``weighted_chunks`` is off, or when all weights are zero;
        results are bit-identical in every case because only the
        boundaries move, never the combine order.

        On the process backend ``fn`` must be a
        :class:`~repro.runtime.kernels.Kernel` descriptor (serial and
        threaded accept descriptors too and just call them).

        ``fn`` must be *pure over [lo, hi)* — it may read shared state
        but must not mutate it (every engine in this library combines
        chunk results on the coordinator).  That purity is what makes
        recovery invisible: a failed chunk is retried with backoff, a
        dead worker's chunks are re-dispatched after a pool respawn (or
        on a degraded backend), stragglers past the round deadline are
        cancelled and re-run — and the returned list is bit-identical
        to the undisturbed run.  Only when the retry budget is spent
        does the round abort as a :class:`ChunkError` naming the
        (round, chunk) coordinates; the wave's pending chunks are
        cancelled and running ones drained before the error propagates.
        """
        host = self._pool_host
        host._round_seq += 1
        rid = host._round_seq
        tracer = self.tracer
        if not tracer.enabled:
            return self._run_round(fn, n, weights, rid, None)
        # Traced twin: per-chunk span events (worker id, chunk size)
        # plus one round event with the max/mean chunk-wall imbalance.
        # Results are identical — tracing only observes.
        phase = self._phase_stack[-1][0] if self._phase_stack else None
        records: list[tuple] = []  # GIL-atomic appends from workers
        t0 = tracer.now()
        out = self._run_round(fn, n, weights, rid, records)
        t1 = tracer.now()
        walls = []
        for lo, hi, c0, c1, ident in sorted(records):
            tracer.record(f"chunk[{lo}:{hi})", "chunk", c0, c1, tid=ident,
                          round=rid, size=hi - lo, phase=phase)
            walls.append(c1 - c0)
        self._record_round(rid, phase, t0, t1, n, walls)
        return out

    def _plan_chunks(self, n: int, weights) -> list[tuple[int, int]]:
        if self.backend == "serial" or self.workers <= 1:
            return split_chunks(n, 1)
        target = self.workers * CHUNKS_PER_WORKER
        if self.adaptive == "on":
            # Granularity is adaptive scheduling too, but decided from n
            # alone, so the plan (hence the result list) never depends
            # on timing.  Forced modes and "off" keep the fixed plan.
            target = max(1, min(target, n // MIN_CHUNK_ITEMS))
        if weights is not None and self.weighted_chunks:
            return split_chunks_weighted(n, target, weights)
        return split_chunks(n, target)

    def _run_round(self, fn, n: int, weights, rid: int,
                   records: list | None) -> list:
        """One round: dispatch waves until every chunk has a result.

        The chunk boundaries are planned once, on the backend the round
        started on, and never move afterwards — recovery (retry waves,
        pool respawns, even a mid-round degradation) re-dispatches the
        *same* spans, so partial results combine in the same order.

        With adaptive dispatch (the default), a multi-chunk round on a
        parallel backend first passes through the break-even decision
        (:mod:`repro.runtime.adaptive`): a round predicted too small to
        amortize its dispatch overhead runs inline on the coordinator —
        over the *same* chunk plan, drawing faults at the same
        (round, chunk, attempt) coordinates — so the decision moves
        scheduling only, never results.
        """
        chunks = self._plan_chunks(n, weights)
        if not chunks:
            return []
        host = self._pool_host
        # Re-assert the run's tier each round (a cheap no-op while it
        # is already active): two interleaved contexts with different
        # tiers in one process each execute under their own.
        set_kernel_tier(host._kernel_tier)
        est = host._estimator
        backend0 = self.backend
        if backend0 == "process" and self.workers > 1 and n > 1 \
                and not isinstance(fn, Kernel):
            # The contract holds whatever the dispatch decision or the
            # chunk grain: an inlined or single-chunk round today may
            # dispatch tomorrow on a bigger box.
            raise TypeError(
                "the process backend runs picklable kernel "
                "descriptors, not closures: pass a "
                "repro.runtime.kernels.Kernel to map_chunks "
                "(serial/threaded accept any callable)")
        eligible = est is not None and backend0 != "serial" \
            and self.workers > 1 and len(chunks) > 1
        inline = False
        p_eff = 1
        units = 0.0
        # The estimator's EWMA unit costs are tier-specific (a fused
        # numba kernel has a very different s/unit than its NumPy
        # form), so break-even decisions re-learn after a tier switch.
        key = fn.name if isinstance(fn, Kernel) \
            else getattr(fn, "__name__", None)
        if key is not None:
            key = f"{key}@{host._kernel_tier}"
        if eligible:
            # Weights size the round only where they shape the chunks.
            units = float(np.sum(weights)) \
                if weights is not None and self.weighted_chunks \
                else float(n)
            p_eff = effective_parallelism(self.workers, len(chunks))
            inline = self._decide_dispatch(backend0, key, units,
                                           len(chunks), p_eff, rid)
        measure = eligible and self.adaptive == "on"
        ktimes: list | None = [] if measure else None
        t0 = time.perf_counter() if measure else 0.0
        results = [_PENDING] * len(chunks)
        attempts = [0] * len(chunks)
        todo = list(range(len(chunks)))
        while todo:
            wave, todo = todo, []
            backend = self.backend
            pooled = not inline and backend != "serial" \
                and self.workers > 1 and len(chunks) > 1
            if pooled and backend == "process":
                if not isinstance(fn, Kernel):
                    raise TypeError(
                        "the process backend runs picklable kernel "
                        "descriptors, not closures: pass a "
                        "repro.runtime.kernels.Kernel to map_chunks "
                        "(serial/threaded accept any callable)")
                dead = self._wave_process(fn, chunks, wave, todo, results,
                                          attempts, n, rid, records, ktimes)
            elif pooled:
                dead = self._wave_threaded(fn, chunks, wave, todo, results,
                                           attempts, n, rid, records, ktimes)
            else:
                dead = self._wave_inline(fn, chunks, wave, results,
                                         attempts, n, rid, records, ktimes)
            if dead:
                self._pool_failure(rid)
        if measure:
            est.observe_round(backend0, key, len(chunks), units,
                              time.perf_counter() - t0, sum(ktimes),
                              len(ktimes), inline, p_eff)
        return results

    def _decide_dispatch(self, backend: str, key, units: float,
                         n_chunks: int, p_eff: int, rid: int) -> bool:
        """Inline this round?  Forced modes answer directly; ``on``
        consults the estimator (seeding it on first contact — the
        process pool is never spun up just to calibrate, it keeps a
        static seed until real dispatches refine it)."""
        host = self._pool_host
        est = host._estimator
        mode = self.adaptive
        if mode == "inline":
            inline = True
        elif mode == "parallel":
            inline = False
        else:
            est.seed_unit()
            if backend not in est.dispatch_s:
                pool = None
                if backend == "threaded":
                    pool = self._acquire_pool()
                elif backend == "process":
                    pool = host._procpool
                est.seed_dispatch(backend, pool)
            inline = est.should_inline(backend, key, units, n_chunks, p_eff)
        est.decisions["inline" if inline else "parallel"] += 1
        if self.tracer.enabled:
            self.tracer.count(
                "dispatch.inline" if inline else "dispatch.parallel",
                1, round=rid)
        return inline

    def _call_chunk(self, fn, lo: int, hi: int, fault, records, ktimes):
        if fault is not None:
            apply_fault(fault)
        if records is None and ktimes is None:
            return fn(lo, hi)
        # Traced rounds stamp on the tracer's clock (same monotonic
        # base); untraced measured rounds only need durations.
        c0 = self.tracer.now() if records is not None \
            else time.perf_counter()
        res = fn(lo, hi)
        c1 = self.tracer.now() if records is not None \
            else time.perf_counter()
        if records is not None:
            records.append((lo, hi, c0, c1, threading.get_ident()))
        if ktimes is not None:
            ktimes.append(c1 - c0)
        return res

    def _wave_inline(self, fn, chunks, wave, results, attempts,
                     n: int, rid: int, records, ktimes) -> bool:
        """Inline wave (serial backend, 1 worker, a 1-chunk round, or a
        round adaptive dispatch kept on the coordinator): each chunk
        retries in place.  An injected WorkerDeath has no pool to kill
        here, so it consumes retry budget like any other chunk failure
        — the bottom of the degradation ladder."""
        for ci in wave:
            lo, hi = chunks[ci]
            while True:
                attempts[ci] += 1
                fault = self._draw_fault(rid, ci, attempts[ci])
                try:
                    results[ci] = self._call_chunk(fn, lo, hi, fault,
                                                   records, ktimes)
                    break
                except Exception as exc:
                    self._retry_or_raise(ci, chunks[ci], attempts[ci],
                                         n, rid, exc)
        return False

    def _wave_threaded(self, fn, chunks, wave, todo, results, attempts,
                       n: int, rid: int, records, ktimes) -> bool:
        pool = self._acquire_pool()
        futs = {}
        for ci in wave:
            attempts[ci] += 1
            fault = self._draw_fault(rid, ci, attempts[ci])
            lo, hi = chunks[ci]
            futs[pool.submit(self._call_chunk, fn, lo, hi, fault,
                             records, ktimes)] = ci
        return self._collect_wave(futs, chunks, todo, results, attempts,
                                  n, rid, broken=WorkerDeath,
                                  finish=results.__setitem__)

    def _wave_process(self, kern: Kernel, chunks, wave, todo, results,
                      attempts, n: int, rid: int, records, ktimes) -> bool:
        """Ship a kernel descriptor's chunks to the worker pool.

        Arrays are adopted into the shared arena first: zero-copy for
        arrays the engine holds as arena views (see :meth:`share`), one
        memcpy for per-round arrays.  Workers receive only the kernel
        name, the array specs, the scalars, the chunk bounds, and (for
        chaos runs) the fault directive drawn for this dispatch.
        """
        pool = self._acquire_procpool()
        arena = self._acquire_arena()
        specs = {key: arena.adopt(f"{kern.ns}:{key}", arr)
                 for key, arr in kern.arrays.items()}
        timed = records is not None or ktimes is not None
        if timed:
            # Workers time with perf_counter; anchor their absolute
            # stamps to this tracer's epoch (same monotonic clock).
            epoch = time.perf_counter() - self.tracer.now() \
                if records is not None else 0.0

            def finish(ci, packed):
                res, c0, c1, pid = packed
                if records is not None:
                    lo, hi = chunks[ci]
                    records.append((lo, hi, c0 - epoch, c1 - epoch, pid))
                if ktimes is not None:
                    ktimes.append(c1 - c0)
                results[ci] = res
        else:
            finish = results.__setitem__
        futs = {}
        dead = False
        for i, ci in enumerate(wave):
            attempts[ci] += 1
            fault = self._draw_fault(rid, ci, attempts[ci])
            lo, hi = chunks[ci]
            try:
                futs[pool.submit(run_kernel_task, kern.name, specs,
                                 kern.scalars, lo, hi, timed, fault,
                                 kern.tier or self.kernel_tier)] = ci
            except BrokenProcessPool:
                # A worker death can be noticed *while* the wave is
                # still being submitted; requeue this chunk and every
                # unsubmitted sibling, then collect what got out.
                dead = True
                todo.extend(wave[i:])
                break
        return self._collect_wave(futs, chunks, todo, results, attempts,
                                  n, rid, broken=BrokenProcessPool,
                                  finish=finish) or dead

    def _collect_wave(self, futs, chunks, todo, results, attempts,
                      n: int, rid: int, broken, finish) -> bool:
        """Collect one dispatch wave with the full recovery policy.

        ``broken`` is the exception class that means "the worker died"
        (vs. "the chunk failed"): dead chunks go back on ``todo``
        without burning retry budget — the respawn/degradation budget
        bounds them instead.  Returns whether the pool must be
        recycled.
        """
        host = self._pool_host
        dead = False
        pending = set(futs)
        deadline = None
        if host._round_timeout:
            deadline = time.monotonic() + host._round_timeout
        while pending:
            timeout = None
            if deadline is not None:
                timeout = max(0.0, deadline - time.monotonic())
            done, pending = wait(pending, timeout=timeout)
            if not done and pending:
                self._expire_wave(pending, futs, chunks, todo, attempts,
                                  n, rid)
                break
            for f in done:
                ci = futs[f]
                try:
                    res = f.result()
                except broken:
                    dead = True
                    todo.append(ci)
                except Exception as exc:
                    self._retry_or_raise(ci, chunks[ci], attempts[ci],
                                         n, rid, exc, pending)
                    todo.append(ci)
                else:
                    finish(ci, res)
        return dead

    def _expire_wave(self, pending, futs, chunks, todo, attempts,
                     n: int, rid: int) -> None:
        """The round deadline passed: cancel every straggler and requeue
        it (running chunks cannot be interrupted, but they are pure —
        their late results are simply discarded)."""
        for f in pending:
            f.cancel()
        for f in pending:
            ci = futs[f]
            self._fault_count("fault.timeouts", rid)
            if self.tracer.enabled:
                self.tracer.instant("fault.timeout", cat="fault",
                                    round=rid, chunk=ci)
            if attempts[ci] > self._pool_host._retries:
                lo, hi = chunks[ci]
                raise ChunkError(
                    f"map_chunks round {rid} chunk {ci} [{lo}, {hi}) of "
                    f"{n} items timed out after {attempts[ci]} attempt(s)")
            todo.append(ci)

    def _retry_or_raise(self, ci: int, span, attempt: int, n: int,
                        rid: int, exc, pending=()) -> None:
        """Charge one failed attempt: back off and return (the caller
        requeues the chunk), or abort the wave as a ChunkError."""
        lo, hi = span
        if attempt > self._pool_host._retries:
            self._abort_wave(pending)
            raise ChunkError(
                f"map_chunks round {rid} chunk {ci} [{lo}, {hi}) of {n} "
                f"items failed after {attempt} attempt(s): {exc}") from exc
        self._fault_count("fault.retries", rid)
        backoff = self._pool_host._backoff
        if backoff > 0:
            time.sleep(min(MAX_BACKOFF, backoff * (2 ** (attempt - 1))))

    @staticmethod
    def _abort_wave(pending) -> None:
        """Cancel what has not started, drain what is running — after
        this returns, no chunk of the aborted wave is still executing,
        so nothing can race a later round."""
        for f in pending:
            f.cancel()
        for f in pending:
            if not f.cancelled():
                try:
                    f.exception()
                except BaseException:
                    pass

    def _pool_failure(self, rid: int) -> None:
        """A worker died: recycle the pool, then respawn or degrade.

        The broken pool is torn down either way.  While the respawn
        budget lasts, the next wave lazily re-creates a pool on the
        same backend and re-dispatches only the lost chunks; after
        that, the run degrades one backend level (process -> threaded
        -> serial) and the budget resets for the new backend.  The
        arena's *mappings* survive a degradation — existing shared
        views stay valid on the degraded backend — but its segment
        names are unlinked the moment the run leaves the process
        backend: no worker will ever attach again, and an unlinked
        segment stops claiming ``/dev/shm`` space the moment the last
        view goes away instead of leaking until garbage collection.
        """
        host = self._pool_host
        backend = host._backend
        if backend == "serial":  # nothing below serial; inline retries
            return
        if host._procpool is not None:
            host._procpool.shutdown(wait=False)
            host._procpool = None
        if host._pool is not None:
            host._pool.shutdown(wait=False, cancel_futures=True)
            host._pool = None
        if host._respawns < host._max_respawns:
            host._respawns += 1
            self._fault_count("fault.respawns", rid)
            self._fault_event({"kind": "respawn", "backend": backend,
                               "round": rid})
            return
        lower = BACKENDS[BACKENDS.index(backend) - 1]
        host._backend = lower
        host._respawns = 0
        if backend == "process" and host._arena is not None:
            host._arena.unlink_all()
        self._fault_count("fault.degradations", rid)
        self._fault_event({"kind": "degrade", "from": backend,
                           "to": lower, "round": rid})

    # -- fault bookkeeping ---------------------------------------------------

    def _draw_fault(self, rid: int, ci: int, attempt: int):
        plan = self._pool_host._faultplan
        if plan is None:
            return None
        spec = plan.draw(rid, ci, attempt)
        if spec is not None:
            self._fault_count(f"fault.injected.{spec.kind}", rid)
            if self.tracer.enabled:
                self.tracer.instant(f"fault.{spec.kind}", cat="fault",
                                    round=rid, chunk=ci, attempt=attempt)
        return spec

    def _fault_count(self, name: str, rid: int) -> None:
        host = self._pool_host
        host._fault_stats[name] = host._fault_stats.get(name, 0) + 1
        if self.tracer.enabled:
            self.tracer.count(name, 1, round=rid)

    def _fault_event(self, event: dict) -> None:
        host = self._pool_host
        host._fault_events.append(event)
        if self.tracer.enabled:
            self.tracer.instant(f"fault.{event['kind']}", cat="fault", **{
                k: v for k, v in event.items() if k != "kind"})

    def fault_record(self) -> dict | None:
        """Digest of the run's fault activity, or ``None`` for a quiet
        run with no plan (the common case — keeps result rows clean).

        ``counters`` are the run-wide ``fault.*`` totals (injections,
        retries, timeouts, respawns, degradations); ``events`` the
        ordered respawn/degradation log; ``plan`` the injection plan's
        own digest (clause count, seed, events fired per kind) when one
        was attached.
        """
        host = self._pool_host
        if host._faultplan is None and not host._fault_stats \
                and not host._fault_events:
            return None
        return {"counters": dict(host._fault_stats),
                "events": list(host._fault_events),
                "plan": host._faultplan.describe()
                if host._faultplan is not None else None}

    def dispatch_record(self) -> dict | None:
        """Digest of the run's adaptive-dispatch activity, or ``None``
        when adaptive dispatch is off — or never had a decision to make
        (serial runs, single-chunk rounds) — keeping result rows clean.

        ``decisions`` counts rounds kept inline vs. dispatched to the
        pool; ``unit_s``/``dispatch_s`` expose the learned model
        (seconds per work unit per kernel, per-chunk overhead per
        backend) and ``seeded`` how each backend's overhead estimate
        was born (``calibrated`` through the real pool, or ``static``).
        """
        host = self._pool_host
        est = host._estimator
        if est is None or not (est.decisions["inline"]
                               or est.decisions["parallel"]):
            return None
        rec = est.record()
        rec["mode"] = self.adaptive
        return rec

    def _record_round(self, rid: int, phase, t0: float, t1: float,
                      n: int, walls: list) -> None:
        max_w = max(walls, default=0.0)
        mean_w = sum(walls) / len(walls) if walls else 0.0
        self.tracer.record(f"{phase or 'map_chunks'}#round{rid}", "round",
                           t0, t1, round=rid, phase=phase, items=n,
                           chunks=len(walls), max_chunk_s=max_w,
                           mean_chunk_s=mean_w,
                           imbalance=(max_w / mean_w) if mean_w > 0 else 1.0)

    # -- accounting ----------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Attribute cost *and wall-clock time* inside the block to ``name``.

        ``wall_by_phase`` records *exclusive* (self) time: a nested
        phase's wall is charged to the inner name only, so the dict's
        values sum to at most the real elapsed wall.
        """
        tracer = self.tracer
        tr0 = tracer.now() if tracer.enabled else 0.0
        t0 = time.perf_counter()
        frame = [name, 0.0]
        self._phase_stack.append(frame)
        with self.cost.phase(name):
            try:
                yield self
            finally:
                elapsed = time.perf_counter() - t0
                self._phase_stack.pop()
                self_time = max(0.0, elapsed - frame[1])
                self.wall_by_phase[name] = \
                    self.wall_by_phase.get(name, 0.0) + self_time
                if self._phase_stack:
                    self._phase_stack[-1][1] += elapsed
                if tracer.enabled:
                    tracer.record(name, "phase", tr0, tracer.now(),
                                  self_s=self_time)

    def trace_summary(self) -> dict | None:
        """The tracer's digest, or ``None`` when tracing is off."""
        return self.tracer.summary() if self.tracer.enabled else None

    def describe(self) -> dict:
        """Flat record of the execution configuration (for result rows),
        including the exclusive per-phase wall split recorded so far."""
        return {"backend": self.backend, "workers": self.workers,
                "adaptive": self.adaptive,
                "kernel_tier": self.kernel_tier,
                "wall_by_phase": dict(self.wall_by_phase)}


def resolve_context(ctx: ExecutionContext | None,
                    backend: str | None = None,
                    workers: int | None = None,
                    cost: CostModel | None = None,
                    mem: MemoryModel | None = None,
                    crew: bool = False,
                    trace=None,
                    weighted_chunks: bool | None = None,
                    faults=None,
                    adaptive=None,
                    shards: int | None = None,
                    kernel_tier: str | None = None,
                    ) -> tuple[ExecutionContext, bool]:
    """Return ``(context, owns)`` for an engine entry point.

    When the caller supplied a context it is used as-is (``owns`` False:
    the caller manages the pool); otherwise a fresh one is built from
    ``backend``/``workers``/``trace``/``faults``/accounting arguments
    and ``owns`` is True — the engine must ``close()`` it (or use it as
    a context manager).
    """
    if ctx is not None:
        return ctx, False
    return ExecutionContext(backend=backend, workers=workers,
                            cost=cost, mem=mem, crew=crew,
                            trace=trace,
                            weighted_chunks=weighted_chunks,
                            faults=faults, adaptive=adaptive,
                            shards=shards, kernel_tier=kernel_tier), True
