"""Adaptive round dispatch: estimator model, mode switch, inlined
rounds, and the scheduling-only contract (colors and books never
move, fault plans keep their (round, chunk) coordinates)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.coloring.jp import jp_by_name
from repro.graphs.generators import gnm_random
from repro.runtime import (
    ADAPTIVE_MODES,
    ChunkError,
    DispatchEstimator,
    ExecutionContext,
    Kernel,
    default_adaptive,
    resolve_adaptive,
)
from repro.runtime.adaptive import (
    DISPATCH_FLOOR,
    STATIC_SEED,
    UNIT_FLOOR,
    effective_parallelism,
)
from repro.runtime.context import CHUNKS_PER_WORKER, MIN_CHUNK_ITEMS


class TestModeResolution:
    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_ADAPTIVE", raising=False)
        assert default_adaptive() == "on"

    @pytest.mark.parametrize("env,mode", [
        ("0", "off"), ("off", "off"), ("false", "off"), ("no", "off"),
        ("1", "on"), ("on", "on"), ("true", "on"), ("yes", "on"),
        ("inline", "inline"), ("parallel", "parallel"),
        ("  ON ", "on"),
    ])
    def test_env_values(self, monkeypatch, env, mode):
        monkeypatch.setenv("REPRO_ADAPTIVE", env)
        assert default_adaptive() == mode

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADAPTIVE", "sometimes")
        with pytest.raises(ValueError, match="REPRO_ADAPTIVE"):
            default_adaptive()

    def test_resolve_argument(self):
        assert resolve_adaptive(True) == "on"
        assert resolve_adaptive(False) == "off"
        for mode in ADAPTIVE_MODES:
            assert resolve_adaptive(mode) == mode
        with pytest.raises(ValueError, match="adaptive"):
            resolve_adaptive("auto")

    def test_context_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADAPTIVE", "inline")
        assert ExecutionContext(backend="threaded").adaptive == "inline"

    def test_child_inherits_mode_and_estimator(self):
        with ExecutionContext(backend="threaded", workers=2,
                              adaptive="parallel") as ctx:
            kid = ctx.child()
            assert kid.adaptive == "parallel"
            assert kid._pool_host is ctx  # one estimator per run


class TestEffectiveParallelism:
    def test_bounded_by_chunks_and_workers(self):
        assert effective_parallelism(4, 2) <= 2
        assert effective_parallelism(1, 16) == 1
        assert effective_parallelism(16, 16) >= 1


class TestEstimatorModel:
    def test_static_seed_without_pool(self):
        est = DispatchEstimator()
        est.seed_dispatch("process", pool=None)
        assert est.dispatch_s["process"] == STATIC_SEED["process"]
        assert est.seeded["process"] == "static"

    def test_calibrated_seed_with_pool(self):
        est = DispatchEstimator()
        with ThreadPoolExecutor(max_workers=2) as pool:
            est.seed_dispatch("threaded", pool=pool)
        assert est.dispatch_s["threaded"] >= DISPATCH_FLOOR["threaded"]
        assert est.seeded["threaded"] == "calibrated"

    def test_seed_unit_once(self):
        est = DispatchEstimator()
        est.seed_unit()
        first = est.unit_s_global
        assert first is not None and first > 0
        est.seed_unit()  # idempotent
        assert est.unit_s_global == first

    def test_should_inline_on_one_lane(self):
        est = DispatchEstimator()
        est.unit_s["k"] = 1.0  # absurdly expensive work units
        assert est.should_inline("threaded", "k", units=1e9, chunks=8,
                                 p_eff=1)

    def test_break_even_both_sides(self):
        est = DispatchEstimator()
        est.unit_s["k"] = 1e-8
        est.dispatch_s["threaded"] = 1e-4
        # saving = 1e-8 * (units/8) * (1 - 1/4); overhead bar = 2e-4.
        assert est.should_inline("threaded", "k", units=1_000, chunks=8,
                                 p_eff=4)
        assert not est.should_inline("threaded", "k", units=100_000_000,
                                     chunks=8, p_eff=4)

    def test_unknown_kernel_uses_global_fallback(self):
        est = DispatchEstimator()
        est.unit_s_global = 1e-8
        est.dispatch_s["threaded"] = 1e-4
        assert est.should_inline("threaded", "never-seen", units=1_000,
                                 chunks=8, p_eff=4)

    def test_observe_updates_unit_only_above_floor(self):
        est = DispatchEstimator()
        small = UNIT_FLOOR * 4 - 1  # units/chunks just under the floor
        est.observe_round("threaded", "k", chunks=4, units=small,
                          round_s=1.0, kernel_s=1.0, measured=4,
                          inline=True, p_eff=1)
        assert "k" not in est.unit_s
        big = UNIT_FLOOR * 8
        est.observe_round("threaded", "k", chunks=4, units=big,
                          round_s=1.0, kernel_s=1.0, measured=4,
                          inline=True, p_eff=1)
        assert est.unit_s["k"] == pytest.approx(1.0 / big)
        assert est.unit_s_global == pytest.approx(1.0 / big)

    def test_observe_updates_dispatch_only_when_dispatched(self):
        est = DispatchEstimator()
        big = UNIT_FLOOR * 8
        est.observe_round("threaded", "k", chunks=4, units=big,
                          round_s=1.0, kernel_s=0.4, measured=4,
                          inline=True, p_eff=2)
        assert "threaded" not in est.dispatch_s
        est.observe_round("threaded", "k", chunks=4, units=big,
                          round_s=1.0, kernel_s=0.4, measured=4,
                          inline=False, p_eff=2)
        # overhead = 1.0 - 0.4/2 over 4 chunks
        assert est.dispatch_s["threaded"] == pytest.approx(0.2)

    def test_record_digest(self):
        est = DispatchEstimator()
        est.seed_dispatch("process", pool=None)
        est.decisions["inline"] = 3
        rec = est.record()
        assert rec["decisions"] == {"inline": 3, "parallel": 0}
        assert rec["seeded"] == {"process": "static"}
        assert rec["margin"] == est.margin


def _count_kernel(n):
    return Kernel("adg.select", "t",
                  arrays={"active": np.ones(n, dtype=bool),
                          "D": np.arange(n, dtype=np.int64)},
                  scalars={"threshold": float(n)})


class TestMapChunksModes:
    N = 4096

    def test_forced_inline_fuses_the_round(self):
        with ExecutionContext(backend="threaded", workers=4,
                              adaptive="inline") as ctx:
            out = ctx.map_chunks(lambda lo, hi: hi - lo, self.N)
        # The inlined round ran on the coordinator, and still returns
        # one result per planned chunk — the shape a dispatched round
        # returns.
        with ExecutionContext(backend="threaded", workers=4,
                              adaptive="parallel") as ref:
            assert out == ref.map_chunks(lambda lo, hi: hi - lo, self.N)
        assert len(out) > 1 and sum(out) == self.N
        rec = ctx.dispatch_record()
        assert rec["decisions"]["inline"] == 1
        assert rec["decisions"]["parallel"] == 0
        assert rec["mode"] == "inline"

    def test_on_mode_plans_no_chunk_below_the_grain(self):
        def spans(adaptive, n):
            with ExecutionContext(backend="threaded", workers=4,
                                  adaptive=adaptive) as ctx:
                return ctx.map_chunks(lambda lo, hi: (lo, hi), n)

        grain = MIN_CHUNK_ITEMS
        assert spans("on", 2 * grain - 1) == [(0, 2 * grain - 1)]
        small = spans("on", 5 * grain)
        assert len(small) == 5
        assert min(hi - lo for lo, hi in small) >= grain
        # Big rounds and the fixed modes keep the full plan.
        assert len(spans("on", 1000 * grain)) == 4 * CHUNKS_PER_WORKER
        assert len(spans("off", 5 * grain)) == 4 * CHUNKS_PER_WORKER

    def test_forced_parallel_keeps_the_chunk_plan(self):
        with ExecutionContext(backend="threaded", workers=4,
                              adaptive="parallel") as ctx:
            out = ctx.map_chunks(lambda lo, hi: hi - lo, self.N)
        assert len(out) > 1 and sum(out) == self.N
        rec = ctx.dispatch_record()
        assert rec["decisions"] == {"inline": 0, "parallel": 1}

    def test_fault_plan_pins_chunk_coordinates(self):
        # The inlined round runs chunk by chunk, so (round, chunk)
        # draws fire at the coordinates a dispatched round would use.
        with ExecutionContext(backend="threaded", workers=4,
                              adaptive="inline", backoff=0.0,
                              faults="error@99.0") as ctx:
            out = ctx.map_chunks(lambda lo, hi: hi - lo, self.N)
        assert len(out) > 1 and sum(out) == self.N

    def test_off_mode_has_no_estimator(self):
        with ExecutionContext(backend="threaded", workers=4,
                              adaptive="off") as ctx:
            out = ctx.map_chunks(lambda lo, hi: hi - lo, self.N)
            assert len(out) > 1 and sum(out) == self.N
        assert ctx._estimator is None
        assert ctx.dispatch_record() is None

    def test_serial_backend_records_nothing(self):
        with ExecutionContext(backend="serial") as ctx:
            ctx.map_chunks(lambda lo, hi: hi - lo, self.N)
        assert ctx.dispatch_record() is None

    def test_on_mode_decides_every_eligible_round(self):
        with ExecutionContext(backend="threaded", workers=2,
                              adaptive="on") as ctx:
            for _ in range(5):
                out = ctx.map_chunks(_count_kernel(self.N), self.N)
            rec = ctx.dispatch_record()
        assert np.concatenate(out).size == self.N
        assert rec["decisions"]["inline"] + rec["decisions"]["parallel"] == 5
        assert rec["unit_s_global"] > 0  # seeded
        assert "threaded" in rec["dispatch_s"]

    def test_fused_failure_falls_back_to_wave_semantics(self):
        def boom(lo, hi):
            raise RuntimeError("boom")

        with ExecutionContext(backend="threaded", workers=4,
                              adaptive="inline", retries=1,
                              backoff=0.0) as ctx:
            with pytest.raises(ChunkError, match="items failed"):
                ctx.map_chunks(boom, self.N)

    def test_decision_counters_traced(self):
        from repro.obs import Tracer

        with ExecutionContext(backend="threaded", workers=4,
                              adaptive="inline", trace=Tracer()) as ctx:
            ctx.map_chunks(lambda lo, hi: hi - lo, self.N)
            series = ctx.tracer.metrics.get("dispatch.inline")
            assert series.total == 1


class TestChaosOnInlinedRounds:
    """A fault plan aimed at a round the adaptive layer inlines still
    fires, retries deterministically, and leaves colors bit-identical
    to the fault-free run."""

    @pytest.fixture(scope="class")
    def graph(self):
        return gnm_random(400, 1600, seed=5)

    def test_error_on_inlined_round_fires_and_recovers(self, graph):
        clean = jp_by_name(graph, "ADG", seed=0, eps=0.1)
        with ExecutionContext(backend="threaded", workers=4,
                              adaptive="inline", backoff=0.0,
                              faults="error@2.3;error@4.1") as ctx:
            chaos = jp_by_name(graph, "ADG", seed=0, eps=0.1, ctx=ctx)
        np.testing.assert_array_equal(chaos.colors, clean.colors)
        assert chaos.rounds == clean.rounds
        assert chaos.cost.work == clean.cost.work
        counters = chaos.faults["counters"]
        assert counters["fault.injected.error"] == 2
        assert counters["fault.retries"] == 2
        assert chaos.dispatch["decisions"]["parallel"] == 0

    def test_inline_vs_dispatched_chaos_counters_match(self, graph):
        """The same plan draws the same injections whether rounds are
        inlined or dispatched — coordinates are scheduling-invariant."""
        counters = {}
        for mode in ("inline", "parallel"):
            with ExecutionContext(backend="threaded", workers=4,
                                  adaptive=mode, backoff=0.0,
                                  faults="error@2.3;delay@3.0:0.001") as ctx:
                res = jp_by_name(graph, "ADG", seed=0, eps=0.1, ctx=ctx)
            counters[mode] = {
                k: v for k, v in res.faults["counters"].items()
                if k.startswith("fault.injected")}
        assert counters["inline"] == counters["parallel"]
        assert counters["inline"]["fault.injected.error"] == 1
