"""Bit-identity of the native kernel backend against the NumPy kernels.

The native backend's contract is *exact* agreement with
:class:`~repro.sim.batched.CompiledStageRouter` — same offered/delivered
counts and the same per-stage blocking — on every plan the compiled
kernels route: all four stage-graph families, both priorities, faulted
and buffered plans.  The ``python`` tier (the interpreted loop body)
always runs, pinning the loop logic on any host; the accelerated tiers
(``numba``, the runtime-compiled C kernel) join the same parametrization
whenever they are available and skip gracefully otherwise.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import NetworkSpec, RunConfig, build_router, resolve_backend
from repro.api.jobs import SweepCell, measure_cell
from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError
from repro.core.faults import WireFault
from repro.experiments.parallel import ParallelSweep
from repro.sim import native
from repro.sim.batched import CompiledStageRouter
from repro.sim.native import NativeStageRouter, available_tiers, kernel_for
from repro.sim.rng import make_rng
from repro.sim.stagegraph import (
    delta_graph,
    dilated_graph,
    edn_graph,
    omega_graph,
)

GRAPHS = {
    "edn": lambda: edn_graph(EDNParams(16, 4, 4, 2)),
    "delta": lambda: delta_graph(4, 4, 3),
    "omega": lambda: omega_graph(64),
    "dilated": lambda: dilated_graph(2, 2, 4, 2),
}

FAULTS = {
    "edn": (WireFault(1, 0, 0), WireFault(2, 1, 3)),
    "delta": (WireFault(1, 0, 0), WireFault(2, 1, 3)),
    "omega": (WireFault(1, 0, 1), WireFault(3, 2, 0)),
    "dilated": (WireFault(1, 0, 1), WireFault(2, 0, 0)),
}

#: The interpreted tier always runs; accelerated tiers when present.
TIERS = ("python",) + available_tiers()


def demands(graph, seed: int, batch: int) -> np.ndarray:
    rng = make_rng(seed)
    return rng.integers(-1, graph.n_outputs, size=(batch, graph.n_inputs))


def assert_counts_equal(got, want):
    np.testing.assert_array_equal(got.offered_per_cycle, want.offered_per_cycle)
    np.testing.assert_array_equal(
        got.delivered_per_cycle, want.delivered_per_cycle
    )
    assert got.blocked_by_stage == want.blocked_by_stage


class TestCountsBitIdentity:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("batch", [1, 6])
    def test_matches_batched(self, family, tier, seed, batch):
        graph = GRAPHS[family]()
        dests = demands(graph, seed, batch)
        want = CompiledStageRouter(graph).route_batch_counts(dests)
        got = NativeStageRouter(graph, tier=tier).route_batch_counts(dests)
        assert_counts_equal(got, want)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_matches_batched_with_faults(self, family, tier):
        graph = GRAPHS[family]()
        faults = FAULTS[family]
        dests = demands(graph, 3, 5)
        want = CompiledStageRouter(graph, faults=faults).route_batch_counts(dests)
        got = NativeStageRouter(
            graph, faults=faults, tier=tier
        ).route_batch_counts(dests)
        assert_counts_equal(got, want)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("depth", [1, 2])
    def test_matches_batched_on_buffered_plans(self, tier, depth):
        # Buffered plans lower buffers into extra stages of the same plan
        # format; the native kernel must route them identically too.
        graph = delta_graph(4, 4, 3)
        dests = demands(graph, 11, 4)
        want = CompiledStageRouter(graph, buffer_depth=depth).route_batch_counts(
            dests
        )
        got = NativeStageRouter(
            graph, buffer_depth=depth, tier=tier
        ).route_batch_counts(dests)
        assert_counts_equal(got, want)

    def test_random_priority_defers_to_inherited_engine(self):
        # Random priority resolves by seeded sort; the native router must
        # return the inherited engine's exact results (same rng stream).
        graph = delta_graph(4, 4, 3)
        dests = demands(graph, 5, 4)
        want = CompiledStageRouter(graph, priority="random").route_batch_counts(
            dests, make_rng(21)
        )
        got = NativeStageRouter(graph, priority="random").route_batch_counts(
            dests, make_rng(21)
        )
        assert_counts_equal(got, want)

    def test_shim_matches_batched_without_any_tier(self, monkeypatch):
        # Forcing the NumPy shim (tier None) must route through the
        # inherited kernels — the import-never-fails degradation path.
        monkeypatch.setenv("REPRO_NATIVE_TIER", "numpy")
        graph = delta_graph(4, 4, 3)
        router = NativeStageRouter(graph)
        assert router.tier is None
        dests = demands(graph, 2, 3)
        want = CompiledStageRouter(graph).route_batch_counts(dests)
        assert_counts_equal(router.route_batch_counts(dests), want)


class TestNumbaTier:
    def test_numba_tier_matches_batched(self):
        pytest.importorskip("numba")
        graph = delta_graph(4, 4, 3)
        dests = demands(graph, 13, 4)
        want = CompiledStageRouter(graph).route_batch_counts(dests)
        got = NativeStageRouter(graph, tier="numba").route_batch_counts(dests)
        assert_counts_equal(got, want)


class TestKernelCache:
    def test_warm_equals_cold(self):
        # Two routers over equivalent graphs share one cached plan, and
        # the lowered kernel rides it: the second construction reuses the
        # kernel object and produces bit-identical counts.
        graph = delta_graph(4, 4, 3)
        cold = NativeStageRouter(graph, tier="python")
        dests = demands(graph, 9, 4)
        first = cold.route_batch_counts(dests)
        warm = NativeStageRouter(delta_graph(4, 4, 3), tier="python")
        assert kernel_for(warm._plan, "python") is kernel_for(cold._plan, "python")
        assert_counts_equal(warm.route_batch_counts(dests), first)


@pytest.mark.skipif(not available_tiers(), reason="no accelerated native tier")
class TestParallelSweepAgreement:
    def test_jobs2_matches_jobs1_under_native(self):
        specs = [
            NetworkSpec.delta(4, 4, 2),
            NetworkSpec.omega(16),
            NetworkSpec.edn(8, 2, 4, 2),
        ]
        config = RunConfig(cycles=16, seed=3, batch=4, backend="native")
        cells = [SweepCell(spec, config) for spec in specs]
        inline = ParallelSweep(jobs=1).map_cells(cells)
        fanned = ParallelSweep(jobs=2).map_cells(cells)
        for a, b in zip(inline, fanned):
            assert a.point == b.point
            assert a.blocked_by_stage == b.blocked_by_stage

    def test_sweep_forked_after_parent_kernel_finishes(self):
        # A threaded kernel leaves a thread pool behind that does not
        # survive fork: every forked worker's first kernel call used to
        # deadlock once the parent had run one.  Run that sequence in a
        # fresh interpreter, in its own process group, under a deadline,
        # so a regression fails here instead of hanging the suite.
        script = textwrap.dedent(
            """
            from repro.api import NetworkSpec, RunConfig
            from repro.api.jobs import SweepCell, measure_cell
            from repro.experiments.parallel import ParallelSweep

            config = RunConfig(cycles=64, seed=1, batch=8, backend="native")
            cells = [SweepCell(NetworkSpec.delta(4, 4, n), config) for n in (2, 3, 4)]
            inline = [measure_cell(cell) for cell in cells]
            fanned = ParallelSweep(jobs=2).map_cells(cells)
            assert [c.point for c in fanned] == [c.point for c in inline]
            print("ok")
            """
        )
        env = dict(os.environ)
        env.pop("OMP_NUM_THREADS", None)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("jobs=2 sweep forked after a parent kernel call hung")
        assert proc.returncode == 0, err
        assert out.strip() == "ok"

    def test_buffered_cell_accepts_native(self):
        from dataclasses import replace

        spec = NetworkSpec.delta(4, 4, 2)
        config = RunConfig(
            cycles=16, seed=5, batch=4, backend="native", buffer_depth=2
        )
        auto = measure_cell(SweepCell(spec, replace(config, backend="auto")))
        nat = measure_cell(SweepCell(spec, config))
        assert nat.delivered == auto.delivered
        assert nat.throughput == auto.throughput


class TestRegistryGating:
    def test_explicit_native_names_the_extra_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            native,
            "unavailable_reason",
            lambda: (
                "the native backend needs numba (pip install 'repro[native]') "
                "or a C compiler (cc/gcc/clang) on PATH; neither is available"
            ),
        )
        with pytest.raises(ConfigurationError, match=r"repro\[native\]"):
            build_router(NetworkSpec.delta(4, 4, 2), "native")

    def test_auto_skips_native_when_no_tier(self, monkeypatch):
        monkeypatch.setattr(native, "available_tiers", lambda: ())
        monkeypatch.setattr(native, "unavailable_reason", lambda: "gone")
        spec = NetworkSpec.delta(4, 4, 2)
        assert resolve_backend(spec).name == "batched"
        from repro.api import available_backends

        assert "native" not in available_backends(spec)


class TestWideRadixAllocationFree:
    def test_onehot_fallback_performs_no_chunk_sized_allocations(self):
        # radix 16 -> packed lanes would need 128 bits -> one-hot fallback.
        import tracemalloc

        graph = delta_graph(16, 16, 2)
        router = CompiledStageRouter(graph)
        dests = demands(graph, 23, 4)
        router.route_batch_counts(dests)  # warm the scratch buffers
        chunk_bytes = graph.n_inputs  # smallest chunk-sized block (1 B/wire)
        tracemalloc.start()
        for _ in range(5):
            router.route_batch_counts(dests)
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        big = [
            stat
            for stat in snapshot.statistics("lineno")
            if stat.size / max(stat.count, 1) >= chunk_bytes
        ]
        assert big == []

    def test_onehot_fallback_matches_interpreted_loop(self):
        graph = delta_graph(16, 16, 2)
        dests = demands(graph, 29, 4)
        want = NativeStageRouter(graph, tier="python").route_batch_counts(dests)
        got = CompiledStageRouter(graph).route_batch_counts(dests)
        assert_counts_equal(got, want)
