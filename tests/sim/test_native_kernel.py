"""Bit-identity of the native kernel backend against the NumPy kernels.

The native backend's contract is *exact* agreement with
:class:`~repro.sim.batched.CompiledStageRouter` — same offered/delivered
counts and the same per-stage blocking — on every plan the compiled
kernels route: all four stage-graph families, both priorities, faulted
and buffered plans.  The label-priority cases also run against
:class:`~repro.sim.stagegraph.StageGraphReference`, the independent
interpreter, so a plan error both compiled routers share still fails.
The native backend is one plan-specialized C kernel, so these cases run
wherever a working C compiler is present and skip otherwise; the
registry-gating cases fake a failed compiler probe and run everywhere.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from collections import Counter
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
from repro.sim.batched import BatchAcceptanceCounts, CompiledStageRouter
from repro.sim.native import NativeStageRouter, available_tiers, kernel_for
from repro.sim.rng import make_rng
from repro.sim.stagegraph import (
    StageGraphReference,
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

needs_cc = pytest.mark.skipif(not available_tiers(), reason="no working C compiler")


def demands(graph, seed: int, batch: int) -> np.ndarray:
    rng = make_rng(seed)
    return rng.integers(-1, graph.n_outputs, size=(batch, graph.n_inputs))


def assert_counts_equal(got, want):
    np.testing.assert_array_equal(got.offered_per_cycle, want.offered_per_cycle)
    np.testing.assert_array_equal(
        got.delivered_per_cycle, want.delivered_per_cycle
    )
    assert got.blocked_by_stage == want.blocked_by_stage


def reference_counts(graph, dests, faults=()) -> BatchAcceptanceCounts:
    """Counts of ``dests`` routed cycle by cycle on the reference interpreter."""
    reference = StageGraphReference(graph, faults=faults)
    rows = [reference.route(row) for row in dests]
    blocked = Counter()
    for row in rows:
        blocked.update(row.blocked_stage_histogram())
    return BatchAcceptanceCounts(
        offered_per_cycle=np.array([row.num_offered for row in rows]),
        delivered_per_cycle=np.array([row.num_delivered for row in rows]),
        blocked_by_stage=dict(blocked),
    )


@needs_cc
class TestCountsBitIdentity:
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("batch", [1, 6])
    def test_matches_batched(self, family, seed, batch):
        graph = GRAPHS[family]()
        dests = demands(graph, seed, batch)
        want = CompiledStageRouter(graph).route_batch_counts(dests)
        got = NativeStageRouter(graph).route_batch_counts(dests)
        assert_counts_equal(got, want)

    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_matches_batched_with_faults(self, family):
        graph = GRAPHS[family]()
        faults = FAULTS[family]
        dests = demands(graph, 3, 5)
        want = CompiledStageRouter(graph, faults=faults).route_batch_counts(dests)
        got = NativeStageRouter(graph, faults=faults).route_batch_counts(dests)
        assert_counts_equal(got, want)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_matches_batched_on_buffered_plans(self, depth):
        # Buffered plans lower buffers into extra stages of the same plan
        # format; the native kernel must route them identically too.
        graph = delta_graph(4, 4, 3)
        dests = demands(graph, 11, 4)
        want = CompiledStageRouter(graph, buffer_depth=depth).route_batch_counts(
            dests
        )
        got = NativeStageRouter(graph, buffer_depth=depth).route_batch_counts(dests)
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


@needs_cc
class TestReferenceAgreement:
    # The label-priority cases again, against StageGraphReference: it
    # shares no plan, lowering or kernel code with either compiled router,
    # so an error common to the plan and both kernels cannot pass here.
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("batch", [1, 6])
    def test_matches_reference(self, family, seed, batch):
        graph = GRAPHS[family]()
        dests = demands(graph, seed, batch)
        got = NativeStageRouter(graph).route_batch_counts(dests)
        assert_counts_equal(got, reference_counts(graph, dests))

    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_matches_reference_with_faults(self, family):
        graph = GRAPHS[family]()
        faults = FAULTS[family]
        dests = demands(graph, 3, 5)
        got = NativeStageRouter(graph, faults=faults).route_batch_counts(dests)
        assert_counts_equal(got, reference_counts(graph, dests, faults))

    @pytest.mark.parametrize("depth", [1, 2])
    def test_matches_reference_on_buffered_plans(self, depth):
        # A buffered plan's count path is the single-cycle discipline (its
        # FIFOs serve buffered stepping only), so the unbuffered
        # interpreter is its oracle.
        graph = delta_graph(4, 4, 3)
        dests = demands(graph, 11, 4)
        got = NativeStageRouter(graph, buffer_depth=depth).route_batch_counts(dests)
        assert_counts_equal(got, reference_counts(graph, dests))


@needs_cc
class TestTierReport:
    def test_router_reports_the_cc_tier(self):
        # Traced runs count native routers by their ``tier``; with one
        # kernel left it names the C tier, as both host probes do.
        assert available_tiers() == ("cc",)
        assert native.default_tier() == "cc"
        assert NativeStageRouter(delta_graph(4, 4, 3)).tier == "cc"


@needs_cc
class TestKernelCache:
    def test_warm_equals_cold(self):
        # Two routers over equivalent graphs share one cached plan, and
        # the lowered kernel rides it: the second construction reuses the
        # kernel object and produces bit-identical counts.
        graph = delta_graph(4, 4, 3)
        cold = NativeStageRouter(graph)
        dests = demands(graph, 9, 4)
        first = cold.route_batch_counts(dests)
        warm = NativeStageRouter(delta_graph(4, 4, 3))
        assert kernel_for(warm._plan) is kernel_for(cold._plan)
        assert_counts_equal(warm.route_batch_counts(dests), first)


@needs_cc
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
    def test_explicit_native_names_the_compiler_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(native, "_probe_cc", lambda: "cc: not found")
        with pytest.raises(ConfigurationError, match="C compiler") as err:
            build_router(NetworkSpec.delta(4, 4, 2), "native")
        assert "cc: not found" in str(err.value)
        assert "[native]" not in str(err.value)

    def test_auto_skips_native_when_no_tier(self, monkeypatch):
        monkeypatch.setattr(native, "unavailable_reason", lambda: "gone")
        spec = NetworkSpec.delta(4, 4, 2)
        assert resolve_backend(spec).name == "batched"
        from repro.api import available_backends

        assert "native" not in available_backends(spec)

    def test_router_names_the_compiler_when_the_probe_fails(self, monkeypatch):
        monkeypatch.setattr(native, "_probe_cc", lambda: "cc: not found")
        assert native.available_tiers() == ()
        assert native.default_tier() is None
        assert resolve_backend(NetworkSpec.delta(4, 4, 3)).name == "batched"
        with pytest.raises(ConfigurationError, match="C compiler"):
            NativeStageRouter(delta_graph(4, 4, 3))


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
        got = CompiledStageRouter(graph).route_batch_counts(dests)
        assert_counts_equal(got, reference_counts(graph, dests))
