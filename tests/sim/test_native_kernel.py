"""Bit-identity of the native kernel backend against the NumPy kernels.

The native backend's contract is *exact* agreement with
:class:`~repro.sim.batched.CompiledStageRouter` — same offered/delivered
counts and the same per-stage blocking — on every plan the compiled
kernels route: all four stage-graph families, both priorities, faulted
and buffered plans.  The label-priority cases also run against
:class:`~repro.sim.stagegraph.StageGraphReference`, the independent
interpreter, so a plan error both compiled routers share still fails.
The label-priority kernel is one C lane kernel per wire dtype that routes
``native._LANES`` cycles per SIMD vector and takes stage shapes as data,
so the boundary cases sit at the edges of a lane block, of the wire
dtype and of its register-file routines.  These cases run wherever a
working C compiler is present and skip otherwise; the registry-gating
cases fake a failed compiler probe and run everywhere.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import os
import signal
import subprocess
import sys
import textwrap
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import NetworkSpec, RunConfig, build_router, resolve_backend
from repro.api.jobs import SweepCell, measure_cell
from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError, LabelError
from repro.core.faults import WireFault
from repro.experiments.parallel import ParallelSweep
from repro.sim import native
from repro.sim.batched import BatchAcceptanceCounts, CompiledStageRouter
from repro.sim.native import (
    NativeKernel,
    NativeStageRouter,
    available_tiers,
    kernel_for,
)
from repro.sim.plan import compile_stage_plan
from repro.sim.rng import make_rng
from repro.sim.stagegraph import (
    GraphStage,
    StageGraph,
    StageGraphReference,
    delta_graph,
    dilated_graph,
    edn_graph,
    omega_graph,
)
from repro.workloads import make_traffic
from repro.workloads.models import FixedPattern, HotspotTraffic, UniformTraffic

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

#: Cycles per kernel block.
L = native._LANES


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


def check_native(graph, dests, faults=()) -> BatchAcceptanceCounts:
    """Native counts, asserted equal to both compiled and reference counts."""
    got = NativeStageRouter(graph, faults=faults).route_batch_counts(dests)
    want = CompiledStageRouter(graph, faults=faults).route_batch_counts(dests)
    assert_counts_equal(got, want)
    assert_counts_equal(got, reference_counts(graph, dests, faults))
    return got


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

    def test_random_priority_matches_batched_under_one_generator(self):
        # One generator draws one permutation per stage over the whole
        # batch's survivors: the C kernel must reproduce the NumPy sort
        # path's draws and results exactly.
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
class TestDemandDtype:
    """The label kernel reads demands in the plan's wire dtype (int16 here)."""

    def test_label_router_advertises_its_wire_dtype(self):
        graph = delta_graph(4, 4, 3)
        assert NativeStageRouter(graph).demand_dtype == np.int16
        # Random priority runs in C too and reads the same narrow labels.
        assert NativeStageRouter(graph, priority="random").demand_dtype == np.int16
        assert not hasattr(CompiledStageRouter(graph), "demand_dtype")

    def test_too_wide_label_raises_before_the_narrowing_cast(self):
        # 2**16 + 5 wraps to 5 in int16, a valid label: only a bounds check
        # on the matrix as given can reject it.
        router = NativeStageRouter(delta_graph(4, 4, 3))
        dests = demands(router.graph, 1, 3)
        dests[1, 7] = 2**16 + 5
        with pytest.raises(LabelError, match="out-of-range"):
            router.route_batch_counts(dests)

    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_int16_and_int64_demands_route_identically(self, family):
        graph = GRAPHS[family]()
        wide = demands(graph, 4, L + 3)
        narrow = wide.astype(np.int16)
        router = NativeStageRouter(graph)
        want = router.route_batch_counts(wide)
        assert_counts_equal(router.route_batch_counts(narrow), want)
        kernel = kernel_for(router._plan)
        ws = router._plan.workspace()
        assert_counts_equal(kernel.counts(narrow, ws), want)
        assert_counts_equal(kernel.counts(wide, ws), want)

    def test_measure_acceptance_draws_chunks_in_the_wire_dtype(self, monkeypatch):
        from repro.sim.montecarlo import measure_acceptance
        from repro.workloads import make_traffic

        graph = delta_graph(4, 4, 3)
        seen = []
        original = NativeKernel.counts

        def spy(self, dests, ws):
            seen.append(dests.dtype)
            return original(self, dests, ws)

        monkeypatch.setattr(NativeKernel, "counts", spy)
        # A model the lane kernel cannot draw, so every chunk is a matrix.
        traffic = make_traffic("permutation:0.5", 64, 64)
        got = measure_acceptance(NativeStageRouter(graph), traffic, cycles=70, seed=3)
        monkeypatch.undo()
        want = measure_acceptance(CompiledStageRouter(graph), traffic, cycles=70, seed=3)
        assert seen and set(seen) == {np.dtype(np.int16)}
        assert (got.offered, got.delivered, got.acceptance) == (
            want.offered, want.delivered, want.acceptance
        )


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
class TestLaneKernelBoundaries:
    # Explicit examples at the lane kernel's edges: partial and multiple
    # lane blocks, rows that never or always collide, the int16 -> int32
    # wire switch, faulted and pure exit columns, shift registers of
    # depth 1 and deeper (also deeper than the fan-in), 64-wide buckets,
    # and the portable build without -march=native.
    @pytest.mark.parametrize("batch", [1, L - 1, L, L + 1, 2 * L + 3])
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_lane_block_edges(self, family, batch):
        graph = GRAPHS[family]()
        check_native(graph, demands(graph, batch, batch))

    @pytest.mark.parametrize("batch", [L - 1, L + 1])
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_lane_block_edges_with_faults(self, family, batch):
        graph = GRAPHS[family]()
        check_native(graph, demands(graph, batch, batch), FAULTS[family])

    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_all_idle_rows(self, family):
        graph = GRAPHS[family]()
        dests = np.full((L + 1, graph.n_inputs), -1, dtype=np.int64)
        got = check_native(graph, dests)
        assert not got.offered_per_cycle.any()
        assert not got.delivered_per_cycle.any()

    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_all_to_one_rows(self, family):
        # Every input wants one output (row-dependent), in a block that
        # also holds idle and uniform rows.
        graph = GRAPHS[family]()
        dests = demands(graph, 19, 2 * L + 3)
        dests[::2] = (np.arange(dests.shape[0])[::2, None] * 7) % graph.n_outputs
        dests[1::4] = -1
        got = check_native(graph, dests)
        assert (got.offered_per_cycle[::2] == graph.n_inputs).all()
        delivered = got.delivered_per_cycle[::2]
        assert ((delivered >= 1) & (delivered <= 1 << graph.out_shift)).all()

    def test_int32_wire_plan(self):
        graph = delta_graph(8, 8, 5)  # N = 2**15: past the int16 range
        assert compile_stage_plan(graph).wire_dtype == np.int32
        check_native(graph, demands(graph, 17, 2))

    def test_faulted_last_stage(self):
        # The EDN's crossbar column and a delta's 1x1 exit column, each
        # with dead wires: the exit column then needs the general path.
        edn = edn_graph(EDNParams(16, 4, 4, 2))
        check_native(edn, demands(edn, 5, L + 1), (WireFault(3, 0, 1), WireFault(3, 5, 0)))
        delta = delta_graph(4, 4, 3)
        check_native(delta, demands(delta, 6, L + 1), (WireFault(4, 7, 0),))

    def test_pure_exit_column(self):
        # The kernel skips a last row of fan-in 1, radix 1 and no faults:
        # every live row delivers.
        graph = delta_graph(4, 4, 3)
        last = graph.stages[-1]
        assert (last.fan_in, last.radix, last.capacity) == (1, 1, 1)
        tables = kernel_for(compile_stage_plan(graph)).tables
        row = dict(zip(native._L_FIELDS, tables.stages[-1].tolist()))
        assert (row["FIB"], row["RMASK"], row["ALIVE"]) == (0, 0, -1)
        check_native(graph, demands(graph, 8, L + 1))

    @pytest.mark.parametrize(
        "graph",
        [
            delta_graph(4, 4, 3),           # capacity 1
            dilated_graph(4, 4, 2, 2),      # capacity 2
            edn_graph(EDNParams(16, 4, 4, 2)),  # capacity 4
            edn_graph(EDNParams(8, 2, 8, 2)),   # capacity 8 == fan-in
            dilated_graph(2, 2, 3, 4),      # capacity 4 > fan-in 2
        ],
        ids=lambda g: g.label,
    )
    def test_capacity(self, graph):
        dests = demands(graph, 9, L + 1)
        dests[: L // 2, : graph.n_inputs // 2] = 0  # a hot output
        check_native(graph, dests)

    def test_64_wide_bucket(self):
        graph = delta_graph(64, 64, 2)
        assert graph.stages[0].radix == 64
        dests = demands(graph, 4, L + 1)
        dests[::3, ::2] = 63
        check_native(graph, dests)

    def test_portable_build_without_march_native(
        self, monkeypatch, tmp_path, fresh_native_state
    ):
        # Without -march=native an x86-64 build computes on 16-byte
        # vectors, so each 32-lane row is four of them.
        monkeypatch.setattr(native, "_FLAG_LADDER", ((),))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        graph, faults = edn_graph(EDNParams(16, 4, 4, 2)), FAULTS["edn"]
        plan = compile_stage_plan(graph, faults=faults)
        kernel = native.NativeKernel(plan)
        assert len(list(tmp_path.glob("repro_lanes16_*.so"))) == 1
        dests = demands(graph, 13, 2 * L + 3)
        got = kernel.counts(dests, plan.workspace())
        want = CompiledStageRouter(graph, faults=faults).route_batch_counts(dests)
        assert_counts_equal(got, want)
        assert_counts_equal(got, reference_counts(graph, dests, faults))


#: -march settings that build the lane kernel's entry and stages on each
#: vector width of an x86-64 host: 64-byte vectors with AVX-512BW, 32 with
#: AVX2 (x86-64-v3), 16 on the base ISA.
MARCHES = ("native", "x86-64-v3", "x86-64")

#: Plans whose first column is narrower than a vector (N of 2, 8 and 16),
#: an input permutation, faulted plans, and an int32 plan.
WIDTH_CASES = {
    "delta:2,2,1": lambda: (delta_graph(2, 2, 1), ()),
    "edn:4,4,2,2": lambda: (edn_graph(EDNParams(4, 4, 2, 2)), ()),
    "omega:16": lambda: (omega_graph(16), ()),
    "omega:64": lambda: (omega_graph(64), ()),
    "edn:16,4,4,2+faults": lambda: (GRAPHS["edn"](), FAULTS["edn"]),
    "dilated:2,2,4,2+faults": lambda: (GRAPHS["dilated"](), FAULTS["dilated"]),
    "delta:2,8,5 (int32)": lambda: (delta_graph(2, 8, 5), ()),
}


def routine_graph(cap: int, group: int):
    """Two columns that both run lane routine ``(cap, group)``, with dead
    wires on both: the first switch's last wire of column 1, and the
    first and the last wire of column 2.

    A full register file (``cap x group == _GROUP_SLOTS``) gets two groups
    of buckets, so its routine loops over them; a smaller one gets exactly
    ``group`` buckets, the whole radix.
    """
    radix = group if cap * group < native._GROUP_SLOTS else 2 * group
    fan_in = max(4, 2 * cap)  # more inputs than slots, so buckets block
    n = 64
    width = n // fan_in * radix * cap
    final = width // fan_in * radix * cap
    bits, out_bits = width.bit_length() - 1, 2 * (radix.bit_length() - 1)
    graph = StageGraph(
        label=f"routine:{cap},{group}",
        n_inputs=n,
        n_outputs=1 << out_bits,
        stages=(
            GraphStage(fan_in, radix, cap, out_bits // 2, link_perm=("rotl", bits, 1)),
            GraphStage(fan_in, radix, cap, 0),
        ),
        out_shift=final.bit_length() - 1 - out_bits,
    )
    bw = radix * cap
    faults = (WireFault(1, 0, bw - 1), WireFault(2, 0, 0),
              WireFault(2, width // fan_in - 1, bw - 1))
    return graph, faults


@functools.cache
def cannot_run(march: str):
    """Why a ``-march=march`` build cannot run on this host, or ``None``."""
    if march == "native":
        return None
    proc = subprocess.run(
        [native._compiler(), "-march=native", "-dM", "-E", "-"],
        input="", capture_output=True, text=True,
    )
    needs = ("__x86_64__", "__AVX2__") if march == "x86-64-v3" else ("__x86_64__",)
    missing = [macro for macro in needs if f"#define {macro} " not in proc.stdout]
    return f"the host lacks {', '.join(missing)}" if missing else None


@needs_cc
class TestEntryTranspose:
    """The lane library on every vector width this host runs: its entry (a
    block transpose by SIMD shuffles) alone, every routine of its table,
    and whole kernels."""

    @pytest.fixture(scope="class")
    def width_caches(self, tmp_path_factory):
        return {march: tmp_path_factory.mktemp(f"native-{march}") for march in MARCHES}

    @pytest.fixture(params=MARCHES)
    def vector_width(self, request, monkeypatch, width_caches, fresh_native_state):
        """The probe library and the lane kernels built with ``-march=param``."""
        march = request.param
        reason = cannot_run(march)
        if reason is not None:
            pytest.skip(reason)
        monkeypatch.setattr(native, "_FLAG_LADDER", ((f"-march={march}",),))
        fresh_native_state()  # nothing probed or built at another width
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(width_caches[march]))
        if native._probe_cc() is not None:
            pytest.skip(f"-march={march} does not build here: {native._cc_error}")
        return march

    @pytest.mark.parametrize("n", [2, 8, 16, 64])
    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_entry_transposes_every_block(self, vector_width, dtype, n):
        # Two whole lane blocks and three cycles of a third, labels across
        # the dtype's range and idle, through no permutation and a drawn one.
        batch = 2 * L + 3
        rng = make_rng(n)
        dests = rng.integers(-1, np.iinfo(dtype).max, size=(batch, n), endpoint=True)
        dests[rng.random(dests.shape) < 0.25] = -1
        dests = dests.astype(dtype)
        enter = native._lane_library(dtype).repro_enter
        enter.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                          ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
        for perm in (None, rng.permutation(n)):
            rows = np.arange(n) if perm is None else perm
            for c0 in range(0, batch, L):
                nb = min(L, batch - c0)
                frontier = np.full((n, L), 7, dtype=dtype)  # stale scratch
                live = np.full(L, 7, dtype=dtype)
                enter(
                    dests.ctypes.data, n, c0, nb,
                    None if perm is None else perm.ctypes.data,
                    frontier.ctypes.data, live.ctypes.data,
                )
                want = np.full((n, L), -1, dtype=dtype)
                want[rows, :nb] = dests[c0 : c0 + nb].T
                np.testing.assert_array_equal(frontier, want)
                np.testing.assert_array_equal(
                    live, np.r_[(dests[c0 : c0 + nb] >= 0).sum(axis=1), [0] * (L - nb)]
                )

    def test_every_routine(self, vector_width):
        # One graph per routine, each column of it faulted, against both
        # engines; a routine added to the table without a graph fails here.
        cases = {}
        for cap, group in native._ROUTINES:
            graph, faults = routine_graph(cap, group)
            for stage in graph.stages:
                slots = native._GROUP_SLOTS // stage.capacity
                picked = (stage.capacity, min(stage.radix, slots))
                cases.setdefault(picked, (graph, faults))
        assert sorted(cases) == sorted(native._ROUTINES)
        for graph, faults in cases.values():
            plan = compile_stage_plan(graph, faults=faults)
            for batch in (1, L + 1):
                dests = demands(graph, batch, batch)
                dests[::2, : graph.n_inputs // 2] = 0  # a hot output
                got = native.NativeKernel(plan).counts(dests, plan.workspace())
                want = CompiledStageRouter(graph, faults=faults).route_batch_counts(dests)
                assert_counts_equal(got, want)
                assert_counts_equal(got, reference_counts(graph, dests, faults))

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_drawn_entry_matches_the_matrix_entry(self, vector_width, dtype):
        # The load-time check passes at this width, and every plan below
        # lowered in `dtype` counts drawn chunks as it counts the matrix,
        # in whole and partial lane blocks (and PCG64 lane groups).
        assert native._lane_draws(dtype)
        for case in sorted(WIDTH_CASES):
            graph, faults = WIDTH_CASES[case]()
            plan = compile_stage_plan(graph, faults=faults)
            if np.dtype(dtype).itemsize < plan.wire_dtype.itemsize:
                continue
            plan.wire_dtype = np.dtype(dtype)  # a private plan, lowered in `dtype`
            kernel, ws = native.NativeKernel(plan), plan.workspace()
            n, m = graph.n_inputs, graph.n_outputs
            for traffic in (
                UniformTraffic(n, m, rate=0.37),
                HotspotTraffic(n, m, rate=0.6, hot_fraction=0.1, hot_output=m - 1),
                FixedPattern(np.arange(n)[::-1] % m, m, rate=0.37),
            ):
                ours, theirs = make_rng(3), make_rng(3)
                for batch in (1, L - 1, L + 1, 2 * L + 3):
                    got = kernel.drawn_counts(traffic.draw_descriptor(), ours, batch, ws)
                    want = kernel.counts(traffic.generate_batch(theirs, batch, dtype), ws)
                    assert_counts_equal(got, want)
                    assert native._stream_state(ours) == native._stream_state(theirs)

    @pytest.mark.parametrize("batch", [1, L - 1, L + 1, 2 * L + 3])
    @pytest.mark.parametrize("case", sorted(WIDTH_CASES))
    def test_kernel_matches_both_engines(self, vector_width, case, batch):
        graph, faults = WIDTH_CASES[case]()
        plan = compile_stage_plan(graph, faults=faults)
        dests = demands(graph, batch, batch)
        got = native.NativeKernel(plan).counts(dests, plan.workspace())
        want = CompiledStageRouter(graph, faults=faults).route_batch_counts(dests)
        assert_counts_equal(got, want)
        assert_counts_equal(got, reference_counts(graph, dests, faults))
        assert got.offered_per_cycle.tolist() == (dests >= 0).sum(axis=1).tolist()


def _off_by_one_bit(descriptor):
    return dataclasses.replace(descriptor, shift=descriptor.shift + 1)


def _rate_flipped(descriptor):
    bound, ge = descriptor.rate
    return dataclasses.replace(descriptor, rate=(bound, not ge))


def _pattern_to_one_output(descriptor):
    return dataclasses.replace(descriptor, pattern=np.zeros_like(descriptor.pattern))


@needs_cc
@pytest.mark.parametrize(
    "model, wrong",
    [
        (UniformTraffic, _off_by_one_bit),
        (FixedPattern, _rate_flipped),
        (FixedPattern, _pattern_to_one_output),
    ],
)
def test_load_check_turns_wrong_lane_draws_off(monkeypatch, model, wrong):
    """A wrong descriptor fails the lane draws' load-time check, and every
    chunk then takes the demand matrix."""
    assert native._lane_draws(np.int16)
    real = model.draw_descriptor
    monkeypatch.setattr(model, "draw_descriptor", lambda self: wrong(real(self)))
    monkeypatch.setattr(native, "_lane_draw_checks", {})
    assert not native._lane_draws(np.int16)
    router = NativeStageRouter(omega_graph(64))
    rng = make_rng(1)
    assert router.draw_batch_counts(make_traffic("hotspot:0.1", 64, 64), rng, L) is None


@needs_cc
class TestShapesAsData:
    """One lane library per wire dtype routes every stage shape."""

    def test_new_shapes_build_nothing(self, monkeypatch):
        first = delta_graph(4, 4, 3)
        check_native(first, demands(first, 1, 5))
        builds = []
        original = native._build_shared_object

        def counted(source, stem):
            builds.append(stem)
            return original(source, stem)

        monkeypatch.setattr(native, "_build_shared_object", counted)
        shapes = [
            (edn_graph(EDNParams(16, 4, 4, 2)), FAULTS["edn"]),
            (omega_graph(64), ()),
            (omega_graph(256), FAULTS["omega"]),
            (dilated_graph(2, 2, 4, 2), FAULTS["dilated"]),
            (dilated_graph(4, 4, 2, 2), ()),
            (delta_graph(2, 4, 3), ()),
            (delta_graph(8, 8, 2), (WireFault(3, 1, 0),)),
            (edn_graph(EDNParams(8, 2, 8, 2)), (WireFault(1, 0, 5),)),
        ]
        for graph, faults in shapes:
            plan = compile_stage_plan(graph, faults=faults)
            assert plan.wire_dtype == np.int16
            dests = demands(graph, 3, L + 1)
            got = native.NativeKernel(plan).counts(dests, plan.workspace())
            want = CompiledStageRouter(graph, faults=faults).route_batch_counts(dests)
            assert_counts_equal(got, want)
        assert builds == []

    def test_capacity_16_routes_on_numpy(self, monkeypatch):
        # No lane routine holds 16 slots of one bucket: such a plan builds
        # nothing and routes on the inherited NumPy kernels.
        builds = []
        monkeypatch.setattr(native, "_lane_libs", {})
        monkeypatch.setattr(
            native, "_build_shared_object", lambda source, stem: builds.append(stem)
        )
        graph = edn_graph(EDNParams(32, 2, 16, 2))
        assert max(stage.capacity for stage in graph.stages) == 16
        router = NativeStageRouter(graph)
        dests = demands(graph, 12, L + 1)
        dests[: L // 2, : graph.n_inputs // 2] = 5
        check_native(graph, dests)
        assert kernel_for(router._plan).tables is None
        assert builds == [] and native._lane_libs == {}


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


@needs_cc
class TestToolchainProbe:
    @pytest.mark.parametrize("feature", ["vector_size", "__builtin_shuffle"])
    def test_compiler_without_vector_types_reports_native_unavailable(
        self, monkeypatch, tmp_path, feature
    ):
        # A compiler that builds plain C but rejects the vector extension
        # or the entry transpose's shuffle builtin (the lane kernel's) must
        # fail the probe, so ``auto`` picks ``batched`` instead of raising
        # on the first cell.
        fake = tmp_path / "cc"
        fake.write_text(
            "#!/bin/sh\n"
            'for arg; do case "$arg" in *.c)\n'
            f'  if grep -q {feature} "$arg"; then\n'
            f'    echo "{feature} unsupported" >&2; exit 1\n'
            "  fi;;\n"
            "esac; done\n"
            f'exec {native._compiler()} "$@"\n'
        )
        fake.chmod(0o755)
        monkeypatch.setattr(native, "_compiler", lambda: str(fake))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(native, "_cc_probed", False)
        monkeypatch.setattr(native, "_cc_error", None)
        plain = native._build_shared_object("long plain(void) { return 1; }\n", "plain")
        assert plain.exists()
        assert native.available_tiers() == ()
        assert f"{feature} unsupported" in native.unavailable_reason()
        assert resolve_backend(NetworkSpec.delta(4, 4, 2)).name == "batched"

    def test_kernel_cache_is_keyed_by_isa_fingerprint(self, monkeypatch, tmp_path):
        # A cache directory shared by an AVX-512 host and an AVX2 host
        # must never hand one host the other's -march=native build.
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        source = "long keyed(void) { return 7; }\n"
        monkeypatch.setattr(native, "_isa_fingerprint", lambda compiler: "avx512")
        first = native._build_shared_object(source, "keyed")
        again = native._build_shared_object(source, "keyed")
        monkeypatch.setattr(native, "_isa_fingerprint", lambda compiler: "avx2")
        other = native._build_shared_object(source, "keyed")
        assert first == again
        assert other != first
        assert first.exists() and other.exists()

    def test_concurrent_first_builds_all_load(self, monkeypatch, tmp_path):
        # Threads (like serve workers meeting one new plan) building one
        # source into an empty cache each compile their own copy and
        # publish it by rename: every one loads a whole object, and no
        # temp file is left behind.
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
        source = "long racing(void) { return 11; }\n"
        start = threading.Barrier(4)
        loaded, errors = [], []

        def build():
            try:
                start.wait(30)
                path = native._build_shared_object(source, "racing")
                loaded.append(ctypes.CDLL(str(path)).racing())
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert errors == []
        assert loaded == [11] * 4
        names = sorted(path.name for path in cache.iterdir())
        assert len(names) == 2 and not any(name.startswith(".") for name in names)
        assert names[0].endswith(".c") and names[1] == names[0][:-2] + ".so"

    def test_kernel_cache_is_keyed_by_compile_command(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        source = "long keyed(void) { return 7; }\n"
        first = native._build_shared_object(source, "keyed")
        monkeypatch.setattr(native, "_OPT_LEVEL", "-O1")
        assert native._build_shared_object(source, "keyed") != first

    def test_isa_fingerprint_is_computed_once_per_compiler(self, monkeypatch):
        compiler = native._compiler()
        fingerprint = native._isa_fingerprint(compiler)

        def no_subprocess(*args, **kwargs):
            raise AssertionError("fingerprint recomputed")

        monkeypatch.setattr(native.subprocess, "run", no_subprocess)
        assert native._isa_fingerprint(compiler) == fingerprint


def contended_cells():
    """A random-priority cell and label/random buffered cells, one faulted."""
    faults = (WireFault(1, 0, 1),)
    return [
        SweepCell(NetworkSpec.delta(4, 4, 3, priority="random"),
                  RunConfig(cycles=70, seed=3, traffic="hotspot:0.1")),
        SweepCell(NetworkSpec.omega(64, priority="random", faults=faults),
                  RunConfig(cycles=40, seed=4)),
        SweepCell(NetworkSpec.delta(4, 4, 3),
                  RunConfig(cycles=40, seed=5, traffic="uniform:0.6", buffer_depth=2)),
        SweepCell(NetworkSpec.edn(16, 4, 4, 2, priority="random", faults=faults),
                  RunConfig(cycles=40, seed=6, traffic="uniform:0.6", buffer_depth=3)),
    ]


def payload(measurement) -> str:
    import json

    from repro.api.jobs import measurement_to_payload

    return json.dumps(measurement_to_payload(measurement), sort_keys=True)


@needs_cc
class TestContendedKernels:
    """Random-priority counts and buffered cycles in the contended C kernels."""

    def test_random_counts_run_through_native_kernel_counts(self, monkeypatch):
        # The benchmark's tracer times NativeKernel.counts as sim.native.counts.
        calls = []
        original = NativeKernel.counts

        def counted(self, dests, ws, rng=None):
            calls.append(dests.shape[0])
            return original(self, dests, ws, rng)

        monkeypatch.setattr(NativeKernel, "counts", counted)
        cell = contended_cells()[0]
        measure_cell(cell)
        assert sum(calls) == cell.config.cycles
        batched = measure_cell(SweepCell(cell.spec, RunConfig(
            cycles=70, seed=3, traffic="hotspot:0.1", backend="batched")))
        assert payload(measure_cell(cell)) == payload(batched)

    def test_buffered_cycles_run_under_compiled_step(self, monkeypatch):
        # ... and CompiledStageRouter.step as sim.batched.step: the native
        # router replaces only the core step() hands each cycle to.
        routers = []
        original = CompiledStageRouter.step

        def counted(self, dests, rng=None):
            routers.append(type(self))
            return original(self, dests, rng)

        monkeypatch.setattr(CompiledStageRouter, "step", counted)
        cell = contended_cells()[2]
        backend = resolve_backend(cell.spec, "auto", buffered=True)
        assert backend.buffered_engine == "native"
        measure_cell(cell)
        cycles = cell.config.cycles
        assert routers == [NativeStageRouter] * (cycles + cycles // 4)

    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("priority", ["label", "random"])
    def test_measure_buffered_engines_agree(self, family, priority):
        from repro.sim.buffered import measure_buffered

        # No warm-up, so the measured totals conserve packets.
        kw = dict(traffic="uniform:0.7", depth=2, priority=priority, cycles=60,
                  warmup=0, seed=8, faults=FAULTS[family])
        graph = GRAPHS[family]()
        ours = measure_buffered(graph, engine="native", **kw)
        assert ours == measure_buffered(graph, engine="compiled", **kw)
        assert ours == measure_buffered(graph, engine="reference", **kw)
        assert ours.injected == ours.delivered + ours.in_flight + ours.dropped

    def test_generator_lock_is_held_for_the_call(self):
        import threading

        graph = delta_graph(4, 4, 3)
        rng = make_rng(2)
        done = threading.Event()

        def route():
            NativeStageRouter(graph, priority="random").route_batch_counts(
                demands(graph, 1, 4), rng
            )
            done.set()

        with rng.bit_generator.lock:
            worker = threading.Thread(target=route)
            worker.start()
            assert not done.wait(0.2)
        worker.join(30)
        assert done.is_set()

    def test_label_cells_build_no_contended_library(self, monkeypatch):
        monkeypatch.setattr(native, "_contended", None)
        graph = delta_graph(2, 4, 3)
        NativeStageRouter(graph).route_batch_counts(demands(graph, 1, 40))
        assert native._contended is None

    def test_contended_library_is_built_once(self, monkeypatch):
        builds = []
        original = native._build_shared_object

        def counted(source, stem):
            builds.append(stem)
            return original(source, stem)

        monkeypatch.setattr(native, "_contended", None)
        monkeypatch.setattr(native, "_build_shared_object", counted)
        for graph in (delta_graph(4, 4, 3), omega_graph(64), delta_graph(2, 2, 5)):
            NativeStageRouter(graph, priority="random").route_batch_counts(
                demands(graph, 1, 5), make_rng(1)
            )
            NativeStageRouter(graph, buffer_depth=2).step(demands(graph, 2, 1)[0])
        assert builds == ["repro_contended"]


class TestRegistryGating:
    def test_contended_cells_fall_back_to_batched(self, monkeypatch):
        # Without a compiler, random-priority and buffered cells resolve to
        # batched and its NumPy FIFO engine, with byte-identical payloads.
        cells = contended_cells()
        want = [payload(measure_cell(cell)) for cell in cells]
        monkeypatch.setattr(native, "_probe_cc", lambda: "cc: not found")
        for cell, expected in zip(cells, want):
            buffered = cell.config.buffer_depth is not None
            backend = resolve_backend(cell.spec, "auto", buffered=buffered)
            assert backend.name == "batched"
            assert backend.buffered_engine == "compiled"
            assert payload(measure_cell(cell)) == expected

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
