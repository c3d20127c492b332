"""Differential property tests over generated stage graphs.

Every engine that routes a :class:`~repro.sim.stagegraph.StageGraph` must
agree exactly with the others, on any valid graph and not only on the
four paper families.  The strategy below builds graphs column by column
-- per-column fan-in, radix, capacity and digit shift, ``gamma``/``rotl``
link and input permutations with drawn parameters, an output lane shift,
and sometimes a final expansion wide enough to give the plan int32 wires
-- plus dead-wire sets, buffer depths and demand batches with idle rows,
hotspot rows and all-to-one rows, at batches around the native kernel's
32-cycle lane block.  The checks:

* label counts: native kernel vs :class:`CompiledStageRouter` vs the
  :class:`StageGraphReference` interpreter;
* random counts, one generator or a per-cycle list repeating one
  generator: native vs :class:`CompiledStageRouter`, counts and the
  generators' states afterwards;
* random counts, one distinct generator per cycle (PCG64, Philox,
  MT19937, SFC64, some with a pending 32-bit half): native vs the
  reference interpreter cycle by cycle;
* buffered stepping under both priorities, with a mid-run fault swap:
  native ``step`` vs :class:`CompiledStageRouter` ``step`` vs
  :class:`BufferedStageReference`, cycle by cycle, and conservation
  ``injected == delivered + in_flight + dropped``;
* label traffic drawn inside the lane kernel, in every wire dtype of the
  lane library: counts vs ``generate_batch`` + the matrix entry,
  :class:`CompiledStageRouter` and the reference interpreter, and the
  generator's state after every chunk; every fallback takes the matrix
  path and agrees;
* runs of several chunks in one lane-kernel call: their sums, blocked
  totals and generator state vs the same chunks drawn one call each and
  vs the matrix path; a pending 32-bit half declines a run;
* every engine's ``BatchAcceptanceCounts.sums`` are ``push_many``'s sums
  of its own per-cycle counts.

Examples are derandomized and their number fixed, so a run costs the
same few seconds every time.  Native cases need a working C compiler;
without one the NumPy engines are still checked against the references.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.exceptions import LabelError
from repro.core.faults import WireFault
from repro.sim import native
from repro.sim.batched import BatchAcceptanceCounts, CompiledStageRouter
from repro.sim.montecarlo import measure_acceptance
from repro.sim.plan import compile_stage_plan
from repro.sim.stats import RatioStats
from repro.workloads import make_traffic, models
from repro.workloads.models import STRUCTURED_PATTERNS, FixedPattern
from repro.sim.stagegraph import (
    BufferedStageReference,
    GraphStage,
    StageGraph,
    StageGraphReference,
)

HAS_CC = bool(native.available_tiers())

#: Batches around the lane block (``native._LANES`` = 32); Hypothesis
#: favours the first, and a long batch gives tie-breaks the most room.
BATCHES = (67, 33, 31, 32, 1)

BIT_GENERATORS = {
    "pcg64": np.random.PCG64,
    "philox": np.random.Philox,
    "mt19937": np.random.MT19937,
    "sfc64": np.random.SFC64,
}

#: Bits of the widest column a graph may have (int16 wires throughout),
#: and of the final bucket space of a "wide" graph (int32 wires).
MAX_BITS = 8
WIDE_BITS = 15


def _permutations(bits: int):
    if bits == 0:
        return st.none()
    return st.one_of(
        st.none(),
        st.tuples(
            st.just("gamma"), st.just(bits), st.integers(0, bits), st.integers(0, 8)
        ),
        st.tuples(st.just("rotl"), st.just(bits), st.integers(0, 8)),
    )


@st.composite
def stage_graphs(draw, max_bits: int = MAX_BITS):
    """A valid :class:`StageGraph`, one column at a time."""
    bits = draw(st.integers(3, 7))
    n_inputs = 1 << bits
    input_perm = draw(_permutations(bits))
    wide = draw(st.booleans()) and draw(st.booleans())
    # Mostly several columns: which message wins a tie changes counts only
    # through contention in a later column.
    count = draw(st.sampled_from((3, 2, 4, 1)))
    shapes = []
    for i in range(count):
        fib = draw(st.integers(0, min(bits, 3)))
        base = bits - fib
        if wide and i == count - 1:
            # A final expansion to a 2**15 bucket space: int32 wires.
            fib = 0
            base = bits
            rb = min(8, WIDE_BITS - base)
            cb = WIDE_BITS - base - rb
        else:
            # Columns about as wide as the last keep later columns
            # contended, where tie-breaks change the counts.
            lo = max(1, base, bits - 1)
            target = draw(st.integers(lo, max(base, min(max_bits, bits + 1))))
            cb = draw(st.integers(0, min(2, target - base)))
            rb = target - base - cb
        bits = base + rb + cb
        shapes.append((fib, rb, cb, bits))
    low = bits - 8 if wide else 0
    out_shift = draw(st.integers(max(0, low), bits - 1))
    # Digits inside the destination label, so columns route on the
    # message, not only on where it sits.
    label_bits = bits - out_shift
    stages = [
        GraphStage(
            1 << fib, 1 << rb, 1 << cb, draw(st.integers(0, max(0, label_bits - rb))),
            link_perm=None if i == count - 1 else draw(_permutations(out_bits)),
        )
        for i, (fib, rb, cb, out_bits) in enumerate(shapes)
    ]
    return StageGraph(
        label=f"generated:{n_inputs}",
        n_inputs=n_inputs,
        n_outputs=1 << (bits - out_shift),
        stages=tuple(stages),
        input_perm=input_perm,
        out_shift=out_shift,
    )


@st.composite
def fault_sets(draw, graph: StageGraph, max_faults: int = 3):
    """Up to ``max_faults`` distinct dead wires of ``graph``."""
    widths = graph.stage_widths
    faults = set()
    for _ in range(draw(st.integers(0, max_faults))):
        i = draw(st.integers(0, graph.num_stages - 1))
        stage = graph.stages[i]
        switch = draw(st.integers(0, widths[i] // stage.fan_in - 1))
        wire = draw(st.integers(0, stage.bucket_wires - 1))
        faults.add(WireFault(i + 1, switch, wire))
    return tuple(sorted(faults))


def demands(graph: StageGraph, batch: int, seed: int, idle: float) -> np.ndarray:
    """A ``(batch, n_inputs)`` matrix mixing four row kinds.

    Rows are uniform with an ``idle`` share of idle inputs, all idle,
    all to one output, or a hotspot (about half the live inputs aimed at
    one output).
    """
    rng = np.random.default_rng(seed)
    n, m = graph.n_inputs, graph.n_outputs
    rows = rng.integers(0, m, size=(batch, n))
    rows[rng.random((batch, n)) < idle] = -1
    kinds = rng.integers(0, 6, size=batch)
    hot = rng.integers(0, m, size=batch)
    rows[kinds == 3] = -1
    rows[kinds == 4] = hot[kinds == 4, None]
    spots = (kinds[:, None] == 5) & (rows >= 0) & (rng.random((batch, n)) < 0.5)
    rows[spots] = np.broadcast_to(hot[:, None], rows.shape)[spots]
    return rows


def counts_of(rows) -> BatchAcceptanceCounts:
    blocked = Counter()
    for row in rows:
        blocked.update(row.blocked_stage_histogram())
    return BatchAcceptanceCounts(
        offered_per_cycle=np.array([row.num_offered for row in rows]),
        delivered_per_cycle=np.array([row.num_delivered for row in rows]),
        blocked_by_stage=dict(sorted(blocked.items())),
    )


def push_many_sums(counts) -> tuple:
    ratio = RatioStats()
    ratio.push_many(counts.delivered_per_cycle, counts.offered_per_cycle)
    return ratio.sums


def assert_counts_equal(got, want):
    np.testing.assert_array_equal(got.offered_per_cycle, want.offered_per_cycle)
    np.testing.assert_array_equal(got.delivered_per_cycle, want.delivered_per_cycle)
    assert got.blocked_by_stage == want.blocked_by_stage
    # Whoever computed them (the lane kernel in C, NumPy otherwise), an
    # engine's sums are push_many's sums of its own per-cycle counts.
    assert got.sums == push_many_sums(got) and want.sums == push_many_sums(want)


def generator(kind: str, seed: int, pending: bool) -> np.random.Generator:
    rng = np.random.Generator(BIT_GENERATORS[kind](seed))
    if pending:
        rng.integers(0, 5, dtype=np.uint32)  # leaves a 32-bit half buffered
    return rng


def assert_same_stream(a: np.random.Generator, b: np.random.Generator):
    """Same state, so every later draw agrees."""
    np.testing.assert_array_equal(a.integers(0, 1 << 40, 4), b.integers(0, 1 << 40, 4))
    np.testing.assert_array_equal(a.random(3), b.random(3))


def native_router(graph, **options):
    return native.NativeStageRouter(graph, **options) if HAS_CC else None


@st.composite
def routing_cases(draw):
    graph = draw(stage_graphs())
    faults = draw(fault_sets(graph))
    batch = draw(st.sampled_from(BATCHES))
    seed = draw(st.integers(0, 2**31 - 1))
    idle = draw(st.sampled_from([0.0, 0.3, 0.8]))
    return graph, faults, demands(graph, batch, seed, idle), seed


def test_generated_graphs_cover_both_wire_dtypes():
    # The strategy must keep producing int16 and int32 wire plans.
    seen = set()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(stage_graphs())
    def collect(graph):
        seen.add(compile_stage_plan(graph).wire_dtype.name)

    collect()
    assert seen == {"int16", "int32"}


@settings(derandomize=True, max_examples=20, deadline=None)
@given(routing_cases())
def test_label_counts_agree(case):
    graph, faults, dests, _ = case
    want = CompiledStageRouter(graph, faults=faults).route_batch_counts(dests)
    reference = StageGraphReference(graph, faults=faults)
    assert_counts_equal(want, counts_of([reference.route(row) for row in dests]))
    router = native_router(graph, faults=faults)
    if router is not None:
        narrow = dests.astype(router.demand_dtype)
        assert_counts_equal(router.route_batch_counts(narrow), want)


@pytest.mark.skipif(not HAS_CC, reason="no working C compiler")
@settings(derandomize=True, max_examples=60, deadline=None)
@given(routing_cases(), st.booleans())
def test_random_counts_match_compiled_on_shared_streams(case, repeat):
    # One generator for the batch, or a per-cycle list that repeats one
    # generator: the draws interleave across cycles, stage by stage.
    graph, faults, dests, seed = case
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = dests.shape[0]
    router = native_router(graph, priority="random", faults=faults)
    got = router.route_batch_counts(
        dests.astype(router.demand_dtype), [ours] * batch if repeat else ours
    )
    numpy_router = CompiledStageRouter(graph, priority="random", faults=faults)
    want = numpy_router.route_batch_counts(dests, [theirs] * batch if repeat else theirs)
    assert_counts_equal(got, want)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert_same_stream(ours, theirs)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    routing_cases(),
    st.sampled_from(sorted(BIT_GENERATORS)),
    st.booleans(),
)
def test_random_counts_match_reference_per_cycle(case, kind, pending):
    graph, faults, dests, seed = case
    batch = dests.shape[0]
    ours = [generator(kind, seed + i, pending) for i in range(batch)]
    theirs = [generator(kind, seed + i, pending) for i in range(batch)]
    reference = StageGraphReference(graph, priority="random", faults=faults)
    want = counts_of([reference.route(row, r) for row, r in zip(dests, theirs)])
    router = native_router(graph, priority="random", faults=faults)
    if router is None:
        router = CompiledStageRouter(graph, priority="random", faults=faults)
    got = router.route_batch_counts(
        dests.astype(getattr(router, "demand_dtype", dests.dtype)), ours
    )
    assert_counts_equal(got, want)
    for a, b in zip(ours, theirs):
        assert_same_stream(a, b)


@st.composite
def buffered_cases(draw):
    graph = draw(stage_graphs(max_bits=6))
    return (
        graph,
        draw(fault_sets(graph)),
        draw(fault_sets(graph)),
        draw(st.integers(1, 4)),
        draw(st.sampled_from(["label", "random"])),
        draw(st.integers(0, 24)),
        draw(st.integers(0, 2**31 - 1)),
        draw(st.sampled_from([0.3, 0.7, 1.0])),
    )


@settings(derandomize=True, max_examples=40, deadline=None)
@given(buffered_cases())
def test_buffered_steps_agree(case):
    graph, faults, swap_to, depth, priority, swap_at, seed, rate = case
    cycles = 24
    stream = demands(graph, cycles, seed, 1.0 - rate)
    engines = [
        BufferedStageReference(graph, depth=depth, priority=priority, faults=faults),
        CompiledStageRouter(graph, priority=priority, buffer_depth=depth, faults=faults),
    ]
    router = native_router(graph, priority=priority, buffer_depth=depth, faults=faults)
    if router is not None:
        engines.append(router)
    rngs = [np.random.default_rng(seed) for _ in engines]
    totals = [Counter() for _ in engines]
    for cycle in range(cycles):
        if cycle == swap_at:
            dropped = [engine.apply_faults(swap_to) for engine in engines]
            assert len(set(dropped)) == 1
        outcomes = [
            engine.step(stream[cycle], rng) for engine, rng in zip(engines, rngs)
        ]
        first = outcomes[0]
        for outcome, total in zip(outcomes, totals):
            np.testing.assert_array_equal(outcome.outputs, first.outputs)
            np.testing.assert_array_equal(outcome.latencies, first.latencies)
            assert (outcome.offered, outcome.injected) == (first.offered, first.injected)
            total.update(injected=outcome.injected, delivered=outcome.delivered)
        occupancy = {engine.total_occupancy() for engine in engines}
        assert len(occupancy) == 1
    for engine, total in zip(engines, totals):
        assert total["injected"] == (
            total["delivered"] + engine.total_occupancy() + engine.dropped_packets
        )
    for rng in rngs[1:]:
        assert rng.bit_generator.state == rngs[0].bit_generator.state


# ----------------------------------------------------------------------
# Label traffic drawn inside the lane kernel
# ----------------------------------------------------------------------

DRAWS = HAS_CC and native._lane_draws(np.int16)
needs_draws = pytest.mark.skipif(not DRAWS, reason="the lane kernel does not draw here")

#: Traffic the lane kernel draws: rates 0, 0.37 and 1, hot fractions 0,
#: 0.1 and 1, another hot output, and patterns at full rate (no words
#: drawn) and thinned by a rate.
DRAWN_TRAFFIC = (
    "uniform", "uniform:0", "uniform:0.37", "hotspot:0", "hotspot:0.1", "hotspot:1",
    "hotspot:0.1,out=last,rate=0.37", "bitrev", "bitrev:0.37", "identity:0.37",
)
DRAWN_BATCHES = (1, 31, 33, 64, 67)
#: The lane library's wire dtypes; a plan is lowered in its own or a wider one.
WIRES = ("int16", "int32", "int64")


def traffic_for(spec: str, graph: StageGraph):
    """``spec`` sized to ``graph``; a pattern of a non-square graph wraps
    its labels into the outputs."""
    n, m = graph.n_inputs, graph.n_outputs
    name, _, rate = spec.partition(":")
    if name in ("bitrev", "identity") and n != m:
        pattern = STRUCTURED_PATTERNS["bit_reversal" if name == "bitrev" else name](n)
        return FixedPattern(pattern % m, m, rate=float(rate or 1))
    return make_traffic(spec.replace("last", str(m - 1)), n, m)


def lowered(graph, faults, wire):
    """A private plan of ``graph`` whose lane kernel runs on ``wire`` wires
    (the plan's own dtype, or a wider one)."""
    plan = compile_stage_plan(graph, faults=faults)
    if np.dtype(wire).itemsize > plan.wire_dtype.itemsize:
        plan.wire_dtype = np.dtype(wire)
    return plan


@needs_draws
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    stage_graphs(),
    st.data(),
    st.sampled_from(DRAWN_TRAFFIC),
    st.sampled_from(DRAWN_BATCHES),
    st.sampled_from(WIRES),
    st.integers(0, 2**31 - 1),
)
def test_drawn_chunks_match_the_matrix_path(graph, data, spec, batch, wire, seed):
    # The matrix path's draws run in C at every size here, so the two state
    # dicts agree whole (NumPy's own small draws leave ``uinteger`` at
    # their last high half; see test_the_real_size_threshold_agrees).
    faults = data.draw(fault_sets(graph))
    plan = lowered(graph, faults, wire)
    kernel, ws = native.NativeKernel(plan), plan.workspace()
    assume(kernel.tables is not None)  # a capacity above 8 routes on NumPy
    traffic = traffic_for(spec, graph)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    compiled = CompiledStageRouter(graph, faults=faults)
    reference = StageGraphReference(graph, faults=faults)
    with mock.patch.object(models, "_C_MIN_WORDS", 0):
        for _ in range(2):  # the state must be right after every chunk
            got = kernel.drawn_counts(traffic.draw_descriptor(), ours, batch, ws)
            dests = traffic.generate_batch(theirs, batch)
            assert_counts_equal(got, kernel.counts(dests.astype(plan.wire_dtype), ws))
            assert_counts_equal(got, compiled.route_batch_counts(dests))
            assert_counts_equal(got, counts_of([reference.route(row) for row in dests]))
            assert ours.bit_generator.state == theirs.bit_generator.state
    assert_same_stream(ours, theirs)


@needs_draws
@settings(derandomize=True, max_examples=20, deadline=None)
@given(stage_graphs(), st.sampled_from(DRAWN_TRAFFIC), st.integers(0, 2**31 - 1))
def test_measurements_are_those_of_the_matrix_path(graph, spec, seed):
    # The router's own selection: a run of two chunks of 32, then a short
    # last one.
    assume(max(stage.capacity for stage in graph.stages) <= native._GROUP_SLOTS)
    router = native.NativeStageRouter(graph)
    traffic = traffic_for(spec, graph)
    drawn = []
    real = native.NativeStageRouter.draw_batch_counts

    def spy(self, *args):
        drawn.append(real(self, *args))
        return drawn[-1]

    with mock.patch.object(native.NativeStageRouter, "draw_batch_counts", spy):
        got = measure_acceptance(router, traffic, cycles=70, batch=32, seed=seed)
    assert len(drawn) == 2 and None not in drawn
    with mock.patch.object(native.NativeStageRouter, "draw_batch_counts", lambda *a: None):
        want = measure_acceptance(router, traffic, cycles=70, batch=32, seed=seed)
    assert got == want


def summed(parts) -> tuple:
    """The sums and blocked totals of several chunks' counts, added up."""
    blocked = Counter()
    for part in parts:
        blocked.update(part.blocked_by_stage)
    return tuple(map(sum, zip(*(part.sums for part in parts)))), dict(blocked)


@needs_draws
@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    stage_graphs(),
    st.data(),
    st.sampled_from(DRAWN_TRAFFIC),
    st.sampled_from(DRAWN_BATCHES[1:]),
    st.integers(1, 4),
    st.sampled_from(WIRES),
    st.integers(0, 2**31 - 1),
)
def test_runs_match_single_chunks_and_the_matrix_path(
    graph, data, spec, batch, chunks, wire, seed
):
    # A run of `chunks` chunks in one call, then a partial last chunk,
    # against the same chunks drawn one call each and against the matrix
    # path, on three twin streams.
    faults = data.draw(fault_sets(graph))
    last = data.draw(st.integers(1, batch - 1))
    plan = lowered(graph, faults, wire)
    kernel, ws = native.NativeKernel(plan), plan.workspace()
    assume(kernel.tables is not None)  # a capacity above 8 routes on NumPy
    traffic = traffic_for(spec, graph)
    draws = traffic.draw_descriptor()
    ours, single, theirs = (np.random.default_rng(seed) for _ in range(3))
    with mock.patch.object(models, "_C_MIN_WORDS", 0):
        run = kernel.drawn_counts(draws, ours, batch, ws, chunks)
        tail = kernel.drawn_counts(draws, ours, last, ws)
        sizes = [batch] * chunks + [last]
        singles = [kernel.drawn_counts(draws, single, size, ws) for size in sizes]
        matrix = [
            kernel.counts(traffic.generate_batch(theirs, size, plan.wire_dtype), ws)
            for size in sizes
        ]
    assert (run.offered_per_cycle is None) == (chunks > 1)
    assert summed([run, tail]) == summed(singles) == summed(matrix)
    assert ours.bit_generator.state == single.bit_generator.state
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert_same_stream(ours, theirs)


@needs_draws
@pytest.mark.parametrize("spec", ["uniform", "hotspot:0.1,rate=0.5"])
def test_a_pending_half_declines_a_run(spec):
    router = native.NativeStageRouter(square64())
    traffic = make_traffic(spec, 64, 64)
    probe = generator("pcg64", 9, pending=True)
    assert router.draw_batch_counts(traffic, probe, 32, 3) is None
    assert_same_stream(probe, generator("pcg64", 9, pending=True))  # nothing drawn


@needs_draws
def test_a_long_run_holds_no_per_cycle_arrays():
    # 200,000 cycles in one run: per-cycle counts would take 3.2 MB.
    router = native.NativeStageRouter(square64())
    traffic = make_traffic("hotspot:0.1,rate=0.5", 64, 64)
    measure_acceptance(router, traffic, cycles=64, batch=32, seed=1)  # warm
    tracemalloc.start()
    try:
        measure_acceptance(router, traffic, cycles=200_000, batch=32, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def square64() -> StageGraph:
    """Two columns of 8x8 switches over 64 terminals."""
    return StageGraph(
        label="square:64", n_inputs=64, n_outputs=64,
        stages=(GraphStage(8, 8, 1, 3, link_perm=("rotl", 6, 3)), GraphStage(8, 8, 1, 0)),
    )


@needs_draws
@pytest.mark.parametrize("spec", ["uniform:0.37", "hotspot:0.1,rate=0.5", "bitrev:0.37"])
def test_the_real_size_threshold_agrees(spec):
    """With NumPy's own calls drawing small matrix chunks, only the dead
    ``uinteger`` (no half pending) may differ from the drawn path's."""
    graph = square64()
    router = native.NativeStageRouter(graph)
    traffic = make_traffic(spec, 64, 64)
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for batch in (1, 33, 64):  # 32 to 2,048 label words
        got = router.draw_batch_counts(traffic, ours, batch)
        assert_counts_equal(got, router.route_batch_counts(
            traffic.generate_batch(theirs, batch, router.demand_dtype)
        ))
        assert native._stream_state(ours) == native._stream_state(theirs)
    assert_same_stream(ours, theirs)


FALLBACKS = ("philox", "mt19937", "pending", "fewer-outputs", "permutation")


@needs_draws
@pytest.mark.parametrize("case", FALLBACKS)
def test_fallbacks_take_the_matrix_path_and_agree(case):
    graph = square64()
    router = native.NativeStageRouter(graph)
    kind = case if case in ("philox", "mt19937") else "pcg64"
    traffic = {
        "fewer-outputs": lambda: make_traffic("uniform:0.5", 64, 32),
        "permutation": lambda: make_traffic("permutation:0.5", 64, 64),
    }.get(case, lambda: make_traffic("hotspot:0.1,rate=0.5", 64, 64))()

    def stream():
        return generator(kind, 9, pending=case == "pending")

    probe = stream()
    assert router.draw_batch_counts(traffic, probe, 33) is None
    assert_same_stream(probe, stream())  # nothing drawn
    ours, theirs = stream(), stream()
    got = measure_acceptance(router, traffic, cycles=70, batch=33, seed=ours)
    with mock.patch.object(native.NativeStageRouter, "draw_batch_counts", lambda *a: None):
        want = measure_acceptance(router, traffic, cycles=70, batch=33, seed=theirs)
    assert got == want
    assert_same_stream(ours, theirs)


@needs_draws
def test_labels_past_the_outputs_still_raise():
    # A model with more outputs than the graph: the drawn path declines, and
    # the matrix path's bounds scan rejects the chunk as it always has.
    graph = square64()
    router = native.NativeStageRouter(graph)
    traffic = make_traffic("uniform", 64, 128)
    assert router.draw_batch_counts(traffic, np.random.default_rng(1), 32) is None
    with pytest.raises(LabelError):
        measure_acceptance(router, traffic, cycles=64, batch=32, seed=1)
