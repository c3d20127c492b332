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
  ``injected == delivered + in_flight + dropped``.

Examples are derandomized and their number fixed, so a run costs the
same few seconds every time.  Native cases need a working C compiler;
without one the NumPy engines are still checked against the references.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.faults import WireFault
from repro.sim import native
from repro.sim.batched import BatchAcceptanceCounts, CompiledStageRouter
from repro.sim.plan import compile_stage_plan
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


def assert_counts_equal(got, want):
    np.testing.assert_array_equal(got.offered_per_cycle, want.offered_per_cycle)
    np.testing.assert_array_equal(got.delivered_per_cycle, want.delivered_per_cycle)
    assert got.blocked_by_stage == want.blocked_by_stage


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
