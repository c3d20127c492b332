"""Compiled delta-family baselines: equivalence, caching, and spec forms.

The stage-graph refactor's contract, pinned from above the facade:

* ``delta``/``omega``/``dilated`` specs compile to the plan-cached batched
  kernels (``backend="auto"`` -> ``batched``) and route **bit-identically**
  to independent per-cycle compositions — the reference interpreter on
  the ``c = 1`` EDN graph for the delta, the same with the shuffle
  composed by hand for the omega, and a
  from-scratch pure-Python simulator for the dilated delta — across
  priorities, seeds, and batch sizes;
* the counts-only kernel agrees with per-message routing, and whole
  acceptance measurements are identical between the compiled and loop
  backends at equal ``(seed, batch)``;
* ``DilatedDelta.analytic_acceptance`` tracks Monte-Carlo on the compiled
  topology at matched rates;
* both spec shape forms (``delta:N,b`` / ``delta:a,b,l`` and the dilated
  equivalents) name the same compiled topology and share one plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import NetworkSpec, RunConfig, build_router, measure, resolve_backend
from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError
from repro.sim.montecarlo import measure_acceptance
from repro.sim.plan import clear_plan_cache, plan_cache_info
from repro.sim.rng import make_rng, spawn
from repro.sim.stagegraph import StageGraphReference, edn_graph

IDLE = -1

#: (spec text, batch sizes) — the compiled baselines under test.
BASELINES = [
    "delta:4,4,3",
    "delta:64,2",
    "omega:32",
    "dilated:4,4,3,2",
    "dilated:64,4,4",
]


def demands_for(spec: NetworkSpec, batch: int, seed: int) -> np.ndarray:
    rng = make_rng(seed)
    return rng.integers(IDLE, spec.n_outputs, size=(batch, spec.n_inputs))


# ----------------------------------------------------------------------
# Legacy ground truths, recomputed here independent of the graph compiler
# ----------------------------------------------------------------------


def legacy_delta_rows(spec, demands, rngs):
    """The delta as the c=1 EDN, on the per-cycle reference interpreter."""
    engine = StageGraphReference(edn_graph(spec.edn_params), priority=spec.priority)
    return [engine.route(row, rng) for row, rng in zip(demands, rngs)]


def legacy_omega_rows(spec, demands, rngs):
    """The omega as a hand-composed perfect shuffle + the c=1 EDN interpreter."""
    n = spec.shape[0]
    stages = int(n).bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    shuffle = ((idx << 1) | (idx >> (stages - 1))) & (n - 1)
    engine = StageGraphReference(edn_graph(EDNParams(2, 2, 1, stages)), priority=spec.priority)
    rows = []
    for row, rng in zip(demands, rngs):
        shuffled = np.full(n, IDLE, dtype=np.int64)
        shuffled[shuffle] = row
        inner = engine.route(shuffled, rng)
        rows.append(
            type(inner)(
                output=inner.output[shuffle],
                blocked_stage=inner.blocked_stage[shuffle],
            )
        )
    return rows


def _lifted_gamma(y: int, n_bits: int, lane_bits: int, rot: int) -> int:
    """The base delta's interstage rotation lifted over the lane bits."""
    upper_width = n_bits - lane_bits
    shift = rot % upper_width
    if shift == 0:
        return y
    low = y & ((1 << lane_bits) - 1)
    upper = y >> lane_bits
    mask = (1 << upper_width) - 1
    rotated = ((upper << shift) | (upper >> (upper_width - shift))) & mask
    return (rotated << lane_bits) | low


def route_dilated_pure_python(a, b, l, d, dests, rng=None, priority="label"):
    """A from-scratch per-cycle dilated-delta simulator (dicts and loops).

    Shares *no* code with the compiled kernels or the stage-graph
    interpreter: buckets are dictionaries, ranks are list positions, the
    interstage wiring is an inline bit rotation.  Label priority ranks by
    wire label; random priority draws one permutation over the frontier
    per stage, exactly as the array engines do.
    """
    n = a**l
    lane_bits = d.bit_length() - 1
    digit_bits = b.bit_length() - 1
    output = np.full(n, IDLE, dtype=np.int64)
    blocked = np.full(n, IDLE, dtype=np.int64)
    frontier = []  # (wire, source), kept in frontier order
    for s, dest in enumerate(dests):
        if dest != IDLE:
            blocked[s] = 0
            frontier.append((s, s))
    width = n
    for i in range(1, l + 1):
        fan_in = a if i == 1 else a * d
        shift = (l - i) * digit_bits
        if priority == "random" and frontier:
            tie = rng.permutation(len(frontier))
        else:
            tie = [wire for wire, _src in frontier]  # label priority
        buckets: dict[tuple[int, int], list] = {}
        for (wire, src), sub_key in sorted(
            zip(frontier, tie), key=lambda pair: pair[1]
        ):
            digit = (int(dests[src]) >> shift) & (b - 1)
            buckets.setdefault((wire // fan_in, digit), []).append((wire, src))
        width = width // fan_in * b * d
        n_bits = width.bit_length() - 1
        survivors = {}
        for (switch, digit), requests in buckets.items():
            for rank, (wire, src) in enumerate(requests):
                if rank < d:
                    y = switch * b * d + digit * d + rank
                    if i < l:
                        y = _lifted_gamma(y, n_bits, lane_bits, a.bit_length() - 1)
                    survivors[src] = y
                else:
                    blocked[src] = i
        # Rebuild the frontier in the original (source-filtered) order.
        frontier = [
            (survivors[src], src) for _w, src in frontier if src in survivors
        ]
    for wire, src in frontier:
        output[src] = wire >> lane_bits
    return output, blocked


def legacy_dilated_rows(spec, demands, rngs):
    a, b, l, d = spec.dilated_shape
    rows = []
    for row, rng in zip(demands, rngs):
        output, blocked = route_dilated_pure_python(
            a, b, l, d, row, rng, spec.priority
        )
        rows.append((output, blocked))
    return rows


LEGACY = {"delta": legacy_delta_rows, "omega": legacy_omega_rows, "dilated": legacy_dilated_rows}


# ----------------------------------------------------------------------
# Bit-identical equivalence across priorities, seeds, and batch sizes
# ----------------------------------------------------------------------


class TestCompiledMatchesLegacy:
    @pytest.mark.parametrize("text", BASELINES)
    @pytest.mark.parametrize("priority", ["label", "random"])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("batch", [1, 9])
    def test_route_batch_bit_identical(self, text, priority, seed, batch):
        spec = NetworkSpec.parse(text, priority=priority)
        demands = demands_for(spec, batch, seed)
        rngs = spawn(seed, batch)
        router = build_router(spec, "batched")
        result = router.route_batch(
            demands, rngs if priority == "random" else None
        )
        legacy = LEGACY[spec.kind](spec, demands, spawn(seed, batch))
        for i, row in enumerate(legacy):
            out, blk = (row.output, row.blocked_stage) if hasattr(row, "output") else row
            np.testing.assert_array_equal(result.output[i], out)
            np.testing.assert_array_equal(result.blocked_stage[i], blk)

    @pytest.mark.parametrize("text", BASELINES)
    def test_counts_kernel_matches_per_message(self, text):
        spec = NetworkSpec.parse(text)
        router = build_router(spec, "batched")
        demands = demands_for(spec, 11, seed=3)
        full = router.route_batch(demands)
        counts = router.route_batch_counts(demands)
        np.testing.assert_array_equal(
            counts.offered_per_cycle, full.offered_per_cycle
        )
        np.testing.assert_array_equal(
            counts.delivered_per_cycle, full.delivered_per_cycle
        )
        assert counts.blocked_by_stage == full.blocked_stage_histogram()

    @pytest.mark.parametrize("text", BASELINES)
    @pytest.mark.parametrize("priority", ["label", "random"])
    def test_single_cycle_route_matches_batch_rows(self, text, priority):
        spec = NetworkSpec.parse(text, priority=priority)
        router = build_router(spec, "batched")
        demands = demands_for(spec, 4, seed=11)
        rngs = spawn(5, 4)
        batched = router.route_batch(
            demands, rngs if priority == "random" else None
        )
        fresh = spawn(5, 4)
        for i, row in enumerate(demands):
            single = router.route(row, fresh[i] if priority == "random" else None)
            np.testing.assert_array_equal(single.output, batched.output[i])
            np.testing.assert_array_equal(
                single.blocked_stage, batched.blocked_stage[i]
            )


class TestBackendAgreement:
    """Compiled (batched) vs loop (vectorized) paths: identical measurements."""

    @pytest.mark.parametrize("text", BASELINES)
    def test_auto_resolves_to_a_compiled_backend(self, text):
        from repro.sim.native import available_tiers

        expected = "native" if available_tiers() else "batched"
        assert resolve_backend(NetworkSpec.parse(text)).name == expected

    @pytest.mark.parametrize("text", BASELINES)
    @pytest.mark.parametrize("priority", ["label", "random"])
    def test_measurements_bit_identical_across_backends(self, text, priority):
        spec = NetworkSpec.parse(text, priority=priority)
        config = RunConfig(cycles=24, seed=9, batch=8)
        fast = measure_acceptance(build_router(spec, "batched"), config=config)
        loop = measure_acceptance(build_router(spec, "vectorized"), config=config)
        assert fast.offered == loop.offered
        assert fast.delivered == loop.delivered
        assert fast.point == loop.point
        assert fast.blocked_by_stage == loop.blocked_by_stage

    @pytest.mark.parametrize("text", BASELINES)
    def test_chunk_size_does_not_change_the_measurement(self, text):
        spec = NetworkSpec.parse(text, priority="random")
        router = build_router(spec, "batched")
        small = measure_acceptance(router, cycles=24, seed=4, batch=4)
        large = measure_acceptance(router, cycles=24, seed=4, batch=24)
        assert small.point == large.point
        assert small.blocked_by_stage == large.blocked_by_stage


# ----------------------------------------------------------------------
# Analytic cross-check (the dilated model vs Monte-Carlo)
# ----------------------------------------------------------------------


class TestDilatedAnalytic:
    @pytest.mark.parametrize("shape", [(4, 4, 3, 2), (8, 8, 2, 2)])
    @pytest.mark.parametrize("rate", [1.0, 0.5])
    def test_analytic_acceptance_tracks_monte_carlo(self, shape, rate):
        from repro.baselines.dilated import DilatedDelta

        a, b, l, d = shape
        net = DilatedDelta(a=a, b=b, l=l, d=d)
        spec = NetworkSpec.dilated(a, b, l, d)
        traffic = "uniform" if rate == 1.0 else f"uniform:{rate:g}"
        measured = measure(spec, RunConfig(cycles=300, seed=0, traffic=traffic))
        assert net.analytic_acceptance(rate) == pytest.approx(
            measured.point, abs=0.02
        )

    def test_dilation_one_equals_the_plain_delta(self):
        """``d = 1`` routes exactly like the ``c = 1`` delta, per message."""
        spec = NetworkSpec.parse("dilated:4,4,3,1")
        demands = demands_for(spec, 6, seed=2)
        dilated = build_router(spec, "batched").route_batch(demands)
        delta = build_router(NetworkSpec.parse("delta:4,4,3"), "batched").route_batch(
            demands
        )
        np.testing.assert_array_equal(dilated.output, delta.output)
        # The delta's extra (never-blocking) 1x1 crossbar column does not
        # change which messages are delivered.
        np.testing.assert_array_equal(
            dilated.blocked_stage == 0, delta.blocked_stage == 0
        )

    def test_dilation_raises_measured_acceptance(self):
        cfg = RunConfig(cycles=80, seed=1)
        plain = measure(NetworkSpec.parse("delta:64,4"), cfg)
        dilated = measure(NetworkSpec.parse("dilated:64,4,4"), cfg)
        assert dilated.point > plain.point


# ----------------------------------------------------------------------
# Spec forms and plan-cache behavior
# ----------------------------------------------------------------------


class TestSpecForms:
    def test_square_delta_form(self):
        spec = NetworkSpec.parse("delta:4096,4")
        assert (spec.n_inputs, spec.n_outputs) == (4096, 4096)
        assert spec.delta_shape == (4, 4, 6)
        assert spec.edn_params == EDNParams(4, 4, 1, 6)

    def test_square_dilated_form(self):
        spec = NetworkSpec.parse("dilated:4096,4,2")
        assert (spec.n_inputs, spec.n_outputs) == (4096, 4096)
        assert spec.dilated_shape == (4, 4, 6, 2)

    def test_explicit_dilated_form(self):
        spec = NetworkSpec.parse("dilated:4,2,3,2")
        assert spec.dilated_shape == (4, 2, 3, 2)
        assert (spec.n_inputs, spec.n_outputs) == (64, 8)

    def test_both_delta_forms_name_one_topology(self):
        assert (
            NetworkSpec.parse("delta:4096,4").stage_graph()
            == NetworkSpec.parse("delta:4,4,6").stage_graph()
        )

    @pytest.mark.parametrize(
        "text", ["delta:100,3", "delta:48,4", "delta:4,1", "dilated:64,4,3", "dilated:60,4,2"]
    )
    def test_invalid_square_forms_rejected(self, text):
        with pytest.raises(ConfigurationError):
            NetworkSpec.parse(text)

    def test_labels_round_trip(self):
        for text in ("delta:4096,4", "dilated:4096,4,2", "dilated:4,2,3,2"):
            assert NetworkSpec.parse(text).label == text


class TestPlanCache:
    def test_every_kind_resolves_to_a_cached_plan(self):
        clear_plan_cache()
        texts = ("edn:16,4,4,2", "delta:4096,4", "omega:4096", "dilated:4096,4,2")
        for text in texts:
            build_router(NetworkSpec.parse(text), "batched")
        info = plan_cache_info()
        assert info["misses"] >= len(texts)
        assert info["size"] >= len(texts)
        before_hits = info["hits"]
        for text in texts:
            build_router(NetworkSpec.parse(text), "batched")
        assert plan_cache_info()["hits"] >= before_hits + len(texts)

    def test_shape_forms_share_one_plan(self):
        clear_plan_cache()
        build_router(NetworkSpec.parse("delta:4096,4"), "batched")
        build_router(NetworkSpec.parse("delta:4,4,6"), "batched")
        info = plan_cache_info()
        assert info["misses"] == 1 and info["hits"] == 1

    def test_priorities_get_distinct_plans(self):
        clear_plan_cache()
        build_router(NetworkSpec.parse("omega:64", priority="label"), "batched")
        build_router(NetworkSpec.parse("omega:64", priority="random"), "batched")
        assert plan_cache_info()["size"] == 2

    def test_warm_builds_route_identically(self):
        clear_plan_cache()
        spec = NetworkSpec.parse("dilated:64,4,2")
        demands = demands_for(spec, 7, seed=13)
        cold = build_router(spec, "batched").route_batch(demands)
        warm = build_router(spec, "batched").route_batch(demands)
        np.testing.assert_array_equal(cold.output, warm.output)
        np.testing.assert_array_equal(cold.blocked_stage, warm.blocked_stage)
