"""Cross-backend equivalence: every backend, identical demands, identical outcomes.

The facade's core promise: for any :class:`NetworkSpec`, every registered
backend routes the *same* shared demand matrices to the *same* per-message
outcomes as the reference for that topology, bit for bit:

* ``edn``/``delta`` — the per-message reference engine
  (:class:`~repro.core.network.EDNetwork`) is the ground truth;
* ``omega`` — ground truth is the reference engine behind the omega input
  shuffle (recomputed here, independent of the omega module);
* ``crossbar``/``clos``/``benes`` — ground truth is a 10-line
  reimplementation of label-priority output contention: rearrangeable
  fabrics under global control lose messages *only* to output conflicts,
  which is exactly the crossbar's loss mechanism.

All specs use label priority, which makes every engine deterministic (the
random-priority batched-vs-vectorized pinning lives in
``tests/sim/test_batched.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    BACKENDS,
    NetworkSpec,
    available_backends,
    build_router,
    resolve_backend,
)
from repro.core.exceptions import ConfigurationError
from repro.core.faults import FaultSet, FaultyEDNetwork, WireFault
from repro.core.network import EDNetwork
from repro.sim.batched import BatchCycleResult
from repro.sim.native import available_tiers
from repro.sim.rng import make_rng

IDLE = -1
BATCH = 6

#: Whether the environment-gated native backend participates here.
NATIVE = bool(available_tiers())
AUTO_COMPILED = "native" if NATIVE else "batched"


def with_native(names: list[str]) -> list[str]:
    """The expected backend list, prefixed by ``native`` when runnable."""
    return (["native"] if NATIVE else []) + names

SPECS = [
    NetworkSpec.edn(16, 4, 4, 2),
    NetworkSpec.edn(8, 2, 4, 2),
    NetworkSpec.edn(4, 2, 2, 3),
    NetworkSpec.delta(4, 4, 2),
    NetworkSpec.delta(2, 2, 3),
    NetworkSpec.omega(16),
    NetworkSpec.crossbar(32),
    NetworkSpec.crossbar(16, 8),
    NetworkSpec.clos(4, 4),
    NetworkSpec.benes(16),
]

CASES = [
    (spec, backend) for spec in SPECS for backend in available_backends(spec)
]


def shared_demands(spec: NetworkSpec, seed: int = 123) -> np.ndarray:
    """The same (batch, N) matrix every backend of ``spec`` must route."""
    rng = make_rng(seed)
    return rng.integers(IDLE, spec.n_outputs, size=(BATCH, spec.n_inputs))


def reference_outcomes(spec: NetworkSpec, demands: np.ndarray) -> BatchCycleResult:
    """Ground-truth outcome arrays, computed without the facade's backends."""
    if spec.kind in ("edn", "delta"):
        return _reference_edn(spec.edn_params, demands)
    if spec.kind == "omega":
        n = spec.shape[0]
        stages = int(n).bit_length() - 1
        idx = np.arange(n, dtype=np.int64)
        shuffle = ((idx << 1) | (idx >> (stages - 1))) & (n - 1)
        shuffled = np.full_like(demands, IDLE)
        shuffled[:, shuffle] = demands
        from repro.core.config import EDNParams

        inner = _reference_edn(EDNParams(2, 2, 1, stages), shuffled)
        return BatchCycleResult(
            output=inner.output[:, shuffle],
            blocked_stage=inner.blocked_stage[:, shuffle],
        )
    # crossbar / clos / benes: label-priority output contention only.
    output = np.full(demands.shape, IDLE, dtype=np.int64)
    blocked = np.full(demands.shape, IDLE, dtype=np.int64)
    for i, row in enumerate(demands):
        taken: set[int] = set()
        for s, dest in enumerate(row):
            if dest == IDLE:
                continue
            if int(dest) in taken:
                blocked[i, s] = 1
            else:
                taken.add(int(dest))
                output[i, s] = dest
                blocked[i, s] = 0
    return BatchCycleResult(output=output, blocked_stage=blocked)


def _reference_edn(params, demands: np.ndarray) -> BatchCycleResult:
    network = EDNetwork(params)
    output = np.full(demands.shape, IDLE, dtype=np.int64)
    blocked = np.full(demands.shape, IDLE, dtype=np.int64)
    for i, row in enumerate(demands):
        result = network.route_destinations(
            {int(s): int(d) for s, d in enumerate(row) if d != IDLE}
        )
        for outcome in result.outcomes:
            s = outcome.message.source
            if outcome.delivered:
                output[i, s] = outcome.output
                blocked[i, s] = 0
            else:
                blocked[i, s] = outcome.blocked_stage
    return BatchCycleResult(output=output, blocked_stage=blocked)


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize(
        "spec, backend", CASES, ids=[f"{s.label}-{b}" for s, b in CASES]
    )
    def test_route_batch_matches_reference(self, spec, backend):
        demands = shared_demands(spec)
        expected = reference_outcomes(spec, demands)
        result = build_router(spec, backend).route_batch(demands)
        np.testing.assert_array_equal(result.output, expected.output)
        np.testing.assert_array_equal(result.blocked_stage, expected.blocked_stage)

    @pytest.mark.parametrize(
        "spec, backend", CASES, ids=[f"{s.label}-{b}" for s, b in CASES]
    )
    def test_route_matches_batch_rows(self, spec, backend):
        demands = shared_demands(spec)
        router = build_router(spec, backend)
        batched = router.route_batch(demands)
        for i, row in enumerate(demands):
            single = router.route(row)
            np.testing.assert_array_equal(single.output, batched.output[i])
            np.testing.assert_array_equal(single.blocked_stage, batched.blocked_stage[i])

    @pytest.mark.parametrize("spec", SPECS, ids=[s.label for s in SPECS])
    def test_every_spec_has_a_backend_and_routes(self, spec):
        router = build_router(spec)  # auto
        result = router.route_batch(shared_demands(spec))
        assert result.output.shape == (BATCH, spec.n_inputs)
        assert result.num_delivered > 0


class TestBackendSelection:
    def test_auto_prefers_batched_engines(self):
        for spec in (NetworkSpec.edn(16, 4, 4, 2), NetworkSpec.delta(4, 4, 2),
                     NetworkSpec.omega(16)):
            assert resolve_backend(spec).name == AUTO_COMPILED
        # The crossbar has no stage plan, so native never serves it.
        assert resolve_backend(NetworkSpec.crossbar(32)).name == "batched"

    def test_auto_falls_back_per_kind(self):
        assert resolve_backend(NetworkSpec.clos(4, 4)).name == "matching"
        assert resolve_backend(NetworkSpec.benes(16)).name == "looping"

    def test_faults_stay_on_the_compiled_engines(self):
        # Fault sets lower into the compiled plan, so faulted specs keep
        # the batched fast path; the per-message reference remains as the
        # independent cross-check.
        spec = NetworkSpec.edn(16, 4, 4, 2, faults=(WireFault(1, 0, 0),))
        assert available_backends(spec) == with_native(
            ["batched", "vectorized", "reference"]
        )
        assert resolve_backend(spec).name == AUTO_COMPILED

    def test_faults_available_on_every_stage_graph_kind(self):
        for spec in (
            NetworkSpec.delta(4, 4, 2, faults=(WireFault(1, 0, 1),)),
            NetworkSpec.omega(16, faults=(WireFault(1, 0, 1),)),
            NetworkSpec.dilated(4, 4, 2, 2, faults=(WireFault(1, 0, 1),)),
        ):
            assert available_backends(spec) == with_native(["batched", "vectorized"])

    def test_explicit_non_fault_capable_backend_names_alternatives(self):
        # Requesting a backend that handles the topology but not its
        # faults must say so and name the fault-capable backends.
        spec = NetworkSpec.edn(
            16, 4, 4, 2, priority="random", faults=(WireFault(1, 0, 0),)
        )
        with pytest.raises(
            ConfigurationError,
            match=r"fault injection.*fault-capable backends.*batched",
        ):
            build_router(spec, "reference")  # FaultyEDNetwork is label-only

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            build_router(NetworkSpec.omega(16), "warp")

    def test_unsupported_backend_rejected_with_alternatives(self):
        with pytest.raises(ConfigurationError, match="does not support"):
            build_router(NetworkSpec.clos(4, 4), "batched")

    def test_registry_names_are_stable(self):
        assert set(BACKENDS) == {
            "batched", "vectorized", "reference", "matching", "looping",
            "native",
        }


class TestFaultyEquivalence:
    def test_reference_backend_matches_faulty_network(self):
        params_spec = NetworkSpec.edn(8, 2, 4, 2)
        faults = (WireFault(1, 0, 0), WireFault(1, 0, 1), WireFault(2, 1, 3))
        spec = NetworkSpec.edn(8, 2, 4, 2, faults=faults)
        demands = shared_demands(params_spec)
        router = build_router(spec)
        batched = router.route_batch(demands)

        network = FaultyEDNetwork(spec.edn_params, FaultSet(faults))
        for i, row in enumerate(demands):
            result = network.route_destinations(
                {int(s): int(d) for s, d in enumerate(row) if d != IDLE}
            )
            for outcome in result.outcomes:
                s = outcome.message.source
                if outcome.delivered:
                    assert batched.output[i, s] == outcome.output
                    assert batched.blocked_stage[i, s] == 0
                else:
                    assert batched.blocked_stage[i, s] == outcome.blocked_stage

    def test_damage_reduces_throughput(self):
        intact = build_router(NetworkSpec.edn(8, 2, 4, 2))
        dead_bucket = tuple(WireFault(1, 0, w) for w in range(8))
        damaged = build_router(NetworkSpec.edn(8, 2, 4, 2, faults=dead_bucket))
        demands = shared_demands(NetworkSpec.edn(8, 2, 4, 2))
        assert (
            damaged.route_batch(demands).num_delivered
            < intact.route_batch(demands).num_delivered
        )


class TestRearrangeableSemantics:
    @pytest.mark.parametrize(
        "spec", [NetworkSpec.clos(4, 4), NetworkSpec.benes(16)],
        ids=["clos", "benes"],
    )
    def test_full_permutations_never_block(self, spec):
        rng = make_rng(7)
        router = build_router(spec)
        perms = np.stack([rng.permutation(spec.n_inputs) for _ in range(4)])
        result = router.route_batch(perms)
        assert result.num_delivered == perms.size
        np.testing.assert_array_equal(result.output, perms)

    def test_skipping_global_routing_preserves_outcomes(self):
        from repro.api import RearrangeableRouter
        from repro.baselines.clos import ClosNetwork

        spec = NetworkSpec.clos(4, 4)
        demands = shared_demands(spec)
        full = RearrangeableRouter(ClosNetwork(4, 4)).route_batch(demands)
        fast = RearrangeableRouter(
            ClosNetwork(4, 4), run_global_routing=False
        ).route_batch(demands)
        np.testing.assert_array_equal(full.output, fast.output)
        np.testing.assert_array_equal(full.blocked_stage, fast.blocked_stage)

    def test_conflicts_resolve_by_label_priority(self):
        router = build_router(NetworkSpec.benes(16))
        demands = np.full(16, IDLE, dtype=np.int64)
        demands[3] = 5
        demands[9] = 5
        result = router.route(demands)
        assert result.output[3] == 5 and result.blocked_stage[3] == 0
        assert result.blocked_stage[9] == 1


class TestPlanCacheCorrectness:
    """The plan cache is invisible semantically, for every backend.

    Satellite contract of the plan-compilation PR: a cache *hit* routes
    bit-identically to a cold compile for every registered backend; specs
    whose features the array engines cannot serve (faults, non-default
    wire policies) never alias onto cached plans; and fanned-out
    ParallelSweep workers each obtain usable plans.
    """

    def setup_method(self):
        from repro.sim.plan import clear_plan_cache

        clear_plan_cache()

    @pytest.mark.parametrize(
        "spec,backend", CASES, ids=[f"{s}-{b}" for s, b in CASES]
    )
    def test_cache_hit_matches_cold_compile(self, spec, backend):
        from repro.sim.plan import clear_plan_cache

        demands = shared_demands(spec)
        clear_plan_cache()
        cold = build_router(spec, backend).route_batch(demands)
        warm = build_router(spec, backend).route_batch(demands)  # cache hit
        np.testing.assert_array_equal(cold.output, warm.output)
        np.testing.assert_array_equal(cold.blocked_stage, warm.blocked_stage)

    def test_measurements_identical_cold_vs_warm(self):
        from repro.api import RunConfig, measure
        from repro.sim.plan import clear_plan_cache, plan_cache_info

        spec = NetworkSpec.edn(16, 4, 4, 2)
        config = RunConfig(cycles=40, seed=2)
        clear_plan_cache()
        cold = measure(spec, config)
        assert plan_cache_info()["misses"] >= 1
        warm = measure(spec, config)
        assert plan_cache_info()["hits"] >= 1
        assert cold.point == warm.point
        assert cold.blocked_by_stage == warm.blocked_by_stage

    def test_faulty_specs_key_the_cache_and_never_alias(self):
        from repro.api import measure, RunConfig
        from repro.sim.plan import plan_cache_info

        pristine = NetworkSpec.edn(8, 2, 4, 2)
        faulty = NetworkSpec.edn(
            8, 2, 4, 2, faults=(WireFault(stage=1, switch=0, local_wire=0),)
        )
        config = RunConfig(cycles=25, seed=3)
        baseline_pristine = measure(pristine, config)
        baseline_faulty = measure(faulty, config)
        # The fault tuple is part of the plan key, so the two specs must
        # compile distinct plans...
        assert plan_cache_info()["misses"] >= 2
        # ...and warming the cache with either spec must not leak the
        # other's plan: re-measuring reproduces both baselines exactly.
        again_faulty = measure(faulty, config)
        again_pristine = measure(pristine, config)
        assert plan_cache_info()["hits"] >= 2
        assert again_faulty.point == baseline_faulty.point
        assert again_faulty.blocked_by_stage == baseline_faulty.blocked_by_stage
        assert again_pristine.point == baseline_pristine.point
        # The damage is real: the faulty plan routes strictly less traffic.
        assert baseline_faulty.delivered < baseline_pristine.delivered
        # Faulted specs ride the compiled backends, keyed by their faults.
        assert resolve_backend(faulty).name == AUTO_COMPILED

    def test_wire_policy_routes_outside_the_cache(self):
        from repro.api import measure, RunConfig
        from repro.sim.plan import clear_plan_cache

        spec = NetworkSpec.edn(8, 2, 4, 2, wire_policy="random")
        assert resolve_backend(spec).name == "reference"
        config = RunConfig(cycles=20, seed=4)
        cold = measure(spec, config)
        clear_plan_cache()
        # Warm an array-engine plan for the same shape, then re-measure.
        measure(NetworkSpec.edn(8, 2, 4, 2), config)
        warm = measure(spec, config)
        assert cold.point == warm.point

    def test_priority_disciplines_get_distinct_plans(self):
        from repro.sim.plan import stage_plan_for

        graph = NetworkSpec.edn(16, 4, 4, 2).stage_graph()
        assert stage_plan_for(graph, "label") is not stage_plan_for(graph, "random")

    def test_parallel_sweep_workers_share_usable_plans(self):
        from repro.api import RunConfig
        from repro.experiments.workload_matrix import run

        config = RunConfig(cycles=10, seed=0)
        inline = run(config=config.override(jobs=1))
        fanned = run(config=config.override(jobs=2))
        assert (
            inline.tables["PA by traffic x topology"]
            == fanned.tables["PA by traffic x topology"]
        )
