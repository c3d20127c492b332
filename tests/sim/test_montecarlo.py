"""Unit tests for the Monte-Carlo acceptance harness."""

from __future__ import annotations

import pytest

from repro.api.router import ReferenceEDNRouter
from repro.baselines.crossbar_network import CrossbarNetwork
from repro.core.analysis import acceptance_probability, crossbar_acceptance
from repro.core.config import EDNParams
from repro.core.network import EDNetwork
from repro.sim.batched import BatchedEDN
from repro.sim.montecarlo import measure_acceptance
from repro.sim.stagegraph import StageGraphReference, edn_graph
from repro.workloads import PermutationTraffic, UniformTraffic


class TestMeasureAcceptance:
    def test_tracks_analytic_within_tolerance(self):
        p = EDNParams(16, 4, 4, 2)
        measurement = measure_acceptance(
            StageGraphReference(edn_graph(p)), UniformTraffic(64, 64, 1.0), cycles=300, seed=1
        )
        analytic = acceptance_probability(p, 1.0)
        # Eq. 4 runs a few percent optimistic (independence approximation).
        assert measurement.point == pytest.approx(analytic, abs=0.05)
        assert measurement.point < analytic

    def test_crossbar_matches_closed_form(self):
        # The crossbar has no internal stages, so Eq. 4's approximation is
        # exact and simulation must agree tightly.
        n = 64
        measurement = measure_acceptance(
            CrossbarNetwork(n), UniformTraffic(n, n, 1.0), cycles=400, seed=2
        )
        assert measurement.point == pytest.approx(crossbar_acceptance(n, 1.0), abs=0.02)

    def test_reproducible_with_seed(self):
        p = EDNParams(16, 4, 4, 2)
        a = measure_acceptance(StageGraphReference(edn_graph(p)), UniformTraffic(64, 64, 1.0), cycles=30, seed=9)
        b = measure_acceptance(StageGraphReference(edn_graph(p)), UniformTraffic(64, 64, 1.0), cycles=30, seed=9)
        assert a.point == b.point
        assert a.blocked_by_stage == b.blocked_by_stage

    def test_counts_are_consistent(self):
        p = EDNParams(16, 4, 4, 2)
        measurement = measure_acceptance(
            StageGraphReference(edn_graph(p)), UniformTraffic(64, 64, 0.5), cycles=50, seed=0
        )
        assert measurement.delivered <= measurement.offered
        blocked = sum(measurement.blocked_by_stage.values())
        assert measurement.offered - measurement.delivered == blocked

    def test_interval_brackets_point(self):
        p = EDNParams(16, 4, 4, 2)
        measurement = measure_acceptance(
            StageGraphReference(edn_graph(p)), UniformTraffic(64, 64, 1.0), cycles=60, seed=0
        )
        assert measurement.acceptance.low <= measurement.point <= measurement.acceptance.high

    def test_size_mismatch_rejected(self):
        p = EDNParams(16, 4, 4, 2)
        with pytest.raises(ValueError):
            measure_acceptance(StageGraphReference(edn_graph(p)), UniformTraffic(32, 64, 1.0), cycles=5)


class TestReferenceAdapter:
    def test_adapter_measures_like_vectorized(self):
        p = EDNParams(8, 4, 2, 2)
        traffic = UniformTraffic(p.num_inputs, p.num_outputs, 1.0)
        ref = measure_acceptance(
            ReferenceEDNRouter(EDNetwork(p)), traffic, cycles=40, seed=3, batch=1
        )
        vec = measure_acceptance(StageGraphReference(edn_graph(p)), traffic, cycles=40, seed=3)
        assert ref.point == pytest.approx(vec.point, abs=1e-12)

    def test_adapter_exposes_sizes(self):
        p = EDNParams(8, 4, 2, 2)
        adapter = ReferenceEDNRouter(EDNetwork(p))
        assert adapter.n_inputs == p.num_inputs
        assert adapter.n_outputs == p.num_outputs


class TestPermutationTrafficAcceptance:
    def test_lemma2_no_blocking_in_last_two_stages(self):
        # Under permutation traffic the last hyperbar stage and the
        # crossbars never discard (Lemma 2).
        p = EDNParams(16, 4, 4, 3)
        measurement = measure_acceptance(
            StageGraphReference(edn_graph(p)),
            PermutationTraffic(p.num_inputs, p.num_outputs),
            cycles=60,
            seed=4,
        )
        assert p.l not in measurement.blocked_by_stage
        assert p.l + 1 not in measurement.blocked_by_stage

    def test_single_stage_permutation_never_blocks(self):
        p = EDNParams(16, 4, 4, 1)
        measurement = measure_acceptance(
            StageGraphReference(edn_graph(p)),
            PermutationTraffic(p.num_inputs, p.num_outputs),
            cycles=40,
            seed=5,
        )
        assert measurement.point == 1.0


class TestBatchedMeasurement:
    def test_batched_matches_analytic(self):
        p = EDNParams(16, 4, 4, 2)
        measurement = measure_acceptance(
            BatchedEDN(p), UniformTraffic(64, 64, 1.0), cycles=300, seed=1
        )
        analytic = acceptance_probability(p, 1.0)
        assert measurement.point == pytest.approx(analytic, abs=0.05)

    def test_reproducible_for_fixed_seed_and_batch(self):
        p = EDNParams(16, 4, 4, 2)
        traffic = UniformTraffic(64, 64, 0.8)
        a = measure_acceptance(BatchedEDN(p), traffic, cycles=50, seed=9, batch=16)
        b = measure_acceptance(BatchedEDN(p), traffic, cycles=50, seed=9, batch=16)
        assert a.point == b.point
        assert a.blocked_by_stage == b.blocked_by_stage

    def test_counts_are_consistent(self):
        p = EDNParams(16, 4, 4, 2)
        measurement = measure_acceptance(
            BatchedEDN(p), UniformTraffic(64, 64, 0.5), cycles=50, seed=0
        )
        assert measurement.delivered <= measurement.offered
        blocked = sum(measurement.blocked_by_stage.values())
        assert measurement.offered - measurement.delivered == blocked

    def test_same_traffic_stream_across_routers_at_fixed_batch(self):
        # At the same (seed, batch) every router sees identical demands,
        # so per-message-identical engines must agree exactly even though
        # one routes chunked and the other cycle-by-cycle.
        p = EDNParams(8, 4, 2, 2)
        traffic = UniformTraffic(p.num_inputs, p.num_outputs, 1.0)
        ref = measure_acceptance(
            ReferenceEDNRouter(EDNetwork(p)), traffic, cycles=24, seed=3, batch=8
        )
        batched = measure_acceptance(BatchedEDN(p), traffic, cycles=24, seed=3, batch=8)
        assert ref.point == pytest.approx(batched.point, abs=1e-12)
        assert ref.blocked_by_stage == batched.blocked_by_stage

    def test_partial_final_chunk(self):
        p = EDNParams(16, 4, 4, 2)
        traffic = UniformTraffic(64, 64, 1.0)
        measurement = measure_acceptance(
            BatchedEDN(p), traffic, cycles=25, seed=2, batch=10
        )
        assert measurement.cycles == 25
        assert measurement.offered > 0
        assert measurement.acceptance.low <= measurement.point <= measurement.acceptance.high

    def test_generator_seed_accepted(self):
        import numpy as np

        p = EDNParams(16, 4, 4, 2)
        traffic = UniformTraffic(64, 64, 1.0)
        a = measure_acceptance(
            BatchedEDN(p), traffic, cycles=20, seed=np.random.default_rng(7)
        )
        b = measure_acceptance(
            BatchedEDN(p), traffic, cycles=20, seed=np.random.default_rng(7)
        )
        assert a.point == b.point

    def test_bad_batch_rejected(self):
        p = EDNParams(16, 4, 4, 2)
        with pytest.raises(ValueError):
            measure_acceptance(
                BatchedEDN(p), UniformTraffic(64, 64, 1.0), cycles=5, batch=0
            )


class TestChunkSizeInvariantRandomPriority:
    """Regression: chunked random-priority seeding is chunk-size independent.

    Cycle ``i`` draws its tie-break keys from child ``i`` of the master
    seed (spawned positionally), never from the shared traffic stream, so
    ``measure_acceptance(batch=16)`` and ``batch=64`` are bit-identical at
    equal seed — and so are different engines making identical per-message
    routing decisions.
    """

    def test_batched_bit_identical_across_chunk_sizes(self):
        p = EDNParams(16, 4, 4, 2)
        net = BatchedEDN(p, priority="random")
        traffic = UniformTraffic(p.num_inputs, p.num_outputs, 1.0)
        results = [
            measure_acceptance(net, traffic, cycles=64, seed=11, batch=batch)
            for batch in (8, 16, 64)
        ]
        for other in results[1:]:
            assert other.acceptance == results[0].acceptance
            assert other.blocked_by_stage == results[0].blocked_by_stage
            assert other.offered == results[0].offered

    def test_partial_final_chunk_agrees(self):
        p = EDNParams(16, 4, 4, 2)
        net = BatchedEDN(p, priority="random")
        traffic = UniformTraffic(p.num_inputs, p.num_outputs, 1.0)
        a = measure_acceptance(net, traffic, cycles=50, seed=4, batch=16)
        b = measure_acceptance(net, traffic, cycles=50, seed=4, batch=50)
        assert a.acceptance == b.acceptance

    def test_batched_and_per_cycle_router_agree(self):
        from repro.api.router import PerCycleRouter

        p = EDNParams(16, 4, 4, 2)
        traffic = UniformTraffic(p.num_inputs, p.num_outputs, 1.0)
        batched = measure_acceptance(
            BatchedEDN(p, priority="random"), traffic, cycles=32, seed=5, batch=8
        )
        looped = measure_acceptance(
            PerCycleRouter(StageGraphReference(edn_graph(p), priority="random")),
            traffic,
            cycles=32,
            seed=5,
            batch=8,
        )
        assert batched.acceptance == looped.acceptance
        assert batched.blocked_by_stage == looped.blocked_by_stage

    def test_crossbar_random_priority_chunk_invariant(self):
        n = 64
        net = CrossbarNetwork(n, priority="random")
        traffic = UniformTraffic(n, n, 1.0)
        a = measure_acceptance(net, traffic, cycles=48, seed=9, batch=12)
        b = measure_acceptance(net, traffic, cycles=48, seed=9, batch=48)
        assert a.acceptance == b.acceptance
        assert a.blocked_by_stage == b.blocked_by_stage

    def test_label_priority_streams_untouched_by_fix(self):
        # Deterministic disciplines draw no routing randomness, so the
        # per-cycle stream spawner must never engage (traffic streams stay
        # bit-compatible with the historical seed path).
        p = EDNParams(16, 4, 4, 2)
        traffic = UniformTraffic(p.num_inputs, p.num_outputs, 1.0)
        label = measure_acceptance(BatchedEDN(p), traffic, cycles=32, seed=7, batch=8)
        random = measure_acceptance(
            BatchedEDN(p, priority="random"), traffic, cycles=32, seed=7, batch=8
        )
        # same seed + same chunking -> same demands -> same offered count
        assert label.offered == random.offered


class TestAdaptiveEarlyStopping:
    def _setup(self):
        p = EDNParams(16, 4, 4, 2)
        return BatchedEDN(p), UniformTraffic(p.num_inputs, p.num_outputs, 1.0)

    def test_stops_before_budget_when_converged(self):
        router, traffic = self._setup()
        measurement = measure_acceptance(
            router, traffic, cycles=5000, seed=0, rel_err=0.02
        )
        assert measurement.converged is True
        assert measurement.cycles < 5000
        assert measurement.budget == 5000
        assert measurement.target_rel_err == 0.02
        # The stopping promise: half-width within rel_err of the point.
        assert measurement.acceptance.halfwidth <= 0.02 * measurement.point

    def test_never_stops_on_a_zero_width_interval(self):
        # At 5% load a 16-port crossbar often routes its first 64 cycles
        # with nothing blocked, and the interval is then its point, 1 [1, 1]:
        # no evidence of precision.  Before the rule asked for a nonzero
        # width, 76 of these 200 seeds stopped there as converged.
        router, traffic = CrossbarNetwork(16), UniformTraffic(16, 16, 0.05)
        for seed in range(200):
            m = measure_acceptance(router, traffic, cycles=100_000, seed=seed, rel_err=0.01)
            assert m.converged is True, seed
            assert m.acceptance.halfwidth > 0, seed

    def test_respects_budget_when_target_unreachable(self):
        router, traffic = self._setup()
        measurement = measure_acceptance(
            router, traffic, cycles=40, seed=0, rel_err=0.0001
        )
        assert measurement.cycles == 40
        assert measurement.converged is False

    def test_honors_min_cycles_floor(self):
        router, traffic = self._setup()
        measurement = measure_acceptance(
            router, traffic, cycles=5000, seed=0, rel_err=0.5, min_cycles=64, batch=16
        )
        assert measurement.cycles >= 64

    def test_reproducible(self):
        router, traffic = self._setup()
        a = measure_acceptance(router, traffic, cycles=2000, seed=3, rel_err=0.02, batch=16)
        b = measure_acceptance(router, traffic, cycles=2000, seed=3, rel_err=0.02, batch=16)
        assert a.cycles == b.cycles
        assert a.point == b.point

    def test_works_on_per_cycle_path(self):
        p = EDNParams(16, 4, 4, 2)
        measurement = measure_acceptance(
            StageGraphReference(edn_graph(p)),
            UniformTraffic(p.num_inputs, p.num_outputs, 1.0),
            cycles=3000,
            seed=1,
            batch=1,
            rel_err=0.02,
        )
        assert measurement.converged is True
        assert measurement.cycles < 3000

    def test_fixed_budget_reports_no_adaptive_fields(self):
        router, traffic = self._setup()
        measurement = measure_acceptance(router, traffic, cycles=30, seed=0)
        assert measurement.budget is None
        assert measurement.converged is None
        assert measurement.target_rel_err is None
        assert measurement.cycles == 30

    def test_rejects_bad_rel_err(self):
        router, traffic = self._setup()
        with pytest.raises(ValueError):
            measure_acceptance(router, traffic, cycles=10, rel_err=1.5)
        with pytest.raises(ValueError):
            measure_acceptance(router, traffic, cycles=10, rel_err=0.0)

    @pytest.mark.parametrize("confidence", [1.5, -1.0, 1.0, 0.0])
    def test_rejects_confidence_outside_unit_interval(self, confidence):
        # Rejected before any cycle is routed, on both source kinds.
        class Unroutable:
            n_inputs = n_outputs = 64

            def route(self, dests, rng=None):  # pragma: no cover - must not run
                raise AssertionError("routed before the confidence check")

            route_batch = route

        for retry in (None, "4"):
            with pytest.raises(ValueError, match="confidence must lie in"):
                measure_acceptance(
                    Unroutable(), "uniform", cycles=10, confidence=confidence, retry=retry
                )

    def test_config_carries_rel_err(self):
        from repro.api.spec import RunConfig

        router, traffic = self._setup()
        via_config = measure_acceptance(
            router, traffic, config=RunConfig(cycles=5000, seed=0, rel_err=0.02)
        )
        direct = measure_acceptance(
            router, traffic, cycles=5000, seed=0, rel_err=0.02
        )
        assert via_config.cycles == direct.cycles
        assert via_config.point == direct.point

    def test_adaptive_estimate_matches_fixed_distribution(self):
        # The early-stopped estimate is the same estimator on a prefix of
        # the same stream: at matched cycle counts it is identical.
        router, traffic = self._setup()
        adaptive = measure_acceptance(
            router, traffic, cycles=5000, seed=6, rel_err=0.02, batch=16
        )
        fixed = measure_acceptance(
            router, traffic, cycles=adaptive.cycles, seed=6, batch=16
        )
        assert adaptive.point == fixed.point


class TestRunConfigPrecedence:
    """The facade-wide rule: set config fields beat keyword arguments."""

    def test_config_fields_win_over_keywords(self):
        from repro.api.spec import RunConfig

        params = EDNParams(16, 4, 4, 2)
        traffic = UniformTraffic(64, 64, 1.0)
        router = BatchedEDN(params)
        via_config = measure_acceptance(
            router, traffic, cycles=5, seed=9, config=RunConfig(cycles=30, seed=1)
        )
        direct = measure_acceptance(router, traffic, cycles=30, seed=1)
        assert via_config.cycles == 30
        assert via_config.point == direct.point

    def test_keywords_fill_unset_config_fields(self):
        from repro.api.spec import RunConfig

        params = EDNParams(16, 4, 4, 2)
        traffic = UniformTraffic(64, 64, 1.0)
        router = BatchedEDN(params)
        partial = measure_acceptance(
            router, traffic, cycles=12, seed=4, config=RunConfig(batch=4)
        )
        direct = measure_acceptance(router, traffic, cycles=12, seed=4, batch=4)
        assert partial.cycles == 12
        assert partial.point == direct.point

    def test_simulator_measure_honors_config(self):
        from repro.api.spec import RunConfig
        from repro.simd.ra_edn import RAEDNSystem
        from repro.simd.simulator import RAEDNSimulator

        simulator = RAEDNSimulator(RAEDNSystem(4, 2, 1, 2))
        via_config = simulator.measure(runs=3, config=RunConfig(seed=11))
        direct = simulator.measure(runs=3, seed=11)
        assert via_config.cycles.mean == direct.cycles.mean
