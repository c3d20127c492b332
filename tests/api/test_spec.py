"""NetworkSpec / RunConfig: validation, parsing, precedence semantics."""

from __future__ import annotations

import pickle

import pytest

from repro.api import NetworkSpec, RunConfig, TOPOLOGY_KINDS
from repro.core.exceptions import ConfigurationError
from repro.core.faults import WireFault


class TestNetworkSpecConstruction:
    def test_edn_sizes(self):
        spec = NetworkSpec.edn(16, 4, 4, 2)
        assert (spec.n_inputs, spec.n_outputs) == (64, 64)
        assert spec.edn_params.paths_per_pair == 16

    def test_delta_maps_to_c1_edn(self):
        spec = NetworkSpec.delta(8, 8, 2)
        assert spec.edn_params.c == 1
        assert (spec.n_inputs, spec.n_outputs) == (64, 64)

    def test_omega_and_benes_square(self):
        assert NetworkSpec.omega(64).n_outputs == 64
        assert NetworkSpec.benes(16).n_inputs == 16

    def test_crossbar_rectangular(self):
        spec = NetworkSpec.crossbar(32, 16)
        assert (spec.n_inputs, spec.n_outputs) == (32, 16)

    def test_clos_terminals(self):
        spec = NetworkSpec.clos(4, 8)
        assert spec.n_inputs == 32
        assert NetworkSpec.clos(4, 8, 7).shape == (4, 8, 7)

    def test_every_kind_has_a_constructor(self):
        built = {
            "edn": NetworkSpec.edn(16, 4, 4, 2),
            "delta": NetworkSpec.delta(8, 8, 2),
            "omega": NetworkSpec.omega(8),
            "dilated": NetworkSpec.dilated(4, 4, 2, 2),
            "crossbar": NetworkSpec.crossbar(8),
            "clos": NetworkSpec.clos(2, 4),
            "benes": NetworkSpec.benes(8),
        }
        assert set(built) == set(TOPOLOGY_KINDS)
        for kind, spec in built.items():
            assert spec.kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown topology kind"):
            NetworkSpec("hypercube", (16,))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ConfigurationError, match="expects shape"):
            NetworkSpec("edn", (16, 4, 4))

    def test_invalid_shape_values_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec.edn(15, 4, 4, 2)  # not a power of two
        with pytest.raises(ConfigurationError):
            NetworkSpec.omega(12)
        with pytest.raises(ConfigurationError):
            NetworkSpec.clos(4, 4, 2)  # m < n

    def test_invalid_disciplines_rejected(self):
        with pytest.raises(ConfigurationError, match="priority"):
            NetworkSpec.edn(16, 4, 4, 2, priority="fifo")
        with pytest.raises(ConfigurationError, match="wire policy"):
            NetworkSpec.edn(16, 4, 4, 2, wire_policy="last_free")

    def test_faults_only_for_edn(self):
        fault = WireFault(1, 0, 0)
        spec = NetworkSpec.edn(16, 4, 4, 2, faults=(fault,))
        assert spec.faults == (fault,)
        with pytest.raises(ConfigurationError, match="faults"):
            NetworkSpec.crossbar(8, faults=(fault,))

    def test_out_of_range_fault_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec.edn(16, 4, 4, 2, faults=(WireFault(9, 0, 0),))

    def test_hashable_and_picklable(self):
        spec = NetworkSpec.edn(16, 4, 4, 2, faults=(WireFault(1, 0, 0),))
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))
        assert spec == pickle.loads(pickle.dumps(spec))

    def test_frozen(self):
        with pytest.raises(AttributeError):
            NetworkSpec.omega(8).kind = "edn"


class TestNetworkSpecParse:
    def test_parse_round_trip(self):
        for text in ("edn:16,4,4,2", "delta:8,8,2", "omega:64",
                     "crossbar:32,16", "clos:4,8,7", "benes:16"):
            assert NetworkSpec.parse(text).label == text

    def test_parse_normalizes_case_and_space(self):
        assert NetworkSpec.parse(" EDN:16,4,4,2").kind == "edn"

    def test_parse_rejects_garbage(self):
        for text in ("edn", "edn:", "edn:a,b", "16,4,4,2"):
            with pytest.raises(ConfigurationError):
                NetworkSpec.parse(text)


class TestStageGraphMemo:
    """``NetworkSpec.stage_graph()`` builds one graph per ``(kind, shape)``."""

    FAULTS = (WireFault(1, 0, 0), WireFault(2, 1, 3))

    def test_equal_shapes_share_one_graph(self):
        graph = NetworkSpec.edn(16, 4, 4, 2).stage_graph()
        for spec in (
            NetworkSpec.parse("edn:16,4,4,2"),
            NetworkSpec.edn(16, 4, 4, 2, priority="random"),
            NetworkSpec.edn(16, 4, 4, 2, faults=self.FAULTS),
            NetworkSpec.edn(16, 4, 4, 2, priority="random", faults=self.FAULTS[:1]),
        ):
            assert spec.stage_graph() is graph

    def test_different_shapes_never_share_a_graph(self):
        specs = [
            NetworkSpec.edn(16, 4, 4, 2), NetworkSpec.edn(16, 4, 4, 3),
            NetworkSpec.delta(4, 4, 3), NetworkSpec.delta(4, 4, 2),
            NetworkSpec.omega(64), NetworkSpec.omega(16),
            NetworkSpec.dilated(2, 2, 4, 2), NetworkSpec.dilated(2, 2, 3, 2),
        ]
        graphs = [spec.stage_graph() for spec in specs]
        assert len({id(graph) for graph in graphs}) == len(specs)
        assert len(set(graphs)) == len(specs)
        assert [graph.label for graph in graphs] == [spec.label for spec in specs]

    def test_faults_still_key_the_plans(self):
        from repro.api import build_router
        from repro.sim.plan import clear_plan_cache
        from repro.sim.rng import make_rng
        from repro.sim.stagegraph import StageGraphReference

        # A plan another test cached for an equal graph would answer the
        # clean spec's lookup with that other graph object.
        clear_plan_cache()
        clean = NetworkSpec.edn(16, 4, 4, 2)
        faulted = NetworkSpec.edn(16, 4, 4, 2, faults=self.FAULTS)
        routers = [build_router(spec, "batched") for spec in (clean, faulted)]
        assert routers[0]._plan is not routers[1]._plan
        assert routers[0]._plan.graph is routers[1]._plan.graph
        dests = make_rng(4).integers(-1, 64, size=(6, 64))
        for spec, router in zip((clean, faulted), routers):
            reference = StageGraphReference(spec.stage_graph(), faults=spec.faults)
            got = router.route_batch_counts(dests)
            want = [reference.route(row) for row in dests]
            assert got.delivered_per_cycle.tolist() == [r.num_delivered for r in want]
        assert (
            routers[0].route_batch_counts(dests).delivered_per_cycle.sum()
            > routers[1].route_batch_counts(dests).delivered_per_cycle.sum()
        )

    def test_no_graph_rides_on_the_spec(self):
        # Specs travel in pickles and the serve protocol: the memo lives in
        # the module, never on the instance.
        spec = NetworkSpec.omega(64, faults=(WireFault(1, 0, 1),))
        before = pickle.dumps(spec)
        spec.stage_graph()
        assert pickle.dumps(spec) == before
        assert set(vars(spec)) == {"kind", "shape", "priority", "wire_policy", "faults"}

    def test_kinds_without_a_stage_graph_still_raise(self):
        with pytest.raises(ConfigurationError, match="no stage graph"):
            NetworkSpec.crossbar(8).stage_graph()


class TestRunConfig:
    def test_defaults_unset(self):
        cfg = RunConfig()
        assert cfg.cycles is None and cfg.seed is None and cfg.jobs is None
        assert cfg.batch is None and cfg.confidence is None
        assert cfg.backend == "auto"

    def test_override_wins_only_when_set(self):
        cfg = RunConfig(cycles=10, jobs=2)
        out = cfg.override(cycles=99, jobs=None, batch=8)
        assert (out.cycles, out.jobs, out.batch) == (99, 2, 8)

    def test_resolve_fills_only_unset(self):
        cfg = RunConfig(cycles=10)
        out = cfg.resolve(cycles=60, seed=0, jobs=1)
        assert (out.cycles, out.seed, out.jobs) == (10, 0, 1)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown RunConfig field"):
            RunConfig().override(cycle=5)
        with pytest.raises(ConfigurationError, match="unknown RunConfig field"):
            RunConfig().resolve(sedd=0)

    @pytest.mark.parametrize("confidence", [1.5, -1.0, 1.0, 0.0, float("nan")])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        # 1.5 used to measure [nan, nan], -1.0 [inf, -inf] and 1.0 an
        # infinite interval.
        with pytest.raises(ConfigurationError, match="confidence must lie in"):
            RunConfig(confidence=confidence)

    def test_confidence_inside_unit_interval_kept(self):
        assert RunConfig(confidence=0.99).confidence == 0.99

    def test_frozen_and_picklable(self):
        cfg = RunConfig(cycles=5, seed=3)
        with pytest.raises(AttributeError):
            cfg.cycles = 6
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestRunConfigTraffic:
    def test_unset_by_default(self):
        assert RunConfig().traffic is None

    def test_validated_and_canonicalized(self):
        assert RunConfig(traffic="hotspot:0.1").traffic == "hotspot:0.1"
        assert RunConfig(traffic="bit_reversal").traffic == "bitrev"

    def test_bad_spec_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            RunConfig(traffic="zipf")
        with pytest.raises(ConfigurationError, match="unknown argument"):
            RunConfig(traffic="hotspot:heat=9")

    def test_threads_through_override_and_resolve(self):
        cfg = RunConfig(cycles=10)
        assert cfg.override(traffic="uniform:0.5").traffic == "uniform:0.5"
        assert cfg.resolve(traffic="uniform").traffic == "uniform"
        assert RunConfig(traffic="tornado").resolve(traffic="uniform").traffic == "tornado"

    def test_hashable_and_picklable_with_traffic(self):
        cfg = RunConfig(cycles=5, traffic="mixture:uniform@0.7+hotspot:0.1@0.3")
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert cfg in {cfg}

    def test_measure_honors_config_traffic(self):
        from repro.api import measure

        spec = NetworkSpec.edn(16, 4, 4, 2)
        hot = measure(spec, RunConfig(cycles=20, seed=0, traffic="hotspot:0.5"))
        cool = measure(spec, RunConfig(cycles=20, seed=0, traffic="uniform"))
        assert hot.point < cool.point

    def test_measure_accepts_spec_strings_directly(self):
        from repro.api import measure

        spec = NetworkSpec.edn(16, 4, 4, 2)
        m = measure(spec, RunConfig(cycles=10, seed=0), traffic="bitrev")
        assert m.point == 1.0  # 16 paths/pair route bit reversal cleanly

    def test_explicit_traffic_beats_config_traffic(self):
        from repro.api import measure

        spec = NetworkSpec.edn(16, 4, 4, 2)
        cfg = RunConfig(cycles=10, seed=0, traffic="hotspot:0.9")
        assert measure(spec, cfg, traffic="bitrev").point == 1.0

    def test_rate_with_explicit_workload_rejected(self):
        from repro.api import measure

        spec = NetworkSpec.edn(16, 4, 4, 2)
        with pytest.raises(ConfigurationError, match="inside the traffic spec"):
            measure(spec, RunConfig(cycles=5, traffic="hotspot:0.1"), rate=0.5)
        with pytest.raises(ConfigurationError, match="inside the traffic spec"):
            measure(spec, RunConfig(cycles=5), traffic="bitrev", rate=0.5)

    def test_measure_acceptance_accepts_specs(self):
        from repro.api import build_router
        from repro.sim.montecarlo import measure_acceptance

        router = build_router(NetworkSpec.edn(16, 4, 4, 2))
        m = measure_acceptance(router, "identity", cycles=5, seed=0)
        assert m.point < 1.0  # Figure 5: the identity blocks in one pass


class TestRunConfigBufferDepth:
    def test_unset_by_default(self):
        assert RunConfig().buffer_depth is None

    def test_validated_at_construction(self):
        assert RunConfig(buffer_depth=2).buffer_depth == 2
        assert RunConfig(buffer_depth=1.0).buffer_depth == 1  # int-coerced
        with pytest.raises(ConfigurationError, match="buffer_depth"):
            RunConfig(buffer_depth=0)
        with pytest.raises(ConfigurationError, match="buffer_depth"):
            RunConfig(buffer_depth=-3)

    def test_threads_through_override_and_resolve(self):
        cfg = RunConfig(cycles=10)
        assert cfg.override(buffer_depth=4).buffer_depth == 4
        assert cfg.resolve(buffer_depth=2).buffer_depth == 2
        assert RunConfig(buffer_depth=1).resolve(buffer_depth=8).buffer_depth == 1

    def test_hashable_and_picklable(self):
        cfg = RunConfig(cycles=5, buffer_depth=2)
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert cfg in {cfg}
