"""Unit tests for compiled routing plans, workspaces, and the plan cache."""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError
from repro.core.tags import RetirementOrder
from repro.sim.batched import BatchedEDN, CompiledStageRouter
from repro.sim.plan import (
    PLAN_CACHE_MAXSIZE,
    ChunkWorkspace,
    clear_plan_cache,
    compile_stage_plan,
    gamma_permutation,
    plan_cache_info,
    stage_plan_for,
)
from repro.sim.stagegraph import edn_graph

#: Shapes covering deltas (c=1), wide buckets, deep networks, the MP-1
#: router, and the one-hot fallback (b = 16 packs 128 lane bits).
CONFIGS = [
    (16, 4, 4, 2),
    (8, 2, 4, 3),
    (8, 8, 1, 2),
    (64, 16, 4, 2),
    (4, 2, 2, 4),
    (16, 2, 8, 1),
]


def _random_batch(rng, params: EDNParams, batch: int, rate: float = 0.8) -> np.ndarray:
    dests = rng.integers(0, params.num_outputs, size=(batch, params.num_inputs))
    return np.where(rng.random(dests.shape) < rate, dests, -1)


class TestChunkWorkspace:
    def test_same_key_reuses_backing_buffer(self):
        ws = ChunkWorkspace()
        a = ws.array("x", 64, np.int32)
        b = ws.array("x", 64, np.int32)
        assert a.base is b.base or a is b
        assert ws.nbytes == 64 * 4

    def test_growth_is_monotonic(self):
        ws = ChunkWorkspace()
        ws.array("x", 128, np.int32)
        before = ws.nbytes
        small = ws.array("x", 16, np.int32)
        assert small.size == 16
        assert ws.nbytes == before  # shrinking requests never release
        ws.array("x", 256, np.int32)
        assert ws.nbytes == 256 * 4

    def test_dtypes_do_not_alias(self):
        ws = ChunkWorkspace()
        a = ws.array("x", 32, np.int16)
        b = ws.array("x", 32, np.int32)
        a.fill(1)
        b.fill(2)
        assert (a == 1).all() and (b == 2).all()

    def test_clear_releases(self):
        ws = ChunkWorkspace()
        ws.array("x", 1024, np.int64)
        assert ws.nbytes > 0
        ws.clear()
        assert ws.nbytes == 0


class TestEdnStagePlan:
    def test_stage_shifts_follow_the_retirement_order(self):
        params = EDNParams(16, 4, 4, 3)
        order = RetirementOrder.reversed_order(params.l)
        plan = compile_stage_plan(edn_graph(params, order))
        shifts = [stage.shift for stage in plan.graph.stages[: params.l]]
        assert shifts == [
            params.capacity_bits
            + (params.l - 1 - order.position_for_stage(i)) * params.digit_bits
            for i in range(1, params.l + 1)
        ]

    def test_gamma_table_matches_closed_form(self):
        params = EDNParams(16, 4, 4, 3)
        plan = compile_stage_plan(edn_graph(params))
        for stage in range(1, params.l):
            width = params.wires_after_stage(stage)
            labels = np.arange(width, dtype=np.int64)
            expected = gamma_permutation(
                labels, width.bit_length() - 1, params.capacity_bits, params.fan_in_bits
            )
            assert np.array_equal(plan.perm_table(stage - 1, np.int64), expected)

    def test_narrow_dtype_selection(self):
        assert compile_stage_plan(edn_graph(EDNParams(16, 4, 4, 2))).wire_dtype == np.int16
        # 4^8 * 4 = 262144 outputs overflow int16 labels
        assert compile_stage_plan(edn_graph(EDNParams(16, 4, 4, 8))).wire_dtype == np.int32

    def test_retirement_order_validated(self):
        with pytest.raises(ConfigurationError):
            edn_graph(EDNParams(16, 4, 4, 2), RetirementOrder.canonical(3))

    def test_bad_priority_rejected(self):
        with pytest.raises(ConfigurationError):
            compile_stage_plan(edn_graph(EDNParams(16, 4, 4, 2)), priority="fifo")

    def test_workspace_is_per_thread(self):
        plan = compile_stage_plan(edn_graph(EDNParams(16, 4, 4, 2)))
        main_ws = plan.workspace()
        assert plan.workspace() is main_ws  # stable within a thread
        seen = {}

        def grab():
            seen["other"] = plan.workspace()

        worker = threading.Thread(target=grab)
        worker.start()
        worker.join()
        assert seen["other"] is not main_ws


class TestPlanCache:
    def setup_method(self):
        clear_plan_cache()

    def test_equal_keys_share_one_plan(self):
        first = stage_plan_for(edn_graph(EDNParams(16, 4, 4, 2)))
        second = stage_plan_for(edn_graph(EDNParams(16, 4, 4, 2)))
        assert first is second
        info = plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_engines_share_plans_and_tables(self):
        params = EDNParams(16, 4, 4, 2)
        one, two = BatchedEDN(params), BatchedEDN(params)
        assert one._plan is two._plan
        assert one._plan.perm_table(0, np.int32) is two._plan.perm_table(0, np.int32)

    def test_semantic_fields_change_the_key(self):
        params = EDNParams(16, 4, 4, 2)
        base = stage_plan_for(edn_graph(params))
        assert stage_plan_for(edn_graph(params), "random") is not base
        assert stage_plan_for(edn_graph(EDNParams(16, 4, 4, 3))) is not base
        reversed_order = RetirementOrder.reversed_order(params.l)
        assert stage_plan_for(edn_graph(params, reversed_order)) is not base

    def test_lru_eviction_bounds_the_cache(self):
        # Distinct small keys: vary (a, b, c) shapes and priorities rather
        # than depth (deep networks would compile huge tables).
        shapes = [
            (a, b, c)
            for a in (2, 4, 8, 16, 32, 64)
            for b in (2, 4, 8)
            for c in (1, 2)
            if c <= a
        ]
        count = 0
        for a, b, c in shapes:
            for priority in ("label", "random"):
                stage_plan_for(edn_graph(EDNParams(a, b, c, 1)), priority)
                count += 1
                if count >= PLAN_CACHE_MAXSIZE + 4:
                    break
            if count >= PLAN_CACHE_MAXSIZE + 4:
                break
        assert count >= PLAN_CACHE_MAXSIZE + 4
        assert plan_cache_info()["size"] == PLAN_CACHE_MAXSIZE

    def test_graph_hash_is_kept_but_never_pickled(self):
        # String hashes differ between processes, so a graph sent to a
        # worker must rehash there; in-process, one hash serves every hit.
        graph = edn_graph(EDNParams(16, 4, 4, 2))
        plan = stage_plan_for(graph)
        assert vars(graph)["_hash"] == hash(graph)
        copy = pickle.loads(pickle.dumps(graph))
        assert "_hash" not in vars(copy)
        assert copy == graph and copy is not graph
        assert stage_plan_for(copy) is plan
        assert plan_cache_info()["hits"] == 1

    def test_clear_resets(self):
        stage_plan_for(edn_graph(EDNParams(16, 4, 4, 2)))
        clear_plan_cache()
        info = plan_cache_info()
        assert info == {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "maxsize": PLAN_CACHE_MAXSIZE,
        }


def _uncached(params: EDNParams) -> CompiledStageRouter:
    """The same EDN on a freshly compiled plan, bypassing the cache."""
    return CompiledStageRouter(edn_graph(params), plan=None)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"EDN{c}")
class TestPlannedUnplannedEquivalence:
    """A cached plan is an optimization, never a semantic: bit-identical routing."""

    def test_route_batch_identical(self, cfg, rng):
        params = EDNParams(*cfg)
        planned, unplanned = BatchedEDN(params), _uncached(params)
        dests = _random_batch(rng, params, batch=5)
        a, b = planned.route_batch(dests), unplanned.route_batch(dests)
        assert np.array_equal(a.output, b.output)
        assert np.array_equal(a.blocked_stage, b.blocked_stage)

    def test_counts_identical(self, cfg, rng):
        params = EDNParams(*cfg)
        planned, unplanned = BatchedEDN(params), _uncached(params)
        for rate in (1.0, 0.5, 0.0):
            dests = _random_batch(rng, params, batch=4, rate=rate)
            a = planned.route_batch_counts(dests)
            b = unplanned.route_batch_counts(dests)
            assert np.array_equal(a.offered_per_cycle, b.offered_per_cycle)
            assert np.array_equal(a.delivered_per_cycle, b.delivered_per_cycle)
            assert a.blocked_by_stage == b.blocked_by_stage

    def test_counts_match_per_message_routing(self, cfg, rng):
        params = EDNParams(*cfg)
        planned = BatchedEDN(params)
        dests = _random_batch(rng, params, batch=4)
        counts = planned.route_batch_counts(dests)
        full = planned.route_batch(dests)
        assert np.array_equal(counts.offered_per_cycle, full.offered_per_cycle)
        assert np.array_equal(counts.delivered_per_cycle, full.delivered_per_cycle)
        assert counts.blocked_by_stage == full.blocked_stage_histogram()

    def test_explicit_workspace_override(self, cfg, rng):
        params = EDNParams(*cfg)
        engine = BatchedEDN(params)
        private = ChunkWorkspace()
        dests = _random_batch(rng, params, batch=3)
        a = engine.route_batch_counts(dests, workspace=private)
        b = engine.route_batch_counts(dests)
        assert np.array_equal(a.delivered_per_cycle, b.delivered_per_cycle)
        assert private.nbytes > 0  # the override was actually used


class TestPlannedValidation:
    """The specialized kernel enforces the same input contract."""

    def test_rejects_wrong_shape(self):
        from repro.core.exceptions import LabelError

        engine = BatchedEDN(EDNParams(16, 4, 4, 2))
        with pytest.raises(LabelError):
            engine.route_batch_counts(np.zeros((3, 17), dtype=np.int64))

    def test_rejects_out_of_range(self):
        from repro.core.exceptions import LabelError

        engine = BatchedEDN(EDNParams(16, 4, 4, 2))
        bad = np.zeros((2, engine.n_inputs), dtype=np.int64)
        bad[1, 3] = engine.n_outputs
        with pytest.raises(LabelError):
            engine.route_batch_counts(bad)
        below = np.zeros((2, engine.n_inputs), dtype=np.int64)
        below[0, 0] = -2
        with pytest.raises(LabelError):
            engine.route_batch_counts(below)

    def test_all_idle_and_empty(self):
        engine = BatchedEDN(EDNParams(16, 4, 4, 2))
        idle = np.full((4, engine.n_inputs), -1, dtype=np.int64)
        counts = engine.route_batch_counts(idle)
        assert counts.offered_per_cycle.sum() == 0
        assert counts.blocked_by_stage == {}
        empty = engine.route_batch_counts(
            np.empty((0, engine.n_inputs), dtype=np.int64)
        )
        assert empty.offered_per_cycle.shape == (0,)
