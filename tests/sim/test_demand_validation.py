"""Up-front demand-matrix validation across every batch entry point.

The batched routers share one validator
(:func:`repro.sim.batched.validate_demand_matrix`); a malformed matrix —
wrong dtype, wrong shape, out-of-range destinations — must fail *before*
any routing starts, with a message that names the problem, instead of a
numpy cast error (or a silent float truncation) deep inside a stage loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import NetworkSpec, build_router
from repro.api.router import RearrangeableRouter, ReferenceEDNRouter
from repro.baselines.benes import BenesNetwork
from repro.baselines.crossbar_network import CrossbarNetwork
from repro.core.config import EDNParams
from repro.core.exceptions import LabelError
from repro.core.network import EDNetwork
from repro.sim import native
from repro.sim.batched import CompiledStageRouter, validate_demand_matrix
from repro.sim.stagegraph import (
    BufferedStageReference,
    StageGraphReference,
    delta_graph,
)


def batch_routers():
    """One router per batch implementation family."""
    return [
        pytest.param(CrossbarNetwork(8), id="crossbar-native"),
        pytest.param(CompiledStageRouter(delta_graph(2, 2, 3)), id="compiled-graph"),
        pytest.param(build_router(NetworkSpec.edn(4, 2, 2, 2)), id="batched-edn"),
        pytest.param(
            build_router(NetworkSpec.parse("delta:8,2"), "vectorized"),
            id="batch-by-loop",
        ),
        pytest.param(build_router(NetworkSpec.clos(2, 4)), id="rearrangeable-loop"),
    ]


class TestDtypeRejection:
    @pytest.mark.parametrize("router", batch_routers())
    def test_float_matrix_rejected_with_clear_message(self, router):
        demands = np.zeros((3, router.n_inputs), dtype=np.float64)
        with pytest.raises(LabelError, match="integer dtype"):
            router.route_batch(demands)

    @pytest.mark.parametrize("router", batch_routers())
    def test_object_matrix_rejected(self, router):
        demands = np.full((2, router.n_inputs), None, dtype=object)
        with pytest.raises(LabelError, match="integer dtype"):
            router.route_batch(demands)

    def test_integer_lists_still_accepted(self):
        router = CrossbarNetwork(4)
        result = router.route_batch([[0, 1, 2, 3], [3, 3, -1, -1]])
        assert result.num_delivered == 5

    def test_narrow_integer_dtypes_accepted(self):
        router = CompiledStageRouter(delta_graph(2, 2, 2))
        demands = np.full((2, 4), -1, dtype=np.int8)
        demands[:, 0] = 3  # one lone message per cycle always lands
        result = router.route_batch(demands)
        assert result.num_delivered == 2
        assert (result.output[:, 0] == 3).all()


class TestShapeRejection:
    @pytest.mark.parametrize("router", batch_routers())
    def test_wrong_width_rejected(self, router):
        demands = np.zeros((3, router.n_inputs + 1), dtype=np.int64)
        with pytest.raises(LabelError, match="expected demand matrix of shape"):
            router.route_batch(demands)

    @pytest.mark.parametrize("router", batch_routers())
    def test_one_dimensional_matrix_rejected(self, router):
        demands = np.zeros(router.n_inputs, dtype=np.int64)
        with pytest.raises(LabelError, match="expected demand matrix of shape"):
            router.route_batch(demands)


class TestBoundsRejection:
    @pytest.mark.parametrize("router", batch_routers())
    def test_out_of_range_destination_rejected(self, router):
        demands = np.zeros((2, router.n_inputs), dtype=np.int64)
        demands[1, 0] = router.n_outputs
        with pytest.raises(LabelError, match="out-of-range"):
            router.route_batch(demands)

    @pytest.mark.parametrize("router", batch_routers())
    def test_below_idle_rejected(self, router):
        demands = np.full((2, router.n_inputs), -1, dtype=np.int64)
        demands[0, 0] = -2
        with pytest.raises(LabelError, match="out-of-range"):
            router.route_batch(demands)


class TestValidationHappensUpFront:
    def test_no_routing_runs_before_validation(self):
        """The loop adapter must reject the matrix before touching ``route``."""
        from repro.api.router import PerCycleRouter

        class Exploding:
            n_inputs = 4
            n_outputs = 4

            def route(self, dests, rng=None):  # pragma: no cover - must not run
                raise AssertionError("route() was called on an invalid matrix")

        router = PerCycleRouter(Exploding())
        with pytest.raises(LabelError):
            router.route_batch(np.zeros((2, 4), dtype=np.float32))
        with pytest.raises(LabelError):
            router.route_batch(np.zeros((2, 5), dtype=np.int64))

    def test_validator_returns_canonical_int64(self):
        dests, flat, live = validate_demand_matrix(
            np.array([[1, -1], [0, 1]], dtype=np.int16), 2, 2
        )
        assert dests.dtype == np.int64 and dests.flags.c_contiguous
        assert flat.shape == (4,)
        assert live.tolist() == [True, False, True, True]


def per_cycle_entry_points():
    """Every per-cycle ``route``/``step``, as ``(name, call)``."""
    graph = delta_graph(2, 2, 3)
    needs_cc = pytest.mark.skipif(
        not native.available_tiers(), reason="no working C compiler"
    )
    return [
        pytest.param(
            lambda d: CompiledStageRouter(graph).route(d), id="compiled-route"
        ),
        pytest.param(
            lambda d: CompiledStageRouter(graph, buffer_depth=2).step(d),
            id="compiled-step",
        ),
        pytest.param(
            lambda d: native.NativeStageRouter(graph).route(d),
            id="native-route", marks=needs_cc,
        ),
        pytest.param(
            lambda d: native.NativeStageRouter(graph, buffer_depth=2).step(d),
            id="native-step", marks=needs_cc,
        ),
        pytest.param(
            lambda d: StageGraphReference(graph).route(d), id="reference-route"
        ),
        pytest.param(
            lambda d: BufferedStageReference(graph, depth=2).step(d),
            id="reference-step",
        ),
        pytest.param(
            lambda d: ReferenceEDNRouter(EDNetwork(EDNParams(4, 2, 2, 2))).route(d),
            id="reference-edn-route",
        ),
        pytest.param(
            lambda d: RearrangeableRouter(BenesNetwork(8)).route(d),
            id="rearrangeable-route",
        ),
    ]


class TestPerCycleEntryPoints:
    """One cycle's vector gets the batch path's dtype, shape and bounds check."""

    @pytest.mark.parametrize("call", per_cycle_entry_points())
    def test_float_label_rejected_not_truncated(self, call):
        dests = np.full(8, -1.0)
        dests[0] = 3.7  # used to route to output 3
        with pytest.raises(LabelError, match="integer dtype"):
            call(dests)

    @pytest.mark.parametrize("call", per_cycle_entry_points())
    def test_out_of_range_and_shape_rejected(self, call):
        with pytest.raises(LabelError, match="out-of-range"):
            call(np.array([8, -1, -1, -1, -1, -1, -1, -1]))
        with pytest.raises(LabelError, match="shape"):
            call(np.full(4, -1))

    @pytest.mark.parametrize("call", per_cycle_entry_points())
    def test_integer_vectors_still_accepted(self, call):
        call([3, -1, -1, -1, -1, -1, -1, -1])
        call(np.full(8, -1, dtype=np.int8))
