"""Integration: the stage-graph interpreter reproduces the reference engine exactly.

The reference engine (:mod:`repro.core.network`) is the semantic ground
truth — one switch object per hyperbar, explicit wires.  The per-cycle
:class:`~repro.sim.stagegraph.StageGraphReference` on an ``edn_graph``
(the ``vectorized`` backend) must make *identical* per-message decisions
(same winners, same blocking stages, same outputs) under label priority
and first-free wires, for every retirement order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EDNParams
from repro.core.network import EDNetwork
from repro.core.tags import RetirementOrder
from repro.sim.stagegraph import StageGraphReference, edn_graph

CONFIGS = [
    (16, 4, 4, 2),
    (8, 2, 4, 3),
    (8, 8, 1, 2),
    (64, 16, 4, 2),
    (4, 2, 2, 4),
    (16, 8, 2, 3),
    (16, 2, 8, 1),
]


def _compare_one_cycle(params: EDNParams, order, dests: np.ndarray) -> None:
    vectorized = StageGraphReference(edn_graph(params, order))
    reference = EDNetwork(params, retirement_order=order)
    vec = vectorized.route(dests)
    ref = reference.route_destinations(
        {int(s): int(d) for s, d in enumerate(dests) if d >= 0}
    )
    by_source = {o.message.source: o for o in ref.outcomes}
    for source in range(params.num_inputs):
        if dests[source] < 0:
            assert vec.blocked_stage[source] == -1
            continue
        outcome = by_source[source]
        if outcome.delivered:
            assert vec.blocked_stage[source] == 0
            assert vec.output[source] == outcome.output
        else:
            assert vec.blocked_stage[source] == outcome.blocked_stage


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"EDN{c}")
class TestEquivalence:
    def test_uniform_traffic(self, cfg, rng):
        params = EDNParams(*cfg)
        for _ in range(6):
            rate = float(rng.random())
            dests = rng.integers(0, params.num_outputs, size=params.num_inputs)
            dests = np.where(rng.random(params.num_inputs) < rate, dests, -1)
            _compare_one_cycle(params, None, dests)

    def test_permutation_traffic(self, cfg, rng):
        params = EDNParams(*cfg)
        n = min(params.num_inputs, params.num_outputs)
        dests = np.full(params.num_inputs, -1, dtype=np.int64)
        dests[:n] = rng.permutation(params.num_outputs)[:n]
        _compare_one_cycle(params, None, dests)

    def test_reversed_retirement_order(self, cfg, rng):
        params = EDNParams(*cfg)
        order = RetirementOrder.reversed_order(params.l)
        dests = rng.integers(0, params.num_outputs, size=params.num_inputs)
        _compare_one_cycle(params, order, dests)

    def test_all_to_one(self, cfg):
        params = EDNParams(*cfg)
        dests = np.zeros(params.num_inputs, dtype=np.int64)
        _compare_one_cycle(params, None, dests)

    def test_identity_pattern(self, cfg):
        params = EDNParams(*cfg)
        n = min(params.num_inputs, params.num_outputs)
        dests = np.full(params.num_inputs, -1, dtype=np.int64)
        dests[:n] = np.arange(n)
        _compare_one_cycle(params, None, dests)
