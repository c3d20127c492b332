"""Physics of the buffered packet-switched EDN (``measure_buffered``)."""

from __future__ import annotations

import pytest

from repro.core.analysis import acceptance_probability
from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError
from repro.sim.buffered import measure_buffered
from repro.sim.stagegraph import edn_graph

EDN = edn_graph(EDNParams(16, 4, 4, 2))
L = 2


def run(rate: float, *, depth: int = 2, cycles: int, warmup: int = 0, seed: int):
    return measure_buffered(
        EDN, traffic=f"uniform:{rate:g}", depth=depth, cycles=cycles,
        warmup=warmup, seed=seed,
    )


class TestConservation:
    def test_no_packet_loss(self):
        # Injected == delivered + still buffered, always.
        metrics = run(0.8, cycles=300, seed=0)
        assert metrics.injected == metrics.delivered + metrics.in_flight

    def test_light_load_flows_freely(self):
        metrics = run(0.05, cycles=400, warmup=100, seed=1)
        # Nearly everything injected is delivered; latency near the l+1
        # stage minimum.
        assert metrics.throughput == pytest.approx(0.05, abs=0.01)
        assert metrics.mean_latency < 2 * (L + 1) + 2

    def test_zero_rate_idle(self):
        metrics = run(0.0, cycles=50, seed=2)
        assert metrics.injected == 0
        assert metrics.delivered == 0
        assert metrics.throughput == 0.0


class TestSaturation:
    def test_buffering_beats_bufferless_acceptance(self):
        # At full offered load the buffered network's throughput exceeds
        # the circuit-switched PA(1): blocked packets wait instead of dying.
        metrics = run(1.0, depth=4, cycles=600, warmup=200, seed=3)
        assert metrics.throughput > acceptance_probability(EDNParams(16, 4, 4, 2), 1.0)

    def test_deeper_buffers_raise_throughput(self):
        shallow = run(1.0, depth=1, cycles=500, warmup=150, seed=4)
        deep = run(1.0, depth=8, cycles=500, warmup=150, seed=4)
        assert deep.throughput > shallow.throughput

    def test_deeper_buffers_raise_latency_at_saturation(self):
        shallow = run(1.0, depth=1, cycles=500, warmup=150, seed=5)
        deep = run(1.0, depth=8, cycles=500, warmup=150, seed=5)
        assert deep.mean_latency > shallow.mean_latency

    def test_throughput_bounded_by_injection(self):
        metrics = run(0.3, cycles=400, warmup=100, seed=6)
        assert metrics.throughput <= 0.3 + 0.05


class TestOccupancy:
    def test_occupancy_grows_with_load(self):
        light = run(0.1, depth=4, cycles=300, warmup=100, seed=7)
        heavy = run(1.0, depth=4, cycles=300, warmup=100, seed=7)
        assert heavy.mean_occupancy > light.mean_occupancy

    def test_occupancy_bounded_by_depth(self):
        metrics = run(1.0, depth=2, cycles=200, warmup=50, seed=8)
        assert metrics.mean_occupancy <= 2.0


class TestValidation:
    def test_rejects_bad_depth(self):
        with pytest.raises(ConfigurationError):
            run(0.5, depth=0, cycles=10, seed=0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            run(1.5, cycles=10, seed=0)

    def test_rejects_zero_cycles(self):
        with pytest.raises(ConfigurationError):
            run(0.5, cycles=0, seed=0)
