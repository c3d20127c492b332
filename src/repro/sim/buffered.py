"""Buffered packet-switched measurement on the compiled stage-graph core.

The paper's circuit-switched model discards blocked requests each cycle;
buffered multistage networks instead hold packets in per-wire FIFOs under
back-pressure, trading loss for queueing delay.  This module is the
measurement driver for that discipline on *any*
:class:`~repro.sim.stagegraph.StageGraph` — EDN, delta, omega, dilated —
through the full core stack: workload-registry traffic, the plan-cached
compiled kernels (:class:`~repro.sim.batched.CompiledStageRouter` with a
``buffer_depth``), and streaming latency histograms
(:class:`~repro.sim.stats.LatencyStats`).

Measured quantities per run:

* **throughput** — delivered packets per output terminal per measured
  cycle, the packet-switched counterpart of the paper's ``PA``;
* **latency** — cycles from injection to delivery, as an exact
  integer-bin histogram (mean, p50/p95/p99, delta-method CI);
* **occupancy** — mean buffered packets per FIFO, sampled at each cycle
  end, which ties the other two together through Little's law
  (``mean total occupancy ~= delivery rate x mean latency`` in steady
  state — pinned by ``tests/sim/test_latency_stats.py``).

The per-packet :class:`~repro.sim.stagegraph.BufferedStageReference`
serves as the independent cross-check engine (``engine="reference"``),
bit-identical per cycle to the compiled path, which steps on NumPy
(``engine="compiled"``) or in C (``engine="native"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.sim.stats import LatencyStats

__all__ = ["BufferedMeasurement", "measure_buffered"]


@dataclass
class BufferedMeasurement:
    """Steady-state measurements of one buffered packet-switched run."""

    graph_label: str
    traffic: str
    depth: int
    priority: str
    cycles: int
    warmup: int
    seed: Optional[int]
    offered: int
    injected: int
    delivered: int
    throughput: float          # delivered per output per measured cycle
    latency: LatencyStats      # injection -> delivery, measured deliveries
    mean_occupancy: float      # buffered packets per FIFO (cycle-end samples)
    total_occupancy: float     # buffered packets network-wide (cycle-end mean)
    num_queues: int
    in_flight: int             # packets still queued when measurement ended
    n_inputs: int
    n_outputs: int
    faults: tuple = ()         # canonical dead-wire tuple the run routed under
    dropped: int = 0           # packets lost to wire failures (apply_faults)

    @property
    def mean_latency(self) -> float:
        return self.latency.mean

    @property
    def injection_rate(self) -> float:
        """Accepted injections per input per measured cycle."""
        return self.injected / (self.cycles * self.n_inputs)

    @property
    def delivery_rate(self) -> float:
        """Delivered packets per measured cycle (network-wide)."""
        return self.delivered / self.cycles


def measure_buffered(
    graph,
    *,
    traffic="uniform",
    depth: int = 2,
    priority: str = "label",
    cycles: int = 400,
    warmup: int = 100,
    seed: Optional[int] = 0,
    engine: str = "compiled",
    faults=(),
    latency_bound: int = LatencyStats.DEFAULT_BOUND,
) -> BufferedMeasurement:
    """Run ``warmup + cycles`` buffered cycles; measure the last ``cycles``.

    ``traffic`` is any workload-registry spec (string, ``WorkloadSpec``,
    or built :class:`~repro.workloads.models.TrafficGenerator`); demands
    refused by a full entry FIFO are dropped, not retried, so the
    *accepted* injection rate saturates below the offered rate once the
    network backs up.  ``engine`` selects the compiled kernels
    (``"compiled"``) or the per-packet reference interpreter
    (``"reference"``) — identical results, wildly different speed;
    ``"native"`` runs the compiled router's cycles in C
    (:class:`~repro.sim.native.NativeStageRouter`; it needs a working C
    compiler).  ``faults`` routes the whole run under a static dead-wire
    set (every engine honors it bit-identically); the returned
    measurement then conserves ``injected == delivered + in_flight +
    dropped``.
    """
    from repro.sim.batched import CompiledStageRouter
    from repro.sim.rng import make_rng
    from repro.sim.stagegraph import BufferedStageReference
    from repro.workloads.registry import make_traffic

    if cycles < 1:
        raise ConfigurationError("need at least one measured cycle")
    if warmup < 0:
        raise ConfigurationError(f"warmup must be >= 0, got {warmup}")
    if engine not in ("compiled", "native", "reference"):
        raise ConfigurationError(f"unknown buffered engine {engine!r}")

    faults = tuple(sorted(set(faults)))
    gen = make_traffic(traffic, graph.n_inputs, graph.n_outputs)
    if engine != "reference":
        if engine == "native":
            from repro.sim.native import NativeStageRouter as router_class
        else:
            router_class = CompiledStageRouter
        router = router_class(
            graph, priority=priority, buffer_depth=depth, faults=faults
        )
        num_queues = router._buffers.num_queues
    else:
        router = BufferedStageReference(
            graph, depth=depth, priority=priority, faults=faults
        )
        num_queues = sum(graph.stage_widths)
    rng = make_rng(seed)

    offered = injected = delivered = 0
    occupancy_total = 0
    latency = LatencyStats(bound=latency_bound)
    for cycle in range(warmup + cycles):
        dests = gen.generate(rng)
        outcome = router.step(dests, rng)
        if cycle >= warmup:
            offered += outcome.offered
            injected += outcome.injected
            delivered += outcome.delivered
            latency.record(outcome.latencies)
            occupancy_total += router.total_occupancy()

    return BufferedMeasurement(
        graph_label=graph.label,
        traffic=gen.describe(),
        depth=int(depth),
        priority=priority,
        cycles=cycles,
        warmup=warmup,
        seed=seed,
        offered=offered,
        injected=injected,
        delivered=delivered,
        throughput=delivered / (cycles * graph.n_outputs),
        latency=latency,
        mean_occupancy=occupancy_total / cycles / num_queues,
        total_occupancy=occupancy_total / cycles,
        num_queues=num_queues,
        in_flight=router.total_occupancy(),
        n_inputs=graph.n_inputs,
        n_outputs=graph.n_outputs,
        faults=faults,
        dropped=int(router.dropped_packets),
    )
