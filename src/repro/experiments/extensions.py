"""Experiments ``buffered`` and ``admissibility``: beyond the paper's model.

* ``buffered`` — packet switching with FIFO buffers on the paper's
  Figure 4 network: throughput/latency vs offered rate and buffer depth,
  against the bufferless ``PA`` of Eq. 4.  Measured shape: single
  buffering saturates *near* (slightly below) the circuit-switched
  ``PA(1)`` — head-of-line blocking idles wires — while depth >= 2 turns
  losses into queueing and pushes throughput past it, paying in latency.
* ``admissibility`` — the fraction of all permutations routable in one
  pass, exhaustive at 8 terminals and Monte-Carlo at MasPar scale.
  Expected shape: the admissible set grows quickly with capacity ``c``
  (the delta's is vanishingly small), yet stays far from 1 — which is why
  Section 5 plans for multi-cycle drains rather than hoping for one-pass
  permutations.
"""

from __future__ import annotations

from typing import Optional

from repro.api.spec import RunConfig
from repro.core.analysis import acceptance_probability
from repro.core.config import EDNParams
from repro.experiments.base import ExperimentResult
from repro.ext.admissibility import admissible_fraction
from repro.sim.batched import BatchedEDN
from repro.sim.buffered import measure_buffered
from repro.sim.stagegraph import edn_graph

__all__ = ["run_buffered", "run_admissibility"]


def run_buffered(
    *,
    rates: tuple[float, ...] = (0.2, 0.5, 0.8, 1.0),
    depths: tuple[int, ...] = (1, 2, 4),
    cycles: int = 400,
    warmup: int = 100,
    seed: int = 0,
    config: Optional[RunConfig] = None,
) -> ExperimentResult:
    """Throughput/latency of the buffered EDN(16,4,4,2) vs load and depth.

    A :class:`RunConfig` may supply cycles/seed; the explicit keywords act
    as its defaults.
    """
    cfg = (config if config is not None else RunConfig()).resolve(cycles=cycles, seed=seed)
    cycles, seed = cfg.cycles, cfg.seed
    params = EDNParams(16, 4, 4, 2)
    graph = edn_graph(params)
    result = ExperimentResult(
        experiment_id="buffered",
        title=f"Buffered packet switching on {params} (extension)",
    )
    rows = []
    for depth in depths:
        points = []
        for rate in rates:
            metrics = measure_buffered(
                graph,
                traffic=f"uniform:{rate:g}",
                depth=depth,
                cycles=cycles,
                warmup=warmup,
                seed=seed,
            )
            points.append((rate, metrics.throughput))
            rows.append(
                [depth, rate, metrics.throughput, metrics.mean_latency, metrics.mean_occupancy]
            )
        result.series[f"depth {depth}"] = points
    result.tables["throughput & latency"] = (
        ["depth", "offered rate", "throughput", "mean latency", "mean occupancy"],
        rows,
    )
    result.notes.append(
        f"bufferless circuit-switched PA(1) = "
        f"{acceptance_probability(params, 1.0):.4f}: buffering converts losses "
        "into queueing and saturates above it"
    )
    return result


def run_admissibility(
    *, samples: int = 600, seed: int = 0, config: Optional[RunConfig] = None
) -> ExperimentResult:
    """One-pass admissible fraction across a capacity ladder.

    A :class:`RunConfig` may supply the seed; the explicit keyword acts as
    its default.
    """
    if config is not None and config.seed is not None:
        seed = config.seed
    result = ExperimentResult(
        experiment_id="admissibility",
        title="One-pass permutation admissibility vs capacity (extension)",
    )
    rows = []
    census = [
        ("delta EDN(2,2,1,3), 8x8", BatchedEDN(EDNParams(2, 2, 1, 3)), None),
        ("EDN(4,2,2,2), 8x8", BatchedEDN(EDNParams(4, 2, 2, 2)), None),
        ("EDN(8,2,4,1), 8x8", BatchedEDN(EDNParams(8, 2, 4, 1)), None),
        ("EDN(16,4,4,2), 64x64", BatchedEDN(EDNParams(16, 4, 4, 2)), samples),
        ("EDN(64,16,4,2), 1024x1024", BatchedEDN(EDNParams(64, 16, 4, 2)), samples),
    ]
    for label, network, sample_budget in census:
        fraction, population = admissible_fraction(
            network, samples=sample_budget, seed=seed
        )
        mode = "exhaustive" if sample_budget is None else f"{population} samples"
        rows.append([label, fraction, mode])
    result.tables["admissible fraction"] = (
        ["network", "fraction of permutations", "census"],
        rows,
    )
    result.notes.append(
        "Lemma 2 makes l=1 members admit everything; multipath widens the set "
        "at every depth but random permutations still block with high "
        "probability at scale - hence Section 5's multi-cycle drain model"
    )
    return result
