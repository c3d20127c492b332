"""Simulation substrate: RNG streams, statistics, the stage-graph core, Monte-Carlo.

This package supplies the *machinery*; for constructing and driving
networks, prefer the :mod:`repro.api` facade — ``NetworkSpec`` names any
topology in the repo, ``build_router`` selects an engine through the
backend registry (the compiled routers below under ``backend="auto"``),
and ``RunConfig`` threads cycles/seed/jobs/batch through
:func:`~repro.sim.montecarlo.measure_acceptance` and the experiment
runners.

One engine per semantics:

* :mod:`repro.sim.stagegraph` — the topology-agnostic stage-graph core:
  every unidirectional multistage network (EDN, delta, omega, dilated
  delta) as a :class:`StageGraph` descriptor, plus the independent
  interpreters the compiled engines are checked against — the per-cycle
  :class:`StageGraphReference` (bufferless) and the per-packet
  :class:`BufferedStageReference` (buffered);
* :mod:`repro.sim.plan` — a :class:`StageGraph` compiles to a
  :class:`StagePlan` (tables, narrow dtypes) behind a keyed LRU cache,
  plus reusable :class:`ChunkWorkspace` scratch, so repeated router
  construction and chunk routing skip all topology setup and
  steady-state allocation (see ``docs/PERFORMANCE.md``);
* :mod:`repro.sim.batched` — :class:`CompiledStageRouter`, the one NumPy
  router over ``(batch, N)`` demand matrices: many independent cycles
  per call, bit-identical per message to the per-cycle interpreter
  (:class:`BatchedEDN` is its ``EDNParams`` constructor);
* :mod:`repro.sim.native` — the native kernel: every :class:`StagePlan`
  lowered to one plan-specialized C kernel built with the host compiler
  (``backend="native"``; counts-only Monte-Carlo, bit-identical to the
  NumPy kernels; without a C compiler ``auto`` uses ``batched``);
* :mod:`repro.sim.rng` — reproducible independent random streams;
* :mod:`repro.sim.stats` — online statistics and confidence intervals
  (streaming ratio-of-sums estimator with a delta-method interval);
* :mod:`repro.sim.montecarlo` — acceptance-probability measurement,
  routed in batched chunks wherever the router supports it, with
  optional adaptive early stopping (``rel_err=``: the cycle budget
  becomes a ceiling and each run stops once its confidence interval is
  tight enough);
* :mod:`repro.sim.buffered` — buffered packet switching on the compiled
  core: per-wire FIFO state with back-pressure on any stage graph
  (:class:`CompiledStageRouter` with a ``buffer_depth``, cross-checked
  by :class:`BufferedStageReference`), measured by
  :func:`measure_buffered` with streaming :class:`LatencyStats`
  histograms (mean/p50/p95/p99 + delta-method CI).

Traffic models live in the :mod:`repro.workloads` subsystem and are
re-exported here.

Batched-routing semantics
-------------------------
``CompiledStageRouter.route_batch`` treats each row of a ``(batch, N)``
demand matrix as one independent network cycle (the paper's assumption
3: blocked requests do not couple cycles), so a Monte-Carlo estimate over
``k`` cycles is one or a few router calls instead of ``k``.  Under the
default label priority contention is resolved sort-free from packed
per-bucket occupancy counters; under random priority the cycle index is
folded into the contention sort key so one batch-wide argsort resolves
every cycle.  Per-message outcomes equal ``StageGraphReference.route``
row for row.
"""

from repro.sim.batched import (
    BatchAcceptanceCounts,
    BatchCycleResult,
    BatchedEDN,
    CompiledStageRouter,
)
from repro.sim.buffered import BufferedMeasurement, measure_buffered
from repro.sim.plan import (
    BufferedState,
    ChunkWorkspace,
    StagePlan,
    clear_plan_cache,
    compile_stage_plan,
    plan_cache_info,
    stage_plan_for,
)
from repro.sim.stagegraph import (
    BufferedCycleOutcome,
    BufferedStageReference,
    GraphStage,
    StageGraph,
    StageGraphReference,
    VectorCycleResult,
    delta_graph,
    dilated_graph,
    edn_graph,
    omega_graph,
)
from repro.sim.native import NativeStageRouter, available_tiers
from repro.sim.montecarlo import (
    AcceptanceMeasurement,
    measure_acceptance,
)
from repro.sim.rng import make_rng, spawn, spawn_keys, stream_for
from repro.sim.stats import (
    Interval,
    LatencyStats,
    RatioStats,
    RetryStats,
    RunningStats,
    batch_means,
    proportion_ci,
)
from repro.workloads.models import (
    STRUCTURED_PATTERNS,
    BurstyTraffic,
    FixedPattern,
    HotspotTraffic,
    MixtureTraffic,
    PermutationTraffic,
    TraceTraffic,
    TrafficGenerator,
    UniformTraffic,
    structured_permutation,
)

__all__ = [
    "make_rng",
    "spawn",
    "spawn_keys",
    "stream_for",
    "BatchedEDN",
    "CompiledStageRouter",
    "NativeStageRouter",
    "available_tiers",
    "BatchCycleResult",
    "BatchAcceptanceCounts",
    "StagePlan",
    "GraphStage",
    "StageGraph",
    "StageGraphReference",
    "BufferedState",
    "BufferedCycleOutcome",
    "BufferedStageReference",
    "BufferedMeasurement",
    "measure_buffered",
    "edn_graph",
    "delta_graph",
    "omega_graph",
    "dilated_graph",
    "ChunkWorkspace",
    "stage_plan_for",
    "compile_stage_plan",
    "clear_plan_cache",
    "plan_cache_info",
    "RunningStats",
    "RatioStats",
    "LatencyStats",
    "RetryStats",
    "Interval",
    "batch_means",
    "proportion_ci",
    "TrafficGenerator",
    "UniformTraffic",
    "PermutationTraffic",
    "FixedPattern",
    "HotspotTraffic",
    "BurstyTraffic",
    "MixtureTraffic",
    "TraceTraffic",
    "structured_permutation",
    "STRUCTURED_PATTERNS",
    "VectorCycleResult",
    "measure_acceptance",
    "AcceptanceMeasurement",
]
