"""Monte-Carlo measurement harnesses.

Estimates the paper's performance metrics by repeated cycle simulation and
reports them with confidence intervals, so tests and benchmarks can make
statistically honest comparisons against the analytic models (Eqs. 4-5).

The harness is router-agnostic: anything exposing ``n_inputs``,
``n_outputs`` and ``route(dests, rng) -> result`` with ``num_offered`` /
``num_delivered`` works, which lets the same code drive the stage-graph
interpreter, the reference EDN (through
:class:`~repro.api.router.ReferenceEDNRouter`), and the baseline
networks.  Routers that additionally expose ``route_batch(dests, rng)``
(the :class:`~repro.sim.batched.CompiledStageRouter` protocol) are driven
in chunks of
many cycles per call, which removes the per-cycle Python overhead that
otherwise dominates at large ``N`` — see :mod:`repro.sim.batched` and the
measured speedups in ``BENCH_batched_routing.json``.

Reproducibility: a fixed ``(seed, batch)`` pair always reproduces a
measurement exactly.  The per-cycle (``batch=1``) and chunked paths draw
traffic in different stream orders, so their point estimates differ by
Monte-Carlo noise while sharing the same distribution.  Within the
chunked path (``batch >= 2``), routing randomness is drawn from
*positionally spawned per-cycle streams* (cycle ``i`` always gets child
``i`` of the master seed), so random-priority measurements are
bit-identical regardless of chunk size — ``batch=16`` and ``batch=64``
agree exactly — provided the traffic model draws a chunk in one vectorized
call per stream (all built-in single-draw models do at full rate).

Adaptive early stopping: pass ``rel_err`` (or set ``RunConfig.rel_err``)
to turn ``cycles`` into a *budget*.  The harness then adds each chunk's
exact integer sums and stops at the first chunk boundary
(after ``min_cycles``) where the delta-method confidence interval's
half-width falls to ``rel_err * acceptance``, so sweeps spend cycles only
where the estimator is still noisy — see ``docs/PERFORMANCE.md`` for the
stopping-rule math and measured cycle savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol

import numpy as np

from repro.sim.batched import BatchAcceptanceCounts
from repro.sim.rng import SeedLike, make_rng
from repro.sim.stats import Interval, RatioStats, _check_confidence
from repro.workloads.models import TrafficGenerator
from repro.workloads.registry import TrafficLike, make_traffic

if TYPE_CHECKING:  # avoid a runtime cycle: repro.api.measure imports this module
    from repro.api.spec import RunConfig

__all__ = [
    "CycleRouter",
    "BatchRouter",
    "AcceptanceMeasurement",
    "measure_acceptance",
    "DEFAULT_BATCH",
]

#: Default chunk size for routers that support batched routing.
DEFAULT_BATCH = 64

#: Cycles the adaptive stopping rule must observe before it may stop.
DEFAULT_MIN_CYCLES = 32

#: Distinguishes "argument not passed" from an explicit ``None`` seed.
_UNSET = object()


def _contention_priority(router: "CycleRouter") -> Optional[str]:
    """The router's contention discipline, peeking through adapters."""
    for obj in (
        router,
        getattr(router, "engine", None),
        getattr(router, "network", None),
    ):
        priority = getattr(obj, "priority", None)
        if isinstance(priority, str):
            return priority
    return None


def _spawn_source(seed: SeedLike, rng: np.random.Generator):
    """Where per-cycle routing streams are spawned from, positionally.

    Ints and ``None`` root a fresh ``SeedSequence``; a caller-provided
    ``SeedSequence`` or ``Generator`` is spawned from directly (successive
    ``spawn`` calls hand out successive children, so chunked spawning is
    identical to spawning everything up front).
    """
    if isinstance(seed, np.random.Generator):
        return rng
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


class CycleRouter(Protocol):
    """Protocol every measurable router satisfies."""

    @property
    def n_inputs(self) -> int: ...

    @property
    def n_outputs(self) -> int: ...

    def route(self, dests: np.ndarray, rng: Optional[np.random.Generator]) -> object: ...


class BatchRouter(CycleRouter, Protocol):
    """A router that can additionally route many independent cycles at once."""

    def route_batch(
        self, dests: np.ndarray, rng: Optional[np.random.Generator]
    ) -> object: ...


@dataclass
class AcceptanceMeasurement:
    """Result of a Monte-Carlo acceptance run.

    ``acceptance`` is the ratio-of-sums estimator of ``PA`` (matching the
    paper's expected-delivered / expected-generated definition) with a
    delta-method confidence interval; ``blocked_by_stage`` aggregates where
    requests died across all cycles.  ``cycles`` counts the cycles
    actually routed; under adaptive early stopping that may be less than
    ``budget``, and ``converged`` records whether the ``target_rel_err``
    stopping rule was met within the budget (``None`` for fixed-budget
    runs).
    """

    cycles: int
    offered: int
    delivered: int
    acceptance: Interval
    blocked_by_stage: dict[int, int] = field(default_factory=dict)
    budget: Optional[int] = None
    target_rel_err: Optional[float] = None
    converged: Optional[bool] = None

    @property
    def point(self) -> float:
        return self.acceptance.point


def measure_acceptance(
    router: CycleRouter,
    traffic: "TrafficLike | None" = None,
    *,
    cycles: int | None = None,
    seed: SeedLike = _UNSET,
    confidence: float | None = None,
    batch: int | None = None,
    rel_err: float | None = None,
    min_cycles: int | None = None,
    retry=None,
    config: "RunConfig | None" = None,
    progress=None,
) -> AcceptanceMeasurement:
    """Estimate the probability of acceptance of ``router`` under ``traffic``.

    Each cycle draws a fresh demand vector (the paper's assumption 3:
    blocked requests are ignored and do not affect later cycles) and routes
    it; acceptance is accumulated as a ratio of sums.

    ``traffic`` is anything :func:`repro.workloads.make_traffic` accepts:
    a built :class:`~repro.workloads.TrafficGenerator`, a workload spec
    string (``"hotspot:0.1"``, ``"bitrev"``, ...), or a parsed
    :class:`~repro.workloads.WorkloadSpec` — specs are sized to the router
    here.  When ``traffic`` is omitted, a set ``config.traffic`` fills it;
    failing that, full-rate uniform traffic (the paper's Section 3.2
    default) is used.

    Run parameters can come from a :class:`repro.api.RunConfig` (``config``)
    or from the individual keywords.  Precedence matches the experiment
    runners everywhere in the facade: *set* config fields win, keywords act
    as the defaults for unset fields, and anything still unset falls back
    to the historical defaults (100 cycles, seed 0, 95% confidence).

    ``batch`` controls how many cycles are generated and routed per call:
    ``None`` (the default) picks :data:`DEFAULT_BATCH` when the router
    exposes ``route_batch`` and falls back to cycle-at-a-time otherwise;
    pass an explicit chunk size to override.  Routers without
    ``route_batch`` still accept ``batch > 1`` — traffic is drawn in chunks
    (so two routers measured at the same ``(seed, batch)`` see identical
    demands) and routed cycle by cycle.

    Under ``random`` contention priority, the chunked path gives cycle
    ``i`` its own positionally spawned child stream of the master seed for
    tie-breaking (traffic keeps the master stream), so measurements are
    independent of chunk size and bit-identical across routers that make
    identical routing decisions.

    ``rel_err`` turns ``cycles`` into a budget: the run stops at the first
    chunk boundary — after ``min_cycles`` (default
    :data:`DEFAULT_MIN_CYCLES`) — where the interval half-width at
    ``confidence`` is at most ``rel_err`` times the acceptance estimate.

    ``progress`` is an optional callback invoked at every cycle/chunk
    boundary (the same boundaries the stopping rule checks) with
    ``(cycles_routed_so_far, current_acceptance_interval)`` — the hook
    the simulation service (:mod:`repro.serve`) streams partial results
    through.  It observes, never steers: measurements are bit-identical
    with or without it.  Ignored on the closed-loop path (whose driver
    owns its cycle loop).

    ``retry`` (a :class:`~repro.sim.closedloop.RetryPolicy` or its spec
    string, also settable via ``RunConfig.retry``) switches to
    *closed-loop* sources: blocked messages are held and resubmitted
    until delivered, abandoned, or out of budget, and the result is a
    :class:`~repro.sim.closedloop.ClosedLoopMeasurement` carrying
    per-message attempt/latency intervals.  The retry state couples
    consecutive cycles, so the closed-loop driver routes cycle by cycle
    (``batch`` is ignored).
    """
    if config is not None:
        cycles = config.cycles if config.cycles is not None else cycles
        confidence = config.confidence if config.confidence is not None else confidence
        batch = config.batch if config.batch is not None else batch
        rel_err = config.rel_err if config.rel_err is not None else rel_err
        retry = config.retry if config.retry is not None else retry
        if config.seed is not None:
            seed = config.seed
        if traffic is None:
            traffic = config.traffic
    cycles = 100 if cycles is None else cycles
    confidence = 0.95 if confidence is None else confidence
    if seed is _UNSET:
        seed = 0
    if traffic is None:
        traffic = "uniform"
    if not isinstance(traffic, TrafficGenerator):
        traffic = make_traffic(traffic, router.n_inputs, router.n_outputs)
    if traffic.n_inputs != router.n_inputs:
        raise ValueError(
            f"traffic generates {traffic.n_inputs} inputs, router has {router.n_inputs}"
        )
    if batch is None:
        if hasattr(router, "preferred_batch"):
            batch = router.preferred_batch()
        elif hasattr(router, "route_batch"):
            batch = DEFAULT_BATCH
        else:
            batch = 1
    if batch < 1:
        raise ValueError(f"batch size must be >= 1, got {batch}")
    if rel_err is not None and not 0 < rel_err < 1:
        raise ValueError(f"rel_err must lie in (0, 1), got {rel_err}")
    _check_confidence(confidence)
    if retry is not None:
        from repro.sim.closedloop import RetryPolicy, drive_closed_loop

        if isinstance(retry, str):
            retry = RetryPolicy.parse(retry)
        return drive_closed_loop(
            router,
            traffic,
            retry,
            cycles=cycles,
            rng=make_rng(seed),
            confidence=confidence,
            rel_err=rel_err,
            min_cycles=DEFAULT_MIN_CYCLES if min_cycles is None else min_cycles,
        )
    adaptive = rel_err is not None
    floor = DEFAULT_MIN_CYCLES if min_cycles is None else min_cycles
    floor = max(2, min(floor, cycles))
    rng = make_rng(seed)
    ratio = RatioStats()
    blocked: dict[int, int] = {}

    def _absorb_histogram(result: object) -> None:
        histogram = getattr(result, "blocked_stage_histogram", None)
        if histogram is not None:
            for stage, count in histogram().items():
                blocked[stage] = blocked.get(stage, 0) + count

    def _converged() -> bool:
        """The stopping rule, checked at cycle/chunk boundaries only."""
        if not adaptive or ratio.n < floor:
            return False
        interval = ratio.confidence_interval(confidence)
        point = abs(interval.point)
        return interval.halfwidth <= rel_err * (point if point > 0 else 1.0)

    def _report() -> None:
        if progress is not None:
            progress(ratio.n, ratio.confidence_interval(confidence))

    stopped = False
    if batch == 1:
        for _ in range(cycles):
            dests = traffic.generate(rng)
            result = router.route(dests, rng)
            ratio.push(result.num_delivered, result.num_offered)
            _absorb_histogram(result)
            _report()
            if _converged():
                stopped = True
                break
    else:
        counting = hasattr(router, "route_batch_counts")
        batched = hasattr(router, "route_batch")
        # Random contention draws per-cycle tie-break streams spawned
        # positionally from the master seed (chunk-size invariant); the
        # master stream stays dedicated to traffic.  Deterministic
        # disciplines never consume routing randomness, so the seed-path
        # streams are untouched.
        per_cycle_streams = _contention_priority(router) == "random"
        spawner = _spawn_source(seed, rng) if per_cycle_streams else None
        # A router that reads narrow labels (the native label kernel) gets
        # its chunks generated in that dtype; the values are the same.
        dtype = getattr(router, "demand_dtype", np.int64)
        # One that draws chunks itself (the native lane kernel) is asked
        # first; it declines, drawing nothing, where it cannot.  Unless a
        # stopping rule or a progress callback watches chunk boundaries, it
        # is asked for every remaining full chunk at once, as long as the
        # run's int64 sums stay exact (cycles·N² < 2**63).
        drawn = getattr(router, "draw_batch_counts", None)
        longest = 1
        if not adaptive and progress is None:
            longest = max(1, ((1 << 63) - 1) // (batch * router.n_inputs**2))
        remaining = cycles
        while remaining > 0 and not stopped:
            chunk = min(batch, remaining)
            chunks = max(1, min(remaining // batch, longest))
            counts = None if drawn is None else drawn(traffic, rng, chunk, chunks)
            if counts is None:
                chunks = 1
                dests = traffic.generate_batch(rng, chunk, dtype)
                chunk_rng = (
                    [make_rng(key) for key in spawner.spawn(chunk)]
                    if per_cycle_streams
                    else rng
                )
                if counting:
                    # Counts-only kernel: identical routing decisions,
                    # no per-message outcome arrays to materialize.
                    counts = router.route_batch_counts(dests, chunk_rng)
                elif batched:
                    result = router.route_batch(dests, chunk_rng)
                    counts = BatchAcceptanceCounts(
                        result.offered_per_cycle,
                        result.delivered_per_cycle,
                        result.blocked_stage_histogram(),
                    )
                else:
                    for i in range(chunk):
                        cycle_rng = chunk_rng[i] if per_cycle_streams else rng
                        result = router.route(dests[i], cycle_rng)
                        ratio.push(result.num_delivered, result.num_offered)
                        _absorb_histogram(result)
            remaining -= chunk * chunks
            if counts is not None:
                for stage, count in counts.blocked_by_stage.items():
                    blocked[stage] = blocked.get(stage, 0) + count
                ratio._add(*counts.sums)
            _report()
            if _converged():
                stopped = True

    routed, delivered, offered = ratio.sums[:3]
    return AcceptanceMeasurement(
        cycles=routed,
        offered=offered,
        delivered=delivered,
        acceptance=ratio.confidence_interval(confidence),
        blocked_by_stage=dict(sorted(blocked.items())),
        budget=cycles if adaptive else None,
        target_rel_err=rel_err,
        converged=stopped if adaptive else None,
    )
