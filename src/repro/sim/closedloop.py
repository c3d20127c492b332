"""Closed-loop sources: retry-until-delivered with bounded backoff.

The open-loop Monte-Carlo harness follows the paper's assumption 3 —
blocked requests are simply ignored and every cycle draws fresh traffic.
Real processors do not shrug: they hold the request and resubmit.  This
module implements that feedback loop as a *source discipline* layered
over any per-cycle router:

* :class:`RetryPolicy` — bounded attempts with optional exponential
  backoff, parseable from the CLI's ``ATTEMPTS[:BACKOFF[:FACTOR]]``
  grammar.
* :func:`drive_closed_loop` — the sequential cycle driver.  Each source
  holds at most one in-flight message; a blocked message is resubmitted
  (after its backoff delay) until delivered or its attempt bound is
  exhausted, and only *free* sources adopt fresh demands from the
  traffic model.  State couples consecutive cycles, so the driver is
  inherently per-cycle — there is no batched variant — and its per-cycle
  acceptance series is autocorrelated (see :func:`repro.sim.stats.batch_means`
  for why that matters when intervals are read strictly).
* :class:`ClosedLoopMeasurement` — the acceptance measurement extended
  with per-message attempt/latency intervals (via
  :class:`~repro.sim.stats.RetryStats`) and the abandoned-message count.

Wired through ``RunConfig.retry`` and
:func:`repro.sim.montecarlo.measure_acceptance`; the
``experiments/degradation`` sweep crosses retry policies with wire
failure rates on the capacity ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.sim.montecarlo import AcceptanceMeasurement
from repro.sim.stats import Interval, LatencyStats, RatioStats, RetryStats

if TYPE_CHECKING:
    from repro.sim.montecarlo import CycleRouter
    from repro.workloads.models import TrafficGenerator

__all__ = ["RetryPolicy", "ClosedLoopMeasurement", "drive_closed_loop"]

_IDLE = -1


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-until-delivered with bounded attempts and exponential backoff.

    A blocked message is resubmitted until delivered, up to
    ``max_attempts`` total tries; after its ``k``-th failure it waits
    ``ceil(backoff * factor ** (k - 1))`` idle cycles before becoming
    eligible again (``backoff = 0`` retries on the very next cycle).

    >>> RetryPolicy.parse("8:1:2").delay_after(3)
    4
    >>> RetryPolicy.parse("4").label
    '4'
    """

    max_attempts: int = 8
    backoff: float = 0.0
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"retry needs at least one attempt, got {self.max_attempts}"
            )
        if self.backoff < 0:
            raise ConfigurationError(f"backoff must be >= 0, got {self.backoff}")
        if self.factor < 1:
            raise ConfigurationError(f"backoff factor must be >= 1, got {self.factor}")

    def delay_after(self, failures: int) -> int:
        """Idle cycles after the ``failures``-th consecutive failure."""
        if self.backoff == 0:
            return 0
        return ceil(self.backoff * self.factor ** (failures - 1))

    @classmethod
    def parse(cls, text: str) -> "RetryPolicy":
        """Parse the CLI grammar ``ATTEMPTS[:BACKOFF[:FACTOR]]``.

        >>> RetryPolicy.parse("8:0.5")
        RetryPolicy(max_attempts=8, backoff=0.5, factor=2.0)
        """
        parts = text.split(":")
        if not 1 <= len(parts) <= 3:
            raise ConfigurationError(
                f"cannot parse retry policy {text!r}: "
                f"expected ATTEMPTS[:BACKOFF[:FACTOR]]"
            )
        try:
            max_attempts = int(parts[0])
            backoff = float(parts[1]) if len(parts) > 1 else 0.0
            factor = float(parts[2]) if len(parts) > 2 else 2.0
        except ValueError:
            raise ConfigurationError(
                f"cannot parse retry policy {text!r}: "
                f"expected ATTEMPTS[:BACKOFF[:FACTOR]]"
            ) from None
        return cls(max_attempts, backoff, factor)

    @property
    def label(self) -> str:
        """Round-trips through :meth:`parse` (modulo float formatting)."""
        if self.backoff == 0:
            return f"{self.max_attempts}"
        return f"{self.max_attempts}:{self.backoff:g}:{self.factor:g}"


@dataclass
class ClosedLoopMeasurement(AcceptanceMeasurement):
    """An acceptance measurement with closed-loop per-message statistics.

    ``acceptance`` keeps its open-loop meaning — delivered over offered,
    per routed cycle — but under retry the offered stream itself now
    depends on past blocking.  The closed-loop view adds *per-message*
    outcomes: ``attempts`` and ``latency`` are delta-method intervals
    over delivered messages, ``delivered_messages`` counts them (each
    message counts once however many tries it took), and ``abandoned``
    counts messages dropped at the attempt bound.  ``latency_histogram``
    is the full :class:`~repro.sim.stats.LatencyStats` behind the
    ``latency`` interval — exact integer bins, so p50/p95/p99 tails and
    shard merging come for free.
    """

    attempts: Interval = None  # type: ignore[assignment]
    latency: Interval = None  # type: ignore[assignment]
    delivered_messages: int = 0
    abandoned: int = 0
    policy: Optional[RetryPolicy] = None
    latency_histogram: Optional[LatencyStats] = None


def drive_closed_loop(
    router: "CycleRouter",
    traffic: "TrafficGenerator",
    policy: RetryPolicy,
    *,
    cycles: int,
    rng: np.random.Generator,
    confidence: float = 0.95,
    rel_err: Optional[float] = None,
    min_cycles: int = 32,
) -> ClosedLoopMeasurement:
    """Route ``cycles`` with retrying sources; report per-message statistics.

    Each source holds at most one in-flight message.  Per cycle, free
    sources adopt fresh demands from ``traffic`` (busy sources discard
    their draw, keeping the traffic stream's consumption uniform), every
    eligible holder offers its destination, and outcomes update the
    per-source state: delivered frees the source and records its attempt
    count and latency (``1`` = first-try delivery); blocked either
    abandons at the attempt bound or schedules the next try after the
    policy's backoff delay.

    ``rel_err`` enables the same adaptive stopping rule as the open-loop
    harness, checked on the per-cycle acceptance ratio at cycle
    boundaries after ``min_cycles``.
    """
    n = router.n_inputs
    pending = np.full(n, _IDLE, dtype=np.int64)
    attempts = np.zeros(n, dtype=np.int64)
    first_cycle = np.zeros(n, dtype=np.int64)
    next_eligible = np.zeros(n, dtype=np.int64)

    ratio = RatioStats()
    retry_stats = RetryStats()
    blocked_hist: dict[int, int] = {}
    floor = max(2, min(min_cycles, cycles))
    stopped = False

    for t in range(cycles):
        free = pending == _IDLE
        if free.any():
            fresh = np.asarray(traffic.generate(rng))
            adopt = free & (fresh != _IDLE)
            if adopt.any():
                pending[adopt] = fresh[adopt]
                attempts[adopt] = 0
                first_cycle[adopt] = t
                next_eligible[adopt] = t
        eligible = (pending != _IDLE) & (next_eligible <= t)
        dests = np.where(eligible, pending, _IDLE)
        result = router.route(dests, rng)
        delivered_mask = eligible & _delivered_sources(result, n)
        blocked_mask = eligible & ~delivered_mask
        attempts[eligible] += 1

        num_offered = int(eligible.sum())
        num_delivered = int(delivered_mask.sum())
        ratio.push(num_delivered, num_offered)
        histogram = getattr(result, "blocked_stage_histogram", None)
        if histogram is not None:
            for stage, count in histogram().items():
                blocked_hist[stage] = blocked_hist.get(stage, 0) + count

        if num_delivered:
            retry_stats.record_deliveries(
                attempts[delivered_mask], t - first_cycle[delivered_mask] + 1
            )
            pending[delivered_mask] = _IDLE
        if blocked_mask.any():
            exhausted = blocked_mask & (attempts >= policy.max_attempts)
            dropped = int(exhausted.sum())
            if dropped:
                retry_stats.record_abandoned(dropped)
                pending[exhausted] = _IDLE
            waiting = np.flatnonzero(blocked_mask & ~exhausted)
            if waiting.size:
                if policy.backoff == 0:
                    next_eligible[waiting] = t + 1
                else:
                    delays = np.ceil(
                        policy.backoff * policy.factor ** (attempts[waiting] - 1.0)
                    ).astype(np.int64)
                    next_eligible[waiting] = t + 1 + delays

        if rel_err is not None and ratio.n >= floor:
            interval = ratio.confidence_interval(confidence)
            point = abs(interval.point)
            if interval.halfwidth <= rel_err * (point if point > 0 else 1.0):
                stopped = True
                break

    routed, delivered, offered = ratio.sums[:3]
    return ClosedLoopMeasurement(
        cycles=routed,
        offered=offered,
        delivered=delivered,
        acceptance=ratio.confidence_interval(confidence),
        blocked_by_stage=dict(sorted(blocked_hist.items())),
        budget=cycles if rel_err is not None else None,
        target_rel_err=rel_err,
        converged=stopped if rel_err is not None else None,
        attempts=retry_stats.confidence_interval(confidence),
        latency=retry_stats.latency.confidence_interval(confidence),
        delivered_messages=retry_stats.delivered,
        abandoned=retry_stats.abandoned,
        policy=policy,
        latency_histogram=retry_stats.latency,
    )


def _delivered_sources(result: object, n: int) -> np.ndarray:
    """Per-source delivery mask from either router-result contract."""
    output = getattr(result, "output", None)
    if output is not None:
        return np.asarray(output) != _IDLE
    mask = np.zeros(n, dtype=bool)  # reference engines: outcome records
    for outcome in result.outcomes:
        if outcome.delivered:
            mask[outcome.message.source] = True
    return mask
