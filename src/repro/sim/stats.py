"""Statistics collection for simulation output analysis.

Small, dependency-light estimators used by the Monte-Carlo harnesses:

* :class:`RunningStats` — Welford's online mean/variance with Student-t
  confidence intervals;
* :class:`RatioStats` — ratio-of-sums estimator (e.g. accepted/offered
  across cycles, which is *not* the mean of per-cycle ratios) on six
  exact integer sums, so pair-by-pair, chunked and merged streams give
  the same bits in any order, on any host;
* :class:`LatencyStats` — a fixed-bin streaming latency histogram on top
  of :class:`RatioStats`: exact mean via the ratio sums, p50/p95/p99 from
  integer-cycle bins, and an exact order-independent :meth:`~LatencyStats.merge`
  for combining :class:`~repro.experiments.parallel.ParallelSweep` /
  ``repro.serve`` shards;
* :func:`batch_means` — batch-means variance reduction for autocorrelated
  cycle series (the MIMD resubmission simulator produces such series:
  a blocked processor's state couples consecutive cycles);
* :func:`proportion_ci` — Wilson score interval for raw proportions.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from math import ceil, sqrt
from collections.abc import Sequence

import numpy as np
from scipy.special import ndtri as _ndtri, stdtrit as _stdtrit

__all__ = [
    "RunningStats",
    "RatioStats",
    "RetryStats",
    "LatencyStats",
    "batch_means",
    "proportion_ci",
    "Interval",
]


def _check_confidence(confidence: float) -> None:
    # ``not 0 < c < 1`` also rejects NaN.
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")


@functools.lru_cache(maxsize=256)
def _t_quantile(q: float, df: int) -> float:
    """The Student-t quantile ``stdtrit(df, q)``, memoized.

    This is the function ``scipy.stats.t.ppf(q, df)`` evaluates (at loc 0
    and scale 1), bit for bit.  Importing ``scipy.special`` instead of
    ``scipy.stats`` keeps the largest import of the numeric stack out of
    every process that measures a cell (see "Cold start" in
    ``docs/PERFORMANCE.md``).  Every confidence interval of a Monte-Carlo
    cell (one per chunk under ``rel_err``) asks for one of a few
    ``(q, df)`` pairs, so the memo returns the float scipy computed the
    first time without calling it again.
    """
    return _stdtrit(df, q)


@dataclass(frozen=True)
class Interval:
    """A symmetric or asymmetric confidence interval ``[low, high]`` around ``point``."""

    point: float
    low: float
    high: float

    @property
    def halfwidth(self) -> float:
        return max(self.point - self.low, self.high - self.point)

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return f"{self.point:.6g} [{self.low:.6g}, {self.high:.6g}]"


class RunningStats:
    """Welford online accumulator: numerically stable mean and variance.

    >>> acc = RunningStats()
    >>> for v in (1.0, 2.0, 3.0): acc.push(v)
    >>> acc.mean, acc.variance
    (2.0, 1.0)
    """

    __slots__ = ("_n", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def push(self, value: float) -> None:
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: Sequence[float]) -> None:
        for value in values:
            self.push(value)

    @property
    def n(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise ValueError("no observations")
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (``n - 1`` denominator)."""
        if self._n < 2:
            return 0.0
        return self._m2 / (self._n - 1)

    @property
    def std(self) -> float:
        return sqrt(self.variance)

    @property
    def minimum(self) -> float:
        if self._n == 0:
            raise ValueError("no observations")
        return self._min

    @property
    def maximum(self) -> float:
        if self._n == 0:
            raise ValueError("no observations")
        return self._max

    def confidence_interval(self, confidence: float = 0.95) -> Interval:
        """Student-t interval for the mean."""
        _check_confidence(confidence)
        if self._n < 2:
            return Interval(self.mean, float("-inf"), float("inf"))
        t = _t_quantile(0.5 + confidence / 2.0, self._n - 1)
        half = t * self.std / sqrt(self._n)
        return Interval(self._mean, self._mean - half, self._mean + half)


class RatioStats:
    """Streaming ratio-of-sums estimator with a delta-method interval.

    Accumulates (numerator, denominator) pairs per cycle — e.g. (accepted,
    offered) — and estimates ``sum(num) / sum(den)`` with a delta-method
    standard error.  This matches the paper's definition of ``PA`` as "the
    ratio of the expected number of requests satisfied per cycle to the
    expected number of requests generated per cycle".

    Every stream it absorbs is integer counts, so six exact integer sums
    carry the whole estimator: ``n``, ``Σx``, ``Σy``, ``Σx²``, ``Σy²`` and
    ``Σxy`` (``x`` the numerator, ``y`` the denominator).  :meth:`push`,
    :meth:`push_many` and :meth:`merge` add them, so a stream pushed pair
    by pair, in chunks, or as shards merged in any order holds the same
    sums.  The ratio and its standard error are formed only when read,
    each rounded once (Python's ``int / int`` is correctly rounded):

    * ``ratio = Σx / Σy``;
    * ``Q = (Σy)²·Σx² − 2·Σx·Σy·Σxy + (Σx)²·Σy²``, which equals
      ``Σ(Σy·xᵢ − Σx·yᵢ)²`` and so is never negative;
    * ``se = sqrt(Q·n / ((n − 1)·(Σy)⁴))``, the residual variance of
      ``xᵢ − ratio·yᵢ`` over ``n``, divided by the mean denominator.

    Memory is O(1) and the interval is O(1) to evaluate at any point of
    the stream, which lets the adaptive Monte-Carlo harness check its
    stopping rule every chunk.

    >>> acc = RatioStats()
    >>> acc.push(1, 2); acc.push(9, 10)
    >>> round(acc.ratio, 6)
    0.833333
    """

    __slots__ = ("_n", "_sx", "_sy", "_sxx", "_syy", "_sxy")

    def __init__(self) -> None:
        self._n = self._sx = self._sy = self._sxx = self._syy = self._sxy = 0

    def _add(self, n: int, sx: int, sy: int, sxx: int, syy: int, sxy: int) -> None:
        """The one update rule: add another stream's six sums."""
        self._n += n
        self._sx += sx
        self._sy += sy
        self._sxx += sxx
        self._syy += syy
        self._sxy += sxy

    def _add_unit_denominators(self, values: np.ndarray) -> None:
        """Push ``(v, 1)`` for every ``v`` of an int64 array."""
        m, total = values.size, int(values.sum())
        self._add(m, total, m, int(values @ values), m, total)

    def push(self, numerator: int, denominator: int) -> None:
        x, y = operator.index(numerator), operator.index(denominator)
        self._add(1, x, y, x * x, y * y, x * y)

    def push_many(self, numerators, denominators) -> None:
        """Absorb whole per-cycle count arrays (one chunk) at once.

        Equal to pushing pair by pair: the chunk's six sums
        (:func:`ratio_sums`) are added at once.
        """
        self._add(*ratio_sums(numerators, denominators))

    def merge(self, other: "RatioStats") -> None:
        """Absorb another accumulator's stream into this one.

        The sums add, so merging shard accumulators in any order equals
        having pushed every stream into one accumulator, bit for bit.
        This is the primitive ``ParallelSweep`` and ``repro.serve`` shards
        use to combine per-shard latency statistics.
        """
        self._add(*other.sums)

    @property
    def n(self) -> int:
        return self._n

    @property
    def sums(self) -> tuple[int, int, int, int, int, int]:
        """``(n, Σx, Σy, Σx², Σy², Σxy)``, exact."""
        return (self._n, self._sx, self._sy, self._sxx, self._syy, self._sxy)

    @property
    def ratio(self) -> float:
        if self._n == 0 or self._sy == 0:
            return 1.0
        return self._sx / self._sy

    def standard_error(self) -> float:
        """Delta-method standard error of the ratio (0.0 when undefined)."""
        n, sx, sy = self._n, self._sx, self._sy
        if n < 2 or sy == 0:
            return 0.0
        sy2 = sy * sy
        q = sy2 * self._sxx - 2 * sx * sy * self._sxy + sx * sx * self._syy
        return sqrt(q * n / ((n - 1) * sy2 * sy2))

    def confidence_interval(self, confidence: float = 0.95) -> Interval:
        """Delta-method interval on the ratio of means."""
        _check_confidence(confidence)
        n = self._n
        point = self.ratio
        if n < 2:
            return Interval(point, float("-inf"), float("inf"))
        if self._sy == 0:
            return Interval(point, point, point)
        se = self.standard_error()
        t = _t_quantile(0.5 + confidence / 2.0, n - 1)
        return Interval(point, point - t * se, point + t * se)


def ratio_sums(numerators, denominators) -> tuple[int, int, int, int, int, int]:
    """The six :class:`RatioStats` sums of per-cycle count arrays.

    Formed by int64 reductions, which are exact.  They cannot overflow: a
    count is at most ``N`` per cycle, so a chunk of ``m`` cycles at ``N``
    inputs needs ``m·N² < 2**63``, and no demand array that fits in memory
    gets near that.  The native lane kernel adds the same sums in C.
    """
    nums = _int64_array(numerators)
    dens = _int64_array(denominators)
    if nums.shape != dens.shape or nums.ndim != 1:
        raise ValueError("push_many needs two equal-length 1-D arrays")
    sx, sy = int(nums.sum()), int(dens.sum())
    return nums.size, sx, sy, int(nums @ nums), int(dens @ dens), int(nums @ dens)


def _int64_array(values) -> np.ndarray:
    """``values`` as an int64 array; a float or bool array raises ``TypeError``."""
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        raise TypeError(f"counts must be integers, got dtype {array.dtype}")
    return array.astype(np.int64, copy=False)


class LatencyStats(RatioStats):
    """Streaming fixed-bin latency histogram with exact mean and percentiles.

    Latencies are integer cycle counts, so a fixed array of unit-width
    bins ``[0, bound]`` is an *exact* histogram, not an approximation:
    bin ``v`` counts messages delivered in exactly ``v`` cycles, and the
    final bin absorbs the (rare, saturated-run) overflow tail, so every
    percentile at or past the overflow mass is reported as ``bound`` —
    a conservative floor, never an overstatement.

    The inherited :class:`RatioStats` sums (each latency against a unit
    denominator) supply the exact mean and the delta-method confidence
    interval.  :meth:`merge` adds histograms and sums, so shard
    aggregation is order-independent and equal to single-stream
    accumulation, bit for bit.

    >>> acc = LatencyStats()
    >>> acc.record([3, 5, 5, 9])
    >>> (acc.count, acc.mean, acc.p50, acc.p95)
    (4, 5.5, 5, 9)
    """

    __slots__ = ("bound", "_counts")

    #: Default histogram bound: latencies above this land in the overflow bin.
    DEFAULT_BOUND = 1 << 14

    def __init__(self, bound: int = DEFAULT_BOUND) -> None:
        super().__init__()
        if bound < 1:
            raise ValueError(f"histogram bound must be >= 1, got {bound}")
        self.bound = int(bound)
        self._counts = None  # lazily allocated int64[bound + 1]

    def _ensure_counts(self):
        if self._counts is None:
            self._counts = np.zeros(self.bound + 1, dtype=np.int64)
        return self._counts

    def record(self, latencies) -> None:
        """Absorb an array of integer delivery latencies (cycles)."""
        lat = np.asarray(latencies)
        if lat.size == 0:
            return
        if lat.ndim != 1:
            raise ValueError("record needs a 1-D latency array")
        lat = _int64_array(lat)
        clipped = np.minimum(lat, self.bound)
        if clipped.min() < 0:
            raise ValueError("latencies must be non-negative")
        # Bin into the prefix the batch reaches: no bound-sized temporary.
        binned = np.bincount(clipped)
        self._ensure_counts()[: binned.size] += binned
        self._add_unit_denominators(lat)

    def record_one(self, latency: int) -> None:
        lat = operator.index(latency)
        if lat < 0:
            raise ValueError("latencies must be non-negative")
        self._ensure_counts()[min(lat, self.bound)] += 1
        self.push(lat, 1)

    @property
    def count(self) -> int:
        """Number of recorded latencies."""
        return self._n

    @property
    def mean(self) -> float:
        """Exact mean latency (0.0 when empty)."""
        if self._n == 0:
            return 0.0
        return self._sx / self._n

    @property
    def ratio(self) -> float:
        """The mean latency: the interval's point, 0.0 when empty like
        :attr:`mean` (not :class:`RatioStats`' empty acceptance of 1.0)."""
        return self.mean

    def percentile(self, q: float) -> int:
        """Smallest latency ``v`` with at least ``ceil(q * count)`` mass at or below it."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must lie in (0, 1], got {q}")
        if self._n == 0:
            return 0
        cum = np.cumsum(self._counts)
        target = ceil(q * self._n)
        return int(np.searchsorted(cum, target))

    @property
    def p50(self) -> int:
        return self.percentile(0.50)

    @property
    def p95(self) -> int:
        return self.percentile(0.95)

    @property
    def p99(self) -> int:
        return self.percentile(0.99)

    def merge(self, other: "LatencyStats") -> None:
        """Add another histogram's counts and sums."""
        if not isinstance(other, LatencyStats):
            raise TypeError("can only merge another LatencyStats")
        if other.bound != self.bound:
            raise ValueError(
                f"histogram bounds differ: {self.bound} vs {other.bound}"
            )
        if other._counts is not None:
            self._ensure_counts()
            self._counts += other._counts
        super().merge(other)

    def __eq__(self, other) -> bool:
        """Value equality: same bound, same bins, same sums.

        Lets dataclasses carrying a histogram field (e.g.
        ``ClosedLoopMeasurement``) keep their generated ``==``, so
        payload round-trips stay bit-checkable.
        """
        if not isinstance(other, LatencyStats):
            return NotImplemented
        a = self._counts if self._counts is not None else ()
        b = other._counts if other._counts is not None else ()
        return (
            self.bound == other.bound
            and self.sums == other.sums
            and bool(np.array_equal(a, b) or (np.sum(a) == 0 and np.sum(b) == 0))
        )

    __hash__ = None  # mutable accumulator

    def to_payload(self) -> dict:
        """JSON-safe snapshot: sparse non-zero bins plus the six sums."""
        bins = {}
        if self._counts is not None:
            nz = np.flatnonzero(self._counts)
            bins = {int(v): int(self._counts[v]) for v in nz}
        return {"bound": self.bound, "bins": bins, "sums": list(self.sums)}

    @classmethod
    def from_payload(cls, payload: dict) -> "LatencyStats":
        if "sums" not in payload:
            raise ValueError(
                "latency payload has no integer 'sums' field; payloads with "
                "float 'moments' are not read"
            )
        acc = cls(bound=int(payload["bound"]))
        bins = payload.get("bins") or {}
        if bins:
            counts = acc._ensure_counts()
            for value, count in bins.items():
                counts[int(value)] += int(count)
        acc._add(*map(operator.index, payload["sums"]))
        return acc


class RetryStats(RatioStats):
    """Per-message closed-loop statistics: attempts and latency per delivery.

    Extends :class:`RatioStats` for the retry-until-delivered sources:
    the inherited ratio machinery estimates *attempts per delivered
    message* (each delivery pushes its attempt count against a unit
    denominator, so ``ratio`` is total attempts / deliveries with the
    delta-method interval), and a nested :class:`LatencyStats` does the
    same for delivery latency in cycles (1 = delivered on the first
    try) while also binning each latency for p50/p95/p99 tail readout.
    ``abandoned`` counts messages that exhausted their attempt bound
    and were dropped.

    >>> acc = RetryStats()
    >>> acc.record_delivery(attempts=3, latency=5)
    >>> acc.record_delivery(attempts=1, latency=1)
    >>> (acc.ratio, acc.latency.ratio, acc.delivered)
    (2.0, 3.0, 2)
    """

    __slots__ = ("latency", "_abandoned")

    def __init__(self) -> None:
        super().__init__()
        self.latency = LatencyStats()
        self._abandoned = 0

    def record_delivery(self, attempts: int, latency: int) -> None:
        self.push(attempts, 1)
        self.latency.record_one(latency)

    def record_deliveries(self, attempts, latencies) -> None:
        """Absorb whole delivered-message arrays (one cycle) at once."""
        self._add_unit_denominators(_int64_array(attempts))
        self.latency.record(latencies)

    def record_abandoned(self, count: int = 1) -> None:
        self._abandoned += count

    @property
    def ratio(self) -> float:
        """Attempts per delivered message; 0.0 when none was delivered,
        as an empty latency histogram reads."""
        return self._sx / self._n if self._n else 0.0

    @property
    def delivered(self) -> int:
        """Messages delivered (observations behind both ratios)."""
        return self.n

    @property
    def abandoned(self) -> int:
        """Messages dropped after exhausting their attempt bound."""
        return self._abandoned


def batch_means(series: Sequence[float], n_batches: int = 20) -> RunningStats:
    """Collapse an autocorrelated series into ``n_batches`` batch means.

    Standard output-analysis technique: consecutive cycles of a stateful
    simulation are correlated, so per-cycle t-intervals are too narrow;
    means over long batches are approximately independent.  Leftover
    observations (when the length is not divisible) are dropped from the
    final partial batch.
    """
    if n_batches < 2:
        raise ValueError(f"need at least 2 batches, got {n_batches}")
    batch_size = len(series) // n_batches
    if batch_size < 1:
        raise ValueError(
            f"series of length {len(series)} too short for {n_batches} batches"
        )
    acc = RunningStats()
    for k in range(n_batches):
        chunk = series[k * batch_size : (k + 1) * batch_size]
        acc.push(sum(chunk) / len(chunk))
    return acc


def proportion_ci(successes: int, trials: int, confidence: float = 0.95) -> Interval:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    _check_confidence(confidence)
    z = _ndtri(0.5 + confidence / 2.0)  # scipy.stats.norm.ppf, bit for bit
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return Interval(phat, max(0.0, center - half), min(1.0, center + half))
