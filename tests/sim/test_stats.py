"""Unit tests for statistics accumulators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import stats as stats_module
from repro.sim.stats import (
    Interval,
    RatioStats,
    RunningStats,
    _t_quantile,
    batch_means,
    proportion_ci,
)


class TestRunningStats:
    def test_mean_and_variance(self):
        acc = RunningStats()
        acc.extend([1.0, 2.0, 3.0])
        assert acc.mean == pytest.approx(2.0)
        assert acc.variance == pytest.approx(1.0)
        assert acc.std == pytest.approx(1.0)

    def test_matches_numpy(self, rng):
        data = rng.normal(5.0, 2.0, size=500)
        acc = RunningStats()
        acc.extend(data)
        assert acc.mean == pytest.approx(np.mean(data))
        assert acc.variance == pytest.approx(np.var(data, ddof=1))

    def test_min_max(self):
        acc = RunningStats()
        acc.extend([3.0, -1.0, 7.0])
        assert acc.minimum == -1.0
        assert acc.maximum == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            _ = RunningStats().mean

    def test_single_observation_variance_zero(self):
        acc = RunningStats()
        acc.push(4.0)
        assert acc.variance == 0.0

    def test_confidence_interval_contains_true_mean(self, rng):
        misses = 0
        for _ in range(40):
            acc = RunningStats()
            acc.extend(rng.normal(10.0, 1.0, size=60))
            if not acc.confidence_interval(0.95).contains(10.0):
                misses += 1
        assert misses <= 8  # ~5% expected; generous bound

    def test_interval_unbounded_for_single_sample(self):
        acc = RunningStats()
        acc.push(1.0)
        interval = acc.confidence_interval()
        assert interval.low == float("-inf")

    def test_interval_halfwidth_shrinks_with_n(self, rng):
        small = RunningStats()
        small.extend(rng.normal(0, 1, 20))
        large = RunningStats()
        large.extend(rng.normal(0, 1, 2000))
        assert large.confidence_interval().halfwidth < small.confidence_interval().halfwidth


class TestRatioStats:
    def test_ratio_of_sums_not_mean_of_ratios(self):
        acc = RatioStats()
        acc.push(1, 2)    # 0.5
        acc.push(9, 10)   # 0.9
        assert acc.ratio == pytest.approx(10 / 12)

    def test_empty_denominator(self):
        acc = RatioStats()
        acc.push(0, 0)
        assert acc.ratio == 1.0

    def test_interval_brackets_point(self):
        acc = RatioStats()
        rng = np.random.default_rng(0)
        for _ in range(100):
            den = rng.integers(50, 100)
            num = rng.binomial(den, 0.6)
            acc.push(num, den)
        interval = acc.confidence_interval()
        assert interval.low <= acc.ratio <= interval.high
        assert interval.contains(0.6)

    def test_n_counts_pairs(self):
        acc = RatioStats()
        acc.push(1, 1)
        acc.push(1, 1)
        assert acc.n == 2


class TestBatchMeans:
    def test_reduces_series_to_batches(self):
        series = list(range(100))
        acc = batch_means(series, n_batches=10)
        assert acc.n == 10
        assert acc.mean == pytest.approx(np.mean(series))

    def test_drops_partial_tail(self):
        series = list(range(25))
        acc = batch_means(series, n_batches=10)   # batch size 2 -> uses 20
        assert acc.n == 10

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            batch_means([1.0], n_batches=5)

    def test_rejects_too_few_batches(self):
        with pytest.raises(ValueError):
            batch_means([1.0, 2.0], n_batches=1)


class TestProportionCI:
    def test_contains_phat(self):
        interval = proportion_ci(60, 100)
        assert interval.low <= 0.6 <= interval.high

    def test_clipped_to_unit_interval(self):
        assert proportion_ci(0, 10).low >= 0.0
        assert proportion_ci(10, 10).high <= 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            proportion_ci(1, 0)
        with pytest.raises(ValueError):
            proportion_ci(11, 10)

    def test_interval_dataclass(self):
        interval = Interval(0.5, 0.4, 0.6)
        assert interval.halfwidth == pytest.approx(0.1)
        assert interval.contains(0.45)
        assert not interval.contains(0.3)
        assert "0.5" in str(interval)


class TestTQuantileCache:
    @pytest.mark.parametrize("df", [1, 63, 127, 10**6])
    def test_equals_scipy(self, df):
        from scipy import stats as scipy_stats

        assert _t_quantile(0.975, df) == scipy_stats.t.ppf(0.975, df=df)

    def test_repeat_call_does_not_reenter_scipy(self, monkeypatch):
        first = _t_quantile(0.95, 31)

        class Unreachable:
            def __getattr__(self, name):
                raise AssertionError("scipy re-entered for a cached quantile")

        monkeypatch.setattr(stats_module, "_scipy_stats", Unreachable())
        assert _t_quantile(0.95, 31) == first
