"""Unit tests for statistics accumulators."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.sim import stats as stats_module
from repro.sim.stats import (
    Interval,
    LatencyStats,
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

    def test_edge_intervals(self):
        one = RatioStats()
        one.push(3, 4)
        assert one.confidence_interval() == Interval(0.75, -math.inf, math.inf)
        idle = RatioStats()
        idle.push(0, 0)
        idle.push(0, 0)
        assert idle.confidence_interval() == Interval(1.0, 1.0, 1.0)

    def test_floats_rejected(self):
        acc = RatioStats()
        with pytest.raises(TypeError):
            acc.push(0.5, 1)
        with pytest.raises(TypeError):
            acc.push(1, 2.0)
        with pytest.raises(TypeError):
            acc.push_many(np.array([0.5, 1.0]), np.array([1, 2]))
        with pytest.raises(TypeError):
            acc.push_many(np.array([1, 2]), np.array([1.0, 2.0]))
        with pytest.raises(TypeError):
            LatencyStats().record(np.array([3.0, 4.0]))
        with pytest.raises(TypeError):
            LatencyStats().record_one(2.5)
        assert acc.sums == (0, 0, 0, 0, 0, 0)


def _reference_se(nums, dens) -> float:
    """The standard error from the raw pairs in exact rationals.

    ``Σ(xᵢ − r·yᵢ)² / (n − 1)`` is the residual variance at ``r = Σx / Σy``;
    over ``n`` and the squared mean denominator it is ``se²``, which is
    rounded once, to a float, before the square root.
    """
    n, r = len(nums), Fraction(sum(nums), sum(dens))
    residual = sum((x - r * y) ** 2 for x, y in zip(nums, dens))
    mean_den = Fraction(sum(dens), n)
    return math.sqrt(float(residual / (n - 1) / n / mean_den**2))


class TestExactSums:
    """Six integer sums: every way of feeding a stream gives the same bits."""

    def test_standard_error_equals_fraction_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            m = int(rng.integers(2, 200))
            dens = rng.integers(0, 4097, size=m)
            nums = rng.binomial(dens, rng.uniform(0.05, 0.95))
            acc = RatioStats()
            for lo in range(0, m, 36):  # chunks that are not powers of two
                acc.push_many(nums[lo : lo + 36], dens[lo : lo + 36])
            want = _reference_se(nums.tolist(), dens.tolist())
            assert acc.standard_error() == want
            t = _t_quantile(0.975, m - 1)
            point = float(Fraction(int(nums.sum()), int(dens.sum())))
            assert acc.confidence_interval() == Interval(
                point, point - t * want, point + t * want
            )

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.integers(0, 4096).flatmap(
                lambda y: st.tuples(st.integers(0, y), st.just(y))
            ),
            min_size=2,
            max_size=150,
        ),
        data=st.data(),
    )
    def test_stream_order_does_not_matter(self, pairs, data):
        nums = np.array([x for x, _ in pairs], dtype=np.int64)
        dens = np.array([y for _, y in pairs], dtype=np.int64)
        m = len(pairs)
        cuts = sorted(data.draw(st.sets(st.integers(1, m - 1), max_size=8), "cuts"))
        spans = list(zip([0, *cuts], [*cuts, m]))
        paired = RatioStats()
        for x, y in pairs:
            paired.push(x, y)
        chunked = RatioStats()
        for lo, hi in spans:
            chunked.push_many(nums[lo:hi], dens[lo:hi])
        merged = RatioStats()
        for lo, hi in data.draw(st.permutations(spans), "merge order"):
            shard = RatioStats()
            shard.push_many(nums[lo:hi], dens[lo:hi])
            merged.merge(shard)
        want = _bits(astuple(paired.confidence_interval()))
        for acc in (chunked, merged):
            np.testing.assert_array_equal(_bits(astuple(acc.confidence_interval())), want)
            assert acc.sums == paired.sums


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

        def unreachable(*args):
            raise AssertionError("scipy re-entered for a cached quantile")

        monkeypatch.setattr(stats_module, "_stdtrit", unreachable)
        assert _t_quantile(0.95, 31) == first


def _bits(values) -> np.ndarray:
    """Float64 values as their bit patterns: ``-0.0 != 0.0``, NaN == NaN."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


#: Confidence levels in (0, 1): the usual ones, both ends, and a seeded
#: spread.  Quantiles are asked for at ``0.5 + confidence / 2``, as the
#: intervals do, so q covers (0.5, 1) with the rounding the code sees;
#: ``1 - 2**-52`` gives the largest q below 1.
CONFIDENCES = np.concatenate([
    [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1e-12, 1 - 2**-52],
    np.random.default_rng(17).uniform(0.0, 1.0, 24),
])
QUANTILES = 0.5 + CONFIDENCES / 2.0
DEGREES = [*range(1, 2001), 4095, 2**16, 10**6, 10**9]


class TestQuantilesMatchScipyStats:
    """The ``scipy.special`` quantiles equal ``scipy.stats``'s bit for bit."""

    def test_t_quantile_equals_t_ppf(self):
        from scipy import stats as scipy_stats

        ours = [[_t_quantile(float(q), df) for df in DEGREES] for q in QUANTILES]
        reference = scipy_stats.t.ppf(QUANTILES[:, None], df=np.array(DEGREES)[None, :])
        np.testing.assert_array_equal(_bits(ours), _bits(reference))

    def test_proportion_ci_z_equals_norm_ppf(self):
        from scipy import stats as scipy_stats

        def wilson(successes, trials, confidence):
            """The Wilson interval on ``scipy.stats``'s normal quantile."""
            z = scipy_stats.norm.ppf(0.5 + confidence / 2.0)
            phat = successes / trials
            denom = 1.0 + z * z / trials
            center = (phat + z * z / (2 * trials)) / denom
            half = (z / denom) * math.sqrt(
                phat * (1 - phat) / trials + z * z / (4 * trials * trials)
            )
            return phat, max(0.0, center - half), min(1.0, center + half)

        np.testing.assert_array_equal(
            _bits(stats_module._ndtri(QUANTILES)), _bits(scipy_stats.norm.ppf(QUANTILES))
        )
        for confidence in map(float, CONFIDENCES):
            for successes, trials in ((0, 10), (7, 40), (40, 40), (123, 1000)):
                ours = proportion_ci(successes, trials, confidence)
                np.testing.assert_array_equal(
                    _bits([ours.point, ours.low, ours.high]),
                    _bits(wilson(successes, trials, confidence)),
                )


class TestImportFootprint:
    def test_cell_path_does_not_import_scipy_stats(self):
        # scipy.stats costs a process about three times the import time and
        # memory of scipy.special ("Cold start" in docs/PERFORMANCE.md).
        # One adaptive cell (its interval asks for a t quantile every
        # chunk) runs in a fresh interpreter, where nothing else could
        # have loaded scipy.stats.
        code = (
            "import sys\n"
            "from repro.api import NetworkSpec, RunConfig\n"
            "from repro.api.jobs import SweepCell, measure_cell\n"
            "cell = SweepCell(NetworkSpec.parse('delta:4,4,2'),\n"
            "                 RunConfig(cycles=256, seed=3, rel_err=0.05))\n"
            "interval = measure_cell(cell).acceptance\n"
            "assert interval.low < interval.point < interval.high, interval\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        assert proc.stdout.strip() == "[]"


class TestConfidenceValidation:
    """A confidence outside (0, 1) is rejected, not turned into a NaN interval."""

    BAD = [1.5, -1.0, 1.0, 0.0, float("nan")]

    @pytest.mark.parametrize("confidence", BAD)
    def test_running_stats(self, confidence):
        acc = RunningStats()
        acc.extend([1.0, 2.0, 4.0])
        with pytest.raises(ValueError, match="confidence"):
            acc.confidence_interval(confidence)

    @pytest.mark.parametrize("confidence", BAD)
    def test_ratio_stats(self, confidence):
        acc = RatioStats()
        acc.push(3, 4)
        acc.push(2, 4)
        with pytest.raises(ValueError, match="confidence"):
            acc.confidence_interval(confidence)

    @pytest.mark.parametrize("confidence", BAD)
    def test_proportion_ci(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            proportion_ci(3, 10, confidence)

    def test_rejected_before_enough_observations(self):
        # The degenerate one-observation interval still checks its level.
        acc = RunningStats()
        acc.push(1.0)
        with pytest.raises(ValueError, match="confidence"):
            acc.confidence_interval(1.5)
        with pytest.raises(ValueError, match="confidence"):
            RatioStats().confidence_interval(1.5)

    @pytest.mark.parametrize("confidence", [1e-12, 0.5, 0.95, 1 - 2**-52])
    def test_levels_inside_accepted(self, confidence):
        acc = RatioStats()
        acc.push(3, 4)
        acc.push(2, 4)
        interval = acc.confidence_interval(confidence)
        assert interval.low <= interval.point <= interval.high
        assert proportion_ci(3, 10, confidence).contains(0.3)
