"""Property suite for streaming latency histograms (``LatencyStats``).

Pins the three contracts the latency pipeline rests on:

* **exactness** — integer unit bins make mean and percentiles exact, and
  :meth:`LatencyStats.merge` is order-independent and equal to
  single-stream accumulation, bit for bit (the shard-aggregation
  invariant used by ``ParallelSweep`` and ``repro.serve``);
* **physics** — Little's law ties the buffered core's three measured
  quantities together: mean total occupancy ~= delivery rate x mean
  latency in steady state, across depths, rates, and workloads;
* **shape** — percentiles are monotone in the quantile and payload
  round-trips are lossless.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EDNParams
from repro.sim.buffered import measure_buffered
from repro.sim.stagegraph import delta_graph, edn_graph
from repro.sim.stats import LatencyStats, RatioStats, RetryStats


class TestExactness:
    def test_mean_and_percentiles_match_numpy(self, rng):
        data = rng.integers(0, 400, size=5000)
        acc = LatencyStats()
        acc.record(data)
        assert acc.count == data.size
        assert acc.mean == pytest.approx(float(np.mean(data)))
        sorted_data = np.sort(data)
        for q, value in ((0.5, acc.p50), (0.95, acc.p95), (0.99, acc.p99)):
            # ceil(q*n)-th order statistic, 1-indexed.
            k = int(np.ceil(q * data.size))
            assert value == int(sorted_data[k - 1])

    def test_record_one_equals_record(self, rng):
        data = rng.integers(0, 50, size=200)
        bulk, single = LatencyStats(), LatencyStats()
        bulk.record(data)
        for v in data:
            single.record_one(int(v))
        assert bulk == single
        assert bulk.confidence_interval() == single.confidence_interval()
        assert (bulk.p50, bulk.p95, bulk.p99) == (single.p50, single.p95, single.p99)

    def test_empty_histogram(self):
        acc = LatencyStats()
        assert acc.count == 0
        assert acc.mean == 0.0
        assert acc.p50 == 0 and acc.p99 == 0

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LatencyStats().record(np.array([3, -1]))
        with pytest.raises(ValueError):
            LatencyStats().record_one(-2)

    def test_overflow_bin_reports_bound(self):
        acc = LatencyStats(bound=16)
        acc.record(np.array([1, 2, 1000, 2000]))
        # Percentiles past the overflow mass report the bound — a
        # conservative floor, never an overstatement.
        assert acc.p99 == 16
        # The mean rides on the raw sums, not the clipped bins.
        assert acc.mean == pytest.approx((1 + 2 + 1000 + 2000) / 4)


class TestPrefixBinning:
    """``record`` bins into the prefix a call reaches, not all ``bound + 1``."""

    @staticmethod
    def full_width(calls, bound):
        counts = np.zeros(bound + 1, dtype=np.int64)
        for lat in calls:
            counts += np.bincount(np.minimum(lat, bound), minlength=bound + 1)
        return counts

    def test_counts_equal_full_width_binning(self, rng):
        bound = 64
        calls = [rng.integers(0, 90, size=int(rng.integers(1, 40))) for _ in range(50)]
        acc = LatencyStats(bound=bound)
        for lat in calls:
            acc.record(lat)
        np.testing.assert_array_equal(acc._counts, self.full_width(calls, bound))

    def test_overflow_bin_collects_everything_past_the_bound(self):
        acc = LatencyStats(bound=8)
        acc.record(np.array([8, 9, 3, 10**6]))
        acc.record(np.array([2]))
        expected = np.zeros(9, dtype=np.int64)
        expected[[2, 3]] = 1
        expected[8] = 3
        np.testing.assert_array_equal(acc._counts, expected)
        assert acc.p99 == 8

    def test_payload_equals_full_width_binning(self, rng):
        calls = [rng.integers(0, 40, size=60) for _ in range(20)]
        acc = LatencyStats()
        for lat in calls:
            acc.record(lat)
        want = LatencyStats()
        want._counts = self.full_width(calls, want.bound)
        want.push_many(np.concatenate(calls), np.ones(1200, dtype=np.int64))
        assert acc.to_payload() == want.to_payload()

    def test_no_bound_sized_temporary(self, rng):
        import tracemalloc

        acc = LatencyStats()
        lat = rng.integers(0, 60, size=60)
        acc.record(lat)  # allocates the histogram itself once
        tracemalloc.start()
        acc.record(lat)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < (acc.bound + 1) * 8 // 4


class TestMerge:
    def _chunks(self, rng, n_chunks=5):
        return [rng.integers(0, 300, size=rng.integers(1, 400)) for _ in range(n_chunks)]

    def test_merge_equals_single_stream(self, rng):
        chunks = self._chunks(rng)
        merged = LatencyStats()
        for chunk in chunks:
            shard = LatencyStats()
            shard.record(chunk)
            merged.merge(shard)
        single = LatencyStats()
        single.record(np.concatenate(chunks))
        assert merged.sums == single.sums
        assert merged.mean == single.mean
        np.testing.assert_array_equal(merged._counts, single._counts)
        assert merged.confidence_interval() == single.confidence_interval()

    def test_merge_is_order_independent(self, rng):
        chunks = self._chunks(rng)
        forward, backward = LatencyStats(), LatencyStats()
        for chunk in chunks:
            shard = LatencyStats()
            shard.record(chunk)
            forward.merge(shard)
        for chunk in reversed(chunks):
            shard = LatencyStats()
            shard.record(chunk)
            backward.merge(shard)
        assert forward.count == backward.count
        assert forward.mean == pytest.approx(backward.mean)
        np.testing.assert_array_equal(forward._counts, backward._counts)
        assert (forward.p50, forward.p95, forward.p99) == (
            backward.p50,
            backward.p95,
            backward.p99,
        )

    def test_merge_empty_is_identity(self):
        acc = LatencyStats()
        acc.record(np.array([4, 7]))
        acc.merge(LatencyStats())
        assert acc.count == 2 and acc.p50 == 4

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            LatencyStats(bound=8).merge(LatencyStats(bound=16))
        with pytest.raises(TypeError):
            LatencyStats().merge(RatioStats())

    def test_ratio_stats_merge_matches_single_stream(self, rng):
        dens = rng.integers(1, 500, size=(3, 100))
        nums = rng.binomial(dens, 0.7)
        merged = RatioStats()
        for n, d in zip(nums, dens):
            shard = RatioStats()
            shard.push_many(n, d)
            merged.merge(shard)
        single = RatioStats()
        single.push_many(nums.ravel(), dens.ravel())
        assert merged.sums == single.sums
        assert merged.ratio == single.ratio
        assert merged.confidence_interval() == single.confidence_interval()


class TestPercentileShape:
    def test_percentiles_monotone(self, rng):
        acc = LatencyStats()
        acc.record(rng.integers(0, 1000, size=3000))
        quantiles = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
        values = [acc.percentile(q) for q in quantiles]
        assert values == sorted(values)
        assert acc.p50 <= acc.p95 <= acc.p99

    def test_payload_round_trip(self, rng):
        acc = LatencyStats(bound=512)
        acc.record(rng.integers(0, 600, size=800))
        clone = LatencyStats.from_payload(acc.to_payload())
        assert clone.bound == acc.bound
        assert clone.count == acc.count
        assert clone.mean == pytest.approx(acc.mean)
        assert (clone.p50, clone.p95, clone.p99) == (acc.p50, acc.p95, acc.p99)
        np.testing.assert_array_equal(clone._counts, acc._counts)
        assert clone == acc

    def test_float_moments_payload_is_refused(self):
        old = {"bound": 16, "bins": {"3": 2}, "moments": [2, 6.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0]}
        with pytest.raises(ValueError, match="'sums'.*'moments'"):
            LatencyStats.from_payload(old)

    def test_retry_stats_expose_histogram(self):
        stats = RetryStats()
        stats.record_delivery(attempts=1, latency=3)
        stats.record_deliveries(
            attempts=np.array([2, 2]), latencies=np.array([5, 9])
        )
        assert isinstance(stats.latency, LatencyStats)
        assert stats.latency.count == 3
        assert stats.latency.p50 == 5


class TestLittlesLaw:
    """Mean occupancy ~= delivery rate x mean latency on buffered runs.

    Little's law holds exactly in expectation for any stationary queueing
    system; on a finite run the two sides differ by edge effects (packets
    in flight at the boundaries) of order ``in_flight / cycles``, so
    tolerances scale with load.  Latency here counts cycles *queued*
    (min = stage count), and occupancy samples at cycle end, which is the
    matching time-average.
    """

    @pytest.mark.parametrize(
        "traffic,depth,rel",
        [
            ("uniform:0.3", 2, 0.06),
            ("uniform:0.6", 2, 0.06),
            ("uniform:1", 1, 0.08),
            ("uniform:1", 4, 0.10),
            # Mild hotspot: 64 x 0.5 x 0.02 = 0.64 packets/cycle at the hot
            # output keeps the hot queue stable (stationarity is what
            # Little's law needs; a saturating hotspot never converges).
            ("hotspot:0.02,rate=0.5", 2, 0.08),
            ("bitrev:rate=0.7", 2, 0.06),
        ],
    )
    def test_edn_buffered_runs(self, traffic, depth, rel):
        m = measure_buffered(
            edn_graph(EDNParams(16, 4, 4, 2)),
            traffic=traffic,
            depth=depth,
            cycles=2500,
            warmup=500,
            seed=0,
        )
        assert m.delivered > 0
        expected = m.delivery_rate * m.mean_latency
        assert m.total_occupancy == pytest.approx(expected, rel=rel, abs=0.5)

    def test_delta_family_too(self):
        m = measure_buffered(
            delta_graph(4, 4, 3),
            traffic="uniform:0.5",
            depth=2,
            cycles=2500,
            warmup=500,
            seed=1,
        )
        expected = m.delivery_rate * m.mean_latency
        assert m.total_occupancy == pytest.approx(expected, rel=0.06, abs=0.5)
