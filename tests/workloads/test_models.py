"""Unit tests for the new traffic models (bursty, mixture, trace, patterns)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.labels import reverse_bits
from repro.workloads import (
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


class TestBurstyTraffic:
    def test_duty_cycle_thins_load(self, rng):
        gen = BurstyTraffic(256, 256, on=8, off=24)
        batch = gen.generate_batch(rng, 200)
        active = (batch != -1).mean()
        assert gen.duty_cycle == pytest.approx(0.25)
        assert 0.2 < active < 0.3

    def test_bursts_are_contiguous(self, rng):
        gen = BurstyTraffic(4, 4, on=5, off=11)
        batch = gen.generate_batch(rng, 16)  # one full period per source
        active = batch != -1
        # Each column sees exactly `on` busy cycles per 16-cycle period.
        assert (active.sum(axis=0) == 5).all()

    def test_off_zero_always_active(self, rng):
        batch = BurstyTraffic(32, 32, on=4, off=0).generate_batch(rng, 10)
        assert (batch != -1).all()

    def test_rate_composes_with_duty_cycle(self, rng):
        gen = BurstyTraffic(512, 512, on=1, off=1, rate=0.5)
        active = (gen.generate_batch(rng, 100) != -1).mean()
        assert 0.2 < active < 0.3  # 0.5 duty * 0.5 rate

    def test_single_cycle_marginal(self, rng):
        gen = BurstyTraffic(2048, 64, on=8, off=8)
        active = (gen.generate(rng) != -1).mean()
        assert 0.4 < active < 0.6

    def test_rejects_bad_lengths(self):
        with pytest.raises(ConfigurationError):
            BurstyTraffic(8, 8, on=0)
        with pytest.raises(ConfigurationError):
            BurstyTraffic(8, 8, off=-1)


class TestMixtureTraffic:
    def test_blends_component_marginals(self, rng):
        gen = MixtureTraffic(
            [
                (UniformTraffic(20_000, 64), 0.7),
                (HotspotTraffic(20_000, 64, hot_fraction=1.0, hot_output=7), 0.3),
            ]
        )
        dests = gen.generate(rng)
        share = (dests == 7).mean()
        # 0.3 from the all-hot component + 0.7/64 from uniform ~ 0.31.
        assert 0.25 < share < 0.38

    def test_weights_normalized(self):
        gen = MixtureTraffic(
            [(UniformTraffic(8, 8), 7.0), (UniformTraffic(8, 8), 3.0)]
        )
        assert gen.weights == pytest.approx((0.7, 0.3))

    def test_batch_matches_shape(self, rng):
        gen = MixtureTraffic(
            [(UniformTraffic(32, 32), 0.5), (HotspotTraffic(32, 32), 0.5)]
        )
        assert gen.generate_batch(rng, 9).shape == (9, 32)
        assert gen.generate_batch(rng, 0).shape == (0, 32)

    def test_rejects_mismatched_components(self):
        with pytest.raises(ConfigurationError, match="terminal counts"):
            MixtureTraffic(
                [(UniformTraffic(8, 8), 0.5), (UniformTraffic(16, 16), 0.5)]
            )

    def test_rejects_empty_and_bad_weights(self):
        with pytest.raises(ConfigurationError):
            MixtureTraffic([])
        with pytest.raises(ConfigurationError, match="positive"):
            MixtureTraffic([(UniformTraffic(8, 8), 0.0)])


class TestTraceTraffic:
    def test_replays_rows_in_order(self, rng):
        trace = np.array([[0, 1], [2, 3], [1, 0]])
        gen = TraceTraffic(trace, 4)
        assert np.array_equal(gen.generate(rng), [0, 1])
        assert np.array_equal(gen.generate(rng), [2, 3])

    def test_wraps_around(self, rng):
        trace = np.array([[0, 1], [2, 3]])
        batch = TraceTraffic(trace, 4).generate_batch(rng, 5)
        assert np.array_equal(batch[4], [0, 1])

    def test_chunked_equals_per_cycle_sequence(self, rng):
        trace = np.arange(12).reshape(4, 3) % 5
        chunked = TraceTraffic(trace, 5).generate_batch(rng, 7)
        per_cycle = TraceTraffic(trace, 5)
        stacked = np.stack([per_cycle.generate(rng) for _ in range(7)])
        assert np.array_equal(chunked, stacked)

    def test_from_file_round_trip(self, rng, tmp_path):
        trace = np.array([[3, 1, -1, 0], [0, 0, 2, 2]])
        path = tmp_path / "demands.npy"
        np.save(path, trace)
        gen = TraceTraffic.from_file(str(path), n_inputs=4, n_outputs=4)
        assert np.array_equal(gen.generate(rng), trace[0])
        assert gen.describe() == f"trace:{path}"

    def test_from_file_rejects_wrong_width(self, tmp_path):
        path = tmp_path / "demands.npy"
        np.save(path, np.zeros((3, 8), dtype=np.int64))
        with pytest.raises(ConfigurationError, match="inputs"):
            TraceTraffic.from_file(str(path), n_inputs=4)

    def test_missing_file_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="cannot load"):
            TraceTraffic.from_file("no/such/trace.npy")

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError, match="out-of-range"):
            TraceTraffic(np.array([[9]]), 4)

    @pytest.mark.parametrize(
        "demands", [np.array([[0.7, 1.9, -0.5]]), np.array([[True, False, True]])]
    )
    def test_rejects_non_integer_demands(self, demands):
        # An int64 cast would read 1.9 as label 1, -0.5 as label 0 (not
        # idle), and a bool trace as labels 0 and 1.
        with pytest.raises(ConfigurationError, match="integer dtype"):
            TraceTraffic(demands, 4)

    @pytest.mark.parametrize(
        "demands", [np.array([[0.0, 1.5], [2.0, np.nan]]), np.array([[True, False]])]
    )
    def test_from_file_rejects_non_integer_demands(self, tmp_path, demands):
        path = tmp_path / "demands.npy"
        np.save(path, demands)
        with pytest.raises(ConfigurationError, match="integer dtype"):
            TraceTraffic.from_file(str(path))

    @pytest.mark.parametrize("label", [2**64 - 1, 2**63])
    def test_rejects_unsigned_labels_past_int64(self, tmp_path, label):
        # An int64 cast wraps 2**64 - 1 to -1 (an idle input) and 2**63 to
        # a negative label; the range is checked before the cast.
        demands = np.array([[label, 1]], dtype=np.uint64)
        with pytest.raises(ConfigurationError, match="out-of-range"):
            TraceTraffic(demands, 4)
        path = tmp_path / "demands.npy"
        np.save(path, demands)
        with pytest.raises(ConfigurationError, match="out-of-range"):
            TraceTraffic.from_file(str(path))

    def test_accepts_unsigned_labels_in_range(self, rng):
        gen = TraceTraffic(np.array([[3, 1]], dtype=np.uint64), 4)
        assert gen.generate(rng).tolist() == [3, 1]

    def test_accepts_narrow_integer_demands(self, rng):
        trace = np.array([[3, -1], [0, 2]], dtype=np.int32)
        gen = TraceTraffic(trace, 4)
        assert gen.demands.dtype == np.int64
        assert gen.generate_batch(rng, 2).tolist() == trace.tolist()


class TestNewPatterns:
    def test_complement_inverts_bits(self, rng):
        dests = structured_permutation("complement", 16).generate(rng)
        assert all(dests[i] == (i ^ 15) for i in range(16))

    def test_tornado_is_a_rotation(self, rng):
        dests = structured_permutation("tornado", 8).generate(rng)
        assert all(dests[i] == (i + 3) % 8 for i in range(8))

    @pytest.mark.parametrize("bits", range(15))
    def test_bit_reversal_table_matches_the_reference_loop(self, bits):
        from repro.workloads.models import _bit_reversal

        n = 1 << bits
        want = [reverse_bits(i, bits) for i in range(n)]
        got = _bit_reversal(n)
        assert got.dtype == np.int64
        assert got.tolist() == want
        got[0] = -1  # each call returns its own writable table
        assert _bit_reversal(n)[0] == 0

    def test_pattern_rate_thins(self, rng):
        gen = structured_permutation("shuffle", 1024, rate=0.25)
        active = (gen.generate(rng) != -1).mean()
        assert 0.15 < active < 0.35

    @pytest.mark.parametrize("dests", [[0.9, 2.5, 3.99], np.array([True, False, True])])
    def test_fixed_pattern_rejects_non_integer_dests(self, dests):
        with pytest.raises(ConfigurationError, match="integer dtype"):
            FixedPattern(dests, 4)

    @pytest.mark.parametrize("label", [2**64 - 1, 2**63])
    def test_fixed_pattern_rejects_unsigned_labels_past_int64(self, label):
        with pytest.raises(ConfigurationError, match="out-of-range"):
            FixedPattern(np.array([label, 1], dtype=np.uint64), 4)

    def test_fixed_pattern_rate(self, rng):
        gen = FixedPattern(np.arange(2048), 2048, rate=0.5)
        batch = gen.generate_batch(rng, 4)
        live = batch != -1
        assert 0.4 < live.mean() < 0.6
        assert (batch[live] == np.broadcast_to(np.arange(2048), (4, 2048))[live]).all()


class TestDescribe:
    def test_hand_built_generator_has_no_spec(self):
        with pytest.raises(ConfigurationError, match="no workload spec"):
            FixedPattern([0, 1], 2).describe()

    def test_structured_label_parses(self):
        from repro.workloads import parse_workload

        gen = structured_permutation("bit_reversal", 16, rate=0.5)
        assert parse_workload(gen.describe()).name == "bitrev"


class _Stacked(TrafficGenerator):
    """A model with only ``generate``: it batches through the base class."""

    def generate(self, rng):
        return rng.integers(0, self.n_outputs, self.n_inputs)


#: One of each model over 4 inputs and ``n`` outputs, label ``n - 1`` used.
CHUNK_MODELS = {
    "uniform": lambda n: UniformTraffic(4, n, rate=0.5),
    "permutation": lambda n: PermutationTraffic(4, n),
    "fixed": lambda n: FixedPattern([0, n - 1, -1, 1], n, rate=0.5),
    "hotspot": lambda n: HotspotTraffic(4, n, rate=0.5, hot_output=n - 1),
    "bursty": lambda n: BurstyTraffic(4, n, on=2, off=1),
    "mixture": lambda n: MixtureTraffic([(UniformTraffic(4, n), 1.0), (HotspotTraffic(4, n), 1.0)]),
    "trace": lambda n: TraceTraffic(np.array([[0, n - 1, -1, 2], [1, 1, 0, -1]]), n),
    "base": lambda n: _Stacked(4, n),
}


@pytest.mark.parametrize("model", sorted(CHUNK_MODELS))
class TestChunkDtype:
    """``generate_batch`` takes only a signed dtype that holds every label."""

    def test_rejects_a_dtype_too_narrow_for_the_labels(self, model):
        # Label 65535 would wrap to -1 (IDLE) in int16; 32767 still fits.
        with pytest.raises(ConfigurationError, match="holds label 65535"):
            CHUNK_MODELS[model](65536).generate_batch(np.random.default_rng(0), 4, np.int16)
        chunk = CHUNK_MODELS[model](32768).generate_batch(np.random.default_rng(0), 4, np.int16)
        assert chunk.dtype == np.int16 and chunk.shape == (4, 4)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float32, np.bool_, "S2"])
    def test_rejects_unsigned_float_and_other_dtypes(self, model, dtype):
        with pytest.raises(ConfigurationError):
            CHUNK_MODELS[model](8).generate_batch(np.random.default_rng(0), 4, dtype)

    def test_int8_chunk_is_the_int64_chunk_cast(self, model):
        got = CHUNK_MODELS[model](128).generate_batch(np.random.default_rng(5), 6, np.int8)
        want = CHUNK_MODELS[model](128).generate_batch(np.random.default_rng(5), 6)
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, want)

    def test_rejects_a_negative_batch(self, model):
        with pytest.raises(ConfigurationError, match="non-negative"):
            CHUNK_MODELS[model](8).generate_batch(np.random.default_rng(0), -1)
