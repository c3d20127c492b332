"""Unit tests for traffic generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.workloads import (
    STRUCTURED_PATTERNS,
    FixedPattern,
    HotspotTraffic,
    PermutationTraffic,
    TrafficGenerator,
    UniformTraffic,
    structured_permutation,
)


class TestUniformTraffic:
    def test_full_rate_everyone_requests(self, rng):
        dests = UniformTraffic(64, 64, 1.0).generate(rng)
        assert dests.shape == (64,)
        assert (dests >= 0).all() and (dests < 64).all()

    def test_rate_thins_requests(self, rng):
        dests = UniformTraffic(4096, 64, 0.25).generate(rng)
        active = (dests >= 0).mean()
        assert 0.15 < active < 0.35

    def test_zero_rate_all_idle(self, rng):
        assert (UniformTraffic(32, 32, 0.0).generate(rng) == -1).all()

    def test_destinations_roughly_uniform(self, rng):
        dests = UniformTraffic(50_000, 8, 1.0).generate(rng)
        counts = np.bincount(dests, minlength=8)
        assert counts.min() > 0.8 * counts.mean()

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            UniformTraffic(8, 8, 1.5)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            UniformTraffic(0, 8)


class TestPermutationTraffic:
    def test_is_permutation(self, rng):
        dests = PermutationTraffic(64, 64).generate(rng)
        assert sorted(dests.tolist()) == list(range(64))

    def test_partial_injection(self, rng):
        dests = PermutationTraffic(16, 64).generate(rng)
        live = dests[dests >= 0]
        assert len(set(live.tolist())) == len(live) == 16

    def test_rate_produces_partial_permutation(self, rng):
        dests = PermutationTraffic(256, 256, rate=0.5).generate(rng)
        live = dests[dests >= 0]
        assert len(set(live.tolist())) == len(live)
        assert 0.3 < len(live) / 256 < 0.7

    def test_rejects_more_inputs_than_outputs(self):
        with pytest.raises(ConfigurationError):
            PermutationTraffic(64, 32)

    def test_varies_across_cycles(self, rng):
        gen = PermutationTraffic(64, 64)
        assert not np.array_equal(gen.generate(rng), gen.generate(rng))


class TestFixedPattern:
    def test_repeats_exactly(self, rng):
        gen = FixedPattern([3, 1, -1, 0], 4)
        first = gen.generate(rng)
        second = gen.generate(rng)
        assert np.array_equal(first, [3, 1, -1, 0])
        assert np.array_equal(first, second)

    def test_returns_copy(self, rng):
        gen = FixedPattern([1, 0], 2)
        out = gen.generate(rng)
        out[0] = -1
        assert gen.generate(rng)[0] == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            FixedPattern([5], 4)

    @pytest.mark.parametrize("dests", [[4, -1], [-2, 0]])
    def test_rejects_out_of_range_beside_idle(self, dests):
        # Only -1 marks an idle input; anything below it is out of range.
        with pytest.raises(ConfigurationError):
            FixedPattern(dests, 4)

    def test_accepts_all_idle(self):
        assert FixedPattern([-1, -1], 4).dests.tolist() == [-1, -1]


class TestHotspot:
    def test_hot_output_overrepresented(self, rng):
        gen = HotspotTraffic(20_000, 64, hot_fraction=0.25, hot_output=7)
        dests = gen.generate(rng)
        share = (dests == 7).mean()
        assert 0.2 < share < 0.35

    def test_zero_fraction_is_uniform(self, rng):
        gen = HotspotTraffic(20_000, 64, hot_fraction=0.0)
        counts = np.bincount(gen.generate(rng), minlength=64)
        assert counts.max() < 2.0 * counts.mean()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            HotspotTraffic(8, 8, hot_fraction=1.5)
        with pytest.raises(ConfigurationError):
            HotspotTraffic(8, 8, hot_output=8)


class TestStructuredPermutations:
    @pytest.mark.parametrize("name", sorted(STRUCTURED_PATTERNS))
    def test_all_patterns_are_permutations(self, name, rng):
        if name == "transpose":
            n = 16  # needs even label width
        else:
            n = 32
        dests = structured_permutation(name, n).generate(rng)
        assert sorted(dests.tolist()) == list(range(n))

    def test_identity(self, rng):
        dests = structured_permutation("identity", 8).generate(rng)
        assert np.array_equal(dests, np.arange(8))

    def test_bit_reversal_involution(self, rng):
        dests = structured_permutation("bit_reversal", 16).generate(rng)
        assert all(dests[dests[i]] == i for i in range(16))

    def test_transpose_needs_even_bits(self):
        with pytest.raises(ConfigurationError):
            structured_permutation("transpose", 32)

    def test_transpose_swaps_halves(self, rng):
        dests = structured_permutation("transpose", 16).generate(rng)
        # label (r, c) -> (c, r) on the 4x4 grid.
        for r in range(4):
            for c in range(4):
                assert dests[r * 4 + c] == c * 4 + r

    def test_shuffle_matches_rotation(self, rng):
        dests = structured_permutation("shuffle", 8).generate(rng)
        for i in range(8):
            assert dests[i] == ((i << 1) | (i >> 2)) & 7

    def test_unknown_pattern(self):
        with pytest.raises(ConfigurationError):
            structured_permutation("zigzag", 8)

    def test_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            structured_permutation("identity", 12)

    def test_butterfly_swaps_end_bits(self, rng):
        dests = structured_permutation("butterfly", 16).generate(rng)
        assert dests[0b1000] == 0b0001
        assert dests[0b0001] == 0b1000
        assert dests[0b1001] == 0b1001


class TestGenerateBatch:
    CASES = [
        UniformTraffic(32, 64, 0.7),
        PermutationTraffic(32, 64, 0.8),
        HotspotTraffic(32, 32, rate=0.9, hot_fraction=0.3),
        FixedPattern(np.arange(16), 16),
    ]

    @pytest.mark.parametrize("traffic", CASES, ids=lambda t: type(t).__name__)
    def test_shape_and_range(self, traffic, rng):
        batch = traffic.generate_batch(rng, 9)
        assert batch.shape == (9, traffic.n_inputs)
        assert batch.dtype == np.int64
        live = batch[batch != -1]
        if live.size:
            assert live.min() >= 0 and live.max() < traffic.n_outputs

    @pytest.mark.parametrize("traffic", CASES, ids=lambda t: type(t).__name__)
    def test_empty_batch(self, traffic, rng):
        batch = traffic.generate_batch(rng, 0)
        assert batch.shape == (0, traffic.n_inputs)

    def test_permutation_rows_are_partial_permutations(self, rng):
        traffic = PermutationTraffic(32, 32)
        batch = traffic.generate_batch(rng, 8)
        for row in batch:
            assert len(set(row.tolist())) == 32

    def test_fixed_pattern_rows_identical(self, rng):
        pattern = FixedPattern(np.arange(16)[::-1].copy(), 16)
        batch = pattern.generate_batch(rng, 4)
        assert (batch == pattern.dests).all()

    def test_base_class_stacks_generate(self, rng):
        class Alternating(TrafficGenerator):
            def __init__(self):
                super().__init__(4, 4)
                self._flip = 0

            def generate(self, rng):
                self._flip ^= 1
                return np.full(4, self._flip * 3, dtype=np.int64)

        batch = Alternating().generate_batch(rng, 4)
        assert batch.shape == (4, 4)
        assert batch[0, 0] != batch[1, 0]  # sequential generate() calls

    def test_batched_rate_thins_like_per_cycle(self, rng):
        traffic = UniformTraffic(512, 512, rate=0.25)
        batch = traffic.generate_batch(rng, 40)
        fraction = (batch != -1).mean()
        assert 0.2 < fraction < 0.3
