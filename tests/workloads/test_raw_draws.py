"""The raw-word draw helpers against the NumPy calls they stand in for.

``_integers`` and ``_random_below`` build ``rng.integers(0, n, size,
dtype=np.int64)`` and ``rng.random(size) < p`` from raw ``PCG64`` words.
On a twin generator they must give the same values and leave the stream
in the same place, so the draws after them agree too.  Generators and
ranges where the identities do not hold (Philox, MT19937, a pending
32-bit half, a range of 1 or one that is not a power of two) take the
NumPy call, and must agree just the same.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import make_traffic
from repro.workloads import models
from repro.workloads.models import _integers, _random_below

_BIT_GENERATORS = {
    "pcg64": np.random.PCG64,
    "pcg64-pending": np.random.PCG64,
    "philox": np.random.Philox,
    "mt19937": np.random.MT19937,
}
GENERATORS = tuple(_BIT_GENERATORS)

_ranges = st.sampled_from([1 << k for k in range(1, 16)] + [1, 3, 1000])
_probabilities = st.one_of(
    st.sampled_from([0.0, 2.0**-53, 0.1, 0.5, 1.0 - 2.0**-53, 1.0]),
    st.floats(0.0, 1.0),
)
#: Piece sizes: tiny ones split even a short draw into several pieces.
_pieces = st.sampled_from([1, 3, 16, models._PIECE_WORDS])


def twins(kind: str, seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    def make() -> np.random.Generator:
        rng = np.random.Generator(_BIT_GENERATORS[kind](seed))
        if kind == "pcg64-pending":
            rng.integers(0, 5)  # leaves the high half of a word buffered
        return rng

    return make(), make()


def assert_streams_agree(ours: np.random.Generator, theirs: np.random.Generator):
    np.testing.assert_array_equal(ours.integers(0, 7, 5), theirs.integers(0, 7, 5))
    np.testing.assert_array_equal(ours.random(3), theirs.random(3))


def mask_of(rng: np.random.Generator, count: int, p: float) -> np.ndarray:
    """Join the pieces, checking they tile ``[0, count)`` in order."""
    joined = np.zeros(0, dtype=bool)
    for start, piece in _random_below(rng, count, p):
        assert start == joined.size and piece.dtype == bool
        joined = np.concatenate([joined, piece])
    assert joined.size == count
    return joined


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(GENERATORS),
    seed=st.integers(0, 2**32 - 1),
    n=_ranges,
    count=st.integers(0, 70),
    piece=_pieces,
)
def test_integers_match_numpy(kind, seed, n, count, piece):
    ours, theirs = twins(kind, seed)
    with mock.patch.object(models, "_PIECE_WORDS", piece):
        got = _integers(ours, n, count)
    want = theirs.integers(0, n, count, dtype=np.int64)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert_streams_agree(ours, theirs)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(GENERATORS),
    seed=st.integers(0, 2**32 - 1),
    p=_probabilities,
    count=st.integers(0, 70),
    piece=_pieces,
)
def test_random_below_matches_numpy(kind, seed, p, count, piece):
    ours, theirs = twins(kind, seed)
    with mock.patch.object(models, "_PIECE_WORDS", piece):
        got = mask_of(ours, count, p)
    np.testing.assert_array_equal(got, theirs.random(count) < p)
    assert_streams_agree(ours, theirs)


def test_threshold_is_strict_and_rounds_up():
    """A word exactly at the bound fails, and ``p * 2**53`` rounds up.

    Random ``p`` almost never lands within one word of the threshold, so
    the boundary is set on a chosen word: its low 11 bits are clear, so
    ``p = (word >> 11) / 2**53`` puts the bound on the word itself, and its
    top bit is clear, so ``p < 0.5`` and the next float up is not a whole
    multiple of ``2**-53`` (rounding down would miss the word).
    """
    words = np.random.Generator(np.random.PCG64(2)).bit_generator.random_raw(1 << 16)
    chosen = ((words & np.uint64(0x7FF)) == 0) & (words < np.uint64(1 << 63))
    index = int(np.flatnonzero(chosen)[0])
    at = float(int(words[index]) >> 11) / 2**53
    for p in (at, np.nextafter(at, 1.0), np.nextafter(at, 0.0)):
        ours, theirs = twins("pcg64", 2)
        got = mask_of(ours, index + 1, p)
        np.testing.assert_array_equal(got, theirs.random(index + 1) < p)
        assert got[index] == (p > at)


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
@pytest.mark.parametrize("shape", [(3, 5), (4, 64), (1,)])
def test_integers_fill_any_shape_and_dtype(shape, dtype):
    ours, theirs = twins("pcg64", 11)
    got = _integers(ours, 64, shape, dtype)
    assert got.shape == shape and got.dtype == dtype
    np.testing.assert_array_equal(got, theirs.integers(0, 64, shape, dtype=np.int64))
    assert_streams_agree(ours, theirs)


def test_mixed_draws_keep_one_stream():
    """Odd integer draws, masks and NumPy calls interleave on one stream."""
    ours, theirs = twins("pcg64", 5)
    for count in (7, 64, 3):
        np.testing.assert_array_equal(
            _integers(ours, 256, count), theirs.integers(0, 256, count, dtype=np.int64)
        )
        np.testing.assert_array_equal(mask_of(ours, count, 0.3), theirs.random(count) < 0.3)
    assert_streams_agree(ours, theirs)


@pytest.mark.parametrize("spec", ["uniform", "hotspot:0.1", "hotspot:0.1,rate=0.5"])
def test_int16_chunk_peaks_below_one_mib(spec):
    """No transient of the chunk's size (int64 NumPy draws peak at 2.2 MiB)."""
    gen = make_traffic(spec, 4096, 4096)
    rng = np.random.default_rng(0)
    gen.generate_batch(rng, 32, dtype=np.int16)
    tracemalloc.start()
    try:
        gen.generate_batch(rng, 32, dtype=np.int16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{spec}: peak {peak / 2**20:.2f} MiB"
