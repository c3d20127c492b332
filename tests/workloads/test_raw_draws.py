"""The traffic draws against the NumPy calls they stand in for.

``_integers`` and ``_set_where`` are ``rng.integers(0, n, size,
dtype=np.int64)`` and ``rng.random(size) < p`` applied to a chunk: drawn
in C from raw ``PCG64`` words where the C draws serve, else through those
NumPy calls.  On a twin generator they must give the same values and
leave the stream in the same place, so the draws after them agree too.
Generators and ranges where the C identities do not hold (Philox,
MT19937, a pending 32-bit half, a range of 1 or one that is not a power
of two) take the NumPy call, and must agree just the same.

Every test runs three times: on the C draws this host builds (eight
AVX-512 lanes or the scalar lane), on the probe source built with the lane
count forced to 1, and with the C draws off, so NumPy's own calls stay
tested on hosts with a compiler.  The C modes draw every size in C; the
real size threshold has tests of its own.
"""

from __future__ import annotations

import ctypes
import functools
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import native
from repro.workloads import make_traffic
from repro.workloads import models
from repro.workloads.models import _integers, _set_where

_BIT_GENERATORS = {
    "pcg64": np.random.PCG64,
    "pcg64-pending": np.random.PCG64,
    "philox": np.random.Philox,
    "mt19937": np.random.MT19937,
}
GENERATORS = tuple(_BIT_GENERATORS)
DTYPES = (np.int16, np.int32, np.int64)

_ranges = st.sampled_from([1 << k for k in range(1, 16)] + [1, 3, 1000])
_EDGE_PROBABILITIES = (0.0, 2.0**-53, 0.1, 0.5, 1.0 - 2.0**-53, 1.0)
_probabilities = st.one_of(st.sampled_from(_EDGE_PROBABILITIES), st.floats(0.0, 1.0))
#: Word counts around lane blocks (8 words), short and long.
_BLOCK_WORDS = (7, 8, 9, 15, 16, 17, 8191, 8192, 8193)
#: The chunk shapes ``mc-label`` draws (N = 4096 and 1024, int16 wires).
_MC_LABEL_CHUNKS = ((32, 4096), (64, 1024))

#: The cached loader itself; the fixture below stands ``_c_draws`` in.
_load_c_draws = models._c_draws
#: The real size threshold; the fixture sets it to 0 in the C modes.
_C_MIN_WORDS = models._C_MIN_WORDS


@functools.lru_cache(maxsize=None)
def _scalar_draws() -> models._CDraws:
    """The probe source built with one lane, whatever this host's vectors."""
    source = "#define DRAW_LANES 1\n" + native._C_PROBE
    lib = ctypes.CDLL(str(native._build_shared_object(source, "repro_probe")))
    return models._CDraws(lib)


@pytest.fixture(autouse=True, params=["c", "scalar", "numpy"])
def draws(request):
    """Which draws the test runs on; yields the ``_CDraws`` or ``None``."""
    if request.param == "numpy":
        with mock.patch.object(models, "_c_draws", lambda: None):
            yield None
        return
    if native.unavailable_reason() is not None:
        pytest.skip("no working C compiler")
    if request.param == "c":
        chosen = models._c_draws()
        assert chosen is not None, "a C compiler works but the C draws did not load"
    else:
        chosen = _scalar_draws()
        assert chosen.lanes == 1
        assert chosen.agrees()
    with mock.patch.object(models, "_c_draws", lambda: chosen), mock.patch.object(
        models, "_C_MIN_WORDS", 0
    ):
        yield chosen


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


def same_state(ours: np.random.Generator, theirs: np.random.Generator) -> bool:
    """Whether two bit generators' whole state dicts are equal."""

    def equal(a, b) -> bool:
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(equal(a[k], b[k]) for k in a)
        return np.array_equal(a, b)

    return equal(ours.bit_generator.state, theirs.bit_generator.state)


class RawWords:
    """The C draws' contract, drawn through ``random_raw`` as ``agrees()``
    checks it: the same words, with ``has_uint32`` and ``uinteger`` left
    as they were.

    NumPy's own ``integers`` leaves ``uinteger`` holding the last high
    half it used, so in the C modes the whole-state checks compare against
    a twin drawing on this instead (:func:`on_twin`).
    """

    @staticmethod
    def labels(rng, flat: np.ndarray, shift: int) -> bool:
        if rng.bit_generator.state["has_uint32"]:
            return False
        words = rng.bit_generator.random_raw(flat.size // 2)
        flat[0::2] = (words & 0xFFFFFFFF) >> shift
        flat[1::2] = words >> (32 + shift)
        return True

    @staticmethod
    def set_where(rng, flat: np.ndarray, p: float, below: bool, value: int) -> None:
        words = rng.bit_generator.random_raw(flat.size)
        flat[((words >> 11) * 2.0**-53 < p) == below] = value


def on_twin(fn, *args):
    """``fn(*args)`` as the whole-state twin draws it: on :class:`RawWords`
    where the draws under test are C, else on NumPy's own calls."""
    raw = RawWords if models._c_draws() is not None else None
    with mock.patch.object(models, "_c_draws", lambda: raw):
        return fn(*args)


def set_where(rng, flat: np.ndarray, p: float, below: bool, value: int) -> bool:
    """``_set_where(rng, flat, p, below, value)``; whether it drew in C."""
    with mock.patch.object(
        models._CDraws, "set_where", autospec=True, side_effect=models._CDraws.set_where
    ) as in_c:
        _set_where(rng, flat, p, below, value)
    return in_c.called


def expect_c(rng, dtype) -> bool:
    """Whether the draws in use take a threshold draw on ``rng`` in ``dtype`` in C."""
    return models._c_draws() is not None and type(rng.bit_generator) is np.random.PCG64 and (
        np.dtype(dtype) in models._C_DTYPES
    )


# ----------------------------------------------------------------------
# Integer draws
# ----------------------------------------------------------------------


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(GENERATORS),
    seed=st.integers(0, 2**32 - 1),
    n=_ranges,
    count=st.integers(0, 70),
)
def test_integers_match_numpy(kind, seed, n, count):
    ours, theirs = twins(kind, seed)
    got = _integers(ours, n, count)
    want = theirs.integers(0, n, count, dtype=np.int64)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert_streams_agree(ours, theirs)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", GENERATORS)
def test_integers_in_every_dtype_leave_the_twins_state(kind, dtype):
    """Counts 0-70 and around lane blocks: NumPy's values, the twin's state.

    The C draws write back the ``has_uint32`` and ``uinteger`` they read,
    so after every draw the whole state dict equals that of a twin drawing
    the same words through ``random_raw``; with the C draws off, that of
    NumPy's own calls.
    """
    n = 1 << 15 if dtype is np.int16 else 1 << 20
    counts = list(range(71)) + [2 * words + odd for words in _BLOCK_WORDS for odd in (0, 1)]
    ours, twin = twins(kind, 3)
    reference, _ = twins(kind, 3)
    for count in counts:
        got = _integers(ours, n, count, dtype)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, reference.integers(0, n, count, dtype=np.int64))
        np.testing.assert_array_equal(got, on_twin(_integers, twin, n, count, dtype))
        assert same_state(ours, twin)
    assert_streams_agree(ours, reference)


@pytest.mark.parametrize("shape", _MC_LABEL_CHUNKS)
@pytest.mark.parametrize("n", [2, 1024, 4096, 1 << 15])
def test_integers_fill_mc_label_chunks(shape, n):
    ours, theirs = twins("pcg64", 17)
    got = _integers(ours, n, shape, np.int16)
    assert got.shape == shape and got.dtype == np.int16
    np.testing.assert_array_equal(got, theirs.integers(0, n, shape, dtype=np.int64))
    assert_streams_agree(ours, theirs)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_integers_up_to_the_full_half(dtype):
    """``n = 2**31`` (int32's widest) and ``2**32`` keep every bit of a half."""
    for n in (1 << 31, 1 << 32) if dtype is np.int64 else (1 << 31,):
        ours, theirs = twins("pcg64", 23)
        got = _integers(ours, n, 2 * 8193, dtype)
        np.testing.assert_array_equal(got, theirs.integers(0, n, 2 * 8193, dtype=np.int64))
        assert_streams_agree(ours, theirs)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(3, 5), (4, 64), (1,)])
def test_integers_fill_any_shape_and_dtype(shape, dtype):
    ours, theirs = twins("pcg64", 11)
    got = _integers(ours, 64, shape, dtype)
    assert got.shape == shape and got.dtype == dtype
    np.testing.assert_array_equal(got, theirs.integers(0, 64, shape, dtype=np.int64))
    assert_streams_agree(ours, theirs)


# ----------------------------------------------------------------------
# Threshold draws
# ----------------------------------------------------------------------


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(GENERATORS),
    seed=st.integers(0, 2**32 - 1),
    p=_probabilities,
    count=st.one_of(st.integers(0, 70), st.sampled_from(_BLOCK_WORDS)),
    dtype=st.sampled_from(DTYPES),
    below=st.booleans(),
)
def test_threshold_draws_match_numpy(kind, seed, p, count, dtype, below):
    ours, twin = twins(kind, seed)
    reference, _ = twins(kind, seed)
    value = -1 if not below else 3
    got = np.arange(count, dtype=dtype)
    assert set_where(ours, got, p, below, value) == expect_c(ours, dtype)
    want = np.arange(count, dtype=np.int64)
    want[(reference.random(count) < p) == below] = value
    np.testing.assert_array_equal(got, want)
    on_twin(_set_where, twin, np.arange(count, dtype=dtype), p, below, value)
    assert same_state(ours, twin)
    assert_streams_agree(ours, reference)


@pytest.mark.parametrize("below", [True, False])
def test_threshold_is_strict_and_rounds_up(below):
    """A word exactly at the bound fails, and ``p * 2**53`` rounds up.

    Random ``p`` almost never lands within one word of the threshold, so
    the boundary is set on a chosen word: its low 11 bits are clear, so
    ``p = (word >> 11) / 2**53`` puts the bound on the word itself, and its
    top bit is clear, so ``p < 0.5`` and the next float up is not a whole
    multiple of ``2**-53`` (rounding down would miss the word).  The word
    sits past two lane blocks, so the C draws meet it in a vector lane.
    """
    words = np.random.Generator(np.random.PCG64(2)).bit_generator.random_raw(1 << 16)
    chosen = ((words & np.uint64(0x7FF)) == 0) & (words < np.uint64(1 << 63))
    chosen[:16] = False
    index = int(np.flatnonzero(chosen)[0])
    at = float(int(words[index]) >> 11) / 2**53
    for p in (at, np.nextafter(at, 1.0), np.nextafter(at, 0.0)):
        want = np.random.Generator(np.random.PCG64(2)).random(index + 9) < p
        assert want[index] == (p > at)
        for dtype in DTYPES:
            ours, _ = twins("pcg64", 2)
            hit = np.zeros(index + 9, dtype=dtype)
            _set_where(ours, hit, p, below, 1)
            assert hit[index] == ((p > at) == below)
            np.testing.assert_array_equal(hit == 1, want == below)


def test_mixed_draws_keep_one_stream():
    """Odd integer draws, thresholds and NumPy calls interleave on one stream."""
    ours, theirs = twins("pcg64", 5)
    for count in (7, 64, 3, 8193):
        np.testing.assert_array_equal(
            _integers(ours, 256, count), theirs.integers(0, 256, count, dtype=np.int64)
        )
        np.testing.assert_array_equal(ours.integers(0, 5, 3), theirs.integers(0, 5, 3))
        hot = np.zeros(count, dtype=np.int16)
        _set_where(ours, hot, 0.3, True, 1)
        np.testing.assert_array_equal(hot == 1, theirs.random(count) < 0.3)
    assert_streams_agree(ours, theirs)


def test_cycles_and_chunks_share_one_stream_at_the_real_threshold():
    """One-cycle draws at N = 64 and 32 x 4096 int16 chunks on one stream.

    The one-cycle draws are NumPy's calls; an odd count leaves a pending
    32-bit half, so the chunk after it is NumPy's call too, and the chunk
    after an even count is drawn in C.  The thresholds follow the same
    size rule: NumPy's per cycle, C per chunk.
    """
    cycle_spec, chunk_spec = "hotspot:0.25,out=5,rate=0.5", "hotspot:0.25,out=5"
    cycle = make_traffic(cycle_spec, 64, 64)
    chunks = make_traffic(chunk_spec, 4096, 4096)
    ours, theirs = twins("pcg64", 43)
    drawn = []
    real = models._CDraws.labels

    def labels(self, rng, flat, shift):
        drawn.append(real(self, rng, flat, shift))
        return drawn[-1]

    with mock.patch.object(models, "_C_MIN_WORDS", _C_MIN_WORDS), mock.patch.object(
        models._CDraws, "labels", labels
    ):
        for count in (63, 1, 64, 63):
            np.testing.assert_array_equal(
                _integers(ours, 64, count), theirs.integers(0, 64, count, dtype=np.int64)
            )
            np.testing.assert_array_equal(
                cycle.generate(ours), reference_chunk(cycle_spec, theirs, 1, 64)[0]
            )
            got = chunks.generate_batch(ours, 32, np.int16)
            np.testing.assert_array_equal(got, reference_chunk(chunk_spec, theirs, 32, 4096))
    assert drawn == ([False, True, True, False] if models._c_draws() is not None else [])
    assert_streams_agree(ours, theirs)


# ----------------------------------------------------------------------
# The models on the draws
# ----------------------------------------------------------------------


def reference_chunk(spec: str, rng, batch: int, n: int, pattern=None) -> np.ndarray:
    """The chunk ``spec`` must give, from plain NumPy calls."""
    size = (batch, n)
    if pattern is not None:
        dests = np.tile(pattern, (batch, 1))
    else:
        dests = rng.integers(0, n, size, dtype=np.int64)
    if spec.startswith("hotspot"):
        dests[rng.random(size) < 0.25] = 5
    if "rate" in spec or spec.endswith(":0.5"):
        dests[rng.random(size) >= 0.5] = -1
    return dests


_MODEL_SPECS = (
    "uniform",
    "uniform:0.5",
    "hotspot:0.25,out=5",
    "hotspot:0.25,out=5,rate=0.5",
    "bitrev:0.5",
)


@pytest.mark.parametrize("kind", GENERATORS)
@pytest.mark.parametrize("spec", _MODEL_SPECS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_models_match_numpy(spec, dtype, kind):
    """Hot output 5, and rate 0.5 on uniform, hot-spot and a fixed pattern.

    Chunk and single-cycle draws both; 64 x 64 chunks are 2,048 words of
    labels and 4,096 threshold words each, several lane blocks.
    """
    gen = make_traffic(spec, 64, 64)
    pattern = None
    if spec.startswith("bitrev"):
        pattern = make_traffic("bitrev", 64, 64).dests
    ours, twin = twins(kind, 29)
    reference, _ = twins(kind, 29)
    for batch in (64, 3, 0):
        got = gen.generate_batch(ours, batch, dtype)
        assert got.dtype == dtype and got.shape == (batch, 64)
        np.testing.assert_array_equal(got, reference_chunk(spec, reference, batch, 64, pattern))
        np.testing.assert_array_equal(got, on_twin(gen.generate_batch, twin, batch, dtype))
        assert same_state(ours, twin)
    one = gen.generate(ours)
    np.testing.assert_array_equal(one, reference_chunk(spec, reference, 1, 64, pattern)[0])
    on_twin(gen.generate, twin)
    assert same_state(ours, twin)
    assert_streams_agree(ours, reference)


def test_int8_chunks_take_numpy():
    gen = make_traffic("hotspot:0.25,out=5,rate=0.5", 64, 64)
    ours, theirs = twins("pcg64", 31)
    with mock.patch.object(models._CDraws, "set_where") as thresholds, mock.patch.object(
        models._CDraws, "labels"
    ) as labels:
        got = gen.generate_batch(ours, 64, np.int8)
    assert got.dtype == np.int8 and not thresholds.called and not labels.called
    np.testing.assert_array_equal(
        got, reference_chunk("hotspot:0.25,out=5,rate=0.5", theirs, 64, 64)
    )


@pytest.mark.parametrize("spec", ["uniform", "hotspot:0.1", "hotspot:0.1,rate=0.5"])
def test_int16_chunk_peaks_below_one_mib(spec, draws):
    """No transient of the chunk's size in C (NumPy's draws peak at 2.1-2.3 MiB)."""
    if draws is None:
        pytest.skip("NumPy's own calls allocate chunk-sized int64 and float64 draws")
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


# ----------------------------------------------------------------------
# The C draws themselves
# ----------------------------------------------------------------------


def test_small_draws_take_numpy(draws):
    """Below ``_C_MIN_WORDS`` words a draw is NumPy's call; from it on, C."""
    if draws is None:
        pytest.skip("the C draws are off")
    words = 64
    with mock.patch.object(models, "_C_MIN_WORDS", words):
        for count, in_c in ((words - 1, False), (words, True)):
            ours, theirs = twins("pcg64", 37)
            thresholds = mock.MagicMock(wraps=draws.set_where)
            labels = mock.MagicMock(wraps=draws.labels)
            with mock.patch.object(draws, "set_where", thresholds), mock.patch.object(
                draws, "labels", labels
            ):
                hot = np.zeros(count, dtype=np.int16)
                _set_where(ours, hot, 0.5, True, 1)
                got = _integers(ours, 64, 2 * count)
            assert thresholds.called == in_c and labels.called == in_c
            np.testing.assert_array_equal(hot == 1, theirs.random(count) < 0.5)
            np.testing.assert_array_equal(got, theirs.integers(0, 64, 2 * count))


def test_load_check_turns_wrong_draws_off(draws):
    """A wrong word fails the check at load, and NumPy's calls draw instead."""
    if draws is None:
        pytest.skip("the C draws are off")
    real = native.draw_library()

    def wrong_labels(state, out, size, words, shift):
        real.repro_draw_labels(state, out, size, words, shift)
        ctypes.c_int8.from_address(out + size * (2 * words - 1)).value ^= 1

    wrong = types.SimpleNamespace(
        repro_draw_labels=wrong_labels,
        repro_draw_set=real.repro_draw_set,
        repro_draw_lanes=real.repro_draw_lanes,
    )
    assert models._CDraws(real).agrees()
    assert not models._CDraws(wrong).agrees()
    _load_c_draws.cache_clear()
    try:
        with mock.patch.object(native, "draw_library", lambda: wrong):
            assert _load_c_draws() is None
    finally:
        _load_c_draws.cache_clear()
    assert _load_c_draws() is not None
