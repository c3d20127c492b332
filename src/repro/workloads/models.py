"""Traffic models: the generators behind every workload spec.

Each model produces one cycle of destination demands as an integer numpy
array of length ``n_inputs`` where entry ``s`` is the requested output
terminal of source ``s`` or ``-1`` for an idle input.  The paper's two
analytic regimes are covered — uniform independent traffic (Section 3.2's
assumptions) and random permutations (Section 3.2.1 / Section 5) — plus
the hot-spot ("NUTS", Non-Uniform Traffic Spots, the paper's reference
[13]), structured-permutation, bursty on/off, mixture, and trace-replay
workloads that the wider interconnection-network literature evaluates on.

Every model implements both the single-cycle :meth:`TrafficGenerator.generate`
and a *vectorized* :meth:`TrafficGenerator.generate_batch`, so the batched
routing engines (:mod:`repro.sim.batched`) stay on their fast path: a
Monte-Carlo chunk is a few numpy calls, never a per-cycle Python loop.
``generate_batch`` also takes the ``dtype`` to build the chunk in, so a
router that reads narrow labels (the native kernel's int16 wires) gets
them without an int64 round trip.

Destination and Bernoulli draws are ``rng.integers(0, n, size,
dtype=np.int64)`` and ``rng.random(size) < p`` bit for bit, with the same
words consumed, on one of two paths.  Where a C compiler works, a draw of
:data:`_C_MIN_WORDS` raw words or more from a ``PCG64`` stream into an
int16, int32 or int64 chunk computes the words in C (the probe library of
:mod:`repro.sim.native`, eight jumped-ahead PCG64 lanes on AVX-512, one
lane elsewhere), by two loops fused with their use: one stores a chunk's
labels, the other sets each entry that passes, or fails, a threshold to a
value (the hot output, or ``IDLE``).  They rest on two identities:

* for a power-of-two ``n`` NumPy's Lemire draw never rejects, so each
  value is the top ``log2(n)`` bits of a 32-bit half of one word, low
  half first;
* ``random()`` is ``(word >> 11) * 2**-53``, so ``random() < p`` holds
  exactly when ``word < ceil(p * 2**53) * 2**11``.

Each C draw reads ``bit_generator.state`` once and writes the advanced
state back, and a check at load compares the C words with ``random_raw``.
Every other draw is the NumPy call itself: smaller draws, another bit
generator, a range of 1 or one that is not a power of two, a pending
buffered 32-bit half (integer draws), a big-endian host, and every draw on
a host without a working C compiler.  Streams, and with them every
measurement and content key, are the same on both paths.

The models whose chunks are fixed functions of raw ``PCG64`` words
(uniform, hot-spot, fixed patterns) also describe how they use them
(:class:`DrawDescriptor`), so a consumer that computes the words itself,
the native lane kernel, reproduces ``generate_batch`` with no demand
matrix in between.

Models are rarely constructed by hand; the string-spec registry in
:mod:`repro.workloads.registry` is the canonical front door
(``make_traffic("hotspot:0.1", 64, 64)``), and every registry-built model
reports its canonical spec string through :meth:`TrafficGenerator.describe`.

>>> import numpy as np
>>> gen = UniformTraffic(8, 8, rate=0.75)
>>> gen.generate(np.random.default_rng(0)).shape
(8,)
>>> gen.describe()
'uniform:0.75'
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.labels import ilog2, is_power_of_two

__all__ = [
    "IDLE",
    "TrafficGenerator",
    "UniformTraffic",
    "PermutationTraffic",
    "FixedPattern",
    "HotspotTraffic",
    "BurstyTraffic",
    "MixtureTraffic",
    "TraceTraffic",
    "DrawDescriptor",
    "structured_permutation",
    "STRUCTURED_PATTERNS",
]

IDLE = -1

_LITTLE_ENDIAN = sys.byteorder == "little"

#: Label dtypes the C draws store in (2-, 4- and 8-byte entries).
_C_DTYPES = frozenset(np.dtype(t) for t in (np.int16, np.int32, np.int64))

_MASK64 = (1 << 64) - 1

#: The C draws' stream argument: state high and low, increment high and low.
_STATE = ctypes.c_uint64 * 4

#: The stream the load-time check draws from.
_CHECK_SEED = 0x5EED

#: Draws of fewer words take NumPy's own call: reading and writing back
#: ``bit_generator.state`` costs more than the C loop saves on them (a
#: per-cycle draw is a few hundred words).
_C_MIN_WORDS = 1 << 10


def _threshold(p: float, below: bool) -> tuple[int, bool]:
    """``(bound, ge)`` such that ``(random() < p) == below`` holds on a word
    exactly when ``(word >= bound) == ge``.

    ``random()`` is ``(word >> 11) * 2**-53``, so it is below ``p`` exactly
    when ``word < ceil(p * 2**53) << 11``.  Every word is below a ``p >=
    1``, so that case asks for ``word >= 0`` (always) or its negation.
    """
    if p >= 1.0:
        return 0, below
    return (math.ceil(p * 2**53) << 11 if p > 0.0 else 0), not below


def _label_shift(n: int) -> Optional[int]:
    """The shift that makes a 32-bit half a draw in ``range(n)``, or ``None``.

    For a power-of-two ``n`` in ``[2, 2**32]`` NumPy's Lemire draw never
    rejects, so each value is the top ``log2(n)`` bits of one half.
    """
    if 2 <= n <= 1 << 32 and not n & (n - 1):
        return 33 - n.bit_length()
    return None


def advance_pcg64(rng: np.random.Generator, draw, pending_ok: bool) -> bool:
    """Run ``draw(words)`` on ``rng``'s ``PCG64`` stream, ``words`` being a
    ``uint64[4]`` of state high, low, increment high, low; ``draw`` leaves
    the state of the last word it drew in the first two.

    Holds the bit generator's lock, reads ``bit_generator.state`` once and
    writes the advanced state back with ``has_uint32`` and ``uinteger`` as
    read.  False, with nothing drawn, when a 32-bit half is pending and
    ``pending_ok`` is not set (NumPy would hand that half out first).
    """
    bitgen = rng.bit_generator
    with bitgen.lock:
        state = bitgen.state
        if state["has_uint32"] and not pending_ok:
            return False
        inner = state["state"]
        s, inc = inner["state"], inner["inc"]
        words = _STATE(s >> 64, s & _MASK64, inc >> 64, inc & _MASK64)
        draw(words)
        inner["state"] = words[0] << 64 | words[1]
        bitgen.state = state
    return True


class _CDraws:
    """PCG64 words drawn in C, fused with their use (see ``_C_PROBE`` in
    :mod:`repro.sim.native`).

    A draw holds the bit generator's lock, reads ``bit_generator.state``
    once, runs one C loop over the chunk and writes the advanced state
    back.  ``has_uint32`` and ``uinteger`` are written back as read, so
    the values, the words consumed and the whole state dict are those of
    drawing the same words through ``random_raw``.
    """

    def __init__(self, lib):
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        self._labels = lib.repro_draw_labels
        self._labels.argtypes = [ptr, ptr, i64, i64, i64]
        self._labels.restype = None
        self._set = lib.repro_draw_set
        self._set.argtypes = [ptr, ptr, i64, i64, ctypes.c_uint64, i64, i64]
        self._set.restype = None
        lanes = lib.repro_draw_lanes
        lanes.argtypes = []
        lanes.restype = ctypes.c_long
        #: 8 on a build with the AVX-512 lanes, 1 on the scalar lane.
        self.lanes = lanes()

    def _advance(self, rng: np.random.Generator, draw, flat, *args, pending_ok: bool) -> bool:
        """Run ``draw(state, flat, *args)`` on ``rng``'s stream; False if
        a half is pending and ``pending_ok`` is not set (nothing drawn)."""
        if not flat.size:
            return True  # nothing to draw (and no buffer to point at)
        address = ctypes.addressof(ctypes.c_char.from_buffer(flat))
        return advance_pcg64(rng, lambda words: draw(words, address, *args), pending_ok)

    def labels(self, rng: np.random.Generator, flat: np.ndarray, shift: int) -> bool:
        """Fill ``flat`` (even size) with each next 32-bit half ``>> shift``.

        Low half first.  False, with nothing drawn, when a 32-bit half is
        pending: NumPy would hand that out first.
        """
        return self._advance(
            rng, self._labels, flat, flat.itemsize, flat.size // 2, shift, pending_ok=False
        )

    def set_where(self, rng, flat: np.ndarray, p: float, below: bool, value: int) -> None:
        """``flat[i] = value`` wherever ``(random() < p) == below`` on word ``i``.

        The C sets entries whose word is ``>= bound`` (``ge``) or ``<`` it
        (:func:`_threshold`).
        """
        bound, ge = _threshold(p, below)
        self._advance(
            rng, self._set, flat, flat.itemsize, flat.size, bound, ge, value, pending_ok=True
        )

    def agrees(self) -> bool:
        """Whether these draws match ``random_raw`` on a fixed seed.

        Per dtype, draws shorter than a lane block and of two blocks and a
        tail: labels, and thresholds placed on one of the words, both
        ways.  Then the two state dicts.
        """
        ours = np.random.Generator(np.random.PCG64(_CHECK_SEED))
        theirs = np.random.PCG64(_CHECK_SEED)
        for dtype, shift in ((np.int16, 17), (np.int32, 1), (np.int64, 0)):
            for words in (3, 21):
                got = np.empty(2 * words, dtype=dtype)
                self.labels(ours, got, shift)
                if not np.array_equal(got, theirs.random_raw(words).view(np.uint32) >> shift):
                    return False
                for below in (True, False):
                    raw = theirs.random_raw(words)
                    bound = int(raw[words // 2])
                    got = np.zeros(words, dtype=dtype)
                    self._advance(
                        ours, self._set, got, got.itemsize, words, bound, not below, -1,
                        pending_ok=True,
                    )
                    if not np.array_equal(got, np.where((raw < bound) == below, -1, 0)):
                        return False
        return ours.bit_generator.state == theirs.state


@functools.lru_cache(maxsize=None)
def _c_draws() -> Optional[_CDraws]:
    """The C draws, loaded and checked once per process, or ``None``.

    ``None`` where no C compiler works, where it has no 128-bit integers,
    and when the load-time check disagrees with ``random_raw``: NumPy's
    own calls then draw the same values.
    """
    # Imported here: repro.sim.native pulls in the routing engines.
    from repro.sim.native import draw_library

    lib = draw_library()
    if lib is None:
        return None
    draws = _CDraws(lib)
    return draws if draws.agrees() else None


def _c_serving(rng: np.random.Generator, flat: np.ndarray, words: int) -> Optional[_CDraws]:
    """The C draws, if they serve ``words`` raw words of ``rng`` into ``flat``."""
    if (
        words < _C_MIN_WORDS
        or flat.dtype not in _C_DTYPES
        or type(rng.bit_generator) is not np.random.PCG64
        or not _LITTLE_ENDIAN
    ):
        return None
    return _c_draws()


def _integers(rng: np.random.Generator, n: int, size, dtype=np.int64) -> np.ndarray:
    """``rng.integers(0, n, size, dtype=np.int64)`` built in ``dtype``.

    Same values and same stream consumption as the NumPy call.  Where the C
    draws serve the chunk and ``n`` is a power of two, each pair of values
    comes from one raw word (its low 32-bit half first, each value the
    half's top ``log2(n)`` bits); an odd last value is a one-value NumPy
    draw, which leaves the word's high half buffered exactly as the full
    call does.  A pending half goes to NumPy whole: it would hand that half
    out first.
    """
    n = int(n)
    shift = _label_shift(n)
    if shift is not None:
        out = np.empty(size, dtype=dtype)
        flat = out.reshape(-1)
        pairs = flat.size // 2
        draws = _c_serving(rng, flat, pairs)
        if draws is not None and draws.labels(rng, flat[: 2 * pairs], shift):
            if flat.size % 2:
                flat[-1] = rng.integers(0, n, size=1, dtype=np.int64)[0]
            return out
    return rng.integers(0, n, size=size, dtype=np.int64).astype(dtype, copy=False)


def _set_where(
    rng: np.random.Generator, flat: np.ndarray, p: float, below: bool, value: int
) -> None:
    """``flat[i] = value`` wherever ``(rng.random() < p) == below``.

    One draw per entry, as ``rng.random(flat.size)`` consumes them: in C
    where the C draws serve ``rng``, ``flat``'s dtype and its size, else
    through that NumPy call.
    """
    draws = _c_serving(rng, flat, flat.size)
    if draws is not None:
        draws.set_where(rng, flat, p, below, value)
    else:
        flat[(rng.random(flat.size) < p) == below] = value


def _integer_labels(values, what: str) -> np.ndarray:
    """``values`` as int64 labels; ``ConfigurationError`` unless integer-typed.

    An int64 cast would truncate a float silently (1.9 to label 1, and
    -0.5 to label 0 instead of idle), read a bool as labels 0 and 1, and
    wrap an unsigned label past the int64 range (2**64 - 1 to idle), so
    that range is checked in the array's own dtype first.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ConfigurationError(
            f"{what} must have an integer dtype (output labels, with -1 marking "
            f"idle inputs); got dtype {values.dtype}"
        )
    top = int(values.max()) if values.size else 0
    if top > np.iinfo(np.int64).max:
        raise ConfigurationError(
            f"{what}: out-of-range destination {top} (labels must fit int64)"
        )
    return values.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class DrawDescriptor:
    """A chunk of a model as raw ``PCG64`` words: what a consumer that draws
    the words itself (the native lane kernel) needs to reproduce
    :meth:`TrafficGenerator.generate_batch` bit for bit.

    A chunk of ``m`` cycles consumes, in order: ``m * n_inputs / 2`` label
    words (entry ``(c, i)`` is half ``i % 2`` of word ``(c * n_inputs + i)
    // 2``, low half first, ``>> shift``), or none where ``pattern`` gives
    every cycle's destinations; then, if ``hot`` is set, ``m * n_inputs``
    words, entry ``(c, i)`` becoming ``value`` where ``(word >= bound) ==
    ge`` on word ``c * n_inputs + i``; then, if ``rate`` is set, as many
    words again, which set ``IDLE`` the same way.
    """

    n_inputs: int
    n_outputs: int
    #: Label draws: each 32-bit half ``>> shift``; ``None`` with a pattern.
    shift: Optional[int] = None
    #: The fixed destinations (read-only int64), or ``None``.
    pattern: Optional[np.ndarray] = None
    #: ``(bound, ge, value)`` of the hot-spot draws, or ``None``.
    hot: Optional[tuple[int, bool, int]] = None
    #: ``(bound, ge)`` of the rate draws, or ``None`` at full rate.
    rate: Optional[tuple[int, bool]] = None


def _rate_draws(rate: float) -> Optional[tuple[int, bool]]:
    """The rate draws of :meth:`TrafficGenerator._apply_rate`, as a threshold."""
    return None if rate >= 1.0 else _threshold(rate, False)


class TrafficGenerator:
    """Base class: a callable source of per-cycle destination vectors."""

    #: See :meth:`draw_descriptor`.
    _draws: Optional[DrawDescriptor] = None

    def __init__(self, n_inputs: int, n_outputs: int):
        if n_inputs < 1 or n_outputs < 1:
            raise ConfigurationError("traffic needs positive terminal counts")
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs

    def generate(self, rng: np.random.Generator) -> np.ndarray:
        """Return this cycle's demands (``int64[n_inputs]``, ``-1`` = idle)."""
        raise NotImplementedError

    def generate_batch(
        self, rng: np.random.Generator, batch: int, dtype=np.int64
    ) -> np.ndarray:
        """Return ``batch`` cycles of demands at once (``dtype[batch, n_inputs]``).

        ``dtype`` must be a signed integer dtype that holds every output
        label (:meth:`_check_chunk`); the result equals the ``int64``
        chunk cast to it, and the stream consumed does not depend on it.
        The base implementation stacks ``batch`` sequential
        :meth:`generate` calls, so any subclass batches correctly; the
        built-in generators override it with fully vectorized draws (which
        consume the stream in a different order than sequential calls —
        equally distributed, but a chunked measurement is only
        reproducible for a fixed chunk size).
        """
        dtype = self._check_chunk(batch, dtype)
        if batch == 0:
            return np.empty((0, self.n_inputs), dtype=dtype)
        return np.stack([self.generate(rng) for _ in range(batch)]).astype(
            dtype, copy=False
        )

    def _check_chunk(self, batch: int, dtype) -> np.dtype:
        """Check a :meth:`generate_batch` request; ``dtype`` as a ``np.dtype``.

        ``batch`` must be non-negative, and ``dtype`` a signed integer type
        whose maximum is at least ``n_outputs - 1``: an unsigned one cannot
        hold ``IDLE``, and a narrower one would wrap a label into another
        label or into ``IDLE``.  Every built-in override calls it first.
        """
        if batch < 0:
            raise ConfigurationError(f"batch size must be non-negative, got {batch}")
        try:
            dtype = np.dtype(dtype)
        except TypeError:
            raise ConfigurationError(f"not a demand dtype: {dtype!r}") from None
        if dtype.kind != "i" or (1 << (8 * dtype.itemsize - 1)) < self.n_outputs:
            raise ConfigurationError(
                f"demands need a signed integer dtype that holds label "
                f"{self.n_outputs - 1}, got {dtype}"
            )
        return dtype

    def draw_descriptor(self) -> Optional[DrawDescriptor]:
        """How :meth:`generate_batch` uses its words, or ``None``.

        Set by the models whose chunks are fixed functions of raw ``PCG64``
        words (:class:`UniformTraffic` and :class:`HotspotTraffic` with a
        power-of-two output count and an even input count, and
        :class:`FixedPattern`); every other model returns ``None``.
        """
        return self._draws

    def describe(self) -> str:
        """The canonical workload spec string this model round-trips through.

        Every model built by :func:`repro.workloads.registry.make_traffic`
        returns a string that :func:`~repro.workloads.registry.parse_workload`
        accepts and that rebuilds an equivalent model.  Hand-constructed
        generators without a spec form raise :class:`ConfigurationError`.
        """
        raise ConfigurationError(
            f"{type(self).__name__} has no workload spec form; "
            "construct it through repro.workloads.make_traffic to get one"
        )

    def _apply_rate(self, dests: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
        """Idle each entry independently with probability ``1 - rate``.

        Works on a single cycle vector or a ``(batch, n_inputs)`` matrix.
        ``dests`` is thinned in place and returned, so it must be a fresh
        array the caller owns, never a model's stored pattern.  At full
        rate nothing is drawn.
        """
        if rate >= 1.0:
            return dests
        flat = dests.reshape(-1)  # a view of a fresh chunk (else a copy, returned)
        _set_where(rng, flat, rate, False, IDLE)
        return flat.reshape(dests.shape)


def _label_draws(model, hot=None) -> Optional[DrawDescriptor]:
    """The descriptor of a uniform (or hot-spot) model's chunks, where its
    labels are whole 32-bit halves: a power-of-two output count, and an
    even input count, so every cycle starts on a whole word."""
    shift = _label_shift(model.n_outputs)
    if shift is None or model.n_inputs % 2:
        return None
    return DrawDescriptor(
        model.n_inputs, model.n_outputs, shift=shift, hot=hot, rate=_rate_draws(model.rate)
    )


def _check_rate(rate: float) -> float:
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"rate must lie in [0, 1], got {rate}")
    return rate


def _rate_suffix(rate: float) -> str:
    return "" if rate >= 1.0 else f",rate={rate:g}"


class UniformTraffic(TrafficGenerator):
    """Uniform independent destinations at request rate ``r`` (Section 3.2).

    Every input issues a request with probability ``r``, addressed to an
    output chosen uniformly and independently — exactly the assumptions
    under which Eq. 4 is derived.
    """

    def __init__(self, n_inputs: int, n_outputs: int, rate: float = 1.0):
        super().__init__(n_inputs, n_outputs)
        self.rate = _check_rate(rate)
        self._draws = _label_draws(self)

    def generate(self, rng: np.random.Generator) -> np.ndarray:
        dests = _integers(rng, self.n_outputs, self.n_inputs)
        return self._apply_rate(dests, self.rate, rng)

    def generate_batch(
        self, rng: np.random.Generator, batch: int, dtype=np.int64
    ) -> np.ndarray:
        dtype = self._check_chunk(batch, dtype)
        dests = _integers(rng, self.n_outputs, (batch, self.n_inputs), dtype)
        return self._apply_rate(dests, self.rate, rng)

    def describe(self) -> str:
        return "uniform" if self.rate >= 1.0 else f"uniform:{self.rate:g}"


class PermutationTraffic(TrafficGenerator):
    """A fresh uniform random (partial) permutation every cycle.

    Requires ``n_inputs <= n_outputs``; each input gets a distinct output.
    With ``rate < 1`` a random subset of inputs participates, which is the
    "partial permutation" regime of Eq. 5.
    """

    def __init__(self, n_inputs: int, n_outputs: int, rate: float = 1.0):
        super().__init__(n_inputs, n_outputs)
        if n_inputs > n_outputs:
            raise ConfigurationError(
                f"a permutation needs n_inputs <= n_outputs, got {n_inputs} > {n_outputs}"
            )
        self.rate = _check_rate(rate)

    def generate(self, rng: np.random.Generator) -> np.ndarray:
        dests = rng.permutation(self.n_outputs)[: self.n_inputs].astype(np.int64)
        return self._apply_rate(dests, self.rate, rng)

    def generate_batch(
        self, rng: np.random.Generator, batch: int, dtype=np.int64
    ) -> np.ndarray:
        dtype = self._check_chunk(batch, dtype)
        outputs = np.broadcast_to(
            np.arange(self.n_outputs, dtype=dtype), (batch, self.n_outputs)
        )
        dests = rng.permuted(outputs, axis=1)[:, : self.n_inputs]
        return self._apply_rate(np.ascontiguousarray(dests), self.rate, rng)

    def describe(self) -> str:
        return "permutation" if self.rate >= 1.0 else f"permutation:{self.rate:g}"


class FixedPattern(TrafficGenerator):
    """The same destination vector every cycle (e.g. the identity of Figure 5).

    ``rate < 1`` thins the pattern independently each cycle (a random
    subset of the pattern's sources fires), which turns any structured
    permutation into its partial-participation variant.
    """

    def __init__(
        self,
        dests: np.ndarray | list[int],
        n_outputs: int,
        rate: float = 1.0,
        label: Optional[str] = None,
    ):
        dests = _integer_labels(dests, "fixed pattern destinations")
        super().__init__(len(dests), n_outputs)
        # Idle entries are exactly IDLE, the smallest valid value, so two
        # reductions bound every live entry.
        if dests.size and (dests.min() < IDLE or dests.max() >= n_outputs):
            raise ConfigurationError("fixed pattern contains out-of-range destinations")
        self.dests = dests
        self.rate = _check_rate(rate)
        self.label = label
        pattern = np.ascontiguousarray(dests).view()
        pattern.flags.writeable = False
        self._draws = DrawDescriptor(
            self.n_inputs, n_outputs, pattern=pattern, rate=_rate_draws(self.rate)
        )

    def generate(self, rng: np.random.Generator) -> np.ndarray:
        return self._apply_rate(self.dests.copy(), self.rate, rng)

    def generate_batch(
        self, rng: np.random.Generator, batch: int, dtype=np.int64
    ) -> np.ndarray:
        dtype = self._check_chunk(batch, dtype)
        # ``np.tile`` always copies, so thinning never touches ``self.dests``.
        rows = np.tile(self.dests.astype(dtype, copy=False), (batch, 1))
        return self._apply_rate(rows, self.rate, rng)

    def describe(self) -> str:
        if self.label is None:
            return super().describe()
        return self.label


class HotspotTraffic(TrafficGenerator):
    """Uniform traffic with a hot output: the classic NUTS stressor.

    With probability ``hot_fraction`` a request targets ``hot_output``;
    otherwise it is uniform over all outputs.  Multipath networks (``c > 1``)
    degrade far more gracefully here than single-path deltas, which is the
    paper's Section 1 motivation for EDNs; the ``nuts`` benchmark
    quantifies it.
    """

    def __init__(
        self,
        n_inputs: int,
        n_outputs: int,
        rate: float = 1.0,
        hot_fraction: float = 0.1,
        hot_output: int = 0,
    ):
        super().__init__(n_inputs, n_outputs)
        if not 0.0 <= hot_fraction <= 1.0:
            raise ConfigurationError(f"hot_fraction must lie in [0, 1], got {hot_fraction}")
        if not 0 <= hot_output < n_outputs:
            raise ConfigurationError(f"hot_output {hot_output} out of range")
        self.rate = _check_rate(rate)
        self.hot_fraction = hot_fraction
        self.hot_output = hot_output
        self._draws = _label_draws(self, (*_threshold(hot_fraction, True), hot_output))

    def generate(self, rng: np.random.Generator) -> np.ndarray:
        return self._draw(rng, self.n_inputs, np.int64)

    def generate_batch(
        self, rng: np.random.Generator, batch: int, dtype=np.int64
    ) -> np.ndarray:
        return self._draw(rng, (batch, self.n_inputs), self._check_chunk(batch, dtype))

    def _draw(self, rng: np.random.Generator, shape, dtype) -> np.ndarray:
        dests = _integers(rng, self.n_outputs, shape, dtype)
        _set_where(rng, dests.reshape(-1), self.hot_fraction, True, self.hot_output)
        return self._apply_rate(dests, self.rate, rng)

    def describe(self) -> str:
        parts = f"hotspot:{self.hot_fraction:g}"
        if self.hot_output != 0:
            parts += f",out={self.hot_output}"
        return parts + _rate_suffix(self.rate)


class BurstyTraffic(TrafficGenerator):
    """On/off bursts: each source alternates ``on`` busy and ``off`` idle cycles.

    Per batch, every source draws an independent uniform random phase of
    the ``on + off``-cycle square wave; while *on* it issues uniform random
    destinations at rate ``rate``, while *off* it is idle.  The marginal
    offered load is ``rate * on / (on + off)`` — identical to uniform
    traffic at that rate — but requests arrive temporally clustered, the
    burst regime under which buffered MINs exhibit tree saturation (the
    hot-spot literature's companion stressor to NUTS).  Both paths are
    fully vectorized; the single-cycle path re-draws phases each call, so
    cycles are only correlated *within* a batched chunk.
    """

    def __init__(
        self,
        n_inputs: int,
        n_outputs: int,
        on: int = 8,
        off: int = 24,
        rate: float = 1.0,
    ):
        super().__init__(n_inputs, n_outputs)
        if on < 1:
            raise ConfigurationError(f"burst length `on` must be >= 1, got {on}")
        if off < 0:
            raise ConfigurationError(f"idle length `off` must be >= 0, got {off}")
        self.on = on
        self.off = off
        self.rate = _check_rate(rate)

    @property
    def duty_cycle(self) -> float:
        """Fraction of cycles each source spends in a burst."""
        return self.on / (self.on + self.off)

    def generate(self, rng: np.random.Generator) -> np.ndarray:
        return self.generate_batch(rng, 1)[0]

    def generate_batch(
        self, rng: np.random.Generator, batch: int, dtype=np.int64
    ) -> np.ndarray:
        dtype = self._check_chunk(batch, dtype)
        period = self.on + self.off
        phase = _integers(rng, period, self.n_inputs)
        ticks = (phase[None, :] + np.arange(batch)[:, None]) % period
        dests = _integers(rng, self.n_outputs, (batch, self.n_inputs), dtype)
        np.copyto(dests, IDLE, where=ticks >= self.on)
        return self._apply_rate(dests, self.rate, rng)

    def describe(self) -> str:
        return f"bursty:on={self.on},off={self.off}" + _rate_suffix(self.rate)


class MixtureTraffic(TrafficGenerator):
    """Per-request probabilistic mixture of component workloads.

    Each input independently draws its destination from component ``k``
    with probability ``weight_k`` (weights are normalized), modelling the
    blended foreground/background loads real machines see — e.g. mostly
    uniform computation with a hot synchronization variable.  Because the
    choice is per *input*, permutation components contribute their
    marginals rather than whole-cycle permutations.
    """

    def __init__(self, components: Sequence[tuple[TrafficGenerator, float]]):
        if not components:
            raise ConfigurationError("a mixture needs at least one component")
        first = components[0][0]
        super().__init__(first.n_inputs, first.n_outputs)
        for gen, weight in components:
            if (gen.n_inputs, gen.n_outputs) != (self.n_inputs, self.n_outputs):
                raise ConfigurationError(
                    "mixture components must share terminal counts: "
                    f"{gen.n_inputs}x{gen.n_outputs} vs {self.n_inputs}x{self.n_outputs}"
                )
            if weight <= 0:
                raise ConfigurationError(f"mixture weights must be positive, got {weight}")
        total = float(sum(weight for _, weight in components))
        self.components = tuple(gen for gen, _ in components)
        self.weights = tuple(weight / total for _, weight in components)
        self._cumulative = np.cumsum(self.weights)

    def _select(self, draws: list[np.ndarray], rng: np.random.Generator) -> np.ndarray:
        stacked = np.stack(draws)
        pick = np.searchsorted(self._cumulative, rng.random(draws[0].shape), side="right")
        pick = np.minimum(pick, len(draws) - 1)  # guard the u ~ 1.0 float edge
        return np.take_along_axis(stacked, pick[None, ...], axis=0)[0]

    def generate(self, rng: np.random.Generator) -> np.ndarray:
        return self._select([gen.generate(rng) for gen in self.components], rng)

    def generate_batch(
        self, rng: np.random.Generator, batch: int, dtype=np.int64
    ) -> np.ndarray:
        dtype = self._check_chunk(batch, dtype)
        if batch == 0:
            return np.empty((0, self.n_inputs), dtype=dtype)
        return self._select(
            [gen.generate_batch(rng, batch, dtype) for gen in self.components], rng
        )

    def describe(self) -> str:
        return "mixture:" + "+".join(
            f"{gen.describe()}@{weight:g}"
            for gen, weight in zip(self.components, self.weights)
        )


class TraceTraffic(TrafficGenerator):
    """Replay a recorded demand trace cyclically, one row per cycle.

    The trace is a ``(cycles, n_inputs)`` integer matrix (``-1`` = idle),
    typically loaded from a ``.npy`` file via :meth:`from_file` — the
    bridge for driving the networks with demands captured from real
    applications or other simulators.  A cursor walks the rows and wraps,
    so chunked and per-cycle measurements see the identical sequence.
    """

    def __init__(
        self,
        demands: np.ndarray,
        n_outputs: int,
        rate: float = 1.0,
        path: Optional[str] = None,
    ):
        demands = _integer_labels(demands, "trace demands")
        if demands.ndim != 2 or demands.shape[0] < 1:
            raise ConfigurationError(
                f"a trace must be a (cycles, n_inputs) matrix, got shape {demands.shape}"
            )
        super().__init__(demands.shape[1], n_outputs)
        live = demands[demands != IDLE]
        if live.size and (live.min() < 0 or live.max() >= n_outputs):
            raise ConfigurationError("trace contains out-of-range destinations")
        self.demands = demands
        self.rate = _check_rate(rate)
        self.path = path
        self._cursor = 0

    @classmethod
    def from_file(
        cls,
        path: str,
        *,
        n_inputs: Optional[int] = None,
        n_outputs: Optional[int] = None,
        rate: float = 1.0,
    ) -> "TraceTraffic":
        """Load a ``.npy`` trace, checking it fits the target network."""
        try:
            demands = np.load(path, allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot load trace {path!r}: {exc}") from None
        demands = _integer_labels(demands, f"trace {path!r}")
        if demands.ndim == 1:
            demands = demands[None, :]  # a single recorded cycle
        if n_inputs is not None and demands.ndim == 2 and demands.shape[1] != n_inputs:
            raise ConfigurationError(
                f"trace {path!r} has {demands.shape[1]} inputs, network has {n_inputs}"
            )
        if n_outputs is None:
            n_outputs = int(demands.max()) + 1 if demands.size else 1
        return cls(demands, n_outputs, rate=rate, path=str(path))

    def generate(self, rng: np.random.Generator) -> np.ndarray:
        row = self.demands[self._cursor].copy()
        self._cursor = (self._cursor + 1) % len(self.demands)
        return self._apply_rate(row, self.rate, rng)

    def generate_batch(
        self, rng: np.random.Generator, batch: int, dtype=np.int64
    ) -> np.ndarray:
        dtype = self._check_chunk(batch, dtype)
        rows = (self._cursor + np.arange(batch)) % len(self.demands)
        self._cursor = (self._cursor + batch) % len(self.demands)
        # Fancy indexing copies, so thinning never touches ``self.demands``.
        return self._apply_rate(
            self.demands[rows].astype(dtype, copy=False), self.rate, rng
        )

    def describe(self) -> str:
        if self.path is None:
            return super().describe()
        return f"trace:{self.path}" + _rate_suffix(self.rate)


@functools.lru_cache(maxsize=32)
def _reversed_labels(bits: int) -> np.ndarray:
    """The read-only bit-reversal table of ``bits``-bit labels.

    Adding a top label bit doubles the table: the labels without it
    reverse to the old table shifted up, those with it to the same plus
    one (the new bit lands at the bottom).  Cached because every bitrev
    cell of a sweep asks for the same few sizes.
    """
    out = np.zeros(1, dtype=np.int64)
    for _ in range(bits):
        out = np.add.outer((0, 1), out << 1).ravel()
    out.flags.writeable = False
    return out


def _bit_reversal(n: int) -> np.ndarray:
    """Equal to ``[reverse_bits(i, bits) for i in range(n)]``, the reference loop."""
    return _reversed_labels(ilog2(n)).copy()


def _perfect_shuffle(n: int) -> np.ndarray:
    bits = ilog2(n)
    mask = n - 1
    idx = np.arange(n)
    return (((idx << 1) | (idx >> (bits - 1))) & mask).astype(np.int64)


def _transpose(n: int) -> np.ndarray:
    """Matrix transpose on the sqrt(n) x sqrt(n) grid (swap label halves)."""
    bits = ilog2(n)
    if bits % 2:
        raise ConfigurationError(f"transpose needs an even number of label bits, n={n}")
    half = bits // 2
    low_mask = (1 << half) - 1
    idx = np.arange(n)
    return (((idx & low_mask) << half) | (idx >> half)).astype(np.int64)


def _butterfly(n: int) -> np.ndarray:
    """Swap the most and least significant label bits."""
    bits = ilog2(n)
    idx = np.arange(n)
    msb = (idx >> (bits - 1)) & 1
    lsb = idx & 1
    cleared = idx & ~((1 << (bits - 1)) | 1)
    return (cleared | (lsb << (bits - 1)) | msb).astype(np.int64)


def _complement(n: int) -> np.ndarray:
    """Invert every label bit (equals ``reversal`` for power-of-two n)."""
    return (np.arange(n) ^ (n - 1)).astype(np.int64)


def _tornado(n: int) -> np.ndarray:
    """Rotate by ceil(n/2) - 1: the worst-case offset of ring-like fabrics."""
    offset = (n + 1) // 2 - 1
    return ((np.arange(n) + offset) % n).astype(np.int64)


STRUCTURED_PATTERNS: dict[str, Callable[[int], np.ndarray]] = {
    "identity": lambda n: np.arange(n, dtype=np.int64),
    "reversal": lambda n: np.arange(n - 1, -1, -1, dtype=np.int64),
    "bit_reversal": _bit_reversal,
    "shuffle": _perfect_shuffle,
    "transpose": _transpose,
    "butterfly": _butterfly,
    "complement": _complement,
    "tornado": _tornado,
}


def structured_permutation(
    name: str, n: int, rate: float = 1.0, label: Optional[str] = None
) -> FixedPattern:
    """A named structured permutation over ``n`` (a power of two) terminals.

    Available: ``identity``, ``reversal``, ``bit_reversal``, ``shuffle``,
    ``transpose`` (even label width only), ``butterfly``, ``complement``,
    ``tornado``.  These are the standard adversarial patterns for
    banyan-class networks; the paper's Figure 5 discussion ("incapable of
    performing the identity permutation in one pass") is the ``identity``
    entry.  ``rate < 1`` yields the pattern's partial variant.

    ``label`` overrides the spec-name stem in :meth:`FixedPattern.describe`
    (the registry passes its canonical workload name, e.g. ``bitrev`` for
    the ``bit_reversal`` pattern).
    """
    if not is_power_of_two(n):
        raise ConfigurationError(f"structured permutations need power-of-two size, got {n}")
    try:
        builder = STRUCTURED_PATTERNS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown pattern {name!r}; available: {sorted(STRUCTURED_PATTERNS)}"
        ) from None
    stem = label if label is not None else name
    return FixedPattern(
        builder(n), n, rate=rate, label=stem if rate >= 1.0 else f"{stem}:{rate:g}"
    )
