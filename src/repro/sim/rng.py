"""Seeded random-number streams for reproducible simulations.

Every stochastic component of the library (traffic generators, random
contention discipline, random schedules) takes an explicit
``numpy.random.Generator``.  This module centralizes their creation so that

* a single integer seed reproduces an entire experiment;
* independent subsystems (e.g. traffic vs. switch tie-breaking) get
  *statistically independent* streams via ``SeedSequence.spawn`` rather than
  sharing one generator, which keeps results stable when one consumer
  changes how much randomness it draws.

Seed-like values
----------------
Every entry point accepts a ``SeedLike`` — ``int`` (a reproducible master
seed), ``numpy.random.SeedSequence`` (an already-derived spawn point),
``numpy.random.Generator`` (adopted as-is, or spawned from), or ``None``
(fresh OS entropy).  The deterministic spawn scheme used throughout the
batch and sweep APIs is: child ``i`` of ``n`` is
``SeedSequence(seed).spawn(n)[i]`` — assigned by *position*, so results are
independent of worker scheduling, chunking, and job count.
"""

from __future__ import annotations

import zlib
from typing import Union

import numpy as np

__all__ = ["SeedLike", "as_generator", "make_rng", "spawn", "spawn_keys", "stream_for"]

#: Anything the library accepts as a reproducibility seed.
SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """A PCG64 generator from ``seed`` (None = OS entropy).

    An existing :class:`~numpy.random.Generator` is returned unchanged, so
    callers can thread one stream through layered APIs without re-seeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_generator(rng: SeedLike) -> "np.random.Generator | None":
    """Normalize a seed-like *routing* argument; ``None`` passes through.

    Route methods historically took an optional ``numpy.random.Generator``
    whose absence means "no randomness needed" — so unlike :func:`make_rng`,
    ``None`` here stays ``None`` instead of becoming OS entropy.  Ints and
    ``SeedSequence`` values become deterministic fresh generators, letting
    callers write ``net.route(dests, rng=42)``.
    """
    if rng is None or isinstance(rng, np.random.Generator):
        return rng
    return make_rng(rng)


def spawn(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """``n`` independent generators derived from one master seed.

    Children are assigned by position (see the module docstring), so the
    ``i``-th stream is identical no matter how many siblings are consumed
    or in which order.
    """
    return [make_rng(key) for key in spawn_keys(seed, n)]


def spawn_keys(seed: SeedLike, n: int) -> list:
    """``n`` independent, *picklable* child seeds from one master seed.

    For ``int``/``SeedSequence``/``None`` seeds the children are
    ``SeedSequence`` objects; for a ``Generator`` they are spawned child
    generators (both pickle cleanly, so either can cross a process
    boundary to a :class:`~repro.experiments.parallel.ParallelSweep`
    worker).  Feed each child to :func:`make_rng`.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} children")
    if isinstance(seed, np.random.Generator):
        return list(seed.spawn(n))
    if isinstance(seed, np.random.SeedSequence):
        return list(seed.spawn(n))
    return list(np.random.SeedSequence(seed).spawn(n))


def stream_for(seed: int | None, *names: str) -> np.random.Generator:
    """A generator keyed by a hierarchical name, independent across names.

    ``stream_for(42, "mimd", "traffic")`` always returns the same stream,
    and it is independent of ``stream_for(42, "mimd", "switch")``.  Names
    are hashed into spawn keys, so adding a new named stream never perturbs
    existing ones.  The hash is CRC-32 of the UTF-8 name, not the built-in
    ``hash()``, which is salted per interpreter: the stream is the same in
    every process.
    """
    entropy = [np.uint32(zlib.crc32(name.encode("utf-8"))) for name in names]
    root = np.random.SeedSequence(entropy=[seed if seed is not None else 0, *entropy])
    return np.random.default_rng(root)
