"""One-pass permutation admissibility censuses.

Figure 5 exhibits *one* permutation the EDN(64,16,4,2) cannot route in a
single pass; this extension asks how many there are.  A permutation is
*admissible* for a network when every message is delivered in one
circuit-switched pass.  For unique-path deltas the admissible set is the
classical "omega-routable" class of measure zero among all ``N!``
permutations; Theorem 2's multipath enlarges it, and Lemma 2 guarantees the
final two stages never shrink it.

Because contention resolution is work-conserving, admissibility does not
depend on the priority discipline: a permutation routes fully iff no bucket
along the way is oversubscribed, a property of the demand pattern alone.

Exhaustive censuses are exponential (``N!``); the functions below support
both exhaustive enumeration for ``N <= 8`` and Monte-Carlo estimation above
that.  ``network`` is any router with ``route``/``route_batch`` (the
compiled :class:`~repro.sim.batched.BatchedEDN` in the experiments), and
censuses route their permutations in batches.
"""

from __future__ import annotations

from itertools import permutations as iter_permutations
from math import factorial

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.sim.rng import make_rng

__all__ = ["is_admissible", "admissible_fraction"]

_EXHAUSTIVE_LIMIT = 8
#: Permutations routed per ``route_batch`` call during a census.
_CHUNK = 4096


def is_admissible(network, permutation: np.ndarray) -> bool:
    """True iff ``permutation`` routes completely in one pass."""
    permutation = np.asarray(permutation, dtype=np.int64)
    if sorted(permutation.tolist()) != list(range(network.n_outputs)):
        raise ConfigurationError("input must be a full permutation of the outputs")
    result = network.route(permutation)
    return result.num_delivered == network.n_inputs


def _count_admissible(network, permutations: np.ndarray) -> int:
    """How many rows of a ``(k, N)`` permutation matrix route in one pass."""
    good = 0
    for start in range(0, len(permutations), _CHUNK):
        result = network.route_batch(permutations[start : start + _CHUNK])
        good += int((result.delivered_per_cycle == network.n_inputs).sum())
    return good


def admissible_fraction(
    network,
    *,
    samples: int | None = None,
    seed: int | None = 0,
) -> tuple[float, int]:
    """Fraction of all permutations routable in one pass.

    Exhaustive when the network has at most 8 terminals and ``samples`` is
    None; otherwise a Monte-Carlo estimate over ``samples`` uniform random
    permutations (default 2000).  Returns ``(fraction, population)`` where
    ``population`` is the number of permutations examined.
    """
    n = network.n_inputs
    if network.n_outputs != n:
        raise ConfigurationError("admissibility census needs a square network")
    if samples is None and n <= _EXHAUSTIVE_LIMIT:
        every = np.array(list(iter_permutations(range(n))), dtype=np.int64)
        return _count_admissible(network, every) / factorial(n), factorial(n)
    if samples is None:
        samples = 2_000
    rng = make_rng(seed)
    drawn = np.array([rng.permutation(n) for _ in range(samples)], dtype=np.int64)
    return _count_admissible(network, drawn) / samples, samples
