"""Multi-pass permutation routing over a bare EDN.

Section 5 drains permutations from *clusters*; this module answers the
simpler question underneath it: how many circuit-switched passes does the
bare network need to deliver a full permutation when blocked messages
simply retry next pass?  (The SIMD literature's standard figure of merit —
"route an arbitrary permutation in a reasonable time".)

The expected pass count follows the same drain recursion as Section 5 with
``q = 1``: pass ``j`` delivers a ``PAp(r_j)``-ish fraction of the
survivors.  The function below measures it exactly by simulation, and the
``perm_pa`` benchmark family uses it to compare retirement orders and
capacities on structured permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import ConfigurationError, RoutingError

__all__ = ["MultipassResult", "route_permutation_multipass"]


@dataclass
class MultipassResult:
    """Outcome of draining one permutation through repeated passes.

    ``delivered_per_pass[k]`` counts first-time deliveries in pass ``k``;
    passes continue until every message has been delivered once.
    """

    passes: int
    delivered_per_pass: list[int]

    @property
    def total(self) -> int:
        return sum(self.delivered_per_pass)


def route_permutation_multipass(
    network,
    permutation: np.ndarray,
    *,
    max_passes: int = 10_000,
    rng: np.random.Generator | None = None,
) -> MultipassResult:
    """Deliver every message of ``permutation``, one network pass at a time.

    ``network`` is any cycle router (``route(dests, rng)``, e.g. a
    :class:`~repro.sim.batched.BatchedEDN`).  Each pass offers all
    still-undelivered messages from their sources; delivered ones retire.  Deterministic under label priority (no ``rng``
    needed); pass one when the network uses a random discipline.
    """
    n = network.n_inputs
    permutation = np.asarray(permutation, dtype=np.int64)
    if sorted(permutation.tolist()) != list(range(network.n_outputs)) or n != len(
        permutation
    ):
        raise ConfigurationError("input must be a full permutation of the outputs")

    pending = np.ones(n, dtype=bool)
    delivered_per_pass: list[int] = []
    for _ in range(max_passes):
        if not pending.any():
            break
        demands = np.where(pending, permutation, -1)
        result = network.route(demands, rng)
        newly = (result.blocked_stage == 0) & pending
        pending[newly] = False
        delivered_per_pass.append(int(newly.sum()))
        if delivered_per_pass[-1] == 0 and pending.any():
            # Unreachable for valid input: every contended bucket grants at
            # least one request, so each pass delivers >= 1 message.
            raise RoutingError("pass delivered nothing - routing invariant violated")
    else:
        raise ConfigurationError(f"permutation not drained within {max_passes} passes")

    return MultipassResult(passes=len(delivered_per_pass), delivered_per_pass=delivered_per_pass)
