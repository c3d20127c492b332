"""Cycle simulator of permutation routing on RA-EDN systems (Section 5.1).

Implements the paper's operational loop exactly:

1. every cluster with undelivered messages selects one PE (schedule);
2. the selected destination addresses are split into header ``x`` (target
   cluster — routed by the network) and trailer ``y`` (target local PE —
   used only after arrival, so it never causes network conflicts);
3. headers are offered to the ``EDN(bc, b, c, l)``; blocked messages stay
   pending, delivered ones retire;
4. repeat until every message is delivered.

The simulator reports the cycle count per permutation, the drained-per-
cycle trajectory, and summary statistics over many random permutations —
the quantities the Section 5 worked example predicts analytically
(``T ≈ q/PA(1) + J``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.exceptions import ConfigurationError, ScheduleError

if TYPE_CHECKING:
    from repro.api.spec import RunConfig
from repro.sim.batched import BatchedEDN
from repro.sim.rng import SeedLike, make_rng, spawn_keys
from repro.sim.stats import RunningStats
from repro.simd.ra_edn import RAEDNSystem
from repro.simd.schedule import RandomSchedule, Schedule

__all__ = ["PermutationRun", "PermutationTimeStats", "RAEDNSimulator"]

#: Distinguishes "argument not passed" from an explicit ``None`` seed.
_UNSET = object()


@dataclass
class PermutationRun:
    """Outcome of draining one permutation: cycle count and per-cycle deliveries."""

    cycles: int
    delivered_per_cycle: list[int]

    @property
    def total_delivered(self) -> int:
        return sum(self.delivered_per_cycle)


@dataclass
class PermutationTimeStats:
    """Aggregate over many permutations (mean/CI of cycles to completion)."""

    runs: int
    cycles: RunningStats

    @property
    def mean_cycles(self) -> float:
        return self.cycles.mean


class RAEDNSimulator:
    """Simulates SIMD permutation routing on an :class:`RAEDNSystem`.

    >>> sim = RAEDNSimulator(RAEDNSystem(4, 2, 1, 4))   # 8 ports x 4 PEs
    >>> run = sim.route_permutation(seed=0)
    >>> run.total_delivered == sim.system.num_pes
    True
    """

    def __init__(
        self,
        system: RAEDNSystem,
        *,
        schedule: Schedule | None = None,
        priority: str = "label",
    ):
        self.system = system
        self.schedule = schedule if schedule is not None else RandomSchedule()
        # One compiled router serves both drain paths: single cycles
        # (route) and side-by-side runs (route_batch).
        self.network = BatchedEDN(system.network_params, priority=priority)

    def route_permutation(
        self,
        permutation: np.ndarray | None = None,
        *,
        seed: int | None = 0,
        max_cycles: int | None = None,
    ) -> PermutationRun:
        """Drain one permutation of all ``N`` PEs; return the cycle count.

        ``permutation[i]`` is the destination PE (global label) of the
        message originating at PE ``i``; ``None`` draws a uniform random
        permutation.  ``max_cycles`` guards against livelock (default:
        generous multiple of the analytic expectation).
        """
        sys = self.system
        rng = make_rng(seed)
        n = sys.num_pes
        if permutation is None:
            permutation = rng.permutation(n)
        else:
            permutation = np.asarray(permutation, dtype=np.int64)
            if sorted(permutation.tolist()) != list(range(n)):
                raise ConfigurationError(f"not a permutation of 0..{n - 1}")
        if max_cycles is None:
            max_cycles = 100 * sys.q + 1_000

        # dest_cluster[x, y] = header digit of PE y in cluster x.
        dest_cluster = (permutation // sys.q).reshape(sys.num_ports, sys.q)
        pending = np.ones((sys.num_ports, sys.q), dtype=bool)
        delivered_per_cycle: list[int] = []

        for _cycle in range(max_cycles):
            if not pending.any():
                break
            choice = self.schedule.select(pending, rng)
            self._check_schedule(choice, pending)
            offering = choice >= 0
            demands = np.full(sys.num_ports, -1, dtype=np.int64)
            rows = np.flatnonzero(offering)
            demands[rows] = dest_cluster[rows, choice[rows]]
            result = self.network.route(demands, rng)
            winners = rows[result.blocked_stage[rows] == 0]
            pending[winners, choice[winners]] = False
            delivered_per_cycle.append(int(winners.size))
        else:
            raise ConfigurationError(
                f"permutation did not drain within {max_cycles} cycles"
            )

        return PermutationRun(cycles=len(delivered_per_cycle), delivered_per_cycle=delivered_per_cycle)

    def measure(
        self,
        *,
        runs: int = 10,
        seed: SeedLike = _UNSET,
        max_cycles: int | None = None,
        batch: int | None = None,
        config: "RunConfig | None" = None,
    ) -> PermutationTimeStats:
        """Drain ``runs`` random permutations; aggregate cycle counts.

        ``batch`` selects the engine: ``None`` (default) drains runs one
        at a time through :meth:`route_permutation` (the historical,
        seed-stable path); an integer drains up to ``batch`` independent
        permutations *side by side* through the batched network — each
        network cycle routes one demand matrix of shape ``(active_runs,
        ports)``, and a run's row retires as soon as its permutation
        drains.  Both paths spawn per-run streams positionally from
        ``seed`` (see :mod:`repro.sim.rng`), so a given ``(seed, batch)``
        is fully reproducible.

        ``seed`` and ``batch`` may also arrive via a
        :class:`repro.api.RunConfig` (``config``); set config fields win
        (the facade-wide precedence rule), keywords act as defaults, and
        an unset seed falls back to the historical default ``0``.
        """
        if config is not None:
            batch = config.batch if config.batch is not None else batch
            if config.seed is not None:
                seed = config.seed
        if seed is _UNSET:
            seed = 0
        if runs < 1:
            raise ConfigurationError("need at least one run")
        acc = RunningStats()
        if batch is None:
            for child in spawn_keys(seed, runs):
                run = self.route_permutation(seed=child, max_cycles=max_cycles)
                acc.push(run.cycles)
        else:
            if batch < 1:
                raise ConfigurationError(f"batch must be >= 1, got {batch}")
            for cycles in self._drain_batched(runs, seed, max_cycles, batch):
                acc.push(cycles)
        return PermutationTimeStats(runs=runs, cycles=acc)

    def _drain_batched(
        self, runs: int, seed: SeedLike, max_cycles: int | None, batch: int
    ) -> np.ndarray:
        """Cycle counts of ``runs`` random permutations, drained in groups.

        Child streams ``0..runs-1`` draw each run's permutation *and* its
        schedule choices (mirroring :meth:`route_permutation`'s single
        stream per run); every run also gets its *own clone* of the
        schedule, so stateful schedules (round-robin cursors) keep true
        per-run semantics instead of sharing state across interleaved
        runs, and ``_check_schedule`` still applies.  Child ``runs``
        drives network contention under random priority.  Each cycle the
        active runs' selections stack into one ``(active, ports)`` demand
        matrix for :meth:`~repro.sim.batched.CompiledStageRouter.route_batch` —
        the network, not the scheduling, is the hot loop this batches.
        """
        sys = self.system
        n = sys.num_pes
        ports, q = sys.num_ports, sys.q
        if max_cycles is None:
            max_cycles = 100 * q + 1_000
        *run_keys, engine_key = spawn_keys(seed, runs + 1)
        engine_rng = make_rng(engine_key)
        cycle_counts = np.zeros(runs, dtype=np.int64)

        for start in range(0, runs, batch):
            group = range(start, min(start + batch, runs))
            run_rngs = [make_rng(run_keys[i]) for i in group]
            run_schedules = [copy.deepcopy(self.schedule) for _ in group]
            perms = np.stack([rng.permutation(n) for rng in run_rngs])
            dest_cluster = (perms // q).reshape(len(group), ports, q)
            pending = np.ones((len(group), ports, q), dtype=bool)
            active = np.arange(len(group))
            cycle = 0
            while active.size:
                cycle += 1
                if cycle > max_cycles:
                    raise ConfigurationError(
                        f"permutation did not drain within {max_cycles} cycles"
                    )
                choice = np.stack(
                    [
                        run_schedules[run].select(pending[run], run_rngs[run])
                        for run in active
                    ]
                )
                for row, run in enumerate(active):
                    self._check_schedule(choice[row], pending[run])
                run_idx, port_idx = np.nonzero(choice >= 0)
                demands = np.full((active.size, ports), -1, dtype=np.int64)
                selected = choice[run_idx, port_idx]
                demands[run_idx, port_idx] = dest_cluster[
                    active[run_idx], port_idx, selected
                ]
                result = self.network.route_batch(demands, engine_rng)
                won = result.blocked_stage[run_idx, port_idx] == 0
                pending[active[run_idx[won]], port_idx[won], selected[won]] = False
                drained = ~pending[active].any(axis=(1, 2))
                if drained.any():
                    cycle_counts[start + active[drained]] = cycle
                    active = active[~drained]
        return cycle_counts

    @staticmethod
    def _check_schedule(choice: np.ndarray, pending: np.ndarray) -> None:
        selected = choice >= 0
        rows = np.flatnonzero(selected)
        if rows.size and not pending[rows, choice[rows]].all():
            raise ScheduleError("schedule selected a PE with no pending message")
        empty = ~pending.any(axis=1)
        if (selected & empty).any():
            raise ScheduleError("schedule selected from an empty cluster")
