"""Shared worker-pool supervision: deadline waits, loss detection, retry.

Two consumers shard work across a ``ProcessPoolExecutor`` and must survive
worker death and stalls: :class:`~repro.experiments.parallel.ParallelSweep`
(one-shot experiment grids) and the :mod:`repro.serve.server` cell pool
(long-running service).  This module is the supervision machinery both
lean on, generalized out of ``ParallelSweep``'s original retry loop:

* :func:`fork_context` — the preferred multiprocessing context (``fork``
  shares loaded numpy state and already-compiled routing plans with
  workers for free; platform default where fork is unavailable).
* :func:`run_shards` — one fan-out pass over a pool with *deadline-based*
  collection: every shard's timeout clock starts when the shard starts
  *running* (not when an earlier shard's result was collected), so one
  slow shard can no longer extend every later shard's effective deadline —
  total wall is bounded by the slowest healthy chain, not ``n x timeout``.
  Returns which shards were lost to worker death or deadline expiry;
  ordinary worker exceptions are bugs and propagate immediately.
* :class:`RetryLedger` — per-shard attempt bookkeeping with a shared
  attempt bound: ``charge`` a loss, learn whether the shard may run again.
* :func:`supervised_map` — the full policy: fan out, then retry lost
  shards exactly once on a fresh pool after a short backoff (a dead
  worker poisons its whole pool, and an abandoned stalled worker may
  never return, so the retry pool must be fresh).  Safe because shards
  are pure functions of their payload: a rerun reproduces the lost
  result bit for bit.

The asyncio server reuses :func:`fork_context`, :class:`RetryLedger`,
and the module's policy constants, applying the same
fresh-pool/resubmit/attempt-bound discipline cell by cell instead of
batch by batch.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional, Sequence

__all__ = [
    "RETRY_BACKOFF",
    "MAX_ATTEMPTS",
    "RetryLedger",
    "ShardRun",
    "fork_context",
    "run_shards",
    "supervised_map",
]

#: Seconds to wait before retrying lost shards on a fresh pool.
RETRY_BACKOFF = 0.25

#: Times one shard may run before it is declared failed (1 + one retry).
MAX_ATTEMPTS = 2

#: Deadline-poll granularity (seconds); also bounds how stale the
#: observed "shard started running" timestamps can be.
_TICK = 0.05


def fork_context():
    """The multiprocessing context supervised pools are built from.

    ``fork`` shares the loaded numpy/scipy state *and* every routing plan
    the parent has already compiled (each worker starts with a warm
    per-process plan cache — including any native-backend kernels riding
    the plans, so workers skip the kernel build too; the native kernel's
    on-disk build cache covers spawn-started workers as well); platforms without
    fork fall back to their default context (workers start cold and
    compile on first use).
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class RetryLedger:
    """Attempt bookkeeping for shards lost to worker death or deadlines.

    >>> ledger = RetryLedger(max_attempts=2)
    >>> ledger.charge("cell-a")   # first loss: may retry
    True
    >>> ledger.charge("cell-a")   # second loss: give up
    False
    >>> ledger.retried
    ('cell-a',)
    """

    def __init__(self, max_attempts: int = MAX_ATTEMPTS):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self._losses: dict[Hashable, int] = {}

    def charge(self, key: Hashable) -> bool:
        """Record one loss of ``key``; True while another attempt remains."""
        self._losses[key] = self._losses.get(key, 0) + 1
        return self._losses[key] < self.max_attempts

    def forgive(self, key: Hashable) -> None:
        """Drop ``key``'s loss record (it completed on a later attempt)."""
        self._losses.pop(key, None)

    @property
    def retried(self) -> tuple:
        """Keys that have been charged at least once, in first-loss order."""
        return tuple(self._losses)


@dataclass
class ShardRun:
    """Outcome of one :func:`run_shards` pass."""

    #: shard index -> worker return value, for shards that completed.
    results: dict[int, object] = field(default_factory=dict)
    #: Shards lost to worker death or deadline expiry, ascending.
    lost: list[int] = field(default_factory=list)
    #: True when any loss was a deadline expiry — the stalled worker was
    #: abandoned mid-task, so the pool must not be waited on at shutdown.
    timed_out: bool = False


def run_shards(
    pool: ProcessPoolExecutor,
    target: Callable,
    payloads: Sequence,
    indices: Sequence[int],
    *,
    jobs: int,
    timeout: Optional[float] = None,
) -> ShardRun:
    """One supervised fan-out pass: submit ``indices``, collect with deadlines.

    Each shard's deadline is ``timeout`` seconds from the moment it is
    first observed *running* (observation granularity :data:`_TICK`), so
    queued shards waiting behind a busy-but-healthy pool are never
    penalized for queue time, and a stalled shard is charged only for its
    own stall.  A shard whose worker dies (``BrokenProcessPool``) or
    whose deadline expires lands in ``lost``; once every pool slot is
    pinned by an expired shard the remaining queue can never start and is
    declared lost wholesale.  Worker exceptions propagate.
    """
    run = ShardRun()
    futures = {}
    for index in indices:
        try:
            futures[index] = pool.submit(target, payloads[index])
        except BrokenProcessPool:
            break  # pool already poisoned: remaining shards are lost
    run.lost.extend(index for index in indices if index not in futures)

    deadlines: dict[int, float] = {}
    expired_running = 0  # each one pins a worker slot until pool teardown
    pending = dict(futures)
    while pending:
        wait(pending.values(), timeout=_TICK if timeout is not None else None,
             return_when=FIRST_COMPLETED)
        now = time.monotonic()
        for index, future in list(pending.items()):
            if future.done():
                del pending[index]
                deadlines.pop(index, None)
                try:
                    run.results[index] = future.result()
                except BrokenProcessPool:
                    run.lost.append(index)
                continue
            if timeout is None:
                continue
            if future.running() and index not in deadlines:
                deadlines[index] = now + timeout
            elif deadlines.get(index, float("inf")) <= now:
                # Expired mid-run: abandon the shard (its worker may never
                # return) but keep collecting the others.
                del pending[index]
                del deadlines[index]
                run.lost.append(index)
                run.timed_out = True
                expired_running += 1
        if expired_running >= jobs and pending:
            # Every worker slot is pinned by an abandoned shard: nothing
            # still queued can ever start on this pool.
            run.lost.extend(pending)
            pending.clear()
    run.lost.sort()
    return run


def supervised_map(
    target: Callable,
    payloads: Sequence,
    *,
    jobs: int,
    timeout: Optional[float] = None,
    max_attempts: int = MAX_ATTEMPTS,
    backoff: float = RETRY_BACKOFF,
) -> tuple[list, tuple[int, ...]]:
    """Map ``target`` over ``payloads`` across processes, surviving loss.

    Returns ``(results_in_payload_order, retried_shard_indices)``.
    Shards lost to worker death or deadline expiry are resubmitted on a
    fresh pool (up to ``max_attempts`` runs each, after ``backoff``
    seconds); shards that exhaust their attempts raise ``RuntimeError``.
    """
    ctx = fork_context()
    results: list = [None] * len(payloads)
    ledger = RetryLedger(max_attempts)
    outstanding = list(range(len(payloads)))
    attempt = 0
    while outstanding:
        if attempt > 0:
            time.sleep(backoff)
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(outstanding)), mp_context=ctx
        )
        run = ShardRun()  # pre-bound so the finally sees it if run_shards raises
        try:
            run = run_shards(
                pool, target, payloads, outstanding,
                jobs=min(jobs, len(outstanding)), timeout=timeout,
            )
        finally:
            # An abandoned stalled worker may never return; do not wait on
            # it.  Cancelling is harmless: nothing we still care about is
            # queued (lost shards rerun on the next pool).
            pool.shutdown(wait=not run.timed_out, cancel_futures=True)
        for index, value in run.results.items():
            results[index] = value
        exhausted = [i for i in run.lost if not ledger.charge(i)]
        if exhausted:
            raise RuntimeError(
                f"sweep shards {sorted(exhausted)} failed twice "
                "(worker process died or shard timed out on both tries)"
            )
        outstanding = run.lost
        attempt += 1
    return results, ledger.retried
