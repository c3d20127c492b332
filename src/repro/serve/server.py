"""The asyncio simulation server: jobs in, deduped streamed results out.

One :class:`SimulationServer` owns four cooperating pieces:

* an **asyncio protocol loop** (TCP or Unix socket, JSON lines — see
  :mod:`repro.serve.protocol`) serving any number of concurrent clients;
* a **content-keyed result cache** (:mod:`repro.serve.cache`): a cell
  whose :meth:`~repro.api.jobs.SweepCell.key` was ever computed is
  answered from memory, byte-identically;
* an **in-flight registry** coalescing concurrent identical cells: two
  clients submitting the same cell at the same time trigger one
  computation and both stream its events;
* a **supervised worker pool** (``ProcessPoolExecutor`` over
  :func:`~repro.serve.supervisor.fork_context`): cache misses are
  sharded across worker processes whose per-process
  :mod:`repro.sim.plan` caches stay warm across cells (fork workers
  additionally inherit plans the parent already compiled).  A cell whose
  worker dies or stalls past ``shard_timeout`` is resubmitted on a
  rebuilt pool under the shared :class:`~repro.serve.supervisor.RetryLedger`
  attempt bound — the same policy :class:`ParallelSweep` applies to
  sweep shards.

Partial results: workers push ``(key, cycles, interval)`` checkpoints
from :func:`~repro.sim.montecarlo.measure_acceptance`'s chunk-boundary
``progress`` hook onto a fork-inherited multiprocessing queue; a drain
thread forwards them into the event loop, which fans each one out to
every client subscribed to that cell as a ``partial`` message.  Adaptive
cells (``rel_err`` set) therefore stream their convergence live.

The blocking pieces of a request (JSON decode, cache lookups) are cheap
and stay on the event loop; all simulation happens in the workers.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import queue as _queue
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Optional

from repro.api.jobs import (
    SweepCell,
    interval_to_payload,
    measure_cell,
    measurement_to_payload,
)
from repro.core.exceptions import EDNError
from repro.serve.cache import DEFAULT_CACHE_SIZE, ResultCache
from repro.serve.protocol import (
    DEFAULT_ADDRESS,
    MAX_MESSAGE_BYTES,
    TcpAddress,
    UnixAddress,
    decode_message,
    encode_message,
    parse_address,
)
from repro.serve.supervisor import MAX_ATTEMPTS, RetryLedger, fork_context
from repro.sim.native import take_pool_share

__all__ = ["SimulationServer", "serve_forever", "start_server_thread", "ServerHandle"]

#: Minimum seconds between partial-progress messages per running cell
#: (workers throttle at the source so a tight chunk loop cannot flood the
#: progress queue).
PROGRESS_INTERVAL = 0.05

#: Base/cap seconds of the exponential pool-rebuild backoff.  Consecutive
#: rebuilds without an intervening successful cell double the delay
#: (jittered deterministically) up to the cap, so a crash-looping fleet
#: of workers cannot saturate the host with fork storms.
REBUILD_BACKOFF = 0.05
REBUILD_BACKOFF_CAP = 2.0

# ----------------------------------------------------------------------
# Worker-process side.  ``_PROGRESS_QUEUE`` is assigned in the parent
# before the pool exists; fork workers inherit the binding (on spawn
# platforms it stays None in workers and partial streaming degrades to
# final results only).
# ----------------------------------------------------------------------

_PROGRESS_QUEUE = None


def _run_cell(item: tuple[str, dict]) -> tuple[str, dict, int, dict]:
    """Pool target: measure one cell; return (key, payload, pid, plan info)."""
    key, cell_payload = item
    cell = SweepCell.from_payload(cell_payload)
    progress = None
    if _PROGRESS_QUEUE is not None:
        # Checkpoints are best-effort, so a worker never waits at exit to
        # flush them: a sibling SIGKILLed mid-send leaves the queue's
        # shared write lock held for good, and the wait would never end.
        _PROGRESS_QUEUE.cancel_join_thread()
        last = [0.0]

        def progress(cycles, interval):
            now = time.monotonic()
            if now - last[0] < PROGRESS_INTERVAL:
                return
            last[0] = now
            try:
                _PROGRESS_QUEUE.put_nowait(
                    (key, cycles, interval_to_payload(interval))
                )
            except Exception:
                pass  # a full/closed queue must never fail the measurement

    measurement = measure_cell(cell, progress=progress)
    from repro.sim.plan import plan_cache_info

    return key, measurement_to_payload(measurement), os.getpid(), plan_cache_info()


# ----------------------------------------------------------------------
# Server side.
# ----------------------------------------------------------------------


@dataclass
class _Job:
    """One submitted job: a client's cells and its completion accounting."""

    job_id: str
    outbox: asyncio.Queue
    remaining: int
    cells: int
    cached: int = 0
    coalesced: int = 0
    computed: int = 0
    failed: int = 0
    started: float = field(default_factory=time.monotonic)


@dataclass
class _InFlight:
    """One cell being computed, with every (job, indices) waiting on it."""

    key: str
    payload: dict
    subscribers: list[tuple[_Job, list[int]]] = field(default_factory=list)


class SimulationServer:
    """A sharded, deduping, streaming simulation service.

    Parameters
    ----------
    address:
        ``HOST:PORT`` or ``unix:/PATH`` (see :func:`parse_address`).
        TCP port ``0`` binds an ephemeral port; read the bound address
        back from :attr:`bound_address` after :meth:`start`.
    workers:
        Worker processes (default: all cores).
    cache_size:
        Result-cache capacity in cells.
    shard_timeout:
        Seconds one cell may run before its worker is declared stuck and
        the cell is resubmitted on a rebuilt pool (``None`` = forever).
    max_poison_attempts:
        Pool-killing attempts one cell may burn before it is
        *quarantined*: further (and pending) submissions of that key get
        a structured ``error`` event with ``"quarantined": true`` instead
        of killing workers forever (default: the supervisor's
        ``MAX_ATTEMPTS``).
    drain_timeout:
        Seconds :meth:`aclose` waits for in-flight cells to finish before
        tearing the pool down (graceful drain; ``0`` = drop them).
    backoff_seed:
        Seed of the deterministic jitter applied to pool-rebuild
        backoff delays (chaos runs pin it for reproducibility).
    """

    def __init__(
        self,
        address: str = DEFAULT_ADDRESS,
        *,
        workers: Optional[int] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        shard_timeout: Optional[float] = None,
        max_poison_attempts: Optional[int] = None,
        drain_timeout: float = 5.0,
        backoff_seed: int = 0,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError(f"shard_timeout must be > 0, got {shard_timeout}")
        if max_poison_attempts is not None and max_poison_attempts < 1:
            raise ValueError(
                f"max_poison_attempts must be >= 1, got {max_poison_attempts}"
            )
        if drain_timeout < 0:
            raise ValueError(f"drain_timeout must be >= 0, got {drain_timeout}")
        self.address = parse_address(address) if isinstance(address, str) else address
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.shard_timeout = shard_timeout
        self.max_poison_attempts = (
            max_poison_attempts if max_poison_attempts is not None else MAX_ATTEMPTS
        )
        self.drain_timeout = drain_timeout
        self.cache = ResultCache(cache_size)
        self.bound_address: Optional[str] = None

        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._ctx = fork_context()
        self._ledger = RetryLedger(self.max_poison_attempts)
        self._quarantined: dict[str, str] = {}
        self._rebuild_lock: Optional[asyncio.Lock] = None
        self._rebuild_streak = 0
        self._jitter = random.Random(backoff_seed)
        self._inflight: dict[str, _InFlight] = {}
        #: Bounds futures inside the executor to 2x workers: keeps every
        #: worker busy (pipelining) while a worker death can only poison
        #: a bounded number of submitted cells, never the whole backlog.
        self._slots = asyncio.Semaphore(2 * self.workers)
        self._stop = asyncio.Event()
        self._started = time.monotonic()
        self._busy = 0
        self._waiting = 0
        self._plan_info_by_pid: dict[int, dict] = {}
        self._drain_thread: Optional[threading.Thread] = None
        self._drain_stop = threading.Event()
        self._counters = {
            "jobs_submitted": 0,
            "jobs_completed": 0,
            "cells_submitted": 0,
            "cells_completed": 0,
            "cells_computed": 0,
            "cells_cached": 0,
            "cells_coalesced": 0,
            "cells_deduped_in_job": 0,
            "cells_resubmitted": 0,
            "cells_failed": 0,
            "cells_quarantined": 0,
            "pool_rebuilds": 0,
            "partials_streamed": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, start the pool and the progress drain."""
        global _PROGRESS_QUEUE
        self._loop = asyncio.get_running_loop()
        self._rebuild_lock = asyncio.Lock()
        _PROGRESS_QUEUE = self._ctx.Queue()
        self._progress_queue = _PROGRESS_QUEUE
        self._pool = self._new_pool(self.workers)
        self._drain_stop.clear()
        self._drain_thread = threading.Thread(
            target=self._drain_progress, name="repro-serve-progress", daemon=True
        )
        self._drain_thread.start()
        if isinstance(self.address, UnixAddress):
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.address.path,
                limit=MAX_MESSAGE_BYTES,
            )
            self.bound_address = self.address.label
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.address.host,
                port=self.address.port, limit=MAX_MESSAGE_BYTES,
            )
            host, port = self._server.sockets[0].getsockname()[:2]
            self.bound_address = f"{host}:{port}"

    async def serve_until_stopped(self) -> None:
        """:meth:`start` + run until a ``shutdown`` message or :meth:`stop`."""
        if self._server is None:
            await self.start()
        await self._stop.wait()
        await self.aclose()

    async def stop(self) -> None:
        self._stop.set()

    async def aclose(self) -> None:
        """Tear down gracefully: stop accepting, drain in-flight cells, close.

        New connections and jobs are refused the moment :attr:`_stop` is
        set; cells already computing get up to :attr:`drain_timeout`
        seconds to finish (and stream their results to still-connected
        clients) before the pool is torn down under them.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if isinstance(self.address, UnixAddress):
            with contextlib.suppress(OSError):
                os.unlink(self.address.path)
        deadline = time.monotonic() + self.drain_timeout
        while self._inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        self._drain_stop.set()
        if self._drain_thread is not None:
            self._drain_thread.join(timeout=2.0)
            self._drain_thread = None
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        with contextlib.suppress(Exception):
            self._progress_queue.close()

    # ------------------------------------------------------------------
    # Progress streaming
    # ------------------------------------------------------------------

    def _drain_progress(self) -> None:
        """(thread) forward worker checkpoints into the event loop."""
        while not self._drain_stop.is_set():
            try:
                message = self._progress_queue.get(timeout=0.2)
            except _queue.Empty:
                continue
            except (EOFError, OSError):  # queue torn down under us
                return
            with contextlib.suppress(RuntimeError):  # loop already closed
                self._loop.call_soon_threadsafe(self._dispatch_partial, message)

    def _dispatch_partial(self, message: tuple) -> None:
        key, cycles, acceptance = message
        flight = self._inflight.get(key)
        if flight is None:  # cell already finished; checkpoint raced it
            return
        self._counters["partials_streamed"] += 1
        for job, indices in flight.subscribers:
            self._post(job, {
                "type": "partial",
                "job_id": job.job_id,
                "key": key,
                "indices": indices,
                "cycles": cycles,
                "acceptance": acceptance,
            })

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        outbox: asyncio.Queue = asyncio.Queue()
        sender = asyncio.create_task(self._send_loop(outbox, writer))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    outbox.put_nowait({"type": "error", "message": "message too large"})
                    break
                if not line:
                    break
                try:
                    message = decode_message(line)
                except (ValueError, UnicodeDecodeError) as exc:
                    outbox.put_nowait({"type": "error", "message": f"bad message: {exc}"})
                    continue
                kind = message.get("type")
                if kind == "submit":
                    self._accept_job(message, outbox)
                elif kind == "status":
                    outbox.put_nowait(self.stats())
                elif kind == "shutdown":
                    outbox.put_nowait({"type": "bye"})
                    self._stop.set()
                else:
                    outbox.put_nowait(
                        {"type": "error", "message": f"unknown message type {kind!r}"}
                    )
        except asyncio.CancelledError:
            # Event-loop teardown cancelled the handler mid-await.  Every
            # further await would just re-raise, so stop the sender and
            # close the transport synchronously — and return instead of
            # re-raising: CPython 3.11's streams done-callback calls
            # task.exception() unconditionally, which turns a cancelled
            # handler task into "Exception in callback" stderr noise.
            sender.cancel()
            with contextlib.suppress(Exception):
                writer.close()
            return
        # Graceful close (client hung up or sent shutdown): flush every
        # queued event through the sender, then close the transport.
        outbox.put_nowait(None)  # sentinel: flush and stop the sender
        with contextlib.suppress(Exception):
            await sender
        with contextlib.suppress(Exception):
            writer.close()
            await writer.wait_closed()

    async def _send_loop(self, outbox: asyncio.Queue, writer) -> None:
        """One task per connection owns the writer: lines never interleave."""
        while True:
            event = await outbox.get()
            if event is None:
                break
            writer.write(encode_message(event))
            await writer.drain()

    def _post(self, job: _Job, event: dict) -> None:
        job.outbox.put_nowait(event)

    # ------------------------------------------------------------------
    # Job scheduling
    # ------------------------------------------------------------------

    def _accept_job(self, message: dict, outbox: asyncio.Queue) -> None:
        job_id = str(message.get("job_id", f"job-{self._counters['jobs_submitted']}"))
        if self._stop.is_set():
            # Draining: in-flight work finishes, new work is refused.
            outbox.put_nowait({
                "type": "error", "job_id": job_id,
                "message": "server is draining; not accepting new jobs",
            })
            return
        cells = message.get("cells")
        if not isinstance(cells, list) or not cells:
            outbox.put_nowait({
                "type": "error", "job_id": job_id,
                "message": "submit needs a non-empty 'cells' list",
            })
            return
        self._counters["jobs_submitted"] += 1
        self._counters["cells_submitted"] += len(cells)

        # Canonicalize and key every cell; invalid cells error out
        # individually without sinking the rest of the job.
        by_key: dict[str, tuple[dict, list[int]]] = {}
        bad: list[tuple[int, str]] = []
        for index, payload in enumerate(cells):
            try:
                cell = SweepCell.from_payload(payload)
                key = cell.key()
            except (EDNError, KeyError, TypeError, ValueError) as exc:
                bad.append((index, str(exc)))
                continue
            canonical = cell.payload()
            if key in by_key:
                # Intra-job dedupe: the duplicate index shares the first
                # occurrence's computation (and its result event).
                by_key[key][1].append(index)
                self._counters["cells_deduped_in_job"] += 1
            else:
                by_key[key] = (canonical, [index])

        job = _Job(
            job_id=job_id, outbox=outbox,
            remaining=len(by_key) + len(bad), cells=len(cells),
        )
        self._post(job, {
            "type": "accepted", "job_id": job_id,
            "cells": len(cells), "unique": len(by_key),
        })
        for index, reason in bad:
            job.failed += 1
            self._counters["cells_failed"] += 1
            self._post(job, {
                "type": "error", "job_id": job_id, "indices": [index],
                "message": f"invalid cell: {reason}",
            })
            self._cell_answered(job)
        for key, (payload, indices) in by_key.items():
            self._schedule_cell(job, key, payload, indices)

    def _schedule_cell(
        self, job: _Job, key: str, payload: dict, indices: list[int]
    ) -> None:
        cached = self.cache.get(key)
        if cached is not None:
            job.cached += 1
            self._counters["cells_cached"] += 1
            self._emit_result(job, key, indices, cached, cached_hit=True, worker=None)
            self._cell_answered(job)
            return
        reason = self._quarantined.get(key)
        if reason is not None:
            # Poisoned key: answer instantly with the structured error it
            # earned instead of burning another round of workers.
            job.failed += 1
            self._counters["cells_failed"] += 1
            self._post(job, {
                "type": "error", "job_id": job.job_id, "key": key,
                "indices": indices, "quarantined": True,
                "message": f"cell quarantined: {reason}",
            })
            self._cell_answered(job)
            return
        flight = self._inflight.get(key)
        if flight is not None:
            # Identical cell already computing for someone else: subscribe.
            job.coalesced += 1
            self._counters["cells_coalesced"] += 1
            flight.subscribers.append((job, indices))
            return
        flight = _InFlight(key=key, payload=payload)
        flight.subscribers.append((job, indices))
        self._inflight[key] = flight
        asyncio.create_task(self._compute_cell(flight))

    async def _compute_cell(self, flight: _InFlight) -> None:
        """Run one cell on the pool, surviving worker death and stalls."""
        self._waiting += 1
        async with _acquire(self._slots):
            self._waiting -= 1
            while True:
                pool = self._pool
                if pool is None:  # server shutting down
                    self._finish_error(flight, "server shutting down")
                    return
                try:
                    future = pool.submit(_run_cell, (flight.key, flight.payload))
                except BrokenProcessPool:
                    await self._rebuild_pool(pool)
                    if self._charge(flight.key):
                        continue
                    if await self._probe_and_deliver(flight):
                        return
                    self._quarantine(flight, "worker pool kept losing the cell")
                    return
                self._busy += 1
                try:
                    result = await asyncio.wait_for(
                        asyncio.wrap_future(future), timeout=self.shard_timeout
                    )
                except (BrokenProcessPool, asyncio.CancelledError) as exc:
                    # The pool died under the cell (a sibling's worker can
                    # break the whole executor, cancelling queued futures).
                    if isinstance(exc, asyncio.CancelledError) and not future.cancelled():
                        raise  # genuine task cancellation, not pool death
                    await self._rebuild_pool(pool)
                    if self._charge(flight.key):
                        continue
                    if await self._probe_and_deliver(flight):
                        return
                    self._quarantine(
                        flight, "worker process kept dying running this cell"
                    )
                    return
                except asyncio.TimeoutError:
                    # The worker is presumed stuck mid-cell; it cannot be
                    # reclaimed individually, so the pool is rebuilt and
                    # the stalled worker abandoned.
                    await self._rebuild_pool(pool)
                    if self._charge(flight.key):
                        continue
                    if await self._probe_and_deliver(flight):
                        return
                    self._quarantine(
                        flight,
                        f"cell kept exceeding shard_timeout={self.shard_timeout}s",
                    )
                    return
                except EDNError as exc:
                    self._finish_error(flight, f"cell failed: {exc}")
                    return
                finally:
                    self._busy -= 1
                key, payload, pid, plan_info = result
                self._plan_info_by_pid[pid] = plan_info
                self._ledger.forgive(key)
                self._rebuild_streak = 0  # healthy again: backoff resets
                encoded = encode_message(payload)
                self.cache.put(key, encoded)
                self._finish_result(flight, encoded, worker=pid)
                return

    def _charge(self, key: str) -> bool:
        may_retry = self._ledger.charge(key)
        if may_retry:
            self._counters["cells_resubmitted"] += 1
        return may_retry

    def _new_pool(self, size: int) -> ProcessPoolExecutor:
        """A pool of ``size`` workers, each taking its share of the cores
        among the server's :attr:`workers` for lane-kernel runs."""
        return ProcessPoolExecutor(
            max_workers=size, mp_context=self._ctx,
            initializer=take_pool_share, initargs=(self.workers,),
        )

    async def _probe_and_deliver(self, flight: _InFlight) -> bool:
        """Last chance before quarantine: run the suspect alone.

        Pool-level deaths cannot be attributed — a poison sibling's
        SIGKILL breaks every in-flight future, so an innocent cell can
        exhaust its retry budget as collateral.  Before quarantining, the
        cell gets one attempt on a dedicated single-worker pool where
        blame is unambiguous: success proves innocence (the result is
        delivered and cached as usual, returns True); death or stall on
        the probe convicts (returns False and the caller quarantines).
        """
        probe = self._new_pool(1)
        try:
            future = probe.submit(_run_cell, (flight.key, flight.payload))
            try:
                result = await asyncio.wait_for(
                    asyncio.wrap_future(future), timeout=self.shard_timeout
                )
            except (BrokenProcessPool, asyncio.TimeoutError):
                return False
            except asyncio.CancelledError:
                if not future.cancelled():
                    raise  # genuine task cancellation, not probe death
                return False
            except EDNError as exc:
                self._finish_error(flight, f"cell failed: {exc}")
                return True  # answered (as a plain error), not quarantined
        finally:
            probe.shutdown(wait=False, cancel_futures=True)
        key, payload, pid, plan_info = result
        self._plan_info_by_pid[pid] = plan_info
        self._ledger.forgive(key)
        self._rebuild_streak = 0
        encoded = encode_message(payload)
        self.cache.put(key, encoded)
        self._finish_result(flight, encoded, worker=pid)
        return True

    def _quarantine(self, flight: _InFlight, reason: str) -> None:
        """Stop resubmitting a poison cell: structured error now and forever."""
        message = (
            f"cell quarantined after {self.max_poison_attempts} attempts: {reason}"
        )
        self._quarantined[flight.key] = message
        self._counters["cells_quarantined"] += 1
        self._finish_error(flight, message, quarantined=True)

    async def _rebuild_pool(self, broken: ProcessPoolExecutor) -> None:
        """Replace the pool once, however many cells saw it break.

        Consecutive rebuilds without an intervening healthy cell back off
        exponentially (base :data:`REBUILD_BACKOFF`, cap
        :data:`REBUILD_BACKOFF_CAP`) with deterministic jitter, so a
        crash loop cannot fork-storm the host; one successful cell
        resets the streak.
        """
        async with self._rebuild_lock:
            if self._pool is not broken or self._pool is None:
                return
            broken.shutdown(wait=False, cancel_futures=True)
            self._rebuild_streak += 1
            delay = min(
                REBUILD_BACKOFF_CAP,
                REBUILD_BACKOFF * 2 ** (self._rebuild_streak - 1),
            )
            delay *= 0.5 + self._jitter.random()  # jitter in [0.5x, 1.5x)
            await asyncio.sleep(delay)
            if self._pool is not broken:
                return  # torn down (or replaced) while backing off
            if self._stop.is_set():
                # Shutting down mid-backoff: leave no pool rather than
                # fork a new one; retrying cells see "server shutting
                # down" at the top of their loop.
                self._pool = None
                return
            self._pool = self._new_pool(self.workers)
            self._counters["pool_rebuilds"] += 1

    # ------------------------------------------------------------------
    # Completion fan-out
    # ------------------------------------------------------------------

    def _finish_result(self, flight: _InFlight, encoded: bytes, worker) -> None:
        del self._inflight[flight.key]
        self._counters["cells_computed"] += 1
        for position, (job, indices) in enumerate(flight.subscribers):
            job.computed += 1
            self._emit_result(
                job, flight.key, indices, encoded,
                cached_hit=position > 0, worker=worker,
            )
            self._cell_answered(job)

    def _finish_error(
        self, flight: _InFlight, message: str, *, quarantined: bool = False
    ) -> None:
        del self._inflight[flight.key]
        self._counters["cells_failed"] += 1
        for job, indices in flight.subscribers:
            job.failed += 1
            event = {
                "type": "error", "job_id": job.job_id, "key": flight.key,
                "indices": indices, "message": message,
            }
            if quarantined:
                event["quarantined"] = True
            self._post(job, event)
            self._cell_answered(job)

    def _emit_result(
        self, job: _Job, key: str, indices: list[int], encoded: bytes,
        *, cached_hit: bool, worker,
    ) -> None:
        import json

        self._counters["cells_completed"] += len(indices)
        self._post(job, {
            "type": "result", "job_id": job.job_id, "key": key,
            "indices": indices, "cached": cached_hit, "worker": worker,
            "payload": json.loads(encoded),
        })

    def _cell_answered(self, job: _Job) -> None:
        job.remaining -= 1
        if job.remaining > 0:
            return
        self._counters["jobs_completed"] += 1
        self._post(job, {
            "type": "done", "job_id": job.job_id, "cells": job.cells,
            "computed": job.computed, "cached": job.cached,
            "coalesced": job.coalesced, "failed": job.failed,
            "elapsed_s": round(time.monotonic() - job.started, 6),
        })

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """The ``stats`` message: queue depth, utilization, dedupe, caches."""
        counters = dict(self._counters)
        submitted = counters["cells_submitted"]
        deduped = (
            counters["cells_cached"]
            + counters["cells_coalesced"]
            + counters["cells_deduped_in_job"]
        )
        busy = min(self._busy, self.workers)
        return {
            "type": "stats",
            "address": self.bound_address,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "workers": {
                "configured": self.workers,
                "busy": busy,
                "utilization": round(busy / self.workers, 4),
                "pids": sorted(self._plan_info_by_pid),
                "pool_rebuilds": counters["pool_rebuilds"],
            },
            "queue_depth": self._waiting + max(0, self._busy - self.workers),
            "cells": {
                name.removeprefix("cells_"): counters[name]
                for name in (
                    "cells_submitted", "cells_completed", "cells_computed",
                    "cells_cached", "cells_coalesced", "cells_deduped_in_job",
                    "cells_resubmitted", "cells_failed", "cells_quarantined",
                )
            },
            "quarantine": {
                "size": len(self._quarantined),
                "keys": sorted(self._quarantined),
                "max_poison_attempts": self.max_poison_attempts,
            },
            "jobs": {
                "submitted": counters["jobs_submitted"],
                "completed": counters["jobs_completed"],
            },
            "dedupe_rate": round(deduped / submitted, 4) if submitted else 0.0,
            "partials_streamed": counters["partials_streamed"],
            "result_cache": self.cache.info(),
            "plan_cache": {
                "per_worker": {
                    str(pid): info for pid, info in sorted(self._plan_info_by_pid.items())
                },
            },
        }


@contextlib.asynccontextmanager
async def _acquire(semaphore: asyncio.Semaphore):
    await semaphore.acquire()
    try:
        yield
    finally:
        semaphore.release()


async def serve_forever(
    address: str = DEFAULT_ADDRESS,
    *,
    workers: Optional[int] = None,
    cache_size: int = DEFAULT_CACHE_SIZE,
    shard_timeout: Optional[float] = None,
    max_poison_attempts: Optional[int] = None,
    drain_timeout: float = 5.0,
    backoff_seed: int = 0,
    ready=None,
) -> None:
    """Run a :class:`SimulationServer` until stopped (the CLI entry point).

    ``ready``, when given, is called with the server once it is bound —
    how tests and the bench learn the ephemeral port.
    """
    server = SimulationServer(
        address, workers=workers, cache_size=cache_size,
        shard_timeout=shard_timeout, max_poison_attempts=max_poison_attempts,
        drain_timeout=drain_timeout, backoff_seed=backoff_seed,
    )
    await server.start()
    if ready is not None:
        ready(server)
    await server.serve_until_stopped()


@dataclass
class ServerHandle:
    """A server running on a background thread (tests, benches, notebooks)."""

    server: SimulationServer
    thread: threading.Thread
    loop: asyncio.AbstractEventLoop

    @property
    def address(self) -> str:
        return self.server.bound_address

    def stop(self, timeout: float = 10.0) -> None:
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.server._stop.set)
            self.thread.join(timeout=timeout)


def start_server_thread(
    address: str = "127.0.0.1:0",
    *,
    workers: Optional[int] = None,
    cache_size: int = DEFAULT_CACHE_SIZE,
    shard_timeout: Optional[float] = None,
    max_poison_attempts: Optional[int] = None,
    drain_timeout: float = 5.0,
    backoff_seed: int = 0,
    start_timeout: float = 10.0,
) -> ServerHandle:
    """Start a server on a daemon thread and wait until it is bound.

    Port ``0`` (the default) binds an ephemeral port; the handle's
    ``address`` is the real one.  Call ``handle.stop()`` when done.
    """
    ready = threading.Event()
    box: dict = {}

    def _run():
        async def _main():
            server = SimulationServer(
                address, workers=workers, cache_size=cache_size,
                shard_timeout=shard_timeout,
                max_poison_attempts=max_poison_attempts,
                drain_timeout=drain_timeout, backoff_seed=backoff_seed,
            )
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            ready.set()
            await server.serve_until_stopped()

        try:
            asyncio.run(_main())
        except BaseException as exc:  # surface startup failures to the caller
            box.setdefault("error", exc)
            ready.set()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=start_timeout):
        raise RuntimeError("simulation server did not start in time")
    if "error" in box:
        raise RuntimeError(f"simulation server failed to start: {box['error']}")
    return ServerHandle(server=box["server"], thread=thread, loop=box["loop"])
