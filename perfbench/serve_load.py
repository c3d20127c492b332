"""The serve-mixed workload: an open-loop load generator against an exec'd server.

One process, one connection, one ``submit`` per cell, sent on a seeded
Poisson schedule whatever the server's progress (open loop).  A cell's
latency runs from its *scheduled* send time to the arrival of its result,
so a stalled server also delays the cells queued behind the stall.

Phases of an untraced run:

1. set-up, repeated ``SETUP_BOOTS`` times: exec ``serve_host.py`` with an
   empty native kernel cache and send one warm-up job that touches every
   plan shape; set-up ends when the warm-up job is answered;
2. the main phase: after ``SETTLE_S`` untimed seconds, Poisson arrivals
   at ``MAIN_RATE`` cells/s for ``--seconds`` (longer if needed to hold
   ``MIN_CELLS`` cells);
3. the ladder: a walk over the fixed rungs of ``LADDER`` for the highest
   offered rate whose p99 latency meets ``SLO_MS`` without a growing
   backlog;
4. off the clock: a seeded sample of served answers is recomputed inline
   (``measure_cell``, after the server has stopped, so this process never
   forks after running a kernel) and on the independent engines.

A traced run (``--trace 1``) instead runs the main phase twice, on an
untraced and on a traced server, and reports the per-layer split.

    python3 perfbench/serve_load.py --seed 1 --seconds 30 --trace 0 \
        --out result.json --cache-root DIR [--deadline 160]
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

import cells as workload_cells
import checks
import host
import trace

HERE = os.path.dirname(os.path.abspath(__file__))

#: Offered rate of the main phase, cells/s: about 40% of what two workers
#: sustain on a 2-core host.
MAIN_RATE = 50.0
#: The main phase holds at least this many cells (p99 has ten beyond it).
MIN_CELLS = 1000
#: Untimed seconds at the main rate before the main phase: the first
#: seconds after warm-up still run colder (per-worker plan caches, first
#: kernel loads in each worker) than the rest of the run.
SETTLE_S = 3.0
#: Fixed ladder of offered rates, cells/s: it reaches far above today's capacity.
LADDER = (10, 20, 40, 80, 160, 320, 640, 1280)
#: Rung the ladder walk starts from (today's highest passing rung: capacity
#: swings between about 100 and 150 cells/s with the host's load, which
#: keeps 80 passing and 160 failing).
LADDER_START = 3
#: Seconds of arrivals per ladder step.
LADDER_STEP_S = 8.0
#: Latency limit on a ladder step's p99, ms.
SLO_MS = 500.0
#: Server boots per untraced run; ``setup_s`` is their median.
SETUP_BOOTS = 3
#: Server worker processes: one per core.
WORKERS = os.cpu_count() or 1
#: Served answers recomputed inline, and of those on the independent engine.
INLINE_SAMPLE = 32
INDEPENDENT_SAMPLE = 12
#: Seconds to wait for stragglers after a phase's last send.
DRAIN_S = 20.0

clock = trace.clock
#: Process start, for the server deadlines.
T0 = clock()


class Server:
    """``serve_host.py`` in its own session (so its workers can be reaped)."""

    def __init__(self, *, workers, env, trace_dir=None, log=None, deadline=150.0):
        cmd = [sys.executable, os.path.join(HERE, "serve_host.py"),
               "--workers", str(workers), "--deadline", str(deadline)]
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
        self.t_spawn = clock()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=log, env=env, text=True,
            start_new_session=True,
        )
        self.workers_seen: set[int] = set()
        ready = _readline(self.proc.stdout, timeout=60.0)
        if not ready.startswith("READY "):
            self.kill()
            raise RuntimeError(f"server did not start: {ready!r}")
        _, self.address, pid = ready.split()
        self.pid = int(pid)

    def note_workers(self) -> list[int]:
        self.workers_seen.update(host.children(self.pid))
        return sorted(self.workers_seen)

    def peak_rss_mb(self) -> float:
        """Server plus workers, each at its own peak (VmHWM)."""
        return host.peak_rss_mb(self.pid) + sum(
            host.peak_rss_mb(pid) for pid in self.note_workers()
        )

    def stop(self, conn=None) -> None:
        self.note_workers()
        if conn is not None:
            conn.shutdown_server()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.kill()
        self._reap()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reap()

    def _reap(self) -> None:
        """Wait until every worker this server forked has exited."""
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            alive = [pid for pid in self.workers_seen if _alive(pid)]
            if not alive:
                return
            time.sleep(0.05)
        for pid in self.workers_seen:
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _readline(stream, timeout: float) -> str:
    box: list = []
    reader = threading.Thread(target=lambda: box.append(stream.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    return box[0] if box else ""


class Connection:
    """One socket to the server; a reader thread timestamps every answer."""

    def __init__(self, address: str):
        from repro.serve.protocol import decode_message

        host_name, port = address.rsplit(":", 1)
        self.sock = socket.create_connection((host_name, int(port)), timeout=30)
        self.sock.settimeout(None)
        # One small message per cell: without this, Nagle's algorithm holds
        # a submit back until the previous one is acknowledged, which adds
        # the client's own delay to the latency being measured.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.answers: dict[str, tuple] = {}  # job id -> (arrival, kind, message)
        self.done: set[str] = set()
        self.partials = 0
        self.stats_box: list = []
        self.cond = threading.Condition()
        self._decode = decode_message
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        try:
            self._read_lines(self.sock.makefile("rb"))
        except (OSError, ValueError):
            pass  # the socket was closed under the reader: the run is over

    def _read_lines(self, stream) -> None:
        for line in stream:
            arrival = clock()
            message = self._decode(line)
            kind = message["type"]
            with self.cond:
                if kind in ("result", "error") and "job_id" in message:
                    self.answers.setdefault(message["job_id"], (arrival, kind, message))
                    self.cond.notify_all()
                elif kind == "done":
                    self.done.add(message["job_id"])
                    self.cond.notify_all()
                elif kind == "partial":
                    self.partials += 1
                elif kind in ("stats", "bye"):
                    self.stats_box.append(message)
                    self.cond.notify_all()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def wait_answers(self, job_ids, deadline: float) -> None:
        with self.cond:
            while clock() < deadline and not all(j in self.answers for j in job_ids):
                self.cond.wait(timeout=0.05)

    def request(self, message: dict, timeout: float = 15.0) -> dict | None:
        from repro.serve.protocol import encode_message

        with self.cond:
            self.stats_box.clear()
        self.send(encode_message(message))
        deadline = clock() + timeout
        with self.cond:
            while not self.stats_box and clock() < deadline:
                self.cond.wait(timeout=0.05)
            return self.stats_box[0] if self.stats_box else None

    def shutdown_server(self) -> None:
        self.request({"type": "shutdown"}, timeout=5.0)
        self.close()

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class Stream:
    """Pre-encoded submit messages of the seeded serve-mixed cell stream."""

    def __init__(self, seed: int):
        self.cells: list = []
        self.keys: list[str] = []
        self.messages: list[bytes] = []
        self._source = workload_cells.serve_stream(seed)

    def take(self, count: int) -> range:
        from repro.serve.protocol import encode_message

        start = len(self.cells)
        for index in range(start, start + count):
            cell = next(self._source)
            self.cells.append(cell)
            self.keys.append(cell.key())
            self.messages.append(encode_message(
                {"type": "submit", "job_id": f"c{index}", "cells": [cell.payload()]}
            ))
        return range(start, start + count)


def warm_up(conn: Connection, timeout: float) -> bool:
    """One job of warm-up cells (distinct keys from every timed cell)."""
    from repro.serve.protocol import encode_message

    payloads = [cell.payload() for cell in workload_cells.serve_warmup()]
    conn.send(encode_message({"type": "submit", "job_id": "warmup", "cells": payloads}))
    deadline = clock() + timeout
    with conn.cond:
        while "warmup" not in conn.done and clock() < deadline:
            conn.cond.wait(timeout=0.05)
        return "warmup" in conn.done


def open_loop(conn, stream, rate, seconds, rng, *, poisson=True, abort_age=None,
              min_cells=0):
    """Send cells at ``rate`` for ``seconds``, whatever the answers do.

    Arrivals are Poisson (``poisson=True``) or evenly spaced; the schedule
    runs past ``seconds`` if needed to hold ``min_cells`` cells.  With
    ``abort_age`` set, sending stops early once the oldest unanswered
    cell is older than that many seconds (the step is lost already).
    Returns ``(indices, scheduled, sent, aborted)``.
    """
    size = max(int(rate * seconds * 2), 2 * min_cells) + 16
    if poisson:
        offsets = np.cumsum(rng.exponential(1.0 / rate, size=size))
    else:
        offsets = np.arange(1, size + 1) / rate
    offsets = offsets[:max(int(np.searchsorted(offsets, seconds, side="right")), min_cells)]
    indices = stream.take(len(offsets))  # encoded before the schedule starts
    scheduled, sent, used = [], [], []
    start = clock() + 0.01
    oldest = 0  # position in ``used`` of the oldest possibly unanswered cell
    aborted = False
    for index, offset in zip(indices, offsets):
        due = start + float(offset)
        if abort_age is not None:
            with conn.cond:
                while oldest < len(used) and f"c{used[oldest]}" in conn.answers:
                    oldest += 1
            if oldest < len(used) and clock() - scheduled[oldest] > abort_age:
                aborted = True
                break
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        conn.send(stream.messages[index])
        sent.append(clock())
        scheduled.append(due)
        used.append(index)
    return used, scheduled, sent, aborted


def collect(conn, indices, scheduled, sent, deadline):
    """Wait for answers; per-cell latency (ms, from the scheduled time)."""
    conn.wait_answers([f"c{i}" for i in indices], deadline)
    latency, failed, errors = [], 0, []
    for index, due in zip(indices, scheduled):
        answer = conn.answers.get(f"c{index}")
        if answer is None or answer[1] != "result":
            failed += 1
            if answer is not None:
                errors.append(answer[2].get("message", "error"))
            latency.append(math.inf)
            continue
        latency.append((answer[0] - due) * 1e3)
    lag = max((s - d for s, d in zip(sent, scheduled)), default=0.0)
    return {"latency_ms": latency, "failed": failed, "errors": errors[:5],
            "gen_lag_ms_max": lag * 1e3}


def ladder(conn, stream, rng, step_s: float, steps: list) -> int:
    """The highest passing rung of ``LADDER`` (0 if none passes).

    The walk starts at rung ``LADDER_START`` and moves up while steps
    pass, or down until one passes; with latency monotone in the offered
    rate this finds the same rung as testing every rung, in two steps
    when capacity has not moved.  A step sends evenly spaced cells at its
    rate for ``step_s`` seconds and passes when every cell is answered,
    p99 latency meets ``SLO_MS`` and no cell waited past the limit before
    the step ended (no growing backlog).  Each step drains before the
    next one starts.
    """
    rung, best, direction = LADDER_START, -1, 0
    while 0 <= rung < len(LADDER):
        rate = LADDER[rung]
        used, scheduled, sent, aborted = open_loop(
            conn, stream, rate, step_s, rng, poisson=False, abort_age=SLO_MS / 1e3,
        )
        result = collect(conn, used, scheduled, sent, clock() + DRAIN_S)
        p99 = trace.percentile(result["latency_ms"], 99)
        passed = not aborted and result["failed"] == 0 and p99 <= SLO_MS
        steps.append({"rate": rate, "cells": len(used), "p99_ms": p99,
                      "aborted": aborted, "passed": passed,
                      "failed": result["failed"], "indices": used})
        if passed:
            best = max(best, rung)
            if direction < 0:
                break
            direction, rung = 1, rung + 1
        else:
            if direction > 0:
                break
            direction, rung = -1, rung - 1
    return LADDER[best] if best >= 0 else 0


def boot(args, env, *, trace_dir=None, log=None):
    """Start a server, connect, warm it up; returns (server, conn, setup_s)."""
    server = Server(workers=WORKERS, env=env, trace_dir=trace_dir, log=log,
                    deadline=max(10.0, args.deadline - (clock() - T0)))
    conn = Connection(server.address)
    if not warm_up(conn, timeout=60.0):
        raise RuntimeError("warm-up job did not finish")
    setup = clock() - server.t_spawn
    server.note_workers()
    return server, conn, setup


def fresh_env(args, k: int) -> dict:
    env = dict(os.environ)
    cache = os.path.join(args.cache_root, f"native-{k}")
    os.makedirs(cache, exist_ok=True)
    env["REPRO_NATIVE_CACHE"] = cache
    return env


def settle(args, conn, stream, seed_offset) -> dict:
    """Untimed load at the main rate until per-worker caches reach steady state."""
    rng = np.random.default_rng([args.seed, 6, seed_offset])
    used, scheduled, sent, _ = open_loop(conn, stream, MAIN_RATE, SETTLE_S, rng)
    result = collect(conn, used, scheduled, sent, clock() + DRAIN_S)
    return {"indices": used, "failed": result["failed"], "errors": result["errors"]}


def main_phase(args, conn, stream, seconds, seed_offset, min_cells=MIN_CELLS):
    rng = np.random.default_rng([args.seed, 7, seed_offset])
    used, scheduled, sent, _ = open_loop(
        conn, stream, MAIN_RATE, seconds, rng, min_cells=min_cells
    )
    result = collect(conn, used, scheduled, sent, clock() + DRAIN_S)
    result.update(indices=used, scheduled=scheduled, sent=sent,
                  wall_s=(scheduled[-1] - scheduled[0]) if scheduled else 0.0)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cache-root", required=True)
    parser.add_argument("--deadline", type=float, default=160.0)
    args = parser.parse_args()
    faulthandler.dump_traceback_later(args.deadline, exit=True)
    import repro.api.jobs  # noqa: F401
    import repro.serve.protocol  # noqa: F401

    stream = Stream(args.seed)
    log = open(os.path.join(args.cache_root, "server.log"), "a")
    result: dict = {"workers": WORKERS, "main_rate": MAIN_RATE, "slo_ms": SLO_MS}
    servers: list[Server] = []
    try:
        if not args.trace:
            result.update(_untraced(args, stream, log, servers))
        else:
            result.update(_traced(args, stream, log, servers))
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.kill()
        log.close()

    # Output checks, off the clock and after every server has stopped.
    answered = list(result.pop("_answers").items())
    rng = np.random.default_rng([args.seed, 99])
    picked = rng.choice(len(answered), size=min(INLINE_SAMPLE, len(answered)), replace=False)
    from repro.api.jobs import measure_cell, measurement_from_payload

    mismatches, sample = [], []
    for k in sorted(picked):
        index, payload = answered[k]
        cell = stream.cells[index]
        served = checks.canonical(payload)
        inline = checks.encode(measure_cell(cell))
        if served != inline:
            mismatches.append({"index": index, "cell": cell.payload()})
        if len(sample) < INDEPENDENT_SAMPLE:
            sample.append((cell, served))
    result["served_vs_inline"] = {"cells": len(picked), "mismatches": mismatches}
    result["recheck"] = {"cells": len(sample), "mismatches": checks.recheck(sample)}
    result["model_validation"] = checks.model_error(
        (stream.cells[i], measurement_from_payload(p)) for i, p in answered
    )
    result["program"] = host.program_record()
    result["backends"] = host.resolved_backends(stream.cells)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _answers(conn, indices) -> dict:
    out = {}
    for index in indices:
        answer = conn.answers.get(f"c{index}")
        if answer is not None and answer[1] == "result":
            out[index] = answer[2]["payload"]
    return out


def _untraced(args, stream, log, servers) -> dict:
    setups = []
    for k in range(SETUP_BOOTS - 1):
        server, conn, setup = boot(args, fresh_env(args, k), log=log)
        servers.append(server)
        setups.append(setup)
        server.stop(conn)
    server, conn, setup = boot(args, fresh_env(args, SETUP_BOOTS - 1), log=log)
    servers.append(server)
    setups.append(setup)
    settled = settle(args, conn, stream, 0)
    main = main_phase(args, conn, stream, args.seconds, 0)
    steps: list = []
    rng = np.random.default_rng([args.seed, 8])
    max_rate = ladder(conn, stream, rng, LADDER_STEP_S, steps)
    stats = conn.request({"type": "status"})
    rss = server.peak_rss_mb()
    server.stop(conn)
    answers = _answers(conn, main["indices"] + settled["indices"])
    for step in steps:
        answers.update(_answers(conn, step["indices"]))
        del step["indices"]
    cycles = [workload_cells.cell_cycles(stream.cells[i]) for i in main["indices"]]
    return {
        "setups": setups,
        "main": {k: main[k] for k in ("latency_ms", "failed", "errors", "gen_lag_ms_max", "wall_s")},
        "phases": {
            "settle": {"cells": len(settled["indices"]), "failed": settled["failed"]},
            "main": {"cells": len(main["indices"]), "failed": main["failed"]},
            "ladder": {"cells": sum(step["cells"] for step in steps),
                       "failed": sum(step["failed"] for step in steps)},
        },
        "mean_cycles": sum(cycles) / max(1, len(cycles)),
        "ladder": steps,
        "max_rate_at_slo": max_rate,
        "stats": stats,
        "peak_rss_mb": rss,
        "partials": conn.partials,
        "_answers": answers,
    }


def _traced(args, stream, log, servers) -> dict:
    """The main phase on an untraced server, then the same cells on a traced one.

    Both servers see the identical cell sequence (a second stream from the
    same seed), so their latency ratio is the tracing overhead and each
    server's result cache sees the same repeats.
    """
    half = args.seconds / 2
    server, conn, _ = boot(args, fresh_env(args, 0), log=log)
    servers.append(server)
    settled = [settle(args, conn, stream, 0)]
    plain = main_phase(args, conn, stream, half, 0, MIN_CELLS // 2)
    server.stop(conn)
    answers = _answers(conn, plain["indices"])
    trace_dir = os.path.join(args.cache_root, "spans")
    os.makedirs(trace_dir, exist_ok=True)
    replay = Stream(args.seed)
    server, conn, _ = boot(args, fresh_env(args, 1), trace_dir=trace_dir, log=log)
    servers.append(server)
    settled.append(settle(args, conn, replay, 0))
    t_phase = clock()
    traced = main_phase(args, conn, replay, half, 0, MIN_CELLS // 2)
    t_end = clock()
    stats = conn.request({"type": "status"})
    server.stop(conn)
    return {
        "phases": {
            "settle": {"cells": sum(len(p["indices"]) for p in settled),
                       "failed": sum(p["failed"] for p in settled)},
            "plain": {"cells": len(plain["indices"]), "failed": plain["failed"]},
            "traced": {"cells": len(traced["indices"]), "failed": traced["failed"]},
        },
        "plain": {k: plain[k] for k in ("latency_ms", "failed", "errors", "gen_lag_ms_max")},
        "traced": {k: traced[k] for k in ("latency_ms", "failed", "errors", "gen_lag_ms_max")},
        "traced_cells": {
            str(i): [replay.keys[i], due, sent, conn.answers[f"c{i}"][0]
                     if f"c{i}" in conn.answers else None]
            for i, due, sent in zip(traced["indices"], traced["scheduled"], traced["sent"])
        },
        "traced_window": [t_phase, t_end],
        "trace_dir": trace_dir,
        "stats": stats,
        "_answers": answers,
    }


if __name__ == "__main__":
    raise SystemExit(main())
