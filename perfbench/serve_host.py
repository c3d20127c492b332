"""The serve-mixed server: a ``SimulationServer`` in its own exec'd process.

Binds an ephemeral localhost port, prints ``READY <host:port> <pid>`` on
stdout and serves until a client sends ``shutdown``.  Its worker pool is
forked from this process, which never runs a cell itself, so no worker
inherits a live OpenMP runtime.

With ``--trace-dir`` the layer wrappers are installed *before* the pool
forks, so every worker inherits them (the way
``repro.serve.chaos.chaos_session`` injects its faults): each worker
appends its spans to ``worker-<pid>.json`` after every cell, and the
server writes its own spans to ``server.json`` when it stops.

    python3 perfbench/serve_host.py --workers 2 [--trace-dir DIR] [--deadline 170]
"""

from __future__ import annotations

import argparse
import asyncio
import faulthandler
import json
import os
import sys
import time

import trace


def _traced_cell(tracer: trace.Tracer, trace_dir: str, real):
    """The worker-side cell entry, wrapped: one compute span per cell."""
    compute = tracer.wrap("serve.compute", real)

    def measure_cell(cell, *, progress=None):
        if tracer.pid != os.getpid():  # first cell in a freshly forked worker
            tracer.pid = os.getpid()
            tracer.drain()
        # The content key names the cell; computed on the unwrapped method
        # so that labelling adds no encode span the program did not run.
        tracer.cell = type(cell).key.__wrapped__(cell)
        try:
            return compute(cell, progress=progress)
        finally:
            spans, counts = tracer.drain()
            record = {"pid": tracer.pid, "spans": spans, "counts": counts}
            with open(os.path.join(trace_dir, f"worker-{tracer.pid}.json"), "a") as fh:
                fh.write(json.dumps(record) + "\n")

    return measure_cell


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--deadline", type=float, default=170.0)
    args = parser.parse_args()
    faulthandler.dump_traceback_later(args.deadline, exit=True)

    import repro.serve.server as server_mod

    tracer = None
    if args.trace_dir:
        tracer = trace.Tracer()
        trace.install(tracer, worker=True)
        server_mod.measure_cell = _traced_cell(tracer, args.trace_dir, server_mod.measure_cell)

    def ready(server) -> None:
        print(f"READY {server.bound_address} {os.getpid()}", flush=True)

    asyncio.run(server_mod.serve_forever(
        "127.0.0.1:0", workers=args.workers, drain_timeout=1.0, ready=ready,
    ))
    if tracer is not None:
        spans, counts = tracer.drain()
        with open(os.path.join(args.trace_dir, "server.json"), "w") as fh:
            json.dump({"pid": os.getpid(), "spans": spans, "counts": counts,
                       "stopped": time.monotonic()}, fh)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
