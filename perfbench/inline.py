"""One inline ``mc-label`` workload run in a fresh interpreter.

Started by ``run.py`` through ``exec``, never ``fork``: the program's
native tier may run OpenMP, whose thread pool does not survive a fork.
The process builds its cells, warms every plan and kernel up (its set-up),
runs the closed loop -- one client, one cell at a time through
``repro.api.jobs.measure_cell`` -- for the requested seconds, checks its
outputs off the clock and writes one JSON result file.

    python3 perfbench/inline.py --workload mc-label --seed 1 --seconds 30 \
        --trace 0 --out result.json [--setup-only] [--deadline 150]
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import time

T_START = time.monotonic()

import numpy as np  # noqa: E402

import cells as workload_cells  # noqa: E402
import checks  # noqa: E402
import host  # noqa: E402
import trace  # noqa: E402

#: The timed phase is split into rounds, each reported on its own; the
#: caller takes the median over rounds, so a few seconds of a slow host
#: move one round, not the result.
ROUNDS = 3
#: Each round keeps going past its share of ``--seconds`` until it holds
#: this many cells, so its p99 has at least ten samples beyond it.
MIN_CELLS = 1000
#: Cells recomputed on the independent engine after the timed phase.
RECHECK_SAMPLE = 24

POOLS = {"mc-label": workload_cells.mc_label}


def _outcome(measurement) -> tuple:
    """A cheap fingerprint that must repeat exactly for a repeated cell."""
    return (measurement.offered, measurement.delivered, measurement.cycles)


def closed_loop(pool, seconds, *, measure, tracer=None, first=None, min_cells=MIN_CELLS,
                start_at=0):
    """Run pool cells round-robin for ``seconds`` (and >= ``min_cells`` cells).

    The walk starts at pool position ``start_at``; ``first`` maps a pool
    position to its first measurement, which every repeat must match.
    """
    latencies, errors, mismatches = [], [], []
    cycles = 0
    first = {} if first is None else first
    start = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if now - start >= seconds and i >= min_cells:
            break
        index = (start_at + i) % len(pool)
        cell = pool[index]
        if tracer is not None:
            tracer.cell = i
        t0 = time.perf_counter()
        try:
            measurement = measure(cell)
        except Exception as exc:  # a failed cell is counted, not fatal
            errors.append(f"{cell.spec.label}: {type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
            i += 1
            continue
        latencies.append(time.perf_counter() - t0)
        cycles += workload_cells.cell_cycles(cell)
        outcome = _outcome(measurement)
        if index not in first:
            first[index] = measurement
        elif _outcome(first[index]) != outcome:
            mismatches.append(index)
        i += 1
    wall = time.perf_counter() - start
    return {
        "cells": i,
        "cycles": cycles,
        "wall_s": wall,
        "latency_ms": [v * 1e3 for v in latencies],
        "errors": errors,
        "mismatches": mismatches,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--deadline", type=float, default=150.0)
    args = parser.parse_args()
    faulthandler.dump_traceback_later(args.deadline, exit=True)

    # Set-up, part 1: import every layer a cell passes through.
    import repro.api.jobs as jobs
    import repro.api.registry  # noqa: F401
    import repro.sim.buffered  # noqa: F401
    import repro.sim.montecarlo  # noqa: F401
    import repro.sim.native  # noqa: F401
    import repro.workloads.registry  # noqa: F401

    tracer = trace.Tracer() if args.trace else None
    undo = trace.install(tracer) if tracer else []

    # Cell generation is the benchmark's work, not the program's: timed
    # separately and subtracted from set-up by the caller.
    t_gen = time.monotonic()
    pool = POOLS[args.workload](args.seed)
    gen_s = time.monotonic() - t_gen

    # Set-up, part 2: backend resolution, plan compiles, kernel builds and
    # first-use tables -- one warm-up cell per plan and traffic model the
    # pool can touch.
    seen = set()
    for cell in pool:
        stratum = (cell.spec, cell.config.buffer_depth, cell.config.traffic)
        if stratum not in seen:
            seen.add(stratum)
            jobs.measure_cell(cell)
    t_first = time.monotonic()
    result = {
        "t_start": T_START,
        "gen_s": gen_s,
        "t_first_timed": t_first,
        "warmup_cells": len(seen),
        "program": host.program_record(),
    }
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0

    setup_spans = []
    if tracer is not None:
        setup_spans, setup_counts = tracer.drain()
        trace.uninstall(undo)
    first: dict = {}
    if tracer is None:
        rounds, done = [], 0
        for _ in range(ROUNDS):
            rounds.append(closed_loop(pool, args.seconds / ROUNDS, measure=jobs.measure_cell,
                                      first=first, start_at=done))
            done += rounds[-1]["cells"]
        timed = {"rounds": rounds}
    else:
        # Traced run: an untraced half, then a traced half over the same
        # pool; the ratio of their cell times is the tracing overhead.
        half = args.seconds / 2
        plain = closed_loop(pool, half, measure=jobs.measure_cell, first=first, min_cells=0)
        undo = trace.install(tracer)
        traced_measure = tracer.wrap("api.measure_cell", jobs.measure_cell)
        traced = closed_loop(pool, half, measure=traced_measure, tracer=tracer, first=first,
                             min_cells=0, start_at=plain["cells"])
        trace.uninstall(undo)
        spans, counts = tracer.drain()
        result["trace"] = {
            "untraced": {k: plain[k] for k in ("cells", "cycles", "wall_s")},
            "traced": {k: traced[k] for k in ("cells", "cycles", "wall_s")},
            "layers": trace.summarize(spans),
            "counts": counts,
            "setup_layers": trace.summarize(setup_spans),
            "setup_counts": setup_counts,
        }
        with open(args.out + ".spans.json", "w") as fh:
            json.dump({"setup": setup_spans, "timed": spans}, fh)
        timed = {"rounds": [plain, traced]}
    result["peak_rss_mb"] = host.peak_rss_mb()
    result["timed"] = timed

    # Output checks, off the clock.
    rng = np.random.default_rng([args.seed, 99])
    indices = sorted(first)
    picked = rng.choice(len(indices), size=min(RECHECK_SAMPLE, len(indices)), replace=False)
    sample = [(pool[indices[k]], checks.encode(first[indices[k]])) for k in picked]
    result["recheck"] = {"cells": len(sample), "mismatches": checks.recheck(sample)}
    result["model_validation"] = checks.model_error(
        (pool[index], first[index]) for index in indices
    )
    result["backends"] = host.resolved_backends(pool)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
