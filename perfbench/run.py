"""The repository's benchmark: one command, three workloads, end to end and per layer.

    python3 perfbench/run.py --workload mc-label --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program under test is ``src/repro``
in its default environment (no ``OMP_NUM_THREADS``, no
``REPRO_NATIVE_TIER``); every process that runs it is started with
``exec`` and gets an empty native kernel cache of its own, so set-up pays
the compiler builds a fresh host pays.  Workloads (``workloads.json``
says why each exists and which layers it stresses and bypasses):

* ``mc-label``     closed loop, inline: label-priority acceptance cells
                   at N=4096 and N=1024 (native kernel + traffic);
* ``serve-mixed``  open loop over the ``repro.serve`` protocol against
                   an exec'd ``SimulationServer`` with one worker per core;
                   its mixed cells also drive the random-priority sort
                   path, per-cycle RNG and buffered steps.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes the
traced run and prints the per-layer metrics.  Run artifacts (result,
ledger, spans) go to ``.perfbench/`` under the checkout.  The last stdout
line is the JSON result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import host  # noqa: E402
import trace  # noqa: E402

WORKLOADS = ("mc-label", "serve-mixed")
#: Every run ends well inside 180 seconds, even when a child hangs.
BUDGET_S = 165.0
#: Set-up-only interpreters started besides the measuring one (inline).
EXTRA_SETUPS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "cycles_per_s": "1/s",
    "max_rate_at_slo": "1/s",
    "peak_rss_mb": "MiB",
}
#: Printed and recorded with the end-to-end metrics but left out of the
#: bounded set in BENCHMARK.json: on serve-mixed the latency percentiles
#: move by 1.5-2.5x from run to run on a 2-core host (two workers each
#: running 2-thread OpenMP kernels amplify host contention), beyond any
#: usable regression bound; the ladder's p99 limit still bounds them
#: through max_rate_at_slo.
REPORTED_UNITS = {"cell_ms_p50": "ms", "cell_ms_p99": "ms"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in ("workloads.gen_s", "api.build_router_s", "sim.plan.lookup_s",
                 "sim.native.counts_s", "sim.native.build_s", "sim.batched.counts_s",
                 "sim.batched.step_s", "sim.rng.spawn_s", "sim.stats.push_s",
                 "sim.stats.latency_record_s", "sim.montecarlo.self_s",
                 "sim.buffered.self_s", "sim.validate_s", "api.jobs.encode_s",
                 "bench.traced_wall_s"):
        units[name] = "s"
    for name in ("workloads.gen_calls", "api.build_router_calls", "api.resolved.native",
                 "api.resolved.batched", "api.native_tier.cc", "api.native_tier.other",
                 "sim.plan.hits", "sim.plan.misses", "sim.native.calls",
                 "sim.batched.step_calls", "serve.pool_rebuilds", "bench.traced_cells"):
        units[name] = "count"
    for name in ("sim.plan.hit_ratio", "serve.dedupe_rate", "serve.result_cache_hit_ratio",
                 "serve.worker_utilization", "bench.trace_overhead"):
        units[name] = "ratio"
    for name in ("sim.native.ns_per_port_cycle", "sim.batched.ns_per_port_cycle"):
        units[name] = "ns"
    for part in ("queue_wait", "compute", "return"):
        for q in ("p50", "p99"):
            units[f"serve.{part}_ms_{q}"] = "ms"
    units["bench.gen_lag_ms_max"] = "ms"
    return units


class Budget:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


def run_child(cmd, env, budget: Budget, log_path: str) -> tuple[int, float]:
    """Run one exec'd child in its own session; kill its group at the deadline."""
    t_spawn = time.monotonic()
    with open(log_path, "a") as log:
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=log, cwd=ROOT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=budget.left())
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            code = proc.wait()
    return code, t_spawn


def child_env(cache: str, run_dir: str) -> dict:
    """The program's default environment, plus where it may write.

    ``TMPDIR`` keeps the compiler's temporary files inside the checkout.
    """
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_NATIVE_CACHE"] = cache
    env["TMPDIR"] = os.path.join(run_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def load(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# Inline workload (mc-label)
# ----------------------------------------------------------------------


def run_inline(args, run_dir: str, budget: Budget) -> dict:
    script = os.path.join(HERE, "inline.py")

    def child(tag: str, setup_only: bool):
        out = os.path.join(run_dir, f"{tag}.json")
        cache = os.path.join(run_dir, f"native-{tag}")
        cmd = [sys.executable, script, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out,
               "--deadline", str(max(5.0, budget.left() - 5.0))]
        if setup_only:
            cmd.append("--setup-only")
        code, t_spawn = run_child(cmd, child_env(cache, run_dir), budget,
                                  os.path.join(run_dir, "children.log"))
        shutil.rmtree(cache, ignore_errors=True)
        result = load(out) if code == 0 else None
        if result is not None:
            result["setup_s"] = result["t_first_timed"] - t_spawn - result["gen_s"]
        return result

    setups = []
    if not args.trace:
        for k in range(EXTRA_SETUPS):
            extra = child(f"setup-{k}", True)
            if extra is not None:
                setups.append(extra["setup_s"])
    main = child("main", False)
    if main is None:
        return {"ok": False, "setups": setups}
    setups.append(main["setup_s"])
    main["setups"] = setups
    main["ok"] = True
    return main


def inline_failures(result: dict) -> tuple[int, int]:
    """(attempted, failed) cells over every round and the output checks."""
    rounds = result["timed"]["rounds"]
    attempted = sum(r["cells"] for r in rounds)
    failed = sum(len(r["errors"]) + len(set(r["mismatches"])) for r in rounds)
    return attempted, failed + len(result["recheck"]["mismatches"])


def inline_metrics(result: dict) -> dict:
    """Each timing is computed per round; the result is the median over rounds."""
    rounds = result["timed"]["rounds"]

    def per_round(fn):
        return statistics.median(fn(r) for r in rounds)

    return {
        "setup_s": statistics.median(result["setups"]),
        "cycles_per_s": per_round(lambda r: r["cycles"] / r["wall_s"]),
        "cell_ms_p50": per_round(lambda r: trace.percentile(r["latency_ms"], 50)),
        "cell_ms_p99": per_round(lambda r: trace.percentile(r["latency_ms"], 99)),
        # A closed loop's offered rate is its completion rate: no backlog
        # can form, so the single client's cells/s is its highest rate.
        "max_rate_at_slo": per_round(lambda r: r["cells"] / r["wall_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def inline_layers(result: dict) -> tuple[dict, dict]:
    tr = result["trace"]
    layers, counts = tr["layers"], tr["counts"]
    traced, untraced = tr["traced"], tr["untraced"]
    traced_ms = 1e3 * traced["wall_s"] / traced["cells"]
    untraced_ms = 1e3 * untraced["wall_s"] / untraced["cells"]
    extra = {
        "sim.native.build_s": tr["setup_layers"].get("sim.native.build", {}).get("incl_s", 0.0)
        + layers.get("sim.native.build", {}).get("incl_s", 0.0),
        "bench.gen_lag_ms_max": 0.0,
        "bench.trace_overhead": traced_ms / untraced_ms,
        "bench.traced_wall_s": traced["wall_s"],
        "bench.traced_cells": traced["cells"],
    }
    base = {"wall_s": traced["wall_s"], "processes": 1, "cells": traced["cells"],
            "trace_overhead_base": {"untraced_ms_per_cell": untraced_ms,
                                    "traced_ms_per_cell": traced_ms}}
    return layer_metrics(layers, counts, extra), ledger(layers, base)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


def run_serve(args, run_dir: str, budget: Budget) -> dict:
    out = os.path.join(run_dir, "main.json")
    cmd = [sys.executable, os.path.join(HERE, "serve_load.py"), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out,
           "--cache-root", run_dir, "--deadline", str(max(5.0, budget.left() - 5.0))]
    code, _ = run_child(cmd, child_env(os.path.join(run_dir, "native-client"), run_dir), budget,
                        os.path.join(run_dir, "children.log"))
    for name in os.listdir(run_dir):
        if name.startswith("native-"):
            shutil.rmtree(os.path.join(run_dir, name), ignore_errors=True)
    result = load(out) if code == 0 else None
    if result is None:
        return {"ok": False}
    result["ok"] = True
    return result


def serve_metrics(result: dict) -> dict:
    main = result["main"]
    latency = main["latency_ms"]
    return {
        "setup_s": statistics.median(result["setups"]),
        # Simulated cycles the service answers per second at its highest
        # offered rate that meets the latency limit.
        "cycles_per_s": result["max_rate_at_slo"] * result["mean_cycles"],
        "cell_ms_p50": trace.percentile(latency, 50),
        "cell_ms_p99": trace.percentile(latency, 99),
        "max_rate_at_slo": result["max_rate_at_slo"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def serve_failures(result: dict) -> tuple[int, int]:
    """(attempted, failed) cells over every phase and the output checks."""
    phases = result["phases"]
    attempted = sum(p["cells"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    failed += len(result["served_vs_inline"]["mismatches"])
    return attempted, failed + len(result["recheck"]["mismatches"])


def serve_layers(result: dict) -> tuple[dict, dict]:
    trace_dir = result["trace_dir"]
    cells = result["traced_cells"]
    t0, t1 = result["traced_window"]
    keys = {entry[0] for entry in cells.values()}
    parts, all_parts, counts, compute = [], [], {}, {}
    processes = 0
    for name in sorted(os.listdir(trace_dir)):
        records = []
        with open(os.path.join(trace_dir, name)) as fh:
            for line in fh:
                if line.strip():
                    records.append(json.loads(line))
        processes += 1
        for record in records:
            spans = record["spans"]
            parts.append(trace.summarize(spans, cells=keys | {None}))
            all_parts.append(trace.summarize(spans))
            if any(span[4] in keys for span in spans) or name == "server.json":
                for key, value in record["counts"].items():
                    counts[key] = counts.get(key, 0) + value
            for span in spans:
                if span[0] == "serve.compute" and span[4] in keys:
                    compute.setdefault(span[4], (span[1], span[2]))
    layers = trace.merge_layers(parts)
    everything = trace.merge_layers(all_parts)
    by_key: dict[str, list] = {}
    for key, due, _sent, arrival in cells.values():
        by_key.setdefault(key, []).append((due, arrival))
    wait, busy, back = [], [], []
    for key, (start, end) in compute.items():
        # The submission that triggered this computation: the latest one
        # scheduled before it started (earlier ones were cache or
        # coalescing hits of the same content key).
        triggers = [entry for entry in by_key[key] if entry[0] <= start]
        if not triggers:
            continue
        due, arrival = max(triggers)
        if arrival is None or arrival < end:
            continue
        wait.append((start - due) * 1e3)
        busy.append((end - start) * 1e3)
        back.append((arrival - end) * 1e3)
    window = t1 - t0
    stats = result["stats"] or {}
    cache = stats.get("result_cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    busy_s = sum(min(end, t1) - max(start, t0) for start, end in compute.values()
                 if end > t0 and start < t1)
    plain, traced = result["plain"], result["traced"]
    extra = {
        "sim.native.build_s": everything.get("sim.native.build", {}).get("incl_s", 0.0),
        "serve.queue_wait_ms_p50": trace.percentile(wait, 50),
        "serve.queue_wait_ms_p99": trace.percentile(wait, 99),
        "serve.compute_ms_p50": trace.percentile(busy, 50),
        "serve.compute_ms_p99": trace.percentile(busy, 99),
        "serve.return_ms_p50": trace.percentile(back, 50),
        "serve.return_ms_p99": trace.percentile(back, 99),
        "serve.dedupe_rate": stats.get("dedupe_rate", 0.0),
        "serve.result_cache_hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
        "serve.worker_utilization": busy_s / (result["workers"] * window) if window > 0 else 0.0,
        "serve.pool_rebuilds": stats.get("workers", {}).get("pool_rebuilds", 0),
        "bench.gen_lag_ms_max": traced["gen_lag_ms_max"],
        "bench.trace_overhead": trace.percentile(traced["latency_ms"], 50)
        / trace.percentile(plain["latency_ms"], 50),
        "bench.traced_wall_s": window,
        "bench.traced_cells": len(cells),
    }
    base = {"wall_s": window, "processes": processes, "cells": len(cells),
            "note": "worker and server spans; shares are of processes x wall",
            "trace_overhead_base": {
                "untraced_cell_ms_p50": trace.percentile(plain["latency_ms"], 50),
                "traced_cell_ms_p50": trace.percentile(traced["latency_ms"], 50)}}
    return layer_metrics(layers, counts, extra), ledger(layers, base)


# ----------------------------------------------------------------------
# Per-layer metrics and the ledger
# ----------------------------------------------------------------------


def layer_metrics(layers: dict, counts: dict, extra: dict) -> dict:
    def incl(name):
        return layers.get(name, {}).get("incl_s", 0.0)

    def self_time(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    hits, misses = counts.get("sim.plan.hits", 0), counts.get("sim.plan.misses", 0)
    native_ports = counts.get("sim.native.port_cycles", 0)
    batched_ports = counts.get("sim.batched.port_cycles", 0)
    metrics = {
        "workloads.gen_s": incl("workloads.gen"),
        "workloads.gen_calls": calls("workloads.gen"),
        "api.build_router_s": incl("api.build_router"),
        "api.build_router_calls": calls("api.build_router"),
        "api.resolved.native": counts.get("api.resolved.native", 0),
        "api.resolved.batched": counts.get("api.resolved.batched", 0),
        "api.native_tier.cc": counts.get("api.native_tier.cc", 0),
        "api.native_tier.other": sum(
            v for k, v in counts.items()
            if k.startswith("api.native_tier.") and k != "api.native_tier.cc"
        ),
        "sim.plan.lookup_s": incl("sim.plan.lookup"),
        "sim.plan.hits": hits,
        "sim.plan.misses": misses,
        "sim.plan.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "sim.native.counts_s": incl("sim.native.counts"),
        "sim.native.calls": calls("sim.native.counts"),
        "sim.native.ns_per_port_cycle": incl("sim.native.counts") * 1e9 / native_ports
        if native_ports else 0.0,
        "sim.batched.counts_s": incl("sim.batched.counts"),
        "sim.batched.step_s": incl("sim.batched.step"),
        "sim.batched.step_calls": calls("sim.batched.step"),
        "sim.batched.ns_per_port_cycle": incl("sim.batched.counts") * 1e9 / batched_ports
        if batched_ports else 0.0,
        "sim.rng.spawn_s": incl("sim.rng"),
        "sim.stats.push_s": incl("sim.stats.push"),
        "sim.stats.latency_record_s": incl("sim.stats.latency_record"),
        "sim.montecarlo.self_s": self_time("sim.montecarlo"),
        "sim.buffered.self_s": self_time("sim.buffered"),
        "sim.validate_s": incl("sim.validate"),
        "api.jobs.encode_s": incl("api.jobs.encode"),
    }
    for name in per_layer_units():
        metrics.setdefault(name, 0.0)
    metrics.update(extra)
    return metrics


def ledger(layers: dict, base: dict) -> dict:
    """Each layer's calls, inclusive and self time, and self share of the base."""
    capacity = base["wall_s"] * base["processes"]
    rows = {
        name: {
            "calls": entry["calls"],
            "incl_s": entry["incl_s"],
            "self_s": entry["self_s"],
            "self_share": entry["self_s"] / capacity if capacity else 0.0,
        }
        for name, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
    }
    return {"base": base, "layers": rows}


# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    faulthandler.dump_traceback_later(BUDGET_S + 10, exit=True)
    budget = Budget(BUDGET_S)
    run_dir = os.path.join(ROOT, ".perfbench",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host.host_record(ROOT)}

    serve = args.workload == "serve-mixed"
    result = (run_serve if serve else run_inline)(args, run_dir, budget)
    if not result["ok"]:
        print(f"perfbench: the {args.workload} run failed or hit its deadline; "
              f"see {os.path.join(run_dir, 'children.log')}", file=sys.stderr)
        summary = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(json.dumps(summary))
        return 0

    if args.trace:
        metrics, book = (serve_layers if serve else inline_layers)(result)
        units = per_layer_units()
        record["ledger"] = book
    else:
        metrics = (serve_metrics if serve else inline_metrics)(result)
        units = END_TO_END_UNITS
    attempted, failed = (serve_failures if serve else inline_failures)(result)
    correct = failed == 0 and result["recheck"]["cells"] > 0
    record.update(
        program=result.get("program"),
        backends=result.get("backends"),
        setups_s=result.get("setups"),
        model_validation=result.get("model_validation"),
        recheck=result["recheck"],
        served_vs_inline=result.get("served_vs_inline"),
        ladder=result.get("ladder"),
        server_stats=result.get("stats"),
        attempted=attempted, failed=failed,
        fail_rate=failed / max(1, attempted),
        metrics={name: {"value": metrics[name], "unit": unit}
                 for name, unit in (units if args.trace else {**units, **REPORTED_UNITS}).items()},
    )
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} -> {os.path.relpath(run_dir, ROOT)}")
    h = record["host"]
    print(f"# host: {h['cpu_count']} cores, affinity {h['affinity']}, python {h['python']}, "
          f"numpy {(record['program'] or {}).get('numpy')}, "
          f"native tier {(record['program'] or {}).get('native_default_tier')}, "
          f"OMP env {h['omp_env'] or 'unset'}, load {h['loadavg']}, git {h['git_sha']}")
    shown = units if args.trace else {**units, **REPORTED_UNITS}
    for name in shown:
        print(f"{name:32s} {metrics[name]:>16.6g} {shown[name]}")
    print(f"{'fail_rate':32s} {record['fail_rate']:>16.6g} ratio "
          f"({failed} of {attempted} cells)")
    if args.trace:
        base = record["ledger"]["base"]
        print(f"# ledger: self time per layer, share of {base['processes']} process(es) x "
              f"{base['wall_s']:.3f} s over {base['cells']} cells; trace overhead base "
              f"{base['trace_overhead_base']}")
        for name, row in record["ledger"]["layers"].items():
            print(f"#   {name:28s} calls {row['calls']:>8d}  self {row['self_s']:9.4f} s "
                  f"({100 * row['self_share']:5.1f}%)  incl {row['incl_s']:9.4f} s")
    summary = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
