"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Gives a downstream user the library's main entry points without writing
code:

* ``describe A B C L`` — structure, costs and key metrics of an EDN;
* ``pa A B C L [-r RATE]`` — analytic acceptance (Eq. 4/5) plus an optional
  Monte-Carlo check;
* ``route -t KIND:SHAPE ...`` — measure any topology through the
  :mod:`repro.api` facade; repeat ``-t`` for one-line EDN-vs-delta-vs-
  crossbar-vs-Clos comparisons, ``--backend`` to pin an engine, repeat
  ``--traffic`` for per-workload comparisons
  (``--traffic hotspot:0.1 --traffic bitrev``), ``--faults``/
  ``--fault-rate`` to kill wires (routed on the compiled fault-masked
  kernels), and ``--retry`` for closed-loop retrying sources;
* ``workloads`` — list the registered traffic models and their spec
  syntax, or validate one spec (``repro workloads hotspot:0.2``);
* ``experiment ID ...`` — regenerate paper figures (see ``experiment
  --list``); ``--json``/``--csv`` emit machine-readable figure data;
* ``maspar`` — the Section 5 MasPar MP-1 drain, model and simulation;
* ``mimd A B C L -r RATE`` — Section 4 resubmission analysis;
* ``serve`` — run the sharded simulation service (:mod:`repro.serve`):
  content-keyed result cache, supervised worker pool, streaming partials;
* ``submit`` — send a topology x workload grid to a running service and
  print the results (``--partials`` streams convergence checkpoints);
* ``status`` — a running service's stats (queue depth, worker
  utilization, dedupe rate, per-worker plan-cache hit rates);
* ``cache`` — the in-process routing-plan cache counters.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.core.analysis import acceptance_probability, permutation_acceptance
from repro.core.config import EDNParams
from repro.core.cost import cost_report
from repro.viz.ascii_art import render_network
from repro.viz.tables import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Expanded Delta Networks (Alleyne & Scherson 1992) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser("describe", help="structure and costs of an EDN(a,b,c,l)")
    for name in ("a", "b", "c", "l"):
        describe.add_argument(name, type=int)

    pa = sub.add_parser("pa", help="acceptance probability of an EDN(a,b,c,l)")
    for name in ("a", "b", "c", "l"):
        pa.add_argument(name, type=int)
    pa.add_argument("-r", "--rate", type=float, default=1.0, help="request rate (default 1.0)")
    pa.add_argument(
        "--simulate", type=int, metavar="CYCLES", default=0,
        help="also Monte-Carlo measure over CYCLES cycles",
    )
    pa.add_argument(
        "--batch", type=int, default=None, metavar="CYCLES",
        help="cycles routed per batched chunk (default: auto; 1 = per-cycle engine)",
    )
    pa.add_argument(
        "--backend", default="auto", metavar="NAME",
        help="router backend for --simulate (default: auto; see `repro route`)",
    )

    route = sub.add_parser(
        "route",
        help="measure acceptance of arbitrary topologies via repro.api",
        description=(
            "Monte-Carlo acceptance of one or more topologies under one or "
            "more workloads.  Topologies are KIND:P1,P2,... specs — e.g. "
            "edn:16,4,4,2  delta:4096,4  omega:64  dilated:4096,4,2  "
            "crossbar:64  clos:8,8  benes:64 — and workloads are "
            "NAME[:ARGS] specs (see `repro workloads`), so cross-network "
            "and cross-workload comparisons are one-liners.  The whole "
            "delta family (delta/omega/dilated) compiles to the batched "
            "stage-graph kernels, so baseline sweeps run on the fast path."
        ),
    )
    route.add_argument(
        "-t", "--topology", action="append", required=True, metavar="KIND:SHAPE",
        help="topology spec (repeatable; e.g. edn:16,4,4,2, delta:4096,4, "
             "dilated:4096,4,2, clos:8,8)",
    )
    route.add_argument(
        "--backend", default="auto", metavar="NAME",
        help="router backend: auto, native, batched, vectorized, reference, "
             "matching, looping (native is the C lane kernel, built once per "
             "wire dtype, and needs a C compiler; auto uses batched without "
             "one)",
    )
    route.add_argument(
        "--traffic", action="append", metavar="SPEC", default=None,
        help="workload spec (repeatable; e.g. hotspot:0.1, bitrev, "
             "bursty:on=8,off=24; see `repro workloads`; default: uniform "
             "at the -r rate)",
    )
    route.add_argument(
        "-r", "--rate", type=float, default=1.0,
        help="request rate of the default uniform workload (default 1.0; "
             "explicit --traffic specs carry their own rate arguments)",
    )
    route.add_argument("--cycles", type=int, default=200, help="Monte-Carlo cycles (default 200)")
    route.add_argument("--seed", type=int, default=0, help="reproducibility seed (default 0)")
    route.add_argument(
        "--batch", type=int, default=None, metavar="CYCLES",
        help="cycles routed per batched chunk (default: auto)",
    )
    route.add_argument(
        "--priority", default="label", choices=["label", "random"],
        help="contention discipline (default: label)",
    )
    route.add_argument(
        "--rel-err", type=float, default=None, metavar="FRAC",
        help="adaptive early stopping: treat --cycles as a budget and stop "
             "each measurement once its CI half-width falls to FRAC of the "
             "acceptance estimate (e.g. 0.01)",
    )
    route.add_argument(
        "--faults", action="append", default=None, metavar="S:W:P[,S:W:P...]",
        help="inject dead wires (repeatable): STAGE:SWITCH:WIRE triples, "
             "comma-separated — e.g. --faults 1:0:3,2:5:0; stage-graph "
             "kinds only (edn/delta/omega/dilated), routed on the compiled "
             "fault-masked kernels",
    )
    route.add_argument(
        "--fault-rate", default=None, metavar="P[@SEED]",
        help="additionally kill each interior wire with probability P, "
             "drawn reproducibly from SEED (default 0) — e.g. "
             "--fault-rate 0.02@7",
    )
    route.add_argument(
        "--buffer-depth", type=int, default=None, metavar="DEPTH",
        help="buffered packet switching: per-wire FIFOs of DEPTH packets "
             "with back-pressure instead of drop-on-loss; reports "
             "throughput, latency percentiles, occupancy, and fault "
             "drops (stage-graph kinds only; composes with --faults / "
             "--fault-rate)",
    )
    route.add_argument(
        "--retry", default=None, metavar="N[:BACKOFF[:FACTOR]]",
        help="closed-loop sources: blocked messages retry until delivered, "
             "up to N attempts, with optional exponential backoff — e.g. "
             "--retry 8:1:2; adds per-message attempt/latency columns",
    )
    route.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="deadline per parallel sweep shard / service cell (execution "
             "knob only: never changes results or cache keys)",
    )
    route.add_argument(
        "--cache-stats", action="store_true",
        help="print routing-plan cache hit/miss counters after the run",
    )

    workloads = sub.add_parser(
        "workloads",
        help="list registered traffic models, or validate one spec",
        description=(
            "With no arguments (or --list), print the workload registry: "
            "every traffic model's spec syntax and description.  With a "
            "SPEC, parse and build it, reporting the canonical form and a "
            "sample cycle."
        ),
    )
    workloads.add_argument(
        "spec", nargs="?", metavar="SPEC",
        help="workload spec to validate (e.g. hotspot:0.2, mixture:uniform@0.7+hotspot:0.1@0.3)",
    )
    workloads.add_argument(
        "--list", action="store_true", help="print the registry (the default action)",
    )
    workloads.add_argument(
        "-n", "--terminals", type=int, default=64, metavar="N",
        help="terminal count used to build/sample a SPEC (default 64)",
    )

    experiment = sub.add_parser("experiment", help="regenerate paper figures")
    experiment.add_argument("ids", nargs="*", help="experiment IDs (empty = all)")
    experiment.add_argument("--list", action="store_true", help="list available IDs")
    experiment.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="fan Monte-Carlo grids out over N processes (default: 1)",
    )
    experiment.add_argument(
        "--batch", type=int, default=None, metavar="CYCLES",
        help="cycles per batched-routing chunk for Monte-Carlo experiments",
    )
    experiment.add_argument(
        "--traffic", default=None, metavar="SPEC",
        help="workload spec override for experiments that honor config "
             "traffic (e.g. workload_matrix; see `repro workloads`)",
    )
    experiment.add_argument(
        "--rel-err", type=float, default=None, metavar="FRAC",
        help="adaptive early stopping for Monte-Carlo experiments: cycle "
             "budgets become ceilings, each grid point stops when its CI "
             "half-width falls to FRAC of its estimate",
    )
    experiment.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="deadline per parallel sweep shard (the shard is retried once "
             "on a fresh pool, then the sweep fails)",
    )
    experiment.add_argument(
        "--service", default=None, metavar="ADDR",
        help="route cell-based experiment grids (e.g. workload_matrix) to "
             "a running `repro serve` instance at HOST:PORT or unix:/PATH",
    )
    output = experiment.add_mutually_exclusive_group()
    output.add_argument(
        "--json", action="store_true",
        help="emit results as a JSON array instead of rendered reports",
    )
    output.add_argument(
        "--csv", action="store_true",
        help="emit series/table CSV instead of rendered reports",
    )

    maspar = sub.add_parser("maspar", help="Section 5: MasPar MP-1 drain model + simulation")
    maspar.add_argument(
        "--runs", type=int, default=3, help="random permutations to drain (default 3)"
    )
    maspar.add_argument(
        "--batch", type=int, default=None, metavar="RUNS",
        help="drain RUNS permutations side-by-side on the batched engine",
    )

    mimd = sub.add_parser("mimd", help="Section 4: resubmission Markov analysis")
    for name in ("a", "b", "c", "l"):
        mimd.add_argument(name, type=int)
    mimd.add_argument("-r", "--rate", type=float, default=0.5)

    serve = sub.add_parser(
        "serve",
        help="run the sharded simulation service",
        description=(
            "Long-running simulation-as-a-service: accepts measurement "
            "cells from concurrent clients over JSON lines (TCP or Unix "
            "socket), dedupes them through a content-keyed result cache, "
            "shards misses across a supervised worker pool with warm "
            "per-worker routing-plan caches, and streams partial results "
            "at adaptive-stopping chunk boundaries.  Stop with Ctrl-C or "
            "a client 'shutdown' message."
        ),
    )
    serve.add_argument(
        "--address", default=None, metavar="ADDR",
        help="listen address: HOST:PORT (port 0 = ephemeral) or "
             "unix:/PATH (default 127.0.0.1:8753)",
    )
    serve.add_argument(
        "-w", "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: all cores)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=None, metavar="CELLS",
        help="result-cache capacity in cells (default 65536)",
    )
    serve.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="deadline per cell before its worker is declared stuck and "
             "the cell resubmitted (default: none)",
    )
    serve.add_argument(
        "--max-poison-attempts", type=int, default=None, metavar="N",
        help="pool-killing attempts before a cell is quarantined with a "
             "structured error (default: the supervisor retry bound)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="graceful-shutdown wait for in-flight cells (default 5)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="deterministic fault-injection smoke against the service",
        description=(
            "Runs a chaos scenario against a live in-process simulation "
            "service: worker kills, stalls past the shard timeout, a "
            "connection dropped mid-stream, a malformed frame, and a "
            "poison cell that must be quarantined.  Verifies the "
            "robustness invariants — zero lost cells, byte-identical "
            "results vs an undisturbed run, bounded resubmissions — and "
            "exits non-zero on any violation.  Scenarios are JSON "
            "(see docs/ROBUSTNESS.md); the built-in smoke runs by default."
        ),
    )
    chaos.add_argument(
        "--scenario", default=None, metavar="PATH",
        help="JSON scenario file (default: the built-in smoke scenario)",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="chaos seed: pins backoff jitter and the scenario seed (default 0)",
    )
    chaos.add_argument(
        "--json", action="store_true", help="emit the raw report JSON",
    )

    submit = sub.add_parser(
        "submit",
        help="send a topology x workload grid to a running service",
        description=(
            "Builds the same measurement cells `repro route` would run "
            "inline — one per (topology, traffic) pair, seeded "
            "positionally from --seed — submits them to a running "
            "`repro serve` instance, and prints the result table.  "
            "Results are bit-identical to the inline path; repeated "
            "submissions hit the service's result cache."
        ),
    )
    submit.add_argument(
        "-t", "--topology", action="append", required=True, metavar="KIND:SHAPE",
        help="topology spec (repeatable; see `repro route`)",
    )
    submit.add_argument(
        "--traffic", action="append", metavar="SPEC", default=None,
        help="workload spec (repeatable; default: uniform)",
    )
    submit.add_argument(
        "--address", default=None, metavar="ADDR",
        help="service address, HOST:PORT or unix:/PATH (default 127.0.0.1:8753)",
    )
    submit.add_argument("--cycles", type=int, default=200, help="Monte-Carlo cycles (default 200)")
    submit.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    submit.add_argument(
        "--batch", type=int, default=None, metavar="CYCLES",
        help="cycles routed per batched chunk (default: auto)",
    )
    submit.add_argument(
        "--backend", default="auto", metavar="NAME",
        help="router backend (default: auto)",
    )
    submit.add_argument(
        "--rel-err", type=float, default=None, metavar="FRAC",
        help="adaptive early stopping target (see `repro route`)",
    )
    submit.add_argument(
        "--partials", action="store_true",
        help="print streamed partial results (convergence checkpoints) "
             "as they arrive",
    )

    status = sub.add_parser(
        "status",
        help="stats of a running simulation service",
        description=(
            "Queue depth, worker utilization, dedupe rate, result-cache "
            "and per-worker routing-plan-cache counters of a running "
            "`repro serve` instance."
        ),
    )
    status.add_argument(
        "--address", default=None, metavar="ADDR",
        help="service address, HOST:PORT or unix:/PATH (default 127.0.0.1:8753)",
    )
    status.add_argument(
        "--json", action="store_true", help="emit the raw stats JSON",
    )

    cache = sub.add_parser(
        "cache",
        help="in-process routing-plan cache counters",
        description=(
            "Hits, misses, and size of this process's routing-plan cache "
            "(repro.sim.plan) — the same counters the service's stats "
            "endpoint reports per worker.  Mostly useful after "
            "`repro route --cache-stats` or from code; a fresh CLI "
            "process naturally starts empty."
        ),
    )

    return parser


def _cmd_describe(args: argparse.Namespace) -> int:
    params = EDNParams(args.a, args.b, args.c, args.l)
    print(render_network(params))
    report = cost_report(params)
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["crosspoints (Eq. 2)", report["crosspoints"]],
                ["wires (Eq. 3)", report["wires"]],
                ["crossbar-equivalent crosspoints", report["crossbar_equivalent_crosspoints"]],
                ["cost ratio vs crossbar", report["cost_ratio_vs_crossbar"]],
                ["PA(1) (Eq. 4)", acceptance_probability(params, 1.0)],
                ["PAp(1) (Eq. 5)", permutation_acceptance(params, 1.0)],
            ],
        )
    )
    return 0


def _cmd_pa(args: argparse.Namespace) -> int:
    params = EDNParams(args.a, args.b, args.c, args.l)
    print(f"{params}: PA({args.rate:g}) = {acceptance_probability(params, args.rate):.6f}  "
          f"PAp({args.rate:g}) = {permutation_acceptance(params, args.rate):.6f}")
    if args.simulate:
        # import from the leaf: the package attribute named ``measure`` is
        # the submodule once anything has imported it, not the function
        from repro.api import NetworkSpec, RunConfig
        from repro.api.measure import measure

        measurement = measure(
            NetworkSpec.edn(args.a, args.b, args.c, args.l),
            RunConfig(
                cycles=args.simulate, seed=0, batch=args.batch, backend=args.backend
            ),
            rate=args.rate,
        )
        print(f"simulated over {args.simulate} cycles: {measurement.acceptance}")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.api import NetworkSpec, RunConfig, resolve_backend
    from repro.core.exceptions import ConfigurationError, EDNError
    from repro.core.faults import parse_fault_list, parse_fault_rate, random_graph_faults
    from repro.sim.montecarlo import measure_acceptance
    from repro.sim.rng import make_rng
    from repro.workloads import parse_workload

    try:
        config = RunConfig(
            cycles=args.cycles,
            seed=args.seed,
            batch=args.batch,
            backend=args.backend,
            rel_err=args.rel_err,
            retry=args.retry,
            shard_timeout=args.shard_timeout,
            buffer_depth=args.buffer_depth,
        )
        explicit_faults = tuple(
            fault for text in (args.faults or ()) for fault in parse_fault_list(text)
        )
        fault_rate = parse_fault_rate(args.fault_rate) if args.fault_rate else None
        if config.buffer_depth is not None and config.retry is not None:
            raise ConfigurationError(
                "--buffer-depth and --retry are different latency models; "
                "pick one"
            )
    except EDNError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.traffic:
        traffics = args.traffic
    else:
        traffics = ["uniform" if args.rate >= 1.0 else f"uniform:{args.rate:g}"]
    if config.buffer_depth is not None:
        return _route_buffered(args, config, traffics, explicit_faults, fault_rate)
    rows = []
    for text in args.topology:
        try:
            spec = NetworkSpec.parse(text, priority=args.priority)
            if explicit_faults or fault_rate is not None:
                faults = explicit_faults
                if fault_rate is not None:
                    # Each topology gets its own reproducible draw in its
                    # own wire space; the spec validates the union.
                    rate, fault_seed = fault_rate
                    faults += random_graph_faults(
                        spec.stage_graph(), rate, make_rng(fault_seed)
                    ).canonical()
                spec = replace(spec, faults=faults)
            # Resolve once, build once: the displayed backend is the
            # measured one by construction, and one router serves every
            # workload row (identical seeds -> comparable columns).
            backend = resolve_backend(spec, config.backend)
            router = backend.builder(spec)
            for traffic_text in traffics:
                workload = parse_workload(traffic_text)
                traffic = workload.build(router.n_inputs, router.n_outputs)
                measurement = measure_acceptance(router, traffic, config=config)
                interval = measurement.acceptance
                row = [
                    spec.label,
                    workload.label,
                    spec.n_inputs,
                    backend.name,
                    f"{interval.point:.6f}",
                    f"[{interval.low:.4f}, {interval.high:.4f}]",
                    measurement.cycles,
                ]
                if explicit_faults or fault_rate is not None:
                    row.insert(4, len(spec.faults))
                if config.retry is not None:
                    row += [
                        f"{measurement.attempts.point:.3f}",
                        f"{measurement.latency.point:.3f}",
                        measurement.abandoned,
                    ]
                rows.append(row)
        except EDNError as exc:
            print(f"error: {text}: {exc}", file=sys.stderr)
            return 2
    budget = (
        f"adaptive (rel-err {args.rel_err:g}, budget {args.cycles})"
        if args.rel_err is not None
        else f"{args.cycles} cycles"
    )
    headers = ["topology", "traffic", "inputs", "backend", "PA", "95% CI", "cycles"]
    if explicit_faults or fault_rate is not None:
        headers.insert(4, "faults")
    title = f"Monte-Carlo acceptance, {budget}, seed {args.seed}"
    if config.retry is not None:
        headers += ["attempts", "latency", "abandoned"]
        title += f", retry {config.retry.label}"
    print(format_table(headers, rows, title=title))
    if args.cache_stats:
        print()
        print(_plan_cache_table())
    return 0


def _route_buffered(args, config, traffics, explicit_faults, fault_rate) -> int:
    """The buffered branch of ``repro route`` (``--buffer-depth``).

    Cells go through :func:`~repro.api.jobs.measure_cell` — the same
    single definition the service workers and ``ParallelSweep`` execute —
    so a CLI row, a served cell, and an inline sweep cell are bit-identical
    by construction.
    """
    from dataclasses import replace

    from repro.api import NetworkSpec
    from repro.api.jobs import SweepCell, measure_cell
    from repro.core.exceptions import EDNError
    from repro.core.faults import random_graph_faults
    from repro.sim.rng import make_rng
    from repro.workloads import parse_workload

    faulted = bool(explicit_faults) or fault_rate is not None
    rows = []
    for text in args.topology:
        try:
            spec = NetworkSpec.parse(text, priority=args.priority)
            if faulted:
                faults = explicit_faults
                if fault_rate is not None:
                    rate, fault_seed = fault_rate
                    faults += random_graph_faults(
                        spec.stage_graph(), rate, make_rng(fault_seed)
                    ).canonical()
                spec = replace(spec, faults=faults)
            for traffic_text in traffics:
                workload = parse_workload(traffic_text)
                cell = SweepCell(spec, replace(config, traffic=workload.label))
                m = measure_cell(cell)
                row = [
                    spec.label,
                    workload.label,
                    spec.n_inputs,
                    m.depth,
                    f"{m.throughput:.6f}",
                    f"{m.mean_latency:.2f}",
                    m.latency.percentile(0.50),
                    m.latency.percentile(0.95),
                    m.latency.percentile(0.99),
                    f"{m.mean_occupancy:.3f}",
                    m.in_flight,
                ]
                if faulted:
                    row.insert(4, len(spec.faults))
                    row.append(m.dropped)
                rows.append(row)
        except EDNError as exc:
            print(f"error: {text}: {exc}", file=sys.stderr)
            return 2
    headers = [
        "topology", "traffic", "inputs", "depth", "throughput",
        "latency", "p50", "p95", "p99", "occupancy", "in-flight",
    ]
    if faulted:
        headers.insert(4, "faults")
        headers.append("dropped")
    title = (
        f"Buffered packet switching, depth {config.buffer_depth}, "
        f"{args.cycles} cycles (warmup {args.cycles // 4}), seed {args.seed}"
    )
    print(format_table(headers, rows, title=title))
    if args.cache_stats:
        print()
        print(_plan_cache_table())
    return 0


def _plan_cache_table() -> str:
    """The routing-plan cache counters as a rendered table."""
    from repro.sim.plan import plan_cache_info

    info = plan_cache_info()
    return format_table(
        ["counter", "value"],
        [[name, info[name]] for name in ("hits", "misses", "size", "maxsize")],
        title="routing-plan cache (repro.sim.plan)",
    )


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.core.exceptions import EDNError
    from repro.sim.rng import make_rng
    from repro.workloads import parse_workload, workload_catalog

    if args.spec:
        try:
            workload = parse_workload(args.spec)
            traffic = workload.build(args.terminals, args.terminals)
            sample = traffic.generate(make_rng(0))
        except EDNError as exc:
            print(f"error: {args.spec}: {exc}", file=sys.stderr)
            return 2
        preview = ", ".join(str(d) for d in sample[:16])
        if len(sample) > 16:
            preview += ", ..."
        print(
            format_table(
                ["property", "value"],
                [
                    ["canonical spec", traffic.describe()],
                    ["model", type(traffic).__name__],
                    ["terminals", f"{traffic.n_inputs} -> {traffic.n_outputs}"],
                    ["sample cycle (seed 0)", preview],
                ],
                title=f"workload {workload.label}",
            )
        )
        return 0
    rows = [
        [
            entry.name + (f" ({', '.join(entry.aliases)})" if entry.aliases else ""),
            entry.syntax,
            entry.summary,
        ]
        for entry in workload_catalog()
    ]
    print(
        format_table(
            ["workload", "spec syntax", "description"],
            rows,
            title="Registered traffic models (`--traffic SPEC`, RunConfig(traffic=...))",
        )
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    if args.list:
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0
    unknown = [i for i in args.ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {unknown}; try --list", file=sys.stderr)
        return 2
    ids = args.ids or sorted(EXPERIMENTS)
    if args.json:
        # A single JSON array has to buffer; the streaming modes below
        # keep the historical report-as-it-completes behavior.
        import json

        results = [
            run_experiment(
                experiment_id,
                jobs=args.jobs,
                batch=args.batch,
                traffic=args.traffic,
                rel_err=args.rel_err,
                shard_timeout=args.shard_timeout,
                service=args.service,
            )
            for experiment_id in ids
        ]
        print(json.dumps([result.to_dict() for result in results], indent=2))
    elif args.csv:
        for experiment_id in ids:
            result = run_experiment(
                experiment_id,
                jobs=args.jobs,
                batch=args.batch,
                traffic=args.traffic,
                rel_err=args.rel_err,
                shard_timeout=args.shard_timeout,
                service=args.service,
            )
            if result.series:
                print(f"# {result.experiment_id}: series")
                print(result.series_csv(), end="")
            for name in result.tables:
                print(f"# {result.experiment_id}: table: {name}")
                print(result.table_csv(name), end="")
    else:
        from repro.experiments.registry import main as run_all

        run_all(
            args.ids or None,
            jobs=args.jobs,
            batch=args.batch,
            traffic=args.traffic,
            rel_err=args.rel_err,
            shard_timeout=args.shard_timeout,
            service=args.service,
        )
    return 0


def _cmd_maspar(args: argparse.Namespace) -> int:
    from repro.experiments.sec5_raedn import run, run_simulation

    print(run().render())
    print()
    print(run_simulation(runs=args.runs, seed=42, drain_batch=args.batch).render())
    return 0


def _cmd_mimd(args: argparse.Namespace) -> int:
    from repro.mimd.markov import edn_resubmission

    params = EDNParams(args.a, args.b, args.c, args.l)
    solution = edn_resubmission(params, args.rate)
    print(
        format_table(
            ["quantity", "value"],
            [
                ["PA (rejects ignored)", acceptance_probability(params, args.rate)],
                ["PA' (resubmitted)", solution.pa_resubmit],
                ["effective rate r'", solution.effective_rate],
                ["q_active (efficiency)", solution.q_active],
                ["q_waiting", solution.q_waiting],
                ["bandwidth/input/cycle", solution.bandwidth_per_input],
            ],
            title=f"{params} at r = {args.rate:g} (Eqs. 7-11)",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.protocol import DEFAULT_ADDRESS
    from repro.serve.server import serve_forever

    address = args.address if args.address is not None else DEFAULT_ADDRESS

    def _announce(server) -> None:
        print(
            f"repro serve: listening on {server.bound_address} "
            f"({server.workers} workers, cache {server.cache.maxsize} cells"
            + (
                f", shard timeout {server.shard_timeout:g}s"
                if server.shard_timeout is not None
                else ""
            )
            + ")",
            flush=True,
        )

    kwargs = {}
    if args.cache_size is not None:
        kwargs["cache_size"] = args.cache_size
    try:
        asyncio.run(
            serve_forever(
                address,
                workers=args.workers,
                shard_timeout=args.shard_timeout,
                max_poison_attempts=args.max_poison_attempts,
                drain_timeout=args.drain_timeout,
                ready=_announce,
                **kwargs,
            )
        )
    except KeyboardInterrupt:
        print("repro serve: stopped", file=sys.stderr)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from repro.serve.chaos import ChaosScenario, run_scenario, smoke_cells, smoke_scenario

    if args.scenario is not None:
        with open(args.scenario) as handle:
            scenario = ChaosScenario.from_payload(json.load(handle))
        if args.seed:
            scenario = dataclasses.replace(scenario, seed=args.seed)
    else:
        scenario = smoke_scenario(seed=args.seed)
    cells = smoke_cells()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as chaos_dir:
        report = run_scenario(scenario, cells, chaos_dir)
    payload = report.to_payload()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"chaos scenario {report.scenario!r}: "
            f"{report.measured}/{report.total_cells} cells measured "
            f"byte-identically, {len(report.quarantined)} quarantined, "
            f"{report.reconnects} reconnect(s), "
            f"{report.resubmissions} resubmission(s), "
            f"{report.pool_rebuilds} pool rebuild(s)"
        )
        if report.violations:
            for violation in report.violations:
                print(f"  VIOLATION: {violation}")
        else:
            print("  all robustness invariants held")
    return 0 if report.ok else 1


def _build_submit_cells(args: argparse.Namespace):
    """The (cell, labels) grid `repro submit` sends — seeded like a sweep.

    One cell per (topology, traffic) pair; each gets the positional child
    of the master seed (the :func:`~repro.sim.rng.spawn_keys` convention),
    so a resubmission — or the same grid run inline — reproduces the
    numbers bit for bit.
    """
    from repro.api import NetworkSpec, RunConfig
    from repro.api.jobs import SweepCell
    from repro.sim.rng import spawn_keys
    from repro.workloads import parse_workload

    traffics = args.traffic or ["uniform"]
    pairs = [
        (NetworkSpec.parse(text), parse_workload(traffic_text))
        for text in args.topology
        for traffic_text in traffics
    ]
    cells = [
        SweepCell(
            spec=spec,
            config=RunConfig(
                cycles=args.cycles,
                seed=key,
                batch=args.batch,
                backend=args.backend,
                rel_err=args.rel_err,
                traffic=workload.label,
            ),
        )
        for (spec, workload), key in zip(pairs, spawn_keys(args.seed, len(pairs)))
    ]
    labels = [(spec.label, workload.label) for spec, workload in pairs]
    return cells, labels


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.core.exceptions import EDNError
    from repro.serve.client import ServiceClient, ServiceError
    from repro.serve.protocol import DEFAULT_ADDRESS

    address = args.address if args.address is not None else DEFAULT_ADDRESS
    try:
        cells, labels = _build_submit_cells(args)
    except EDNError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    key_to_label = {cell.key(): label for cell, label in zip(cells, labels)}

    def _print_partial(message: dict) -> None:
        topology, traffic = key_to_label.get(message["key"], ("?", "?"))
        point, low, high = message["acceptance"]
        print(
            f"partial: {topology} x {traffic}: PA={point:.6f} "
            f"[{low:.4f}, {high:.4f}] after {message['cycles']} cycles",
            flush=True,
        )

    try:
        with ServiceClient(address) as client:
            results = client.submit(
                cells, on_partial=_print_partial if args.partials else None
            )
    except (ServiceError, OSError) as exc:
        print(f"error: service at {address}: {exc}", file=sys.stderr)
        return 1

    rows = []
    for (topology, traffic), cell, result in zip(labels, cells, results):
        interval = result.measurement.acceptance
        rows.append([
            topology,
            traffic,
            cell.spec.n_inputs,
            f"{interval.point:.6f}",
            f"[{interval.low:.4f}, {interval.high:.4f}]",
            result.measurement.cycles,
            "hit" if result.cached else f"pid {result.worker}",
        ])
    budget = (
        f"adaptive (rel-err {args.rel_err:g}, budget {args.cycles})"
        if args.rel_err is not None
        else f"{args.cycles} cycles"
    )
    print(
        format_table(
            ["topology", "traffic", "inputs", "PA", "95% CI", "cycles", "served by"],
            rows,
            title=f"service {address}, {budget}, seed {args.seed}",
        )
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.serve.client import ServiceClient, ServiceError
    from repro.serve.protocol import DEFAULT_ADDRESS

    address = args.address if args.address is not None else DEFAULT_ADDRESS
    try:
        with ServiceClient(address, timeout=10.0) as client:
            stats = client.status()
    except (ServiceError, OSError) as exc:
        print(f"error: service at {address}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        import json

        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    workers = stats["workers"]
    cells = stats["cells"]
    result_cache = stats["result_cache"]
    rows = [
        ["address", stats["address"]],
        ["uptime", f"{stats['uptime_s']:.1f}s"],
        ["workers busy/configured", f"{workers['busy']}/{workers['configured']}"],
        ["worker utilization", f"{workers['utilization']:.0%}"],
        ["queue depth", stats["queue_depth"]],
        ["pool rebuilds", workers["pool_rebuilds"]],
        ["jobs completed/submitted",
         f"{stats['jobs']['completed']}/{stats['jobs']['submitted']}"],
        ["cells completed/submitted",
         f"{cells['completed']}/{cells['submitted']}"],
        ["cells computed", cells["computed"]],
        ["cells deduped (cache/coalesce/in-job)",
         f"{cells['cached']}/{cells['coalesced']}/{cells['deduped_in_job']}"],
        ["cells resubmitted", cells["resubmitted"]],
        ["cells failed", cells["failed"]],
        ["cells quarantined",
         f"{cells['quarantined']} ({stats['quarantine']['size']} keys held)"],
        ["dedupe rate", f"{stats['dedupe_rate']:.1%}"],
        ["partials streamed", stats["partials_streamed"]],
        ["result cache hits/misses/size",
         f"{result_cache['hits']}/{result_cache['misses']}/{result_cache['size']}"],
    ]
    for pid, info in stats["plan_cache"]["per_worker"].items():
        rows.append([
            f"plan cache (worker {pid}) hits/misses/size",
            f"{info['hits']}/{info['misses']}/{info['size']}",
        ])
    print(format_table(["stat", "value"], rows, title="simulation service status"))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    print(_plan_cache_table())
    return 0


_COMMANDS = {
    "describe": _cmd_describe,
    "pa": _cmd_pa,
    "route": _cmd_route,
    "workloads": _cmd_workloads,
    "experiment": _cmd_experiment,
    "maspar": _cmd_maspar,
    "mimd": _cmd_mimd,
    "serve": _cmd_serve,
    "chaos": _cmd_chaos,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "cache": _cmd_cache,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: normal CLI etiquette.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
