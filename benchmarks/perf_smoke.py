"""Perf smoke harness: batched vs per-cycle Monte-Carlo wall-clock.

Times ``measure_acceptance`` over the same workload through the per-cycle
reference interpreter (:class:`~repro.sim.stagegraph.StageGraphReference`,
``batch=1``) and the compiled router (:class:`~repro.sim.batched.BatchedEDN`,
auto chunking) at
``N`` in {1024, 4096, 16384} (the ``EDN(16,4,4,l)`` family for
``l`` in {4, 5, 6}), then writes ``BENCH_batched_routing.json`` at the
repository root so later PRs can track the perf trajectory.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf_smoke.py
    PYTHONPATH=src python benchmarks/perf_smoke.py --backend-matrix
    PYTHONPATH=src python benchmarks/perf_smoke.py --workload-matrix
    PYTHONPATH=src python benchmarks/perf_smoke.py --plan-cache
    PYTHONPATH=src python benchmarks/perf_smoke.py --baseline-matrix
    PYTHONPATH=src python benchmarks/perf_smoke.py --fault-matrix
    PYTHONPATH=src python benchmarks/perf_smoke.py --serve-matrix
    PYTHONPATH=src python benchmarks/perf_smoke.py --saturation
    PYTHONPATH=src python benchmarks/perf_smoke.py --fault-buffered

Default mode exits non-zero if the N=4096 point falls below the 5x speedup
floor this optimization was merged under (the recorded acceptance
criterion).  ``--backend-matrix`` instead sweeps every registered
``repro.api`` backend of the same EDNs and records per-backend wall-clock
into ``BENCH_backend_matrix.json`` (the reference engine gets a reduced
cycle budget — it routes per message, in Python — and times are reported
per cycle so backends stay comparable).  ``--workload-matrix`` sweeps the
``workload_matrix`` experiment's topology x traffic grid through the
batched backend and records per-cell wall-clock and acceptance into
``BENCH_workload_matrix.json``, asserting every built-in workload keeps
the fast path (vectorized ``generate_batch``, natively batched router).
``--fault-matrix`` draws a seeded wire-fault pattern on every family's
stage graph and times faulted Monte-Carlo through the compiled masked
plans against the per-cycle loop reference (bit-identical counts
asserted per cell) and, on EDN, the per-message grant-semantics
reference (>=10x per-cycle floor at N=4096), recording
``BENCH_fault_matrix.json``.  ``--serve-matrix`` benchmarks the
``repro.serve`` simulation service end to end — cells/sec against worker
count (>=3x 1->4 workers asserted on >=4-core hosts), four concurrent
clients pushing >=1000 overlapping cells through one instance (server
dedupe rate floor 0.5), per-worker plan-cache hit rates, streaming
partials, and service-vs-inline bit-identity — into ``BENCH_serve.json``.
``--saturation`` times buffered stepping at N=4096 — the compiled
per-wire FIFO kernels against the per-packet reference interpreter (>=5x
floor, bit-identical measurements asserted) — and records the ``saturation``
experiment's detected knees at N=64 into ``BENCH_saturation.json``.
``--fault-buffered`` times faulty vs fault-free buffered stepping at
N=4096 through the same compiled FIFO kernels (fault-overhead ceiling
1.5x asserted, whole-run packet conservation and ``apply_faults`` drop
accounting checked) into ``BENCH_fault_buffered.json``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.api import NetworkSpec, available_backends, build_router, resolve_backend
from repro.core.config import EDNParams
from repro.sim.batched import BatchedEDN, CompiledStageRouter
from repro.sim.montecarlo import measure_acceptance
from repro.sim.stagegraph import StageGraphReference, edn_graph
from repro.workloads import TrafficGenerator, UniformTraffic, make_traffic

#: EDN(16,4,4,l) has (16/4)^l * 4 inputs: l = 4, 5, 6 -> 1K, 4K, 16K.
SIZES = {1_024: 4, 4_096: 5, 16_384: 6}
CYCLES = 200
SEED = 0
REPEATS = 3
SPEEDUP_FLOOR = 5.0  # acceptance criterion, enforced at N = 4096
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batched_routing.json"

MATRIX_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_backend_matrix.json"
#: Cycle budgets per backend: the array engines amortize, the per-message
#: reference engine costs ~10^4 slower per cycle at N=16K.
MATRIX_CYCLES = {"batched": 200, "vectorized": 200, "reference": 2}

WORKLOAD_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_workload_matrix.json"
WORKLOAD_CYCLES = 200

BASELINE_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_baseline_matrix.json"
#: The compiled delta-family baselines timed by --baseline-matrix.
BASELINE_TOPOLOGIES = ("delta:{n},4", "omega:{n}", "dilated:{n},4,2")
BASELINE_SIZES = (1_024, 4_096)
BASELINE_CYCLES = 100
#: Compiled-vs-loop speedup floor asserted at N = 4096 (merge criterion).
BASELINE_SPEEDUP_FLOOR = 3.0

FAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_fault_matrix.json"
#: All four stage-graph families route faulted fabrics on the compiled
#: kernels; EDN(16,4,4,l) reaches 1K/4K inputs at l = 4/5.
FAULT_TOPOLOGIES = ("edn:16,4,4,{l}", "delta:{n},4", "omega:{n}", "dilated:{n},4,2")
FAULT_SIZES = {1_024: 4, 4_096: 5}
FAULT_RATE = 0.01
FAULT_SEED = 7
FAULT_CYCLES = 100
#: Cycle budget of the per-message reference engine (Python, per message).
FAULT_REFERENCE_CYCLES = 2
#: Faulted Monte-Carlo speedup floor vs the per-message fault reference,
#: asserted at N = 4096 (merge criterion of the fault-lowering PR).
FAULT_SPEEDUP_FLOOR = 10.0

SERVE_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
#: Worker counts swept by the serve scaling phase (fresh server each).
SERVE_SCALING_WORKERS = (1, 2, 4)
#: Unique cells per scaling run (seeds 0..N-1 of one EDN topology).
SERVE_SCALING_CELLS = 64
SERVE_SCALING_CYCLES = 200
#: 1 -> 4 worker speedup floor, asserted when the host has >= 4 cores
#: (worker processes cannot scale past the physical core count).
SERVE_SCALING_FLOOR = 3.0
#: Concurrent clients x cells each in the dedupe/throughput phase; the
#: total submitted stream must clear SERVE_MIN_CELLS.
SERVE_CLIENTS = 4
SERVE_CELLS_PER_CLIENT = 300
SERVE_MIN_CELLS = 1_000
#: Server-reported dedupe-rate floor for the overlapping client streams
#: (4 identical grids -> 3/4 of submissions are dupes; floor at 1/2).
SERVE_DEDUPE_FLOOR = 0.5
#: Cells sampled for the service-vs-inline bit-identity check.
SERVE_IDENTITY_SAMPLE = 5

SATURATION_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_saturation.json"
#: EDN(16,4,4,5) puts the buffered comparison at N = 4096 terminals.
SATURATION_STAGES = 5
SATURATION_DEPTH = 2
#: Cycle budget of the timed buffered runs (the per-packet interpreter
#: walks every FIFO in Python, tens of ms per cycle at N = 4096).
SATURATION_CYCLES = 40
SATURATION_WARMUP = 10
#: Compiled-vs-per-packet speedup floor asserted at N = 4096 (the merge
#: criterion of the buffered stage-graph PR).
SATURATION_SPEEDUP_FLOOR = 5.0
#: Knee curves are swept at N = 64 (EDN(16,4,4,2) and kin) where the
#: full rate ladder stays cheap.
SATURATION_KNEE_CYCLES = 200
SATURATION_KNEE_WARMUP = 50

FAULT_BUFFERED_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_fault_buffered.json"
#: EDN(16,4,4,l) reaches 1K/4K inputs at l = 4/5 for the faulty-buffered
#: comparison; depth and cycle budget mirror --saturation.
FAULT_BUFFERED_SIZES = {1_024: 4, 4_096: 5}
FAULT_BUFFERED_DEPTH = 2
#: warmup=0 so the whole-run conservation identity
#: (injected == delivered + in_flight + dropped) is checked exactly.
FAULT_BUFFERED_CYCLES = 50
#: Fault masks ride the same compiled FIFO kernels as pristine plans, so
#: a faulted buffered run may cost at most this multiple of the
#: fault-free run at N = 4096 (merge criterion of the faulty-buffered
#: PR: damage must not fall off the fast path).
FAULT_BUFFERED_OVERHEAD_CEILING = 1.5

PLAN_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_plan_cache.json"
#: Fixed-budget cycles per repeated call in the plan-cache comparison —
#: sized like an adaptive refinement probe, the regime repeated-call
#: sweeps actually run in (setup cost matters at this scale).
PLAN_CALL_CYCLES = 8
#: Best-of repetitions for the plan-cache benchmark (short calls need
#: more samples for a stable best).
PLAN_REPEATS = 9
#: Relative half-width target of the matched-precision adaptive sweep.
PLAN_SWEEP_REL_ERR = 0.005
#: Cycle-savings floor of adaptive vs fixed budgeting at equal CI width.
PLAN_SAVINGS_FLOOR = 0.30
#: End-to-end sweep speedup floor (warm plans + adaptive stopping vs
#: uncached plans + a fixed budget).
PLAN_SWEEP_SPEEDUP_FLOOR = 2.0


def _best_of(repeats: int, fn) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run(output: Path = OUTPUT) -> dict:
    results = []
    for n_inputs, stages in SIZES.items():
        params = EDNParams(16, 4, 4, stages)
        assert params.num_inputs == n_inputs
        traffic = UniformTraffic(n_inputs, n_inputs, 1.0)
        per_cycle_s, per_cycle = _best_of(
            REPEATS,
            lambda: measure_acceptance(
                StageGraphReference(edn_graph(params)),
                traffic,
                cycles=CYCLES,
                seed=SEED,
                batch=1,
            ),
        )
        batched_engine = BatchedEDN(params)
        batched_s, batched = _best_of(
            REPEATS,
            lambda: measure_acceptance(
                batched_engine, traffic, cycles=CYCLES, seed=SEED
            ),
        )
        entry = {
            "network": str(params),
            "n_inputs": n_inputs,
            "cycles": CYCLES,
            "per_cycle_seconds": round(per_cycle_s, 4),
            "batched_seconds": round(batched_s, 4),
            "speedup": round(per_cycle_s / batched_s, 2),
            "chunk": batched_engine.preferred_batch(),
            "pa_per_cycle": round(per_cycle.point, 6),
            "pa_batched": round(batched.point, 6),
        }
        results.append(entry)
        print(
            f"N={n_inputs:>6}: per-cycle {per_cycle_s:.3f}s  "
            f"batched {batched_s:.3f}s  speedup {entry['speedup']:.1f}x"
        )

    report = {
        "benchmark": "batched_routing",
        "workload": f"measure_acceptance, uniform traffic r=1.0, {CYCLES} cycles, seed {SEED}",
        "engines": {
            "per_cycle": "StageGraphReference via measure_acceptance(batch=1)",
            "batched": "BatchedEDN via measure_acceptance(batch=auto)",
        },
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "results": results,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return report


def run_backend_matrix(output: Path = MATRIX_OUTPUT) -> dict:
    """Time every registered backend of the benchmark EDNs; write JSON.

    Each (network, backend) cell times ``measure_acceptance`` under the
    backend's cycle budget, best of :data:`REPEATS` (the default mode's
    noise-suppression methodology); ``seconds_per_cycle`` is the
    comparable figure, ``seconds`` the recorded best wall-clock.
    """
    results = []
    for n_inputs, stages in SIZES.items():
        spec = NetworkSpec.edn(16, 4, 4, stages)
        assert spec.n_inputs == n_inputs
        traffic = UniformTraffic(n_inputs, n_inputs, 1.0)
        for backend in available_backends(spec):
            cycles = MATRIX_CYCLES.get(backend, CYCLES)
            router = build_router(spec, backend)
            elapsed, measurement = _best_of(
                REPEATS,
                lambda: measure_acceptance(router, traffic, cycles=cycles, seed=SEED),
            )
            entry = {
                "network": str(spec.edn_params),
                "n_inputs": n_inputs,
                "backend": backend,
                "cycles": cycles,
                "seconds": round(elapsed, 4),
                "seconds_per_cycle": round(elapsed / cycles, 6),
                "pa": round(measurement.point, 6),
            }
            results.append(entry)
            print(
                f"N={n_inputs:>6} {backend:>10}: {elapsed:.3f}s over "
                f"{cycles} cycles ({entry['seconds_per_cycle']:.6f} s/cycle)"
            )
    report = {
        "benchmark": "backend_matrix",
        "workload": "measure_acceptance, uniform traffic r=1.0, seed 0",
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "results": results,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return report


def run_workload_matrix(output: Path = WORKLOAD_OUTPUT) -> dict:
    """Time the topology x traffic grid on the batched backend; write JSON.

    Reuses the grid of :mod:`repro.experiments.workload_matrix` so the
    recorded numbers describe the registered experiment.  Each cell
    asserts the fast-path contract this subsystem was merged under:
    ``auto`` resolves to a natively batched router, and the workload's
    ``generate_batch`` is an override of the vectorized kind (never the
    base class's per-cycle stacking loop).
    """
    from repro.experiments.workload_matrix import TOPOLOGIES, TRAFFIC

    results = []
    for topology in TOPOLOGIES:
        spec = NetworkSpec.parse(topology)
        backend = resolve_backend(spec, "auto")
        assert backend.batched, f"auto gave {spec} the non-batched {backend.name}"
        router = backend.builder(spec)
        for traffic_text in TRAFFIC:
            generator = make_traffic(traffic_text, router.n_inputs, router.n_outputs)
            assert (
                type(generator).generate_batch is not TrafficGenerator.generate_batch
            ), f"{traffic_text} fell back to the per-cycle generate loop"
            elapsed, measurement = _best_of(
                REPEATS,
                lambda: measure_acceptance(
                    router, generator, cycles=WORKLOAD_CYCLES, seed=SEED
                ),
            )
            entry = {
                "topology": spec.label,
                "traffic": traffic_text,
                "backend": backend.name,
                "generator": type(generator).__name__,
                "cycles": WORKLOAD_CYCLES,
                "seconds": round(elapsed, 4),
                "seconds_per_cycle": round(elapsed / WORKLOAD_CYCLES, 6),
                "pa": round(measurement.point, 6),
            }
            results.append(entry)
            print(
                f"{spec.label:>13} x {traffic_text:<36}: {elapsed:.4f}s "
                f"over {WORKLOAD_CYCLES} cycles  PA={entry['pa']:.4f}"
            )
    report = {
        "benchmark": "workload_matrix",
        "workload": "measure_acceptance over the repro.experiments.workload_matrix grid, seed 0",
        "fast_path": (
            "asserted per cell: natively batched router under backend=auto, "
            "vectorized generate_batch on every built-in traffic model"
        ),
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "results": results,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return report


def run_baseline_matrix(output: Path = BASELINE_OUTPUT) -> tuple[dict, list[str]]:
    """Compiled delta-family baselines vs the per-cycle loop path; write JSON.

    For every baseline topology (``delta``/``omega``/``dilated``) at
    :data:`BASELINE_SIZES` terminals, time ``measure_acceptance`` through
    the ``batched`` backend (the compiled stage-graph kernels) and the
    ``vectorized`` backend (the sort-based per-cycle interpreter behind
    ``_BatchByLoop`` — exactly the path every baseline routed through
    before the stage-graph refactor), under identical ``(seed, cycles)``.
    Label priority is deterministic, so both paths must report
    *bit-identical* acceptance counts — asserted per cell — and the
    compiled path must beat the loop path by at least
    :data:`BASELINE_SPEEDUP_FLOOR` x at ``N = 4096`` (the merge
    criterion).

    Returns ``(report, failures)``.
    """
    results = []
    failures: list[str] = []
    for n_inputs in BASELINE_SIZES:
        for template in BASELINE_TOPOLOGIES:
            text = template.format(n=n_inputs)
            spec = NetworkSpec.parse(text)
            assert spec.n_inputs == n_inputs
            traffic = UniformTraffic(spec.n_inputs, spec.n_outputs, 1.0)
            compiled = build_router(spec, "batched")
            loop = build_router(spec, "vectorized")
            compiled_s, compiled_m = _best_of(
                REPEATS,
                lambda: measure_acceptance(
                    compiled, traffic, cycles=BASELINE_CYCLES, seed=SEED
                ),
            )
            loop_s, loop_m = _best_of(
                REPEATS,
                lambda: measure_acceptance(
                    loop, traffic, cycles=BASELINE_CYCLES, seed=SEED
                ),
            )
            identical = (
                compiled_m.offered == loop_m.offered
                and compiled_m.delivered == loop_m.delivered
                and compiled_m.blocked_by_stage == loop_m.blocked_by_stage
            )
            if not identical:
                failures.append(f"{text}: compiled and loop counts diverge")
            speedup = loop_s / compiled_s
            entry = {
                "topology": spec.label,
                "n_inputs": n_inputs,
                "cycles": BASELINE_CYCLES,
                "compiled_seconds": round(compiled_s, 4),
                "loop_seconds": round(loop_s, 4),
                "speedup": round(speedup, 2),
                "pa": round(compiled_m.point, 6),
                "counts_bit_identical": identical,
            }
            results.append(entry)
            print(
                f"N={n_inputs:>6} {spec.label:<16}: compiled {compiled_s:.3f}s  "
                f"loop {loop_s:.3f}s  speedup {speedup:.1f}x  "
                f"identical={identical}"
            )
            if n_inputs == 4_096 and speedup < BASELINE_SPEEDUP_FLOOR:
                failures.append(
                    f"{text}: speedup {speedup:.1f}x below the "
                    f"{BASELINE_SPEEDUP_FLOOR:.0f}x floor"
                )
    report = {
        "benchmark": "baseline_matrix",
        "workload": (
            f"measure_acceptance, uniform traffic r=1.0, {BASELINE_CYCLES} "
            f"cycles, seed {SEED}"
        ),
        "engines": {
            "compiled": "CompiledStageRouter via backend=batched (plan-cached stage-graph kernels)",
            "loop": "StageGraphReference via backend=vectorized (_BatchByLoop per-cycle path)",
        },
        "floor": {
            "speedup_at_4096": BASELINE_SPEEDUP_FLOOR,
            "counts": "bit-identical per cell",
        },
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "results": results,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return report, failures


def run_fault_matrix(output: Path = FAULT_OUTPUT) -> tuple[dict, list[str]]:
    """Faulted Monte-Carlo: compiled masked plans vs the references; write JSON.

    Every family in :data:`FAULT_TOPOLOGIES` at :data:`FAULT_SIZES`
    terminals gets a seeded ~:data:`FAULT_RATE` wire-fault pattern drawn
    on its stage graph, then times ``measure_acceptance`` through the
    ``batched`` backend (fault masks lowered into the compiled
    :class:`~repro.sim.plan.StagePlan`) and the ``vectorized`` backend
    (:class:`~repro.sim.stagegraph.StageGraphReference`, the per-cycle
    loop path) under identical ``(seed, cycles)``; acceptance counts must
    be *bit-identical* per cell.  EDN cells additionally route the same
    faulted fabric through the ``reference`` backend — the per-message
    :class:`~repro.core.faults.FaultyEDNetwork` grant semantics, under a
    reduced cycle budget — asserting bit-identical counts at matched
    cycles and a per-cycle speedup of at least
    :data:`FAULT_SPEEDUP_FLOOR` x at ``N = 4096`` (the merge criterion
    of the fault-lowering PR).

    Returns ``(report, failures)``.
    """
    from dataclasses import replace

    from repro.core.faults import random_graph_faults
    from repro.sim.rng import make_rng

    results = []
    failures: list[str] = []
    for n_inputs, edn_stages in FAULT_SIZES.items():
        for template in FAULT_TOPOLOGIES:
            text = template.format(n=n_inputs, l=edn_stages)
            pristine = NetworkSpec.parse(text)
            assert pristine.n_inputs == n_inputs
            faults = random_graph_faults(
                pristine.stage_graph(), FAULT_RATE, make_rng(FAULT_SEED)
            ).canonical()
            spec = replace(pristine, faults=faults)
            traffic = UniformTraffic(spec.n_inputs, spec.n_outputs, 1.0)
            compiled = build_router(spec, "batched")
            loop = build_router(spec, "vectorized")
            compiled_s, compiled_m = _best_of(
                REPEATS,
                lambda: measure_acceptance(
                    compiled, traffic, cycles=FAULT_CYCLES, seed=SEED
                ),
            )
            loop_s, loop_m = _best_of(
                REPEATS,
                lambda: measure_acceptance(
                    loop, traffic, cycles=FAULT_CYCLES, seed=SEED
                ),
            )
            identical = (
                compiled_m.offered == loop_m.offered
                and compiled_m.delivered == loop_m.delivered
                and compiled_m.blocked_by_stage == loop_m.blocked_by_stage
            )
            if not identical:
                failures.append(f"{text}: compiled and loop counts diverge")
            entry = {
                "topology": spec.label,
                "n_inputs": n_inputs,
                "n_faults": len(faults),
                "cycles": FAULT_CYCLES,
                "compiled_seconds": round(compiled_s, 4),
                "loop_seconds": round(loop_s, 4),
                "speedup_vs_loop": round(loop_s / compiled_s, 2),
                "pa": round(compiled_m.point, 6),
                "counts_bit_identical": identical,
            }
            line = (
                f"N={n_inputs:>6} {spec.label:<16} ({len(faults):>3} faults): "
                f"compiled {compiled_s:.3f}s  loop {loop_s:.3f}s  "
                f"{entry['speedup_vs_loop']:.1f}x vs loop"
            )
            if spec.kind == "edn":
                # The per-message grant-semantics reference exists for
                # EDN only; time it per cycle under a budget it can pay.
                reference = build_router(spec, "reference")
                reference_s, reference_m = _best_of(
                    REPEATS,
                    lambda: measure_acceptance(
                        reference, traffic, cycles=FAULT_REFERENCE_CYCLES, seed=SEED
                    ),
                )
                matched = measure_acceptance(
                    compiled, traffic, cycles=FAULT_REFERENCE_CYCLES, seed=SEED
                )
                reference_identical = (
                    matched.offered == reference_m.offered
                    and matched.delivered == reference_m.delivered
                    and matched.blocked_by_stage == reference_m.blocked_by_stage
                )
                if not reference_identical:
                    failures.append(
                        f"{text}: compiled and per-message reference counts diverge"
                    )
                speedup = (reference_s / FAULT_REFERENCE_CYCLES) / (
                    compiled_s / FAULT_CYCLES
                )
                entry.update(
                    {
                        "reference_cycles": FAULT_REFERENCE_CYCLES,
                        "reference_seconds": round(reference_s, 4),
                        "speedup_vs_reference": round(speedup, 1),
                        "reference_counts_bit_identical": reference_identical,
                    }
                )
                line += f"  {speedup:.0f}x vs per-message reference"
                if n_inputs == 4_096 and speedup < FAULT_SPEEDUP_FLOOR:
                    failures.append(
                        f"{text}: faulted speedup {speedup:.1f}x below the "
                        f"{FAULT_SPEEDUP_FLOOR:.0f}x floor"
                    )
            results.append(entry)
            print(line)
    report = {
        "benchmark": "fault_matrix",
        "workload": (
            f"measure_acceptance, uniform traffic r=1.0, seed {SEED}, "
            f"~{FAULT_RATE:g} wire faults drawn at seed {FAULT_SEED} per topology"
        ),
        "engines": {
            "compiled": "CompiledStageRouter via backend=batched (fault masks lowered into the plan)",
            "loop": "StageGraphReference via backend=vectorized (per-cycle loop path)",
            "reference": "FaultyEDNetwork via backend=reference (per-message grant semantics, EDN only)",
        },
        "floor": {
            "speedup_vs_reference_at_4096": FAULT_SPEEDUP_FLOOR,
            "counts": "bit-identical per cell (loop always, reference on EDN)",
        },
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "results": results,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return report, failures


def run_fault_buffered(output: Path = FAULT_BUFFERED_OUTPUT) -> tuple[dict, list[str]]:
    """Faulty vs fault-free buffered stepping on the compiled kernels.

    For EDN(16,4,4,l) at :data:`FAULT_BUFFERED_SIZES` terminals, times
    ``measure_buffered`` at depth :data:`FAULT_BUFFERED_DEPTH` under full
    offered load twice — once pristine, once with a seeded
    ~:data:`FAULT_RATE` wire-fault pattern lowered into the same plan —
    under identical ``(seed, cycles)``.  Asserts, per cell: the
    whole-run conservation identity ``injected == delivered + in_flight
    + dropped``, zero drops for static damage (dead wires back-pressure,
    they do not eat), engine agreement (compiled vs the per-packet
    ``BufferedStageReference`` at the small size), and a faulted/pristine
    wall-clock ratio of at most
    :data:`FAULT_BUFFERED_OVERHEAD_CEILING` x at ``N = 4096`` (the merge
    criterion: damaged fabrics must not fall off the buffered fast
    path).  Also exercises ``apply_faults`` drop accounting mid-run.

    Returns ``(report, failures)``.
    """
    from repro.core.faults import random_graph_faults
    from repro.sim.buffered import measure_buffered
    from repro.sim.rng import make_rng

    results = []
    failures: list[str] = []
    for n_inputs, edn_stages in FAULT_BUFFERED_SIZES.items():
        params = EDNParams(16, 4, 4, edn_stages)
        graph = edn_graph(params)
        faults = random_graph_faults(graph, FAULT_RATE, make_rng(FAULT_SEED)).canonical()
        kw = dict(
            traffic="uniform:1",
            depth=FAULT_BUFFERED_DEPTH,
            cycles=FAULT_BUFFERED_CYCLES,
            warmup=0,
            seed=SEED,
        )
        pristine_s, pristine_m = _best_of(
            REPEATS, lambda: measure_buffered(graph, **kw)
        )
        faulted_s, faulted_m = _best_of(
            REPEATS, lambda: measure_buffered(graph, faults=faults, **kw)
        )
        conserved = True
        for label, m in (("pristine", pristine_m), ("faulted", faulted_m)):
            if m.injected != m.delivered + m.in_flight + m.dropped:
                failures.append(f"N={n_inputs} {label}: conservation violated")
                conserved = False
        if faulted_m.dropped != 0:
            failures.append(
                f"N={n_inputs}: static faults dropped {faulted_m.dropped} packets "
                "(dead wires must back-pressure, not eat)"
            )
        overhead = faulted_s / pristine_s
        entry = {
            "topology": f"edn:16,4,4,{edn_stages}",
            "n_inputs": n_inputs,
            "n_faults": len(faults),
            "buffer_depth": FAULT_BUFFERED_DEPTH,
            "cycles": FAULT_BUFFERED_CYCLES,
            "pristine_seconds": round(pristine_s, 4),
            "faulted_seconds": round(faulted_s, 4),
            "fault_overhead": round(overhead, 3),
            "pristine_throughput": round(pristine_m.throughput, 6),
            "faulted_throughput": round(faulted_m.throughput, 6),
            "conserved": conserved,
        }
        results.append(entry)
        print(
            f"N={n_inputs:>6} edn:16,4,4,{edn_stages} ({len(faults):>3} faults, "
            f"depth {FAULT_BUFFERED_DEPTH}): pristine {pristine_s:.3f}s  "
            f"faulted {faulted_s:.3f}s  {overhead:.2f}x overhead"
        )
        if n_inputs == 4_096 and overhead > FAULT_BUFFERED_OVERHEAD_CEILING:
            failures.append(
                f"edn:16,4,4,{edn_stages}: faulted buffered overhead "
                f"{overhead:.2f}x above the "
                f"{FAULT_BUFFERED_OVERHEAD_CEILING:.1f}x ceiling"
            )
    # Engine agreement at the small size: the compiled faulted FIFO
    # kernels must match the per-packet reference measurement exactly.
    small = edn_graph(EDNParams(16, 4, 4, FAULT_BUFFERED_SIZES[1_024]))
    small_faults = random_graph_faults(small, FAULT_RATE, make_rng(FAULT_SEED)).canonical()
    small_kw = dict(
        traffic="uniform:1", depth=FAULT_BUFFERED_DEPTH, cycles=10, warmup=0,
        seed=SEED, faults=small_faults,
    )
    engines_agree = measure_buffered(small, engine="compiled", **small_kw) == (
        measure_buffered(small, engine="reference", **small_kw)
    )
    if not engines_agree:
        failures.append("compiled and per-packet buffered engines diverge under faults")
    # Mid-run damage drops stranded packets with exact accounting.
    router = CompiledStageRouter(
        small, buffer_depth=FAULT_BUFFERED_DEPTH, faults=()
    )
    rng = make_rng(SEED)
    demands = make_rng(SEED + 977).integers(
        0, small.n_outputs, size=(20, small.n_inputs)
    )
    injected = delivered = 0
    for cycle in range(20):
        outcome = router.step(demands[cycle], rng)
        injected += outcome.injected
        delivered += outcome.delivered
    dropped = router.apply_faults(small_faults)
    drops_conserved = (
        dropped == router.dropped_packets
        and injected == delivered + router.total_occupancy() + router.dropped_packets
    )
    if not drops_conserved:
        failures.append("apply_faults drop accounting broke conservation")
    report = {
        "benchmark": "fault_buffered",
        "workload": (
            f"measure_buffered, uniform traffic r=1.0, depth "
            f"{FAULT_BUFFERED_DEPTH}, seed {SEED}, ~{FAULT_RATE:g} wire "
            f"faults drawn at seed {FAULT_SEED}"
        ),
        "floor": {
            "fault_overhead_ceiling_at_4096": FAULT_BUFFERED_OVERHEAD_CEILING,
            "conservation": "injected == delivered + in_flight + dropped, every run",
            "static_faults": "never drop (back-pressure only)",
        },
        "engines_agree_under_faults": engines_agree,
        "mid_run_drop_accounting_conserved": drops_conserved,
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "results": results,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return report, failures


def run_plan_cache(output: Path = PLAN_OUTPUT) -> tuple[dict, list[str]]:
    """Measure what plan compilation + adaptive stopping buy; write JSON.

    Two honestly-separated comparisons:

    * **repeated fixed-budget calls** at ``N = 16384`` (``EDN(16,4,4,6)``,
      uniform traffic at full load) — ``measure_acceptance`` called
      repeatedly at :data:`PLAN_CALL_CYCLES` cycles per call.  ``cold``
      compiles a plan per call through the cache (cleared each time);
      ``warm`` hits the plan cache.  Acceptance must be bit-identical
      across both; the warm-vs-cold ratio is recorded, not asserted.
    * **matched-precision sweep** — the family sweep ``EDN(16,4,4,l)``,
      ``l`` in {4, 5, 6}, at rates {1.0, 0.75}, measured to equal
      confidence-interval width two ways: fixed budgeting (every cell gets
      the cycle budget the *worst* cell needs to reach
      :data:`PLAN_SWEEP_REL_ERR`, on a fresh uncached plan per call — a
      priori budgeting cannot size per cell) versus warm adaptive
      stopping (each cell stops at its own convergence).  Both designs
      guarantee half-width <= rel_err * PA in every cell; the recorded
      savings are the cycles and wall-clock the adaptive design does not
      spend.

    Returns ``(report, failures)``.
    """
    from repro.sim.plan import clear_plan_cache, plan_cache_info

    params = EDNParams(16, 4, 4, 6)
    spec = NetworkSpec.edn(16, 4, 4, 6)
    assert spec.n_inputs == 16_384
    traffic = UniformTraffic(spec.n_inputs, spec.n_inputs, 1.0)

    # Warm numpy's dispatch on an unrelated small network so first-call
    # interpreter costs do not pollute the cold column.
    measure_acceptance(
        BatchedEDN(EDNParams(16, 4, 4, 2)),
        UniformTraffic(64, 64, 1.0),
        cycles=32,
        seed=0,
    )

    def _cold_call():
        clear_plan_cache()
        router = build_router(spec, "batched")
        return measure_acceptance(router, traffic, cycles=PLAN_CALL_CYCLES, seed=SEED)

    def _warm_call():
        router = build_router(spec, "batched")
        return measure_acceptance(router, traffic, cycles=PLAN_CALL_CYCLES, seed=SEED)

    cold_s, cold_m = _best_of(PLAN_REPEATS, _cold_call)
    clear_plan_cache()
    _warm_call()  # prime the cache
    warm_s, warm_m = _best_of(PLAN_REPEATS, _warm_call)
    cache = plan_cache_info()
    assert cold_m.point == warm_m.point, "plan cache changed routing"

    warm_vs_cold = cold_s / warm_s
    print(
        f"repeated {PLAN_CALL_CYCLES}-cycle calls @ N=16384: "
        f"cold-compile {cold_s * 1000:.1f}ms  warm {warm_s * 1000:.1f}ms  "
        f"({warm_vs_cold:.2f}x vs cold)"
    )

    # ------------------------------------------------------------------
    # Matched-precision sweep: fixed budget sized for the worst cell vs
    # warm adaptive stopping, both guaranteeing half-width <= rel_err*PA.
    # ------------------------------------------------------------------
    cells = [
        (EDNParams(16, 4, 4, stages), rate)
        for stages in (4, 5, 6)
        for rate in (1.0, 0.75)
    ]
    budget_ceiling = 4096
    adaptive_cells = []
    adaptive_s = 0.0
    clear_plan_cache()
    for cell_params, rate in cells:
        cell_traffic = UniformTraffic(
            cell_params.num_inputs, cell_params.num_inputs, rate
        )

        def _adaptive_call():
            router = build_router(
                NetworkSpec.edn(*map(int, (cell_params.a, cell_params.b,
                                           cell_params.c, cell_params.l))),
                "batched",
            )
            return measure_acceptance(
                router,
                cell_traffic,
                cycles=budget_ceiling,
                seed=SEED,
                rel_err=PLAN_SWEEP_REL_ERR,
            )

        _adaptive_call()  # prime plan + workspace for this shape
        elapsed, measurement = _best_of(REPEATS, _adaptive_call)
        adaptive_s += elapsed
        assert measurement.converged, f"{cell_params} did not converge"
        adaptive_cells.append(
            {
                "network": str(cell_params),
                "n_inputs": cell_params.num_inputs,
                "rate": rate,
                "cycles": measurement.cycles,
                "seconds": round(elapsed, 4),
                "pa": round(measurement.point, 6),
                "rel_halfwidth": round(
                    measurement.acceptance.halfwidth / measurement.point, 6
                ),
            }
        )

    # A fixed design must hand EVERY cell the worst cell's budget.
    fixed_budget = max(cell["cycles"] for cell in adaptive_cells)
    fixed_cells = []
    fixed_s = 0.0
    for cell_params, rate in cells:
        cell_traffic = UniformTraffic(
            cell_params.num_inputs, cell_params.num_inputs, rate
        )

        def _fixed_call():
            engine = CompiledStageRouter(edn_graph(cell_params), plan=None)
            return measure_acceptance(
                engine, cell_traffic, cycles=fixed_budget, seed=SEED
            )

        elapsed, measurement = _best_of(REPEATS, _fixed_call)
        fixed_s += elapsed
        fixed_cells.append(
            {
                "network": str(cell_params),
                "n_inputs": cell_params.num_inputs,
                "rate": rate,
                "cycles": measurement.cycles,
                "seconds": round(elapsed, 4),
                "pa": round(measurement.point, 6),
                "rel_halfwidth": round(
                    measurement.acceptance.halfwidth / measurement.point, 6
                ),
            }
        )

    adaptive_cycles = sum(cell["cycles"] for cell in adaptive_cells)
    fixed_cycles = fixed_budget * len(cells)
    cycle_savings = 1.0 - adaptive_cycles / fixed_cycles
    sweep_speedup = fixed_s / adaptive_s
    print(
        f"matched-precision sweep (rel half-width <= {PLAN_SWEEP_REL_ERR:g}): "
        f"fixed {fixed_cycles} cycles / {fixed_s:.3f}s  adaptive "
        f"{adaptive_cycles} cycles / {adaptive_s:.3f}s  "
        f"(cycle savings {cycle_savings:.0%}, end-to-end {sweep_speedup:.2f}x)"
    )

    report = {
        "benchmark": "plan_cache",
        "workload": (
            "measure_acceptance, uniform traffic, seed 0; repeated calls at "
            "N=16384 plus the EDN(16,4,4,l) x rate matched-precision sweep"
        ),
        "modes": {
            "cold": "plan compiled per call (cache cleared each call)",
            "warm": "plan-cache hit (shared tables + thread-local workspace)",
        },
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "repeated_calls": {
            "network": str(params),
            "n_inputs": spec.n_inputs,
            "cycles_per_call": PLAN_CALL_CYCLES,
            "cold_seconds": round(cold_s, 4),
            "warm_seconds": round(warm_s, 4),
            "speedup_warm_vs_cold": round(warm_vs_cold, 2),
            "pa_bit_identical": True,
            "pa": round(warm_m.point, 6),
            "plan_cache": cache,
        },
        "matched_precision_sweep": {
            "target_rel_halfwidth": PLAN_SWEEP_REL_ERR,
            "confidence": 0.95,
            "fixed_budget_per_cell": fixed_budget,
            "fixed_total_cycles": fixed_cycles,
            "adaptive_total_cycles": adaptive_cycles,
            "cycle_savings": round(cycle_savings, 4),
            "fixed_seconds": round(fixed_s, 4),
            "adaptive_seconds": round(adaptive_s, 4),
            "end_to_end_speedup": round(sweep_speedup, 2),
            "fixed_cells": fixed_cells,
            "adaptive_cells": adaptive_cells,
        },
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")

    failures = []
    if cycle_savings < PLAN_SAVINGS_FLOOR:
        failures.append(
            f"adaptive cycle savings {cycle_savings:.0%} below the "
            f"{PLAN_SAVINGS_FLOOR:.0%} floor"
        )
    if sweep_speedup < PLAN_SWEEP_SPEEDUP_FLOOR:
        failures.append(
            f"end-to-end sweep speedup {sweep_speedup:.2f}x below the "
            f"{PLAN_SWEEP_SPEEDUP_FLOOR:.1f}x floor"
        )
    return report, failures


def run_saturation(output: Path = SATURATION_OUTPUT) -> tuple[dict, list[str]]:
    """Buffered stepping: compiled kernels vs the per-packet interpreter; write JSON.

    Times one buffered run of ``EDN(16,4,4,5)`` (N = 4096) at full
    offered load, depth :data:`SATURATION_DEPTH`, through the compiled
    buffered stage-graph path and the independent per-packet
    :class:`~repro.sim.stagegraph.BufferedStageReference` interpreter
    (both through :func:`repro.sim.buffered.measure_buffered`), under
    identical ``(rate, cycles, warmup, seed)``; the two measurements must
    be bit-identical.  Asserts the
    :data:`SATURATION_SPEEDUP_FLOOR` x per-cycle speedup at N = 4096
    (the merge criterion of the buffered stage-graph PR) and records the
    ``saturation`` experiment's detected knees at N = 64 so the bench
    file documents the physics alongside the wall-clock.

    Returns ``(report, failures)``.
    """
    from repro.sim.buffered import measure_buffered

    failures: list[str] = []
    params = EDNParams(16, 4, 4, SATURATION_STAGES)
    n_inputs = params.num_inputs
    assert n_inputs == 4_096
    graph = edn_graph(params)

    def _run(engine):
        return measure_buffered(
            graph,
            traffic="uniform:1",
            depth=SATURATION_DEPTH,
            cycles=SATURATION_CYCLES,
            warmup=SATURATION_WARMUP,
            seed=SEED,
            engine=engine,
        )

    compiled_s, compiled_m = _best_of(REPEATS, lambda: _run("compiled"))
    # Tens of ms per cycle in Python; two repeats bound the noise.
    legacy_s, legacy_m = _best_of(2, lambda: _run("reference"))
    total_cycles = SATURATION_CYCLES + SATURATION_WARMUP
    speedup = legacy_s / compiled_s
    agree = compiled_m == legacy_m
    if not agree:
        failures.append(
            f"compiled measurement (throughput {compiled_m.throughput:.4f}) "
            f"differs from the per-packet reference ({legacy_m.throughput:.4f})"
        )
    if speedup < SATURATION_SPEEDUP_FLOOR:
        failures.append(
            f"buffered speedup {speedup:.1f}x below the "
            f"{SATURATION_SPEEDUP_FLOOR:.0f}x floor"
        )
    print(
        f"N={n_inputs:>6} buffered depth {SATURATION_DEPTH}: compiled "
        f"{compiled_s:.3f}s  per-packet {legacy_s:.3f}s  speedup "
        f"{speedup:.1f}x  thr {compiled_m.throughput:.4f}/{legacy_m.throughput:.4f}"
    )

    # Saturation knees at N = 64: the physics the wall-clock buys.
    from repro.experiments.saturation import run as run_saturation_experiment

    knees = run_saturation_experiment(
        workloads=("uniform",),
        cycles=SATURATION_KNEE_CYCLES,
        warmup=SATURATION_KNEE_WARMUP,
        seed=SEED,
    ).tables["saturation knees"][1]
    knee_rows = [
        {
            "family": family,
            "workload": workload,
            "knee_rate": round(knee, 4),
            "throughput_at_knee": round(thr, 4),
        }
        for family, workload, knee, thr in knees
    ]
    for row in knee_rows:
        print(
            f"knee {row['family']:<8} {row['workload']:<10} "
            f"rate {row['knee_rate']:.2f}  thr {row['throughput_at_knee']:.4f}"
        )

    report = {
        "benchmark": "saturation",
        "workload": (
            f"buffered stepping, uniform traffic r=1.0, depth "
            f"{SATURATION_DEPTH}, {SATURATION_CYCLES} measured cycles after "
            f"{SATURATION_WARMUP} warmup, seed {SEED}"
        ),
        "engines": {
            "compiled": "CompiledStageRouter.step via measure_buffered (per-wire FIFO state on the compiled plan)",
            "legacy": "BufferedStageReference via measure_buffered (per-packet Python lists)",
        },
        "floor": {
            "speedup_at_4096": SATURATION_SPEEDUP_FLOOR,
            "measurements": "bit-identical",
        },
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "results": [
            {
                "network": str(params),
                "n_inputs": n_inputs,
                "depth": SATURATION_DEPTH,
                "cycles": SATURATION_CYCLES,
                "compiled_seconds": round(compiled_s, 4),
                "legacy_seconds": round(legacy_s, 4),
                "compiled_seconds_per_cycle": round(compiled_s / total_cycles, 6),
                "legacy_seconds_per_cycle": round(legacy_s / total_cycles, 6),
                "speedup": round(speedup, 2),
                "throughput_compiled": round(compiled_m.throughput, 6),
                "throughput_legacy": round(legacy_m.throughput, 6),
                "mean_latency_compiled": round(compiled_m.mean_latency, 4),
                "p99_latency_compiled": compiled_m.latency.p99,
                "throughput_agrees": agree,
            }
        ],
        "knees_at_64": {
            "cycles": SATURATION_KNEE_CYCLES,
            "results": knee_rows,
        },
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return report, failures


def run_serve_matrix(output: Path = SERVE_OUTPUT) -> tuple[dict, list[str]]:
    """Throughput, scaling, and dedupe of the simulation service; write JSON.

    Four phases against real servers on ephemeral ports:

    * **scaling** — one client submits :data:`SERVE_SCALING_CELLS` unique
      cells to a fresh server at each worker count in
      :data:`SERVE_SCALING_WORKERS` (pool pre-forked by an off-the-clock
      warmup cell); records cells/sec and asserts the
      :data:`SERVE_SCALING_FLOOR` x speedup from 1 to 4 workers whenever
      the host has >= 4 cores.
    * **dedupe / sustained load** — :data:`SERVE_CLIENTS` concurrent
      clients each submit the same :data:`SERVE_CELLS_PER_CLIENT`-cell
      grid (rotated per client so the streams interleave on different
      cells) to one 4-worker server: >= :data:`SERVE_MIN_CELLS` cells
      through a single instance, each unique cell computed once and the
      rest answered from the result cache or coalesced in flight.
      Asserts the server-reported dedupe rate against
      :data:`SERVE_DEDUPE_FLOOR` and records per-worker plan-cache hit
      rates from the stats endpoint.
    * **streaming** — one slow-converging adaptive cell must surface
      partial results while it runs.
    * **bit-identity** — :data:`SERVE_IDENTITY_SAMPLE` cells of the
      dedupe grid are recomputed inline through ``measure_cell`` and must
      equal the service's answers exactly.

    Returns ``(report, failures)``.
    """
    import os
    import threading

    from repro.api.jobs import SweepCell, measure_cell
    from repro.api.spec import RunConfig
    from repro.serve.client import ServiceClient
    from repro.serve.server import start_server_thread

    cores = os.cpu_count() or 1
    failures: list[str] = []

    scaling_spec = NetworkSpec.edn(16, 4, 4, 4)
    scaling_cells = [
        SweepCell(scaling_spec, RunConfig(cycles=SERVE_SCALING_CYCLES, seed=seed))
        for seed in range(SERVE_SCALING_CELLS)
    ]
    warmup = [SweepCell(scaling_spec, RunConfig(cycles=8, seed=10_000))]

    scaling_rows = []
    walls: dict[int, float] = {}
    for workers in SERVE_SCALING_WORKERS:
        handle = start_server_thread(workers=workers)
        try:
            with ServiceClient(handle.address) as client:
                client.run(warmup)  # fork + prime the pool off the clock
                start = time.perf_counter()
                client.run(scaling_cells)
                wall = time.perf_counter() - start
                stats = client.status()
        finally:
            handle.stop()
        walls[workers] = wall
        row = {
            "workers": workers,
            "cells": len(scaling_cells),
            "seconds": round(wall, 4),
            "cells_per_second": round(len(scaling_cells) / wall, 2),
            "speedup_vs_1_worker": round(walls[SERVE_SCALING_WORKERS[0]] / wall, 2),
            "plan_cache_per_worker": stats["plan_cache"]["per_worker"],
        }
        scaling_rows.append(row)
        print(
            f"serve scaling: {workers} worker(s)  {wall:.3f}s  "
            f"{row['cells_per_second']:.1f} cells/s  "
            f"{row['speedup_vs_1_worker']:.2f}x vs 1 worker"
        )
    scaling_speedup = walls[SERVE_SCALING_WORKERS[0]] / walls[SERVE_SCALING_WORKERS[-1]]
    scaling_enforced = cores >= SERVE_SCALING_WORKERS[-1]
    if scaling_enforced and scaling_speedup < SERVE_SCALING_FLOOR:
        failures.append(
            f"serve 1->{SERVE_SCALING_WORKERS[-1]}-worker speedup "
            f"{scaling_speedup:.2f}x below the {SERVE_SCALING_FLOOR:.1f}x floor"
        )
    if not scaling_enforced:
        print(
            f"serve scaling floor not enforced: host has {cores} core(s), "
            f"needs >= {SERVE_SCALING_WORKERS[-1]}"
        )

    # ------------------------------------------------------------------
    # Dedupe / sustained load: concurrent clients, overlapping grids.
    # ------------------------------------------------------------------
    dedupe_grid = [
        SweepCell(NetworkSpec.parse(topology), RunConfig(
            cycles=SERVE_SCALING_CYCLES, seed=seed, traffic=traffic,
        ))
        for topology in ("edn:16,4,4,4", "delta:8,8,2")
        for traffic in ("uniform", "hotspot:0.1", "bitrev")
        for seed in range(SERVE_CELLS_PER_CLIENT // 6)
    ]
    assert len(dedupe_grid) == SERVE_CELLS_PER_CLIENT
    submitted_total = SERVE_CLIENTS * SERVE_CELLS_PER_CLIENT
    assert submitted_total >= SERVE_MIN_CELLS

    handle = start_server_thread(workers=SERVE_SCALING_WORKERS[-1])
    client_errors: list[str] = []
    try:
        with ServiceClient(handle.address) as client:
            client.run(warmup)
        barrier = threading.Barrier(SERVE_CLIENTS)

        def submit(rank: int) -> None:
            rotated = dedupe_grid[rank * 75:] + dedupe_grid[:rank * 75]
            try:
                with ServiceClient(handle.address) as client:
                    barrier.wait()
                    client.run(rotated)
            except Exception as exc:  # surfaced as a bench failure below
                client_errors.append(f"client {rank}: {exc}")

        threads = [
            threading.Thread(target=submit, args=(rank,))
            for rank in range(SERVE_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        with ServiceClient(handle.address) as client:
            stats = client.status()

            # Bit-identity spot check: every SERVE_IDENTITY_SAMPLE-th cell,
            # service answer (cache hit) vs a fresh inline computation.
            step = len(dedupe_grid) // SERVE_IDENTITY_SAMPLE
            sample = dedupe_grid[::step][:SERVE_IDENTITY_SAMPLE]
            served = client.run(sample)
        inline = [measure_cell(cell) for cell in sample]
        identical = served == inline
    finally:
        handle.stop()
    failures.extend(client_errors)
    if not identical:
        failures.append("service results diverge from inline measure_cell")
    dedupe_rate = stats["dedupe_rate"]
    if dedupe_rate < SERVE_DEDUPE_FLOOR:
        failures.append(
            f"serve dedupe rate {dedupe_rate:.2f} below the "
            f"{SERVE_DEDUPE_FLOOR:.2f} floor"
        )
    plan_hit_rates = {
        pid: round(info["hits"] / max(1, info["hits"] + info["misses"]), 4)
        for pid, info in stats["plan_cache"]["per_worker"].items()
    }
    print(
        f"serve dedupe: {SERVE_CLIENTS} clients x {SERVE_CELLS_PER_CLIENT} cells "
        f"= {submitted_total} submitted  {wall:.3f}s  "
        f"{submitted_total / wall:.1f} cells/s  dedupe {dedupe_rate:.2f}  "
        f"computed {stats['cells']['computed']}  identical={identical}"
    )

    # ------------------------------------------------------------------
    # Streaming: a slow-converging adaptive cell must emit partials.
    # ------------------------------------------------------------------
    partials: list[dict] = []
    handle = start_server_thread(workers=1)
    try:
        with ServiceClient(handle.address) as client:
            client.submit(
                [SweepCell(
                    NetworkSpec.edn(16, 4, 4, 2),
                    RunConfig(cycles=60_000, seed=0, batch=16, rel_err=0.002),
                )],
                on_partial=partials.append,
            )
    finally:
        handle.stop()
    if not partials:
        failures.append("adaptive cell streamed no partial results")
    print(f"serve streaming: {len(partials)} partial(s) from one adaptive cell")

    report = {
        "benchmark": "serve",
        "workload": (
            "SimulationServer on ephemeral TCP ports; measure_cell grids of "
            "EDN(16,4,4,4) and delta:8,8,2 cells, "
            f"{SERVE_SCALING_CYCLES} cycles, uniform/hotspot/bitrev traffic"
        ),
        "host": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cores": cores,
        },
        "scaling": {
            "cells": len(scaling_cells),
            "results": scaling_rows,
            "speedup_1_to_4": round(scaling_speedup, 2),
            "floor": SERVE_SCALING_FLOOR,
            "floor_enforced": scaling_enforced,
        },
        "dedupe": {
            "clients": SERVE_CLIENTS,
            "cells_per_client": SERVE_CELLS_PER_CLIENT,
            "cells_submitted": submitted_total,
            "unique_cells": len(dedupe_grid),
            "seconds": round(wall, 4),
            "cells_per_second": round(submitted_total / wall, 2),
            "dedupe_rate": dedupe_rate,
            "floor": SERVE_DEDUPE_FLOOR,
            "cells": stats["cells"],
            "result_cache": stats["result_cache"],
            "plan_cache_hit_rate_per_worker": plan_hit_rates,
        },
        "streaming": {"partials_from_one_adaptive_cell": len(partials)},
        "bit_identity": {
            "sampled_cells": SERVE_IDENTITY_SAMPLE,
            "identical_to_inline": identical,
        },
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return report, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--backend-matrix",
        action="store_true",
        help="sweep every repro.api backend instead of the batched-vs-per-cycle floor check",
    )
    parser.add_argument(
        "--workload-matrix",
        action="store_true",
        help="sweep the workload_matrix topology x traffic grid on the batched backend",
    )
    parser.add_argument(
        "--plan-cache",
        action="store_true",
        help="record plan-cache warm/cold calls and the adaptive-vs-fixed sweep",
    )
    parser.add_argument(
        "--baseline-matrix",
        action="store_true",
        help="time the compiled delta/omega/dilated baselines against the "
             "per-cycle loop path (>=3x floor at N=4096, bit-identical counts)",
    )
    parser.add_argument(
        "--fault-matrix",
        action="store_true",
        help="time faulted Monte-Carlo on all four families: compiled masked "
             "plans vs the loop and per-message references (>=10x floor at "
             "N=4096, bit-identical counts)",
    )
    parser.add_argument(
        "--fault-buffered",
        action="store_true",
        help="time faulty vs fault-free buffered stepping at N=4096 "
             "(<=1.5x overhead ceiling, conservation + drop accounting "
             "asserted)",
    )
    parser.add_argument(
        "--saturation",
        action="store_true",
        help="time buffered stepping at N=4096: compiled kernels vs the "
             "per-packet interpreter (>=5x floor), recording saturation knees",
    )
    parser.add_argument(
        "--serve-matrix",
        action="store_true",
        help="benchmark the simulation service: cells/sec vs worker count "
             "(>=3x floor 1->4 workers on >=4 cores), concurrent-client "
             "dedupe (>=0.5 floor over >=1000 cells), streaming partials, "
             "and service-vs-inline bit-identity",
    )
    args = parser.parse_args(argv)
    if args.saturation:
        _report, failures = run_saturation()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    if args.serve_matrix:
        _report, failures = run_serve_matrix()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    if args.backend_matrix:
        run_backend_matrix()
        return 0
    if args.workload_matrix:
        run_workload_matrix()
        return 0
    if args.baseline_matrix:
        _report, failures = run_baseline_matrix()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    if args.fault_buffered:
        _report, failures = run_fault_buffered()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    if args.fault_matrix:
        _report, failures = run_fault_matrix()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    if args.plan_cache:
        _report, failures = run_plan_cache()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    report = run()
    at_4096 = next(r for r in report["results"] if r["n_inputs"] == 4_096)
    if at_4096["speedup"] < SPEEDUP_FLOOR:
        print(
            f"FAIL: N=4096 speedup {at_4096['speedup']:.1f}x "
            f"below the {SPEEDUP_FLOOR:.0f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
