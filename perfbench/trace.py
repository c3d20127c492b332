"""In-memory span tracer and the layer wrappers the benchmark installs.

The benchmark measures the program from outside: it never edits
``src/``.  Instead :func:`install` swaps each layer's public entry point
(a module attribute or a class method) for a wrapper that records one
span per call, and :func:`uninstall` puts the originals back.  A span is
``[name, start, end, parent, cell]``: ``parent`` indexes the enclosing
span in the same process (``-1`` for none) and ``cell`` is the id of the
cell being measured, so a layer's self time is its duration minus the
time its child spans cover.

Spans stay in memory until :meth:`Tracer.drain` hands them to the caller,
which writes them out when the run ends (serve workers, which are killed
rather than shut down, flush after every cell).
"""

from __future__ import annotations

import math
import os
import time

#: Span clock.  On Linux ``perf_counter`` is CLOCK_MONOTONIC, which is
#: shared by every process on the host, so spans from the server, its
#: workers and the load generator line up on one time axis.
clock = time.perf_counter


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cell = None
        self.counts: dict[str, float] = {}
        self.pid = os.getpid()

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span named ``name``.

        ``on_result(args, result)``, when given, runs inside the span and
        records counters derived from the call (port-cycles, cache hits).
        """

        def traced(*args, **kwargs):
            spans = self.spans
            stack = self.stack
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.cell]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                record[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def drain(self) -> tuple[list[list], dict[str, float]]:
        """Hand over (and forget) the spans and counters recorded so far.

        Called between cells, when no span is open.
        """
        spans, self.spans = self.spans, []
        counts, self.counts = self.counts, {}
        return spans, counts


class _TimedSpawner:
    """A seed sequence whose ``spawn`` calls are recorded as RNG spans."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self.spawn = tracer.wrap("sim.rng", inner.spawn)


def _port_cycles(args, result) -> int:
    dests = args[1]
    return int(dests.shape[0]) * int(dests.shape[1]) if dests.ndim == 2 else int(dests.size)


def install(tracer: Tracer, *, worker: bool = False) -> list:
    """Wrap every layer entry point; return the undo list for :func:`uninstall`.

    ``worker=True`` additionally wraps the serve worker's result encoder
    (``repro.serve.server.measurement_to_payload``), which only runs on
    the service path.
    """
    import repro.api.jobs as jobs
    import repro.api.registry as registry
    import repro.sim.batched as batched
    import repro.sim.buffered as buffered
    import repro.sim.montecarlo as montecarlo
    import repro.sim.native as native
    import repro.sim.plan as plan
    import repro.sim.rng as rng
    import repro.workloads.models as models
    import repro.workloads.registry as wl_registry
    from repro.sim.stats import LatencyStats, RatioStats

    undo: list = []

    def patch(owner, attr, name, on_result=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, on_result))

    def resolved(args, backend):
        tracer.add(f"api.resolved.{backend.name}")

    def built(args, router):
        if type(router).__name__ == "NativeStageRouter":
            tracer.add(f"api.native_tier.{router.tier or 'numpy'}")

    plan_counters = {"hits": plan._hits, "misses": plan._misses}

    def looked_up(args, result):
        hits, misses = plan._hits, plan._misses
        tracer.add("sim.plan.hits", max(0, hits - plan_counters["hits"]))
        tracer.add("sim.plan.misses", max(0, misses - plan_counters["misses"]))
        plan_counters["hits"], plan_counters["misses"] = hits, misses

    def native_ports(args, result):
        tracer.add("sim.native.port_cycles", _port_cycles(args, result))

    def batched_ports(args, result):
        tracer.add("sim.batched.port_cycles", _port_cycles(args, result))

    patch(registry, "resolve_backend", "api.resolve_backend", resolved)
    patch(registry, "build_router", "api.build_router", built)
    patch(plan, "_cached", "sim.plan.lookup", looked_up)
    patch(native, "_build_shared_object", "sim.native.build")
    patch(native.NativeKernel, "counts", "sim.native.counts", native_ports)
    patch(native, "_check_destination_bounds", "sim.validate")
    patch(batched, "_check_destination_bounds", "sim.validate")
    patch(batched.CompiledStageRouter, "route_batch_counts", "sim.batched.counts", batched_ports)
    patch(batched.BatchedEDN, "route_batch_counts", "sim.batched.counts", batched_ports)
    patch(batched.CompiledStageRouter, "step", "sim.batched.step")
    patch(montecarlo, "make_rng", "sim.rng")
    patch(rng, "make_rng", "sim.rng")
    original_spawn_source = montecarlo._spawn_source
    undo.append((montecarlo, "_spawn_source", original_spawn_source))
    montecarlo._spawn_source = lambda seed, generator: _TimedSpawner(
        tracer, original_spawn_source(seed, generator)
    )
    patch(RatioStats, "push", "sim.stats.push")
    patch(RatioStats, "push_many", "sim.stats.push")
    patch(LatencyStats, "record", "sim.stats.latency_record")
    patch(montecarlo, "measure_acceptance", "sim.montecarlo")
    patch(buffered, "measure_buffered", "sim.buffered")
    patch(montecarlo, "make_traffic", "workloads.build")
    patch(wl_registry, "make_traffic", "workloads.build")
    for cls in _subclasses(models.TrafficGenerator):
        for attr in ("generate", "generate_batch"):
            if attr in cls.__dict__:
                patch(cls, attr, "workloads.gen")
    patch(jobs.SweepCell, "key", "api.jobs.encode")
    if worker:
        import repro.serve.server as server

        patch(server, "measurement_to_payload", "api.jobs.encode")
    return undo


def uninstall(undo: list) -> None:
    """Restore every wrapped entry point (reverse order of installation)."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``inf`` entries stand for unanswered cells)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = min(len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1))
    return ordered[rank]


def summarize(spans: list[list], cells=None) -> dict[str, dict]:
    """Per-layer ``{calls, incl_s, self_s}`` over one process's spans.

    ``incl_s`` sums only the outermost span of each name (a mixture
    traffic model calling its components counts once); ``self_s`` is
    every span's duration minus its direct children's.  ``cells``, when
    given, keeps only spans of those cell ids.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    layers: dict[str, dict] = {}
    for i, (name, start, end, parent, cell) in enumerate(spans):
        if cells is not None and cell not in cells:
            continue
        entry = layers.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["incl_s"] += end - start
    return layers


def merge_layers(parts) -> dict[str, dict]:
    """Sum per-layer summaries of several processes."""
    total: dict[str, dict] = {}
    for part in parts:
        for name, entry in part.items():
            into = total.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
    return total


def _subclasses(cls) -> list:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found
