"""Job and result dataclasses for the simulation service.

The service layer (:mod:`repro.serve`) moves *measurement cells* between
processes and machines: one cell is "measure this :class:`NetworkSpec`
under this :class:`RunConfig`" — exactly the unit every Monte-Carlo
experiment grid is built from.  This module defines that unit next to the
specs themselves so the API layer owns the contract:

* :class:`SweepCell` — a frozen ``(spec, config)`` pair with a canonical
  JSON payload (:meth:`SweepCell.payload` / :meth:`SweepCell.from_payload`)
  and a *content key* (:meth:`SweepCell.key`): a SHA-256 digest over every
  field that determines the measurement's numbers (topology kind, shape,
  disciplines, fault set, cycles, seed, batch, confidence, rel_err,
  traffic, retry, backend).  Equal submissions — from any client, in any
  order — hash equal, which is what the server's result cache and
  in-flight coalescing key on.
* :class:`CellResult` — the measurement plus service metadata (content
  key, whether it was a cache hit, the worker pid that computed it).
* :func:`measure_cell` — the one executable definition of a cell, used
  identically by the inline path (:meth:`ParallelSweep.map_cells`), the
  service workers, and the bit-identity tests, so "service == inline"
  holds by construction.

Seeds cross the wire losslessly: ``int``/``None`` directly, and
``numpy.random.SeedSequence`` via its ``(entropy, spawn_key)`` pair — the
positional spawn scheme every sweep uses (:mod:`repro.sim.rng`), so a
service-backed grid reproduces the inline grid bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.api.spec import NetworkSpec, RunConfig
from repro.core.exceptions import ConfigurationError
from repro.core.faults import WireFault

if TYPE_CHECKING:
    from repro.sim.montecarlo import AcceptanceMeasurement

__all__ = [
    "SweepCell",
    "CellResult",
    "measure_cell",
    "measurement_to_payload",
    "measurement_from_payload",
    "seed_to_payload",
    "seed_from_payload",
]

#: RunConfig fields folded into the content key — exactly the inputs that
#: determine a measurement's numbers.  Execution-only knobs (``jobs``,
#: ``shard_timeout``, ``service``) are deliberately absent: they change
#: where a cell runs, never what it returns.
_KEYED_CONFIG_FIELDS = (
    "cycles",
    "seed",
    "batch",
    "backend",
    "confidence",
    "rel_err",
    "traffic",
    "retry",
    "buffer_depth",
)


def seed_to_payload(seed) -> object:
    """A JSON-safe encoding of a :data:`~repro.sim.rng.SeedLike` seed.

    ``int`` and ``None`` pass through; a ``SeedSequence`` becomes its
    ``{"entropy", "spawn_key"}`` pair (the values that fully determine its
    stream and all positional children).  Generators carry hidden mutable
    state and are rejected — spawn keys from the master seed instead.
    """
    if seed is None or isinstance(seed, int):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if isinstance(entropy, np.integer):
            entropy = int(entropy)
        elif entropy is not None and not isinstance(entropy, int):
            entropy = [int(v) for v in entropy]
        return {"entropy": entropy, "spawn_key": [int(v) for v in seed.spawn_key]}
    raise ConfigurationError(
        f"cannot serialize seed of type {type(seed).__name__} for the service; "
        "use an int, None, or a SeedSequence (e.g. from spawn_keys)"
    )


def seed_from_payload(payload) -> object:
    """Invert :func:`seed_to_payload`."""
    if payload is None or isinstance(payload, int):
        return payload
    entropy = payload["entropy"]
    if isinstance(entropy, list):
        entropy = [int(v) for v in entropy]
    return np.random.SeedSequence(
        entropy=entropy, spawn_key=tuple(int(v) for v in payload["spawn_key"])
    )


@dataclass(frozen=True)
class SweepCell:
    """One unit of service work: measure ``spec`` under ``config``.

    >>> cell = SweepCell(NetworkSpec.edn(16, 4, 4, 2),
    ...                  RunConfig(cycles=20, seed=0))
    >>> cell == SweepCell.from_payload(cell.payload())
    True
    >>> len(cell.key())
    64
    """

    spec: NetworkSpec
    config: RunConfig

    def payload(self) -> dict:
        """The canonical JSON-safe dict (round-trips via :meth:`from_payload`)."""
        retry = self.config.retry
        return {
            "spec": {
                "kind": self.spec.kind,
                "shape": list(self.spec.shape),
                "priority": self.spec.priority,
                "wire_policy": self.spec.wire_policy,
                "faults": [
                    [f.stage, f.switch, f.local_wire] for f in self.spec.faults
                ],
            },
            "config": {
                "cycles": self.config.cycles,
                "seed": seed_to_payload(self.config.seed),
                "batch": self.config.batch,
                "backend": self.config.backend,
                "confidence": self.config.confidence,
                "rel_err": self.config.rel_err,
                "traffic": self.config.traffic,
                "retry": retry.label if retry is not None else None,
                "buffer_depth": self.config.buffer_depth,
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepCell":
        spec = payload["spec"]
        config = payload["config"]
        return cls(
            spec=NetworkSpec(
                kind=spec["kind"],
                shape=tuple(spec["shape"]),
                priority=spec.get("priority", "label"),
                wire_policy=spec.get("wire_policy", "first_free"),
                faults=tuple(WireFault(*f) for f in spec.get("faults", ())),
            ),
            config=RunConfig(
                cycles=config.get("cycles"),
                seed=seed_from_payload(config.get("seed")),
                batch=config.get("batch"),
                backend=config.get("backend", "auto"),
                confidence=config.get("confidence"),
                rel_err=config.get("rel_err"),
                traffic=config.get("traffic"),
                retry=config.get("retry"),
                buffer_depth=config.get("buffer_depth"),
            ),
        )

    def key(self) -> str:
        """The content key: SHA-256 over the canonical payload.

        Covers the spec (including the canonical fault tuple — the same
        canonicalization the plan cache keys on) and every
        result-determining config field; two cells agree on their key iff
        they would produce identical measurements.  ``buffer_depth``
        enters the key only when set, so unbuffered cells keep the keys
        they have always had.
        """
        payload = self.payload()
        payload["config"] = {
            name: payload["config"][name] for name in _KEYED_CONFIG_FIELDS
        }
        if payload["config"]["buffer_depth"] is None:
            del payload["config"]["buffer_depth"]
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def measurement_to_payload(measurement) -> dict:
    """A JSON-safe dict of a measurement (closed-loop fields included).

    Floats serialize via ``repr`` (Python's ``json``), which round-trips
    every finite double exactly — the payload is bit-identical to the
    in-process numbers.  Buffered measurements
    (:class:`~repro.sim.buffered.BufferedMeasurement`, produced by cells
    with a ``buffer_depth``) serialize under a ``"buffered"`` envelope.
    """
    from repro.sim.buffered import BufferedMeasurement

    if isinstance(measurement, BufferedMeasurement):
        return {
            "buffered": {
                "graph_label": measurement.graph_label,
                "traffic": measurement.traffic,
                "depth": measurement.depth,
                "priority": measurement.priority,
                "cycles": measurement.cycles,
                "warmup": measurement.warmup,
                "seed": seed_to_payload(measurement.seed),
                "offered": measurement.offered,
                "injected": measurement.injected,
                "delivered": measurement.delivered,
                "throughput": measurement.throughput,
                "latency": measurement.latency.to_payload(),
                "mean_occupancy": measurement.mean_occupancy,
                "total_occupancy": measurement.total_occupancy,
                "num_queues": measurement.num_queues,
                "in_flight": measurement.in_flight,
                "n_inputs": measurement.n_inputs,
                "n_outputs": measurement.n_outputs,
                "faults": [
                    [f.stage, f.switch, f.local_wire]
                    for f in measurement.faults
                ],
                "dropped": measurement.dropped,
            }
        }
    acceptance = measurement.acceptance
    payload = {
        "cycles": measurement.cycles,
        "offered": measurement.offered,
        "delivered": measurement.delivered,
        "acceptance": [acceptance.point, acceptance.low, acceptance.high],
        "blocked_by_stage": {
            str(stage): count
            for stage, count in measurement.blocked_by_stage.items()
        },
        "budget": measurement.budget,
        "target_rel_err": measurement.target_rel_err,
        "converged": measurement.converged,
    }
    if getattr(measurement, "policy", None) is not None:
        payload["closed_loop"] = {
            "attempts": [
                measurement.attempts.point,
                measurement.attempts.low,
                measurement.attempts.high,
            ],
            "latency": [
                measurement.latency.point,
                measurement.latency.low,
                measurement.latency.high,
            ],
            "delivered_messages": measurement.delivered_messages,
            "abandoned": measurement.abandoned,
            "policy": measurement.policy.label,
        }
        histogram = getattr(measurement, "latency_histogram", None)
        if histogram is not None:
            payload["closed_loop"]["latency_histogram"] = histogram.to_payload()
    return payload


def measurement_from_payload(payload: dict):
    """Invert :func:`measurement_to_payload`."""
    from repro.sim.stats import Interval

    buffered = payload.get("buffered")
    if buffered is not None:
        from repro.sim.buffered import BufferedMeasurement
        from repro.sim.stats import LatencyStats

        return BufferedMeasurement(
            graph_label=buffered["graph_label"],
            traffic=buffered["traffic"],
            depth=buffered["depth"],
            priority=buffered["priority"],
            cycles=buffered["cycles"],
            warmup=buffered["warmup"],
            seed=seed_from_payload(buffered["seed"]),
            offered=buffered["offered"],
            injected=buffered["injected"],
            delivered=buffered["delivered"],
            throughput=buffered["throughput"],
            latency=LatencyStats.from_payload(buffered["latency"]),
            mean_occupancy=buffered["mean_occupancy"],
            total_occupancy=buffered["total_occupancy"],
            num_queues=buffered["num_queues"],
            in_flight=buffered["in_flight"],
            n_inputs=buffered["n_inputs"],
            n_outputs=buffered["n_outputs"],
            faults=tuple(WireFault(*f) for f in buffered.get("faults", ())),
            dropped=buffered.get("dropped", 0),
        )

    common = {
        "cycles": payload["cycles"],
        "offered": payload["offered"],
        "delivered": payload["delivered"],
        "acceptance": Interval(*payload["acceptance"]),
        "blocked_by_stage": {
            int(stage): count
            for stage, count in payload["blocked_by_stage"].items()
        },
        "budget": payload["budget"],
        "target_rel_err": payload["target_rel_err"],
        "converged": payload["converged"],
    }
    closed = payload.get("closed_loop")
    if closed is not None:
        from repro.sim.closedloop import ClosedLoopMeasurement, RetryPolicy
        from repro.sim.stats import Interval as _I
        from repro.sim.stats import LatencyStats

        histogram = closed.get("latency_histogram")
        return ClosedLoopMeasurement(
            **common,
            attempts=_I(*closed["attempts"]),
            latency=_I(*closed["latency"]),
            delivered_messages=closed["delivered_messages"],
            abandoned=closed["abandoned"],
            policy=RetryPolicy.parse(closed["policy"]),
            latency_histogram=(
                LatencyStats.from_payload(histogram) if histogram is not None else None
            ),
        )
    from repro.sim.montecarlo import AcceptanceMeasurement

    return AcceptanceMeasurement(**common)


@dataclass(frozen=True)
class CellResult:
    """A measured cell plus its service metadata.

    ``cached`` distinguishes a dedupe hit from fresh compute; ``worker``
    is the pid that ran the measurement (``None`` for cache hits).  A
    cell the service could not complete (when the caller opted into
    ``tolerate_failures``) carries ``measurement=None`` plus the
    structured ``error`` message, with ``quarantined`` set when the
    server gave up on the cell as poison.
    """

    key: str
    measurement: Optional["AcceptanceMeasurement"]
    cached: bool = False
    worker: Optional[int] = None
    error: Optional[str] = None
    quarantined: bool = False


def measure_cell(cell: SweepCell, *, progress=None):
    """Execute one cell — the single definition of cell semantics.

    Builds the router through the backend registry (consulting the
    per-process plan cache) and hands off to
    :func:`~repro.sim.montecarlo.measure_acceptance` with the cell's
    config; the service workers, :meth:`ParallelSweep.map_cells`, and the
    bit-identity tests all call exactly this function.  ``progress`` is
    forwarded to the harness (chunk-boundary streaming callback); it
    observes only, so results are identical with or without it.

    A cell whose config sets ``buffer_depth`` runs the buffered
    packet-switched discipline instead
    (:func:`~repro.sim.buffered.measure_buffered`, warmup fixed at
    ``cycles // 4``) on the buffered engine its backend declares in the
    registry — the compiled FIFO kernels for ``auto``/``native``/
    ``batched``, the per-packet interpreter for ``vectorized``/
    ``reference``: bit-identical either way, so the content key's
    ``backend`` field stays honest.
    """
    from repro.api.registry import build_router, resolve_backend
    from repro.sim.montecarlo import measure_acceptance

    config = cell.config
    if config.buffer_depth is not None:
        from repro.sim.buffered import measure_buffered

        backend = resolve_backend(cell.spec, config.backend, buffered=True)
        cycles = config.cycles if config.cycles is not None else 400
        return measure_buffered(
            cell.spec.stage_graph(),
            traffic=config.traffic if config.traffic is not None else "uniform",
            depth=config.buffer_depth,
            priority=cell.spec.priority,
            cycles=cycles,
            warmup=cycles // 4,
            seed=config.seed if config.seed is not None else 0,
            engine=backend.buffered_engine,
            faults=cell.spec.faults,
        )
    router = build_router(cell.spec, cell.config.backend)
    return measure_acceptance(router, config=cell.config, progress=progress)
