"""Typed specifications: what network to build, how to run it.

Two frozen dataclasses carry everything the facade needs:

* :class:`NetworkSpec` — *what*: a topology kind plus its shape parameters,
  the contention/wire disciplines, and an optional fault set.  One spec
  names one concrete network, independent of which engine (backend)
  eventually routes it.
* :class:`RunConfig` — *how*: Monte-Carlo budgets (cycles, seed,
  confidence), execution knobs (process fan-out ``jobs``, cycles per
  batched chunk ``batch``), and the backend selector.  Unset fields mean
  "use the consumer's default", so one partially-filled config can thread
  through layers of APIs without clobbering their local defaults.

Both are hashable and picklable, so they cross
:class:`~repro.experiments.parallel.ParallelSweep` process boundaries and
can key caches.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Optional

from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError
from repro.core.faults import WireFault
from repro.sim.rng import SeedLike

__all__ = ["NetworkSpec", "RunConfig", "TOPOLOGY_KINDS"]

#: kind -> (accepted shape arities, human-readable shape signature).
TOPOLOGY_KINDS: dict[str, tuple[tuple[int, ...], str]] = {
    "edn": ((4,), "a,b,c,l"),
    "delta": ((2, 3), "N,b | a,b,l"),
    "omega": ((1,), "n"),
    "dilated": ((3, 4), "N,b,d | a,b,l,d"),
    "crossbar": ((1, 2), "n[,m]"),
    "clos": ((2, 3), "n,r[,m]"),
    "benes": ((1,), "n"),
}


def _square_depth(n: int, b: int, kind: str) -> int:
    """The ``l`` with ``b^l == n`` for the square ``N,b`` shape forms."""
    if b < 2:
        raise ConfigurationError(f"{kind} switch radix must be >= 2, got b={b}")
    l = 0
    size = 1
    while size < n:
        size *= b
        l += 1
    if size != n or l < 1:
        raise ConfigurationError(
            f"{kind} size {n} is not a power of the switch radix {b}"
        )
    return l


@dataclass(frozen=True)
class NetworkSpec:
    """A topology kind plus everything needed to instantiate it.

    Attributes
    ----------
    kind:
        One of :data:`TOPOLOGY_KINDS`: ``edn``, ``delta``, ``omega``,
        ``dilated``, ``crossbar``, ``clos``, ``benes``.
    shape:
        The kind's shape parameters in canonical order (see the classmethod
        constructors, or :data:`TOPOLOGY_KINDS` for the signatures).
        ``delta`` and ``dilated`` also accept the square ``N,b[,d]`` form
        (``delta:4096,4`` = the 4096-terminal delta of 4x4 switches,
        ``dilated:4096,4,2`` its 2-dilated sibling).
    priority:
        Contention discipline, ``label`` (default) or ``random``.
        Globally-controlled kinds (``clos``, ``benes``) resolve output
        conflicts in label order and accept only ``label``.
    wire_policy:
        Bucket-wire assignment for the EDN reference engine
        (``first_free``/``random``); array engines fix ``first_free``
        (the policies are acceptance-equivalent).
    faults:
        Dead output wires, available on every stage-graph kind (``edn``,
        ``delta``, ``omega``, ``dilated``).  Lowered into the compiled
        routing plan as per-stage dead masks (see
        :class:`~repro.sim.plan.StagePlan`), so faulted specs route on
        the batched kernels; coordinates are
        ``(stage, switch, local_wire)`` per
        :class:`~repro.core.faults.WireFault`.

    >>> NetworkSpec.edn(16, 4, 4, 2).n_inputs
    64
    >>> NetworkSpec.parse("delta:8,8,2").label
    'delta:8,8,2'
    """

    kind: str
    shape: tuple[int, ...]
    priority: str = "label"
    wire_policy: str = "first_free"
    faults: tuple[WireFault, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ConfigurationError(
                f"unknown topology kind {self.kind!r}; "
                f"available: {sorted(TOPOLOGY_KINDS)}"
            )
        object.__setattr__(self, "shape", tuple(int(v) for v in self.shape))
        arities, signature = TOPOLOGY_KINDS[self.kind]
        if len(self.shape) not in arities:
            raise ConfigurationError(
                f"{self.kind} expects shape ({signature}), got {self.shape}"
            )
        if self.priority not in ("label", "random"):
            raise ConfigurationError(f"unknown priority discipline {self.priority!r}")
        if self.wire_policy not in ("first_free", "random"):
            raise ConfigurationError(f"unknown wire policy {self.wire_policy!r}")
        object.__setattr__(self, "faults", tuple(sorted(set(self.faults))))
        if self.faults and self.kind not in ("edn", "delta", "omega", "dilated"):
            raise ConfigurationError(
                f"wire faults apply to stage-graph kinds "
                f"(edn, delta, omega, dilated), not {self.kind}"
            )
        self._validate_shape()

    def _validate_shape(self) -> None:
        # Delegate to the builders' own constructors (lazy imports keep this
        # module light), so a spec accepts a shape iff build_router will:
        # there is exactly one copy of each topology's validity rules.
        # Omega is the exception — its constructor materializes a routing
        # engine and an O(n) shuffle table, too heavy for spec validation —
        # so its power-of-two rule is restated here.
        if self.kind in ("edn", "delta"):
            params = self.edn_params  # EDNParams performs full validation
            if self.faults and self.kind == "edn":
                from repro.core.faults import FaultSet

                FaultSet(self.faults).validate(params)
        elif self.kind == "dilated":
            from repro.baselines.dilated import DilatedDelta

            DilatedDelta(*self.dilated_shape)
        elif self.kind == "omega":
            from repro.core.labels import is_power_of_two

            n = self.shape[0]
            if not is_power_of_two(n) or n < 2:
                raise ConfigurationError(
                    f"omega size must be a power of two >= 2, got {n}"
                )
        elif self.kind == "benes":
            from repro.baselines.benes import BenesNetwork

            BenesNetwork(self.shape[0])
        elif self.kind == "crossbar":
            from repro.baselines.crossbar_network import CrossbarNetwork

            CrossbarNetwork(*self.shape)
        elif self.kind == "clos":
            from repro.baselines.clos import ClosNetwork

            n, r = self.shape[0], self.shape[1]
            m = self.shape[2] if len(self.shape) == 3 else None
            ClosNetwork(n, r, m)
        if self.faults and self.kind != "edn":
            # EDN faults were validated in parameter space above; the
            # other stage-graph kinds validate against the graph itself.
            from repro.core.faults import FaultSet

            FaultSet(self.faults).validate_graph(self.stage_graph())

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def edn(cls, a: int, b: int, c: int, l: int, **kwargs) -> "NetworkSpec":
        """An ``EDN(a, b, c, l)`` (paper, Definition 2)."""
        return cls("edn", (a, b, c, l), **kwargs)

    @classmethod
    def delta(cls, a: int, b: int, l: int, **kwargs) -> "NetworkSpec":
        """Patel's ``a^l x b^l`` delta network (the ``c = 1`` EDN)."""
        return cls("delta", (a, b, l), **kwargs)

    @classmethod
    def omega(cls, n: int, **kwargs) -> "NetworkSpec":
        """Lawrie's ``N x N`` omega network (shuffle + 2x2 switches)."""
        return cls("omega", (n,), **kwargs)

    @classmethod
    def dilated(cls, a: int, b: int, l: int, d: int, **kwargs) -> "NetworkSpec":
        """A ``d``-dilated ``a^l x b^l`` delta (paper references [28, 29])."""
        return cls("dilated", (a, b, l, d), **kwargs)

    @classmethod
    def crossbar(cls, n_inputs: int, n_outputs: Optional[int] = None, **kwargs) -> "NetworkSpec":
        """A full crossbar (square unless ``n_outputs`` is given)."""
        shape = (n_inputs,) if n_outputs is None else (n_inputs, n_outputs)
        return cls("crossbar", shape, **kwargs)

    @classmethod
    def clos(cls, n: int, r: int, m: Optional[int] = None, **kwargs) -> "NetworkSpec":
        """A rearrangeable three-stage ``C(n, m, r)`` Clos network."""
        shape = (n, r) if m is None else (n, r, m)
        return cls("clos", shape, **kwargs)

    @classmethod
    def benes(cls, n: int, **kwargs) -> "NetworkSpec":
        """An ``N x N`` Beneš network under the looping algorithm."""
        return cls("benes", (n,), **kwargs)

    @classmethod
    def parse(cls, text: str, **kwargs) -> "NetworkSpec":
        """Parse a ``kind:p1,p2,...`` spec string (the CLI's ``--topology``).

        >>> NetworkSpec.parse("edn:16,4,4,2").shape
        (16, 4, 4, 2)
        """
        kind, sep, params = text.partition(":")
        kind = kind.strip().lower()
        if not sep or not params.strip():
            raise ConfigurationError(
                f"cannot parse topology {text!r}: expected KIND:P1,P2,... "
                f"(kinds: {sorted(TOPOLOGY_KINDS)})"
            )
        try:
            shape = tuple(int(v) for v in params.split(","))
        except ValueError:
            raise ConfigurationError(
                f"cannot parse topology {text!r}: shape must be comma-separated integers"
            ) from None
        return cls(kind, shape, **kwargs)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def delta_shape(self) -> tuple[int, int, int]:
        """The canonical ``(a, b, l)`` of a ``delta`` spec (either shape form)."""
        if self.kind != "delta":
            raise ConfigurationError(f"{self.kind} specs have no delta shape")
        if len(self.shape) == 3:
            return self.shape
        n, b = self.shape
        return (b, b, _square_depth(n, b, "delta"))

    @property
    def dilated_shape(self) -> tuple[int, int, int, int]:
        """The canonical ``(a, b, l, d)`` of a ``dilated`` spec (either form)."""
        if self.kind != "dilated":
            raise ConfigurationError(f"{self.kind} specs have no dilation shape")
        if len(self.shape) == 4:
            return self.shape
        n, b, d = self.shape
        return (b, b, _square_depth(n, b, "dilated"), d)

    @property
    def edn_params(self) -> EDNParams:
        """The underlying :class:`EDNParams` (``edn`` and ``delta`` kinds)."""
        if self.kind == "edn":
            return EDNParams(*self.shape)
        if self.kind == "delta":
            a, b, l = self.delta_shape
            return EDNParams(a, b, 1, l)
        raise ConfigurationError(f"{self.kind} networks have no EDN parameterization")

    def stage_graph(self):
        """The compiled-routing :class:`~repro.sim.stagegraph.StageGraph`.

        Available for every unidirectional multistage kind (``edn``,
        ``delta``, ``omega``, ``dilated``) — the descriptor the batched
        backend compiles and caches a plan for.  Specs of one
        ``(kind, shape)`` share one graph object: priority and faults are
        not part of the graph (see :func:`_stage_graph`).
        """
        return _stage_graph(self.kind, self.shape)

    @property
    def n_inputs(self) -> int:
        """Input terminals of the specified network."""
        if self.kind in ("edn", "delta"):
            return self.edn_params.num_inputs
        if self.kind == "dilated":
            a, _b, l, _d = self.dilated_shape
            return a**l
        if self.kind in ("omega", "benes"):
            return self.shape[0]
        if self.kind == "crossbar":
            return self.shape[0]
        return self.shape[0] * self.shape[1]  # clos: n * r terminals

    @property
    def n_outputs(self) -> int:
        """Output terminals of the specified network."""
        if self.kind in ("edn", "delta"):
            return self.edn_params.num_outputs
        if self.kind == "dilated":
            _a, b, l, _d = self.dilated_shape
            return b**l
        if self.kind == "crossbar":
            return self.shape[-1]
        return self.n_inputs  # omega, benes, clos are square

    @property
    def label(self) -> str:
        """The canonical ``kind:p1,p2,...`` string (round-trips through :meth:`parse`)."""
        return f"{self.kind}:{','.join(str(v) for v in self.shape)}"

    def __str__(self) -> str:
        return self.label


@lru_cache(maxsize=64)
def _stage_graph(kind: str, shape: tuple[int, ...]):
    """The stage graph of ``kind:shape``, built once while it stays cached.

    A Monte-Carlo sweep builds one router per cell, mostly for a shape it
    has built before, and building a graph costs up to about 120 µs
    (``omega:1024``).  Graphs are frozen, so one object serves every
    spec of the shape; the plan cache then finds it by identity.  The
    cache is module-level, never on a spec, so nothing extra travels in
    pickles or the serve protocol.  It keeps 64 shapes, twice the plan
    cache's 32 plans.
    """
    from repro.sim import stagegraph

    spec = NetworkSpec(kind, shape)
    if kind == "edn":
        return stagegraph.edn_graph(spec.edn_params)
    if kind == "delta":
        return stagegraph.delta_graph(*spec.delta_shape)
    if kind == "omega":
        return stagegraph.omega_graph(shape[0])
    if kind == "dilated":
        return stagegraph.dilated_graph(*spec.dilated_shape)
    raise ConfigurationError(f"{kind} networks have no stage graph")


@dataclass(frozen=True)
class RunConfig:
    """Execution parameters for measurements and experiment runners.

    Every field except ``backend`` defaults to ``None`` = *unset*: the
    consumer fills unset fields with its own defaults via :meth:`resolve`,
    so a config built from CLI flags only overrides what the user actually
    asked for.

    Attributes
    ----------
    cycles:
        Monte-Carlo cycles per measurement point.
    seed:
        Master reproducibility seed (``int``/``SeedSequence``/``Generator``).
    jobs:
        Process fan-out for experiment grids (:class:`ParallelSweep`).
    batch:
        Cycles routed per batched-engine chunk (``1`` = per-cycle path).
    backend:
        Router backend name, or ``auto`` (batched where available,
        per-cycle fallback) — see :func:`repro.api.build_router`.
    confidence:
        Confidence level of reported intervals, in ``(0, 1)``.
    rel_err:
        Adaptive early-stopping target: when set, ``cycles`` becomes a
        budget and each measurement stops as soon as its interval
        half-width (at ``confidence``) falls to ``rel_err`` times the
        acceptance estimate — see
        :func:`repro.sim.montecarlo.measure_acceptance` and
        ``docs/PERFORMANCE.md``.  Unset means fixed-budget measurement.
    traffic:
        Workload spec string (``"uniform:0.75"``, ``"hotspot:0.1"``,
        ``"bitrev"``, ...) naming the demand model — parsed and
        canonicalized against the :mod:`repro.workloads` registry, sized
        to the network at measurement time.  Unset means the consumer's
        default workload (uniform for :func:`repro.api.measure`).
    retry:
        Closed-loop retry policy
        (:class:`~repro.sim.closedloop.RetryPolicy` or its
        ``"ATTEMPTS[:BACKOFF[:FACTOR]]"`` spec string): blocked messages
        retry until delivered, with bounded attempts and exponential
        backoff, and the measurement reports per-message attempt and
        latency statistics — see
        :func:`repro.sim.montecarlo.measure_acceptance`.  Unset means
        open-loop sources (every cycle draws fresh traffic).
    shard_timeout:
        Seconds one sweep shard's result may take before its worker is
        declared lost and the shard is resubmitted
        (:class:`~repro.experiments.parallel.ParallelSweep`, and the
        per-cell timeout of ``repro serve``).  Unset means no deadline.
    service:
        Address of a running ``repro serve`` instance
        (``HOST:PORT`` or ``unix:/PATH``).  When set, sweeps that fan out
        measurement cells (:meth:`ParallelSweep.map_cells`) submit them to
        the service — sharing its warm plan caches and content-keyed
        result cache — instead of spawning a local pool.  Execution-only:
        results are bit-identical either way, so ``service`` (like
        ``jobs``) never enters result cache keys.
    buffer_depth:
        Per-wire FIFO depth: when set, measurements run the *buffered*
        packet-switched discipline (back-pressure, latency histograms —
        :func:`repro.sim.buffered.measure_buffered`) instead of the
        paper's drop-on-loss circuit switching.  Semantic: it changes
        results, so it is content-keyed into
        :meth:`~repro.api.jobs.SweepCell.key`.  Unset means unbuffered.

    >>> RunConfig(traffic="bit_reversal").traffic  # aliases canonicalize
    'bitrev'
    """

    cycles: Optional[int] = None
    seed: SeedLike = None
    jobs: Optional[int] = None
    batch: Optional[int] = None
    backend: str = "auto"
    confidence: Optional[float] = None
    rel_err: Optional[float] = None
    traffic: Optional[str] = None
    retry: Optional[object] = None
    shard_timeout: Optional[float] = None
    service: Optional[str] = None
    buffer_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.confidence is not None and not 0 < self.confidence < 1:
            raise ConfigurationError(
                f"confidence must lie in (0, 1), got {self.confidence}"
            )
        if self.rel_err is not None and not 0 < self.rel_err < 1:
            raise ConfigurationError(
                f"rel_err must lie in (0, 1), got {self.rel_err}"
            )
        if self.buffer_depth is not None:
            depth = int(self.buffer_depth)
            if depth < 1:
                raise ConfigurationError(
                    f"buffer_depth must be >= 1, got {self.buffer_depth}"
                )
            object.__setattr__(self, "buffer_depth", depth)
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ConfigurationError(
                f"shard_timeout must be > 0 seconds, got {self.shard_timeout}"
            )
        if self.retry is not None:
            # Accept a RetryPolicy or its spec string; store the policy
            # object (frozen, hashable) so equal configs hash equal.
            from repro.sim.closedloop import RetryPolicy

            if isinstance(self.retry, str):
                object.__setattr__(self, "retry", RetryPolicy.parse(self.retry))
            elif not isinstance(self.retry, RetryPolicy):
                raise ConfigurationError(
                    f"retry must be a RetryPolicy or spec string, "
                    f"got {self.retry!r}"
                )
        if self.traffic is not None:
            # Validate eagerly (typos surface at construction, like
            # NetworkSpec shapes) and store the canonical spec string so
            # equal configs hash equal.  Lazy import: repro.api.spec is a
            # leaf module and workloads is only needed when traffic is set.
            from repro.workloads.registry import parse_workload

            object.__setattr__(self, "traffic", parse_workload(self.traffic).label)

    def override(self, **overrides) -> "RunConfig":
        """A copy where each non-``None`` override replaces the field.

        The precedence helper for explicit keyword arguments: values the
        caller actually passed beat whatever the config carries.

        >>> cfg = RunConfig(cycles=100, seed=7)
        >>> cfg.override(cycles=500, seed=None).cycles   # passed values win
        500
        >>> cfg.override(cycles=500, seed=None).seed     # None = not passed
        7
        """
        self._check_fields(overrides)
        updates = {name: value for name, value in overrides.items() if value is not None}
        return replace(self, **updates) if updates else self

    def resolve(self, **defaults) -> "RunConfig":
        """A copy where each *unset* (``None``) field takes the given default.

        The consumer-defaults helper: ``config.resolve(cycles=60, seed=0)``
        keeps any value already set on the config and fills the rest.

        >>> resolved = RunConfig(cycles=250).resolve(cycles=60, seed=0)
        >>> (resolved.cycles, resolved.seed)             # set field kept
        (250, 0)
        """
        self._check_fields(defaults)
        updates = {
            name: value
            for name, value in defaults.items()
            if getattr(self, name) is None
        }
        return replace(self, **updates) if updates else self

    def _check_fields(self, names: dict) -> None:
        valid = {f.name for f in fields(self)}
        unknown = set(names) - valid
        if unknown:
            raise ConfigurationError(
                f"unknown RunConfig field(s) {sorted(unknown)}; valid: {sorted(valid)}"
            )
