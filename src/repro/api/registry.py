"""String-keyed backend registry and router construction.

A *backend* is a named way of turning a :class:`NetworkSpec` into a
:class:`Router`.  Backends declare which topology kinds they build and
which spec features they support; :func:`build_router` resolves a name (or
``"auto"``) against a spec and instantiates the router.

Every stage-graph kind (``edn``, ``delta``, ``omega``, ``dilated``) has
one compiled engine and one independent interpreter:

=============  =======================================  =================
name           engine                                   kinds
=============  =======================================  =================
``native``     :class:`NativeStageRouter`: label        edn, delta,
               counts on one C lane kernel per wire     omega, dilated
               dtype that takes stage shapes as
               data, random-priority counts and
               buffered cycles on one C source of
               contended kernels, each compiled at
               first use with the host C toolchain;
               drops out of the registry when no
               working C compiler is present
``batched``    the compiled stage-graph router          edn, delta,
               (:class:`CompiledStageRouter`) every     omega, dilated,
               stage-graph kind compiles to, and the    crossbar
               batched crossbar
``vectorized`` the per-cycle sort-based                 edn, delta,
               :class:`StageGraphReference`             omega, dilated,
               interpreter (and the crossbar) behind    crossbar
               the automatic batch loop — the
               independent cross-check path
``reference``  the paper's per-message engine           edn
               (:class:`EDNetwork`; non-default wire
               policies; faulted EDNs via
               :class:`FaultyEDNetwork`)
``matching``   Clos matching decomposition              clos
``looping``    Beneš looping algorithm                  benes
=============  =======================================  =================

The buffered packet-switched discipline has the same engines: each
backend that can run it names its ``buffered_engine`` — ``"native"``
(:class:`NativeStageRouter`, its cycles in C) for ``native``,
``"compiled"`` (:class:`CompiledStageRouter` with per-wire FIFOs on
NumPy) for ``batched``, ``"reference"`` (the per-packet
:class:`BufferedStageReference`) for ``vectorized`` and ``reference`` —
and ``resolve_backend(spec, backend, buffered=True)`` picks among them,
so ``auto`` steps buffered cells in C when a compiler is present and on
NumPy otherwise, with identical results.

``auto`` picks the first supporting, runnable backend in
:data:`AUTO_PREFERENCE` order — the native kernel when a C compiler is
present, then batched engines, then the per-cycle loop — mirroring how
the Monte-Carlo harness has always dispatched on ``route_batch``
availability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.exceptions import ConfigurationError
from repro.api.router import (
    PerCycleRouter,
    RearrangeableRouter,
    ReferenceEDNRouter,
    Router,
)
from repro.api.spec import NetworkSpec

__all__ = [
    "Backend",
    "BACKENDS",
    "AUTO_PREFERENCE",
    "register_backend",
    "available_backends",
    "resolve_backend",
    "build_router",
]


@dataclass(frozen=True)
class Backend:
    """One registered way of building routers.

    ``builder`` instantiates a router for a supported spec; ``accepts``
    refines kind membership with feature checks (faults, disciplines).
    ``batched`` records whether routing is natively batched (drives
    ``auto`` preference and lets tooling report engine class).
    ``availability`` reports a host-environment problem (no working C
    toolchain) as a message, or ``None`` when the backend can run here;
    ``auto`` skips an unavailable backend and naming it explicitly
    raises.  ``buffered_engine`` names the
    :func:`~repro.sim.buffered.measure_buffered` engine the backend runs
    buffered cells on (``None``: it runs none).
    """

    name: str
    description: str
    kinds: frozenset[str]
    batched: bool
    builder: Callable[[NetworkSpec], Router]
    accepts: Callable[[NetworkSpec], bool]
    availability: Callable[[], str | None]
    buffered_engine: Optional[str] = None

    def supports(self, spec: NetworkSpec, *, buffered: bool = False) -> bool:
        if buffered:
            # Both buffered engines step any stage graph.
            return self.buffered_engine is not None
        return spec.kind in self.kinds and self.accepts(spec)

    def runnable(self) -> bool:
        return self.availability() is None


#: name -> Backend, in registration order.
BACKENDS: dict[str, Backend] = {}

#: ``auto`` tries these in order and takes the first that supports the
#: spec and can run on this host.
AUTO_PREFERENCE = (
    "native", "batched", "matching", "looping", "vectorized", "reference"
)


def register_backend(
    name: str,
    *,
    description: str,
    kinds: frozenset[str] | set[str],
    batched: bool,
    accepts: Callable[[NetworkSpec], bool] | None = None,
    availability: Callable[[], str | None] | None = None,
    buffered_engine: Optional[str] = None,
):
    """Register ``fn`` as the builder of backend ``name`` (decorator)."""

    def decorate(fn: Callable[[NetworkSpec], Router]):
        if name in BACKENDS:
            raise ConfigurationError(f"backend {name!r} already registered")
        BACKENDS[name] = Backend(
            name=name,
            description=description,
            kinds=frozenset(kinds),
            batched=batched,
            builder=fn,
            accepts=accepts if accepts is not None else (lambda spec: True),
            availability=availability if availability is not None else (lambda: None),
            buffered_engine=buffered_engine,
        )
        return fn

    return decorate


def available_backends(spec: NetworkSpec, *, buffered: bool = False) -> list[str]:
    """Backends able to build ``spec`` *on this host*, preference first.

    Environment-gated backends (``native`` needs a working C compiler)
    drop out of the list when their dependency is missing, so the
    doctests below pin specs the gated backends never serve.
    ``buffered=True`` lists the backends that run buffered cells instead.

    >>> available_backends(NetworkSpec.crossbar(8))
    ['batched', 'vectorized']
    >>> available_backends(NetworkSpec.benes(16))
    ['looping']
    """
    return [entry.name for entry in _runnable(spec, buffered)]


def _runnable(spec: NetworkSpec, buffered: bool):
    """The backends that serve ``spec`` here, preference first, lazily."""
    later = (name for name in BACKENDS if name not in AUTO_PREFERENCE)
    for name in itertools.chain(AUTO_PREFERENCE, later):
        entry = BACKENDS.get(name)
        if entry is not None and entry.supports(spec, buffered=buffered) and entry.runnable():
            yield entry


def resolve_backend(
    spec: NetworkSpec, backend: str = "auto", *, buffered: bool = False
) -> Backend:
    """The :class:`Backend` that ``backend`` selects for ``spec``.

    ``auto`` takes the first of :func:`available_backends`; an explicit
    name must exist, be runnable on this host, and support the spec,
    with the error naming the alternatives.  ``buffered=True`` resolves
    among the backends with a buffered engine (a cell with a
    ``buffer_depth``).

    >>> resolve_backend(NetworkSpec.crossbar(8)).name
    'batched'
    >>> resolve_backend(NetworkSpec.clos(8, 8)).name
    'matching'
    >>> spec = NetworkSpec.delta(2, 2, 3)
    >>> resolve_backend(spec, "vectorized", buffered=True).buffered_engine
    'reference'

    ``auto`` takes the native engine where a C compiler works, and the
    NumPy one where it does not:

    >>> backend = resolve_backend(spec, "auto", buffered=True)
    >>> (backend.name, backend.buffered_engine) in {
    ...     ("native", "native"), ("batched", "compiled")}
    True
    """
    if backend == "auto":
        # The first match, without building the whole list.
        for entry in _runnable(spec, buffered):
            return entry
        raise ConfigurationError(
            f"no registered backend supports {spec} with "
            f"priority={spec.priority!r}, wire_policy={spec.wire_policy!r}, "
            f"{len(spec.faults)} fault(s); kind {spec.kind!r} is served by "
            f"{sorted(n for n, b in BACKENDS.items() if spec.kind in b.kinds)}"
        )
    try:
        entry = BACKENDS[backend]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {backend!r}; registered: {sorted(BACKENDS)}"
        ) from None
    # Environment availability first: "you asked for native but there is
    # no C compiler" beats "native does not support this spec".
    reason = entry.availability()
    if reason is not None:
        raise ConfigurationError(f"backend {backend!r} is unavailable: {reason}")
    if buffered and not entry.supports(spec, buffered=True):
        raise ConfigurationError(
            f"backend {backend!r} runs no buffered cells; buffered backends: "
            f"{available_backends(spec, buffered=True)}"
        )
    if not buffered and not entry.supports(spec):
        if spec.faults:
            from dataclasses import replace

            if entry.supports(replace(spec, faults=())):
                # The backend handles the topology but not its faults:
                # say so, and name the fault-capable alternatives.
                capable = available_backends(spec)
                raise ConfigurationError(
                    f"backend {backend!r} does not support fault injection "
                    f"on {spec} ({len(spec.faults)} wire fault(s)); "
                    f"fault-capable backends for this spec: {capable}"
                )
        raise ConfigurationError(
            f"backend {backend!r} does not support {spec} "
            f"(available: {available_backends(spec)})"
        )
    return entry


def build_router(spec: NetworkSpec, backend: str = "auto") -> Router:
    """Construct a router for ``spec`` — the facade's main entry point.

    >>> import numpy as np
    >>> router = build_router(NetworkSpec.edn(16, 4, 4, 2))
    >>> router.route_batch(np.tile(np.arange(64), (3, 1))).output.shape
    (3, 64)
    """
    return resolve_backend(spec, backend).builder(spec)


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------


def _array_engine_ok(spec: NetworkSpec) -> bool:
    # Array engines fix first-free wire assignment (acceptance-equivalent).
    # Faults are fine: spec validation restricts them to the stage-graph
    # kinds, where they lower into the compiled plan's dead masks.
    return spec.wire_policy == "first_free"


def _label_only(spec: NetworkSpec) -> bool:
    # Global control has no contention randomness to randomize.
    return spec.priority == "label"


@register_backend(
    "batched",
    description="the compiled stage-graph router — the Monte-Carlo fast path",
    kinds={"edn", "delta", "omega", "dilated", "crossbar"},
    batched=True,
    accepts=_array_engine_ok,
    buffered_engine="compiled",
)
def _build_batched(spec: NetworkSpec) -> Router:
    from repro.baselines.crossbar_network import CrossbarNetwork
    from repro.sim.batched import CompiledStageRouter

    if spec.kind == "crossbar":
        return CrossbarNetwork(*spec.shape, priority=spec.priority)
    # Every stage-graph kind compiles to the same plan-cached kernels; the
    # spec carries the topology (and its fault masks) as data.
    return CompiledStageRouter(
        spec.stage_graph(), priority=spec.priority, faults=spec.faults
    )


@register_backend(
    "vectorized",
    description="per-cycle reference interpreter behind the automatic batch loop",
    kinds={"edn", "delta", "omega", "dilated", "crossbar"},
    batched=False,
    accepts=_array_engine_ok,
    buffered_engine="reference",
)
def _build_vectorized(spec: NetworkSpec) -> Router:
    from repro.baselines.crossbar_network import CrossbarNetwork
    from repro.sim.stagegraph import StageGraphReference

    if spec.kind == "crossbar":
        return PerCycleRouter(CrossbarNetwork(*spec.shape, priority=spec.priority))
    # The sort-based per-cycle interpreter behind the generic batch loop:
    # deliberately independent of the compiled kernels, so cross-backend
    # equivalence tests exercise two implementations of the semantics —
    # including the fault masks, which this path builds from per-bucket
    # live lists rather than the plan's argsort lowering.
    return PerCycleRouter(
        StageGraphReference(
            spec.stage_graph(), priority=spec.priority, faults=spec.faults
        )
    )


def _reference_ok(spec: NetworkSpec) -> bool:
    # FaultyEDNetwork implements the paper's default disciplines only.
    if spec.faults:
        return spec.priority == "label" and spec.wire_policy == "first_free"
    return True


@register_backend(
    "reference",
    description="per-message reference engine (fault injection, wire policies)",
    kinds={"edn"},
    batched=False,
    accepts=_reference_ok,
    buffered_engine="reference",
)
def _build_reference(spec: NetworkSpec) -> Router:
    from repro.core.faults import FaultSet, FaultyEDNetwork
    from repro.core.network import EDNetwork

    if spec.faults:
        return ReferenceEDNRouter(
            FaultyEDNetwork(spec.edn_params, FaultSet(spec.faults))
        )
    return ReferenceEDNRouter(
        EDNetwork(
            spec.edn_params, priority=spec.priority, wire_policy=spec.wire_policy
        )
    )


@register_backend(
    "matching",
    description="Clos matching-decomposition global routing",
    kinds={"clos"},
    batched=False,
    accepts=_label_only,
)
def _build_clos(spec: NetworkSpec) -> Router:
    from repro.baselines.clos import ClosNetwork

    n, r = spec.shape[0], spec.shape[1]
    m = spec.shape[2] if len(spec.shape) == 3 else None
    return RearrangeableRouter(ClosNetwork(n, r, m))


@register_backend(
    "looping",
    description="Beneš looping-algorithm global routing",
    kinds={"benes"},
    batched=False,
    accepts=_label_only,
)
def _build_benes(spec: NetworkSpec) -> Router:
    from repro.baselines.benes import BenesNetwork

    return RearrangeableRouter(BenesNetwork(spec.shape[0]))


def _native_availability() -> str | None:
    # Late import + module-attribute call so tests can monkeypatch the
    # probe, and so importing the registry never triggers a compiler probe.
    from repro.sim import native

    return native.unavailable_reason()


@register_backend(
    "native",
    description="StagePlan lowered to C: lane kernel and contended kernels",
    kinds={"edn", "delta", "omega", "dilated"},
    batched=True,
    accepts=_array_engine_ok,
    availability=_native_availability,
    buffered_engine="native",
)
def _build_native(spec: NetworkSpec) -> Router:
    from repro.sim.native import NativeStageRouter

    # Every stage-graph kind (a faulted EDN included) compiles to the
    # same plan; the native router runs counts (both priorities) and
    # buffered cycles in C and inherits the rest of the batched surface.
    return NativeStageRouter(
        spec.stage_graph(), priority=spec.priority, faults=spec.faults
    )
