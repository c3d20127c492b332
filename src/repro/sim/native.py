"""Native kernel backend: each :class:`~repro.sim.plan.StagePlan` lowered to
one plan-specialized C kernel that routes a block of cycles per SIMD vector.

The batched NumPy kernels stream ~10 chunk-sized array passes per stage;
at Monte-Carlo scale that is memory traffic, not arithmetic.  The native
kernel routes ``_LANES`` cycles at once, one cycle per SIMD lane: the
frontier is wire-major (``frontier[wire][lane]``), so every switch
operation is one vector operation over the whole block, and one pass per
stage resolves contention, acceptance, fault refinement and the link
permutation.  It is C source *specialized to the plan's stage shapes*
(constants baked in, one block per stage), written with the GCC/Clang
``vector_size`` extension, compiled at first use with the host toolchain
(``cc``/``gcc``/``clang``), cached on disk by generated source, compile
command and host ISA, and called through :mod:`ctypes` (the GIL is
released for the duration of the call).

The kernel runs **serially**.  Parallelism comes from one layer only:
the process layer (:class:`~repro.experiments.parallel.ParallelSweep`
and the serve worker pool), whose workers are forked on purpose so they
inherit warm plan caches.  A threaded kernel (OpenMP) leaves a thread
pool behind that does not survive ``fork``: a forked worker's first
kernel call would deadlock, and on a loaded host threads only
oversubscribe the cores the workers already use.  Routing decisions are
bit-identical to
:meth:`~repro.sim.batched.CompiledStageRouter.route_batch_counts`
(pinned by the cross-backend equivalence suite).

Importing this module never hard-fails.  Without a C compiler that
builds the vector extension the backend registry reports ``native``
unavailable (``backend="auto"`` then resolves to ``batched``, with
identical counts) and constructing a :class:`NativeStageRouter` raises
:class:`ConfigurationError`.

The kernel consumes the existing plan data — per-stage shapes, link
permutation tables (pre-composed with the fault remap for faulted
stages), rank-space fault liveness, and the input permutation — packed
once per plan into flat arrays (:func:`_lower`) and cached on the plan
itself, so the warm path allocates nothing chunk-sized and forked sweep
workers inherit both the lowered tables and the on-disk kernel cache.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.sim.batched import (
    BatchAcceptanceCounts,
    CompiledStageRouter,
    _check_demand_shape,
    _check_destination_bounds,
)

__all__ = [
    "NativeStageRouter",
    "NativeKernel",
    "kernel_for",
    "available_tiers",
    "default_tier",
    "unavailable_reason",
]

# ----------------------------------------------------------------------
# Kernel source (plan-specialized, runtime-compiled, ctypes-loaded)
# ----------------------------------------------------------------------
# Every per-stage scalar (width, fan-in, digit shift, radix, capacity,
# table offsets) is a compile-time constant and each stage is one block
# of the generated function.  Only the table *data* stays runtime — two
# plans with the same stage shapes share one shared object, while their
# link tables and fault masks ride in as pointers.
#
# Lanes.  A call routes its batch in blocks of ``_LANES`` cycles.  A
# frontier row holds one wire's destination in every cycle of the block
# (``-1`` = idle).  The demand rows are transposed into lanes on entry,
# through the input permutation; a partial last block is padded with idle
# lanes, so no lane ever reads stale scratch.  The kernel computes on
# ``vec_t``, the widest vector the target handles natively (a row is
# ``NV`` of them; GCC lowers wider generic vectors through memory), and
# resolves each stage once per ``vec_t`` of the row.
#
# Pull resolution.  Label priority grants bucket ``j`` of a switch to
# its live inputs in wire order, so output slot ``(j, r)`` holds the
# ``r``-th input whose digit is ``j``, or idle.  Each bucket scans the
# switch's inputs last to first through a ``capacity``-deep shift
# register: a matching input enters at rank 0 and pushes the others up
# one rank, by compare-and-select in every lane.  Idle inputs never
# match (their digit keeps the sign bit).  Buckets are scanned in groups
# of up to ``_GROUP_SLOTS`` registers, so one scan carries several
# independent select chains.  Each slot is then stored whole to its fixed
# next-stage row ``ltab[slot]`` — the link permutation, pre-composed with
# the fault remap on faulted stages — so every row of the next frontier
# is written exactly once and nothing is cleared or parked.  A dead slot
# of a faulted stage (``falive``) emits idle.  A switch costs
# ``fan_in x radix x capacity`` selects, so very wide buckets route
# slower than a scalar counting kernel would (see docs/PERFORMANCE.md).
#
# Counts.  Per lane, a stage blocks the live rows it reads minus the live
# slots it writes; ``offered`` counts the live entry rows and
# ``delivered`` the live slots of the last column.  They stay in
# ``wire_t`` lanes: no count exceeds the widest column, which the plan's
# wire dtype already holds.  An exit column that is pure delivery (fan-in
# 1, radix 1, no faults) delivers every live row and emits no code.

#: Cycles per kernel block, one per SIMD lane.  32 int16 lanes fill one
#: 512-bit vector (a row must fill at least one ``vec_t``), and the
#: preferred batch of a plan up to N = 4096 (32 or 64 cycles) is a whole
#: number of blocks.
_LANES = 32

#: Entry rows transposed per pass over the block's lanes, so the rows
#: being filled stay in L1 (8 KiB of int16 lanes).
_TILE = 128

#: Slot registers one bucket scan fills: ``_GROUP_SLOTS // capacity``
#: buckets share each pass over a switch's inputs.  Their select chains
#: are independent, so a wide switch is not bound by one chain's latency.
_GROUP_SLOTS = 8


def _stage_block(i, stage, nstages) -> str:
    """One stage of the lane kernel: pull every slot, store it, count it."""
    width, fib, shift, rmask, cap, bw, loff, foff = stage
    fan_in = 1 << fib
    last = i == nstages - 1
    faulted = foff >= 0
    if last and fan_in == 1 and rmask == 0 and not faulted:
        return f"""
        /* stage {i}: pure exit column -- every live row delivers */
        for (int h = 0; h < NV; h++) blk[{i}][h] = zero;"""
    group = min(rmask + 1, max(1, _GROUP_SLOTS // cap))
    slots = ", ".join(f"s{g}_{r} = idle" for g in range(group) for r in range(cap))
    push = [f"vec_t m{g} = dig[k] == (wire_t)(j + {g});" for g in range(group)]
    for g in range(group):
        # A matching input pushes the register up one rank and enters at 0.
        push += [
            f"s{g}_{r} = (m{g} & s{g}_{r - 1}) | (~m{g} & s{g}_{r});"
            for r in range(cap - 1, 0, -1)
        ]
        push.append(f"s{g}_0 = (m{g} & in[k * NV]) | (~m{g} & s{g}_0);")
    emit = [] if last and not faulted else [f"int64_t y = sw * {bw} + j * {cap};"]
    for g in range(group):
        for r in range(cap):
            slot, q = f"s{g}_{r}", g * cap + r
            if faulted:
                emit.append(f"{slot} |= (wire_t)(fal[y + {q}] - 1);")
            emit.append(f"out -= {slot} >= 0;")
            if not last:
                emit.append(f"nxt[ltab[y + {q}] * NV + h] = {slot};")
    decls = []
    if not last:
        decls.append(f"const wire_t *ltab = links + {loff};")
    if faulted:
        decls.append(f"const uint8_t *fal = falive + {foff};")
    swap = "" if last else "vec_t *tmp_ = cur; cur = nxt; nxt = tmp_;"
    return f"""
        /* stage {i}: {width >> fib} x {fan_in}-wide switches, radix {rmask + 1}, capacity {cap} */
        {{
            {" ".join(decls)}
            for (int h = 0; h < NV; h++) {{
                vec_t out = zero;
                for (int64_t sw = 0; sw < {width >> fib}; sw++) {{
                    const vec_t *in = cur + sw * {fan_in} * NV + h;
                    vec_t dig[{fan_in}];
                    for (int k = 0; k < {fan_in}; k++)
                        dig[k] = (in[k * NV] >> {shift}) & (wire_t)(WIRE_MIN | {rmask});
                    for (int j = 0; j <= {rmask}; j += {group}) {{
                        vec_t {slots};
                        for (int k = {fan_in - 1}; k >= 0; k--) {{
                            {_indent(push, 28)}
                        }}
                        {_indent(emit, 24)}
                    }}
                }}
                blk[{i}][h] = live[h] - out;
                live[h] = out;
            }}
            {swap}
        }}"""


def _indent(lines, width) -> str:
    return ("\n" + " " * width).join(lines)


def _spec_source(tables, ctype) -> str:
    """The lane kernel's C source for one plan shape x wire dtype."""
    stages = tables.stages
    nstages = len(stages)
    n = stages[0][0]
    row = "input_perm[s]" if tables.input_perm.size else "s"
    tile = min(n, _TILE)
    blocks = "\n".join(
        _stage_block(i, stage, nstages) for i, stage in enumerate(stages)
    )
    return f"""#include <stdint.h>

/* Plan-specialized lane kernel: {nstages} stages, wire type {ctype},
 * {_LANES} cycles per block.  Generated by repro.sim.native; every stage
 * shape is a constant, so the arguments carry only the demand matrix,
 * the plan's tables, the frontier scratch and the per-cycle results. */
typedef {ctype} wire_t;
#define WIRE_MIN {ctype[:-2].upper()}_MIN

/* A frontier row (one wire, {_LANES} lanes) is NV vectors of the widest
 * width the target computes on natively: wider generic vectors are
 * lowered through memory. */
#if defined(__AVX512BW__)
#define VBYTES 64
#elif defined(__AVX2__)
#define VBYTES 32
#else
#define VBYTES 16
#endif
#define NV ({_LANES} * (int)sizeof(wire_t) / VBYTES)
typedef wire_t vec_t __attribute__((vector_size(VBYTES), aligned(sizeof(wire_t))));

void repro_counts_spec(
    const wire_t *restrict dests, int64_t batch,
    const wire_t *restrict links, const uint8_t *restrict falive,
    const int64_t *restrict input_perm, wire_t *restrict frontier,
    int64_t *restrict offered, int64_t *restrict delivered,
    int64_t *restrict blocked)
{{
    (void)links; (void)falive; (void)input_perm;
    const vec_t zero = {{0}};
    const vec_t idle = ~zero;
    vec_t off[NV], live[NV], blk[{nstages}][NV];
    for (int64_t c0 = 0; c0 < batch; c0 += {_LANES}) {{
        int64_t nb = batch - c0 < {_LANES} ? batch - c0 : {_LANES};
        vec_t *cur = (vec_t *)frontier;
        vec_t *nxt = cur + {tables.maxw} * NV;
        (void)nxt;
        for (int h = 0; h < NV; h++) live[h] = zero;
        for (int64_t t = 0; t < {n}; t += {tile}) {{
            for (int64_t l = 0; l < nb; l++) {{
                const wire_t *drow = dests + (c0 + l) * {n};
                for (int64_t s = t; s < t + {tile}; s++)
                    frontier[{row} * {_LANES} + l] = drow[s];
            }}
            for (int64_t l = nb; l < {_LANES}; l++)
                for (int64_t s = t; s < t + {tile}; s++)
                    frontier[{row} * {_LANES} + l] = -1;
            for (int64_t s = t; s < t + {tile}; s++)
                for (int h = 0; h < NV; h++) live[h] -= cur[{row} * NV + h] >= 0;
        }}
        for (int h = 0; h < NV; h++) off[h] = live[h];
{blocks}
        for (int64_t l = 0; l < nb; l++) {{
            offered[c0 + l] = ((const wire_t *)off)[l];
            delivered[c0 + l] = ((const wire_t *)live)[l];
            for (int i = 0; i < {nstages}; i++)
                blocked[(c0 + l) * {nstages} + i] = ((const wire_t *)blk[i])[l];
        }}
    }}
}}
"""


_ARGTYPES = [
    ctypes.c_void_p, ctypes.c_longlong,                      # dests, batch
    ctypes.c_void_p, ctypes.c_void_p,                        # links, falive
    ctypes.c_void_p, ctypes.c_void_p,                        # input_perm, frontier
    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,       # offered, delivered, blocked
]

_CTYPE = {np.dtype(np.int16).char: "int16_t",
          np.dtype(np.int32).char: "int32_t",
          np.dtype(np.int64).char: "int64_t"}


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-native"
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


#: Extra compiler flags, best first; degrading flag by flag lets any
#: working toolchain produce a kernel.  No ``-fopenmp``: kernels are serial.
_FLAG_LADDER = (("-march=native",), ())

#: Optimization level of every build.  ``-O3`` builds the lane kernel
#: about 1.5x slower and runs it no faster.
_OPT_LEVEL = "-O2"

_isa_fingerprints: dict = {}


def _isa_fingerprint(compiler: str) -> str:
    """A hash of the macros ``compiler -march=native`` predefines here.

    They name the target ISA extensions, so two hosts sharing a cache
    directory (an AVX-512 one and an AVX2 one) never load each other's
    ``-march=native`` kernels.  Computed once per process and compiler.
    """
    fingerprint = _isa_fingerprints.get(compiler)
    if fingerprint is None:
        proc = subprocess.run(
            [compiler, "-march=native", "-dM", "-E", "-"],
            input="", capture_output=True, text=True,
        )
        fingerprint = hashlib.sha256(
            f"{proc.returncode}\n{proc.stdout}".encode()
        ).hexdigest()[:16]
        _isa_fingerprints[compiler] = fingerprint
    return fingerprint


def _build_shared_object(source: str, stem: str) -> Path:
    """Compile ``source`` (or find it cached on disk); raises on failure.

    The cache is keyed by source, every compile command of the flag
    ladder (compiler path, optimization level, flags) and the host's ISA
    fingerprint, so forked sweep workers and later processes load the
    same build instead of recompiling, and a build made with other flags
    or for another ISA is never picked up.
    """
    compiler = _compiler()
    if compiler is None:
        raise ConfigurationError("no cc, gcc or clang on PATH")
    commands = [
        [compiler, _OPT_LEVEL, "-fPIC", "-shared", *extra] for extra in _FLAG_LADDER
    ]
    digest = hashlib.sha256(
        repr((commands, _isa_fingerprint(compiler), source)).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"{stem}_{digest}.so"
    if so_path.exists():
        return so_path
    cache.mkdir(parents=True, exist_ok=True)
    c_path = cache / f"{stem}_{digest}.c"
    c_path.write_text(source)
    tmp = cache / f".{so_path.name}.{os.getpid()}.tmp"
    errors = []
    for cmd in commands:
        proc = subprocess.run(
            [*cmd, str(c_path), "-o", str(tmp)], capture_output=True, text=True
        )
        if proc.returncode == 0:
            os.replace(tmp, so_path)
            return so_path
        errors.append(proc.stderr.strip())
    raise ConfigurationError(
        f"C kernel compilation failed with {compiler}: {errors[-1]!r}"
    )


_spec_fns: dict = {}


def _spec_kernel(tables, wire_dtype):
    """The plan-specialized compiled kernel entry point (ctypes function)."""
    source = _spec_source(tables, _CTYPE[np.dtype(wire_dtype).char])
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    fn = _spec_fns.get(digest)
    if fn is None:
        lib = ctypes.CDLL(str(_build_shared_object(source, "repro_spec")))
        fn = lib.repro_counts_spec
        fn.restype = None
        fn.argtypes = _ARGTYPES
        _spec_fns[digest] = fn
    return fn


# ----------------------------------------------------------------------
# Toolchain discovery
# ----------------------------------------------------------------------

#: Compiled and called once per process.  It uses the vector extension
#: the way the lane kernel does, so a compiler that builds plain C but not
#: the kernel reports ``native`` unavailable instead of failing a cell.
_C_PROBE = """#include <stdint.h>
typedef int16_t probe_t
    __attribute__((vector_size(32 * sizeof(int16_t)), aligned(sizeof(int16_t))));

long repro_probe(void)
{
    probe_t v = {0};
    v -= v >= 0;                        /* every lane 1 */
    probe_t m = (v >> 0) == (int16_t)1;
    v = (m & (v + 20)) | (~m & v);      /* every lane 21 */
    return (long)v[0] + (long)v[31];
}
"""

_cc_error: Optional[str] = None
_cc_probed = False


def _probe_cc() -> Optional[str]:
    """Compile-and-call the vector probe once; ``None`` = toolchain works."""
    global _cc_error, _cc_probed
    if not _cc_probed:
        _cc_probed = True
        try:
            lib = ctypes.CDLL(str(_build_shared_object(_C_PROBE, "repro_probe")))
            if int(lib.repro_probe()) != 42:
                raise ConfigurationError("probe kernel returned garbage")
            _cc_error = None
        except Exception as exc:  # noqa: BLE001 - any failure = no kernel
            _cc_error = str(exc)
    return _cc_error


def available_tiers() -> tuple[str, ...]:
    """``("cc",)`` when the C kernel can be built here, else ``()``."""
    return ("cc",) if _probe_cc() is None else ()


def default_tier() -> Optional[str]:
    """``"cc"`` when the C kernel can be built here, else ``None``."""
    return "cc" if _probe_cc() is None else None


def unavailable_reason() -> Optional[str]:
    """Why ``backend="native"`` cannot run here, or ``None`` if it can."""
    error = _probe_cc()
    if error is None:
        return None
    return f"the native backend needs a working C compiler: {error}"


# ----------------------------------------------------------------------
# Plan lowering
# ----------------------------------------------------------------------


class _PlanTables:
    """The flat-array view of one plan the kernel consumes.

    ``stages`` holds one tuple of compile-time constants per stage —
    ``(width, fan_in_bits, shift, radix - 1, capacity, bucket_wires,
    link_offset, falive_offset)``, offset ``-1`` = none — and the arrays
    are the runtime data: concatenated link tables, concatenated
    rank-space liveness masks of faulted stages, and the source ->
    entry-wire table (size 0 = identity).
    """

    __slots__ = ("stages", "links", "falive", "input_perm", "maxw")

    def __init__(self, stages, links, falive, input_perm, maxw):
        self.stages = stages
        self.links = links
        self.falive = falive
        self.input_perm = input_perm
        self.maxw = maxw


def _lower(plan) -> _PlanTables:
    """Pack a plan's tables into the kernel layout."""
    g = plan.graph
    nstages = g.num_stages
    wire = plan.wire_dtype
    stages = []
    link_parts, fal_parts = [], []
    link_off = fal_off = 0
    for i, stage in enumerate(g.stages):
        loff = foff = -1
        if i < nstages - 1:
            table = plan.fault_link_table(i, wire)
            if table is None:
                table = plan.perm_table(i, wire)
            if table is None:
                # Identity boundary: materialize it so the kernel's slot
                # store is unconditional (bucket-wire space == the next
                # column's wire space).
                table = np.arange(plan.stage_widths[i + 1], dtype=wire)
            loff = link_off
            link_parts.append(np.ascontiguousarray(table, dtype=wire))
            link_off += table.size
        fal = plan.fault_alive(i)
        if fal is not None:
            foff = fal_off
            fal_parts.append(np.ascontiguousarray(fal, dtype=np.uint8))
            fal_off += fal.size
        stages.append((
            int(plan.stage_widths[i]),
            int(np.log2(stage.fan_in)),
            int(stage.shift),
            int(stage.radix) - 1,
            int(stage.capacity),
            int(stage.bucket_wires),
            loff,
            foff,
        ))
    links = (
        np.concatenate(link_parts)
        if link_parts
        else np.zeros(1, dtype=wire)
    )
    falive = (
        np.concatenate(fal_parts)
        if fal_parts
        else np.zeros(1, dtype=np.uint8)
    )
    perm = plan.input_perm_table(np.int64)
    input_perm = (
        np.ascontiguousarray(perm, dtype=np.int64)
        if perm is not None
        else np.zeros(0, dtype=np.int64)
    )
    return _PlanTables(
        stages=tuple(stages),
        links=links,
        falive=falive,
        input_perm=input_perm,
        maxw=int(max(plan.stage_widths)),
    )


class NativeKernel:
    """One plan's fused counts kernel."""

    __slots__ = ("tables", "wire", "_fn")

    def __init__(self, plan):
        self.tables = _lower(plan)
        self.wire = plan.wire_dtype
        self._fn = _spec_kernel(self.tables, self.wire)

    def counts(self, dests: np.ndarray, ws) -> BatchAcceptanceCounts:
        """Route a validated ``(batch, n)`` demand matrix; counts only.

        ``dests`` must already be bounds-checked (the routers validate);
        the kernel reads it in the plan's wire dtype, so it is cast here,
        a no-op for a contiguous matrix generated in that dtype.  The input
        permutation is applied inside the kernel, so callers pass the raw
        matrix.  The two frontier halves (``maxw`` rows of ``_LANES`` wires
        each) come from ``ws``; only the O(batch) result arrays are
        allocated per call.
        """
        t = self.tables
        dests = np.ascontiguousarray(dests, dtype=self.wire)
        batch = dests.shape[0]
        frontier = ws.array("native_frontier", 2 * t.maxw * _LANES, self.wire)
        offered = np.empty(batch, dtype=np.int64)
        delivered = np.empty(batch, dtype=np.int64)
        blocked = np.empty((batch, len(t.stages)), dtype=np.int64)
        self._fn(
            dests.ctypes.data, batch,
            t.links.ctypes.data, t.falive.ctypes.data,
            t.input_perm.ctypes.data, frontier.ctypes.data,
            offered.ctypes.data, delivered.ctypes.data,
            blocked.ctypes.data,
        )
        per_stage = blocked.sum(axis=0)
        blocked_by_stage = {
            i + 1: int(v) for i, v in enumerate(per_stage.tolist()) if v
        }
        return BatchAcceptanceCounts(
            offered_per_cycle=offered,
            delivered_per_cycle=delivered,
            blocked_by_stage=blocked_by_stage,
        )


def kernel_for(plan) -> NativeKernel:
    """The plan's native kernel, lowered once and cached.

    The kernel rides the plan's lazily-built table dict, so it shares the
    plan's LRU lifetime: a warm plan-cache hit also hits the lowered
    kernel (warm == cold bit-identity holds trivially), and forked
    workers inherit it.  Concurrent first builds are a benign idempotent
    race, exactly like the plan's other lazy tables.
    """
    key = ("native_kernel",)
    kernel = plan._tables.get(key)
    if kernel is None:
        kernel = NativeKernel(plan)
        plan._tables[key] = kernel
    return kernel


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------


class NativeStageRouter(CompiledStageRouter):
    """:class:`CompiledStageRouter` with the counts hot path in native code.

    Only the label-priority counts-only kernel — the Monte-Carlo hot
    path — is lowered; everything else (per-message outcomes, random
    priority's sort-based resolution, buffered stepping, fault
    hot-swapping) is inherited unchanged, so the native backend has the
    full capability surface of ``batched`` with identical semantics.

    Construction raises :class:`ConfigurationError` when no working C
    compiler is present (the message says why); keyword options are
    those of :class:`CompiledStageRouter`.
    """

    #: The execution tier, recorded by provenance tooling: the
    #: plan-specialized C kernel is the only one.
    tier = "cc"

    def __init__(self, graph, **options):
        reason = unavailable_reason()
        if reason is not None:
            raise ConfigurationError(reason)
        super().__init__(graph, **options)

    @property
    def demand_dtype(self) -> np.dtype:
        """The dtype :meth:`route_batch_counts` reads demands in.

        Under label priority that is the plan's wire dtype (int16 up to
        N = 4096), so a traffic model can generate the chunk in it and no
        int64 matrix is ever built; random priority takes ``int64``.
        """
        if self.priority != "label":
            return np.dtype(np.int64)
        return self._plan.wire_dtype

    def route_batch_counts(
        self, dests: np.ndarray, rng=None, *, workspace=None
    ) -> BatchAcceptanceCounts:
        if self.priority != "label":
            # Random priority is resolved by sort: the inherited engine
            # is the one implementation of it.
            return super().route_batch_counts(dests, rng, workspace=workspace)
        g = self.graph
        # Bounds are checked in the dtype given, before the kernel's cast
        # to the wire dtype, so a too-wide label raises instead of wrapping.
        dests = _check_demand_shape(dests, g.n_inputs)
        _check_destination_bounds(dests.reshape(-1), g.n_outputs)
        ws = workspace if workspace is not None else self._plan.workspace()
        return kernel_for(self._plan).counts(dests, ws)

    def __repr__(self) -> str:
        faulted = f", faults={len(self.faults)}" if self.faults else ""
        return (
            f"NativeStageRouter({self.graph.label}, "
            f"priority={self.priority!r}{faulted})"
        )
