"""Native kernel backend: each :class:`~repro.sim.plan.StagePlan` lowered to
one plan-specialized C kernel.

The batched NumPy kernels stream ~10 chunk-sized array passes per stage;
at Monte-Carlo scale that is memory traffic, not arithmetic.  The native
kernel fuses dense rank + acceptance + fault refinement + link
permutation into **one pass over the frontier per stage**, keeps each
cycle's frontier L1/L2-resident, and walks the batch axis one cycle at a
time.  It is C source *specialized to the plan's stage shapes*
(constants baked in, stages unrolled, branchless per-wire path),
compiled at first use with the host toolchain (``cc``/``gcc``/``clang``),
cached on disk by generated-source hash, and called through
:mod:`ctypes` (the GIL is released for the duration of the call).

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

Importing this module never hard-fails.  Without a working C compiler
the backend registry reports ``native`` unavailable (``backend="auto"``
then resolves to ``batched``, with identical counts) and constructing a
:class:`NativeStageRouter` raises :class:`ConfigurationError`.

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
# Every per-stage scalar (width, fan-in, digit shift, radix mask,
# capacity, table offsets) is a compile-time constant, the stage loop is
# fully unrolled into one block per stage, and each block picks the
# cheapest rank engine its shape allows.  Only the table *data* stays
# runtime — two plans with the same stage shapes share one shared object
# (the cache key is the generated source), while their link tables and
# fault masks ride in as pointers.
#
# Why specialize?  The hot path is ~10 instructions per wire; a generic
# loop spends a comparable budget re-loading stage metadata, testing
# loop-invariant flags, and doing variable shifts/multiplies.  Baked
# constants let the compiler unroll the fan-in loop, strength-reduce the
# bucket math, and drop every dead feature test.
#
# The loop body is branchless in the per-wire path: on a loaded network a
# quarter of the requests lose their bucket, so data-dependent branches
# mispredict constantly.  Losers (and dead wires) are steered to a trash
# slot with mask arithmetic -- ``-ok`` is 0 or all-ones -- spelled as
# AND/ADD rather than ternaries (gcc lowers the equivalent ternaries back
# into branches).  In-bucket occupancy uses, per stage shape:
#
# * a claim *bitmask* when ``capacity == 1`` (one bit per bucket),
# * packed 8-bit lanes of one register when ``radix <= 8`` (the scalar
#   twin of the NumPy engines' packed-lane rank),
# * an indexed counter array otherwise.
#
# Exit columns that are pure delivery (fan-in 1, radix 1, no faults)
# collapse to a vectorizable liveness popcount.


def _spec_stage_block(i, stage, nstages, widths, trash, ctype) -> str:
    """One fully-unrolled stage of the specialized kernel."""
    width, fib, shift, rmask, cap, bw, loff, foff = stage
    fan_in = 1 << fib
    nswitch = width >> fib
    last = i == nstages - 1
    faulted = foff >= 0
    if last and fan_in == 1 and rmask == 0 and not faulted:
        return f"""
        /* stage {i}: pure exit column -- every live wire delivers */
        for (int64_t s = 0; s < {width}; s++) deliv += (cur[s] >= 0);
        blocked[c * {nstages} + {i}] = 0;"""
    if cap == 1 and rmask <= 63:
        counter_init = "uint64_t taken = 0;"
        rank_ok = (
            "int64_t ok = live & (int64_t)(~(taken >> digit) & 1u);\n"
            "                    taken |= (uint64_t)live << digit;\n"
            "                    int64_t y = swbase + digit;"
        )
    elif rmask <= 7 and fan_in <= 127:
        counter_init = "uint64_t pack = 0;"
        rank_ok = (
            "int64_t lane = digit << 3;\n"
            "                    int64_t r = (int64_t)((pack >> lane) & 0xff);\n"
            "                    pack += ((uint64_t)live << lane);\n"
            f"                    int64_t ok = live & (int64_t)(r < {cap});\n"
            f"                    int64_t y = swbase + digit * {cap} + (r & -ok);"
        )
    else:
        counter_init = f"for (int64_t r0 = 0; r0 <= {rmask}; r0++) cnt[r0] = 0;"
        rank_ok = (
            "int64_t r = (int64_t)cnt[digit];\n"
            "                    cnt[digit] = (int32_t)(r + live);\n"
            f"                    int64_t ok = live & (int64_t)(r < {cap});\n"
            f"                    int64_t y = swbase + digit * {cap} + (r & -ok);"
        )
    if faulted:
        fault = (
            "ok &= (int64_t)fal[y];\n"
            "                    int64_t msk = -ok;"
        )
    else:
        fault = "int64_t msk = -ok;"
    if last:
        consume = "deliv += ok;"
    else:
        consume = (
            "int64_t nw_ = (int64_t)ltab[y];\n"
            f"                    nxt[{trash} + ((nw_ - {trash}) & msk)] = d;"
        )
    decls = []
    if not last:
        decls.append(
            f"memset(nxt, 0xff, {widths[i + 1]} * sizeof({ctype}));"
        )
        decls.append(f"const {ctype} *ltab = links + {loff};")
    if faulted:
        decls.append(f"const uint8_t *fal = falive + {foff};")
    decl_text = "\n            ".join(decls)
    swap = "" if last else f"{ctype} *tmp_ = cur; cur = nxt; nxt = tmp_;"
    return f"""
        /* stage {i}: {nswitch} x {fan_in}-wide switches, radix {rmask + 1}, capacity {cap} */
        {{
            {decl_text}
            int64_t blocked_here = 0;
            for (int64_t sw = 0; sw < {nswitch}; sw++) {{
                {counter_init}
                const {ctype} *in = cur + (sw << {fib});
                int64_t swbase = sw * {bw};
                for (int k = 0; k < {fan_in}; k++) {{
                    {ctype} d = in[k];
                    int64_t live = (d >= 0);
                    int64_t digit = ((int64_t)d >> {shift}) & {rmask};
                    {rank_ok}
                    {fault}
                    blocked_here += live ^ ok;
                    {consume}
                }}
            }}
            blocked[c * {nstages} + {i}] = blocked_here;
            {swap}
        }}"""


def _stage_uses_cnt(stage) -> bool:
    _width, fib, _shift, rmask, cap = stage[:5]
    fan_in = 1 << fib
    return not (cap == 1 and rmask <= 63) and not (rmask <= 7 and fan_in <= 127)


def _spec_source(tables, ctype) -> str:
    """The specialized C source for one plan shape x wire dtype."""
    stages = tables.stages
    nstages = len(stages)
    widths = [stage[0] for stage in stages]
    stride = tables.maxw + 1
    trash = tables.maxw
    uses_cnt = any(_stage_uses_cnt(stage) for stage in stages)
    blocks = "\n".join(
        _spec_stage_block(i, stage, nstages, widths, trash, ctype)
        for i, stage in enumerate(stages)
    )
    if tables.input_perm.size:
        fill = f"""memset(cur, 0xff, {widths[0]} * sizeof({ctype}));
        int64_t off = 0;
        for (int64_t s = 0; s < n; s++) {{
            int64_t d = drow[s];
            int64_t idx = d >= 0 ? input_perm[s] : {trash};
            cur[idx] = ({ctype})d;
            off += d >= 0;
        }}"""
    else:
        fill = f"""memset(cur, 0xff, {widths[0]} * sizeof({ctype}));
        int64_t off = 0;
        for (int64_t s = 0; s < n; s++) {{
            int64_t d = drow[s];
            cur[s] = ({ctype})d;
            off += d >= 0;
        }}"""
    cnt_decl = (
        f"int32_t *cnt = counts + c * {tables.radix_max};"
        if uses_cnt
        else "(void)counts;"
    )
    return f"""#include <stdint.h>
#include <string.h>

/* Plan-specialized counts kernel: {nstages} stages, wire type {ctype}.
 * Generated by repro.sim.native; every stage shape is a constant, so the
 * arguments carry only the demand matrix, the plan's tables and scratch. */
void repro_counts_spec(
    const int64_t *restrict dests, int64_t batch, int64_t n,
    const {ctype} *restrict links, const uint8_t *restrict falive,
    const int64_t *restrict input_perm,
    {ctype} *restrict frontier, int32_t *restrict counts,
    int64_t *restrict offered, int64_t *restrict delivered,
    int64_t *restrict blocked)
{{
    (void)input_perm; (void)links; (void)falive;
    for (int64_t c = 0; c < batch; c++) {{
        {ctype} *cur = frontier + c * 2 * {stride};
        {ctype} *nxt = cur + {stride};
        (void)nxt;
        {cnt_decl}
        const int64_t *drow = dests + c * n;
        {fill}
        offered[c] = off;
        int64_t deliv = 0;
{blocks}
        delivered[c] = deliv;
    }}
}}
"""


_ARGTYPES = [
    ctypes.c_void_p, ctypes.c_longlong, ctypes.c_longlong,   # dests, batch, n
    ctypes.c_void_p, ctypes.c_void_p,                        # links, falive
    ctypes.c_void_p,                                         # input_perm
    ctypes.c_void_p, ctypes.c_void_p,                        # frontier, counts
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


def _build_shared_object(source: str, stem: str) -> Path:
    """Compile ``source`` (or find it cached on disk); raises on failure.

    The cache is keyed by source and flag ladder, so forked sweep workers
    and later processes load the same build instead of recompiling, and a
    build made with other flags is never picked up.
    """
    compiler = _compiler()
    if compiler is None:
        raise ConfigurationError("no cc, gcc or clang on PATH")
    digest = hashlib.sha256(
        (repr(_FLAG_LADDER) + source).encode()
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
    for extra in _FLAG_LADDER:
        cmd = [compiler, "-O3", "-fPIC", "-shared", *extra,
               str(c_path), "-o", str(tmp)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
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

_C_PROBE = "long repro_probe(void) { return 42; }\n"

_cc_error: Optional[str] = None
_cc_probed = False


def _probe_cc() -> Optional[str]:
    """Compile-and-call a trivial kernel once; ``None`` = toolchain works."""
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

    __slots__ = ("stages", "links", "falive", "input_perm", "maxw", "radix_max")

    def __init__(self, stages, links, falive, input_perm, maxw, radix_max):
        self.stages = stages
        self.links = links
        self.falive = falive
        self.input_perm = input_perm
        self.maxw = maxw
        self.radix_max = radix_max


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
                # Identity boundary: materialize it so the kernel's link
                # gather is unconditional (bucket-wire space == the next
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
        radix_max=int(max(stage.radix for stage in g.stages)),
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

        ``dests`` must be contiguous ``int64`` (the routers validate).
        The input permutation is applied inside the kernel, so callers
        pass the raw matrix.  Frontier and counter scratch comes from
        ``ws``; only the O(batch) result arrays are allocated per call.
        """
        t = self.tables
        batch, n = dests.shape
        # One extra slot per frontier half: index ``maxw`` is the trash
        # slot the branchless kernel parks losers on.
        frontier = ws.array("native_frontier", batch * 2 * (t.maxw + 1), self.wire)
        cnt = ws.array("native_counts", batch * t.radix_max, np.int32)
        offered = np.empty(batch, dtype=np.int64)
        delivered = np.empty(batch, dtype=np.int64)
        blocked = np.empty((batch, len(t.stages)), dtype=np.int64)
        self._fn(
            dests.ctypes.data, batch, n,
            t.links.ctypes.data, t.falive.ctypes.data,
            t.input_perm.ctypes.data,
            frontier.ctypes.data, cnt.ctypes.data,
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

    def route_batch_counts(
        self, dests: np.ndarray, rng=None, *, workspace=None
    ) -> BatchAcceptanceCounts:
        if self.priority != "label":
            # Random priority is resolved by sort: the inherited engine
            # is the one implementation of it.
            return super().route_batch_counts(dests, rng, workspace=workspace)
        g = self.graph
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
