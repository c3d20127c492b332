"""Native kernel backend: each :class:`~repro.sim.plan.StagePlan` lowered to
C — label-priority counts on a lane kernel that routes a block of cycles
per SIMD vector, random-priority counts and buffered stepping on a source
of contended kernels.  Both take every stage shape as data, so no source
is generated per plan.

The batched NumPy kernels stream ~10 chunk-sized array passes per stage;
at Monte-Carlo scale that is memory traffic, not arithmetic.  The native
kernel routes ``_LANES`` cycles at once, one cycle per SIMD lane: the
frontier is wire-major (``frontier[wire][lane]``), so every switch
operation is one vector operation over the whole block, and one pass per
stage resolves contention, acceptance, fault refinement and the link
permutation.  It is one fixed C source per wire dtype (``_LANE_SOURCE``),
written with the GCC/Clang ``vector_size`` extension, compiled at first
use with the host toolchain (``cc``/``gcc``/``clang``), cached on disk by
source, compile command and host ISA, and called through :mod:`ctypes`
(the GIL is released for the duration of the call).

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
once per plan into flat arrays (:class:`_PlanTables`) and cached on the
plan itself, so the warm path allocates nothing chunk-sized and forked
sweep workers inherit both the lowered tables and the loaded libraries.

The contended disciplines draw tie-breaks cycle after cycle, so they do
not fit SIMD lanes: their kernels (``_CONTENDED_SOURCE``) are scalar C
(:func:`contended_for`), built once per host through the same cache, and
draw each tie permutation in place on the caller's own NumPy generator.
Random-priority counts go through :meth:`NativeKernel.counts`; a buffered
cycle is the core that :meth:`~repro.sim.batched.CompiledStageRouter.step`
hands it to.

The toolchain probe's source (``_C_PROBE``) also carries the PCG64
traffic draws of :mod:`repro.workloads.models`, handed over by
:func:`draw_library`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
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
from repro.sim.plan import ChunkWorkspace
from repro.sim.stagegraph import BufferedCycleOutcome

__all__ = [
    "NativeStageRouter",
    "NativeKernel",
    "kernel_for",
    "available_tiers",
    "default_tier",
    "unavailable_reason",
]

# ----------------------------------------------------------------------
# Lane kernel (one source per wire dtype, runtime-compiled, ctypes-loaded)
# ----------------------------------------------------------------------
# One fixed C source routes every plan: each stage is a descriptor row of
# ``_L_FIELDS`` (the C names them ``S_*``), and the link tables and fault
# masks ride in as pointers, so a new stage shape is new data and never a
# new build.  The source is compiled once per host and wire dtype.
#
# Lanes.  A call routes its batch in blocks of ``_LANES`` cycles.  A
# frontier row holds one wire's destination in every cycle of the block
# (``-1`` = idle).  The kernel computes on ``vec_t``, the widest vector the
# target handles natively (a row is ``NV`` of them; GCC lowers wider
# generic vectors through memory), and resolves each stage once per
# ``vec_t`` of the row.
#
# Entry.  The demand rows reach the lanes by block transpose, with ``LV``
# the lanes of one vector: ``LV`` consecutive labels of each of ``LV``
# cycles load as ``LV`` vectors, and ``log2(LV)`` rounds of interleaving
# (the low halves of two vectors, and the high halves: ``SHUFFLE`` with
# two constant index lists) leave vector ``j`` holding label ``t + j`` of
# every cycle, stored whole to frontier row ``input_perm[t + j]``.  A load
# past the batch, or past a row shorter than ``LV``, reads idle, so no
# lane ever reads stale scratch.
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
# Routines.  Only the register file is compile-time: ``STAGE(CAP, GROUP)``
# makes one routine per ``_ROUTINES`` pair, and each stage picks its own
# from a table by capacity and radix, with group = min(radix,
# _GROUP_SLOTS / capacity).  When capacity x group is below
# ``_GROUP_SLOTS`` the group is the whole radix, so the routine makes one
# pass on a constant digit mask; only a full register file loops over
# bucket groups under the stage's radix mask (a runtime mask on every
# routine made omega plans 1.2-1.6x slower on 16- and 32-byte vectors).
# The last stage and a faulted stage are runtime conditions (a NULL link
# table, a NULL fault mask), not variants.  No routine holds a capacity
# above ``_GROUP_SLOTS``; such plans route on NumPy (see
# :class:`NativeKernel`).
#
# Counts.  Per lane, a stage blocks the live rows it reads minus the live
# slots it writes; ``offered`` counts the live entry rows and
# ``delivered`` the live slots of the last column.  They stay in
# ``wire_t`` lanes: no count exceeds the widest column, which the plan's
# wire dtype already holds.  Each stage adds its lanes' blocked counts to
# its total; idle lanes add nothing.  An exit column that is pure delivery
# (fan-in 1, radix 1, no faults) delivers every live row and is skipped.

#: Cycles per kernel block, one per SIMD lane.  32 int16 lanes fill one
#: 512-bit vector (a row must fill at least one ``vec_t``), and the
#: preferred batch of a plan up to N = 4096 (32 or 64 cycles) is a whole
#: number of blocks.
_LANES = 32

#: Slot registers one bucket scan fills: ``_GROUP_SLOTS // capacity``
#: buckets share each pass over a switch's inputs.  Their select chains
#: are independent, so a wide switch is not bound by one chain's latency.
_GROUP_SLOTS = 8

#: The lane kernel's routines, ``(capacity, group)`` in table order: every
#: power-of-two register file of at most ``_GROUP_SLOTS`` slots.
_ROUTINES = tuple(
    (1 << c, 1 << g)
    for c in range(_GROUP_SLOTS.bit_length())
    for g in range(_GROUP_SLOTS.bit_length() - c)
)

#: A lane stage descriptor: fan-in bits, digit shift, radix - 1, capacity,
#: entering wires, and the offsets of its link table (``links``, in the
#: wire dtype; ``-1`` on the last stage) and rank-space fault mask
#: (``falive``; ``-1`` = no faults).  The contended kernels' descriptor
#: (``_S_FIELDS``) extends it.
_L_FIELDS = ("FIB", "SHIFT", "RMASK", "CAP", "WIDTH", "LINK", "ALIVE")

#: The two-vector shuffle with constant indices (``a``'s lanes, then
#: ``b``'s) that the lane kernel's entry transpose is made of.  GCC has had
#: ``__builtin_shuffle`` (indices as a mask vector of type ``T``) since 4.7,
#: ``__builtin_shufflevector`` only since 12; clang has only the latter.
#: ``_C_PROBE`` uses it too, so a compiler without it reports ``native``
#: unavailable instead of failing a cell.
_SHUFFLE_MACRO = """#if defined(__clang__)
#define SHUFFLE(T, a, b, ...) __builtin_shufflevector(a, b, __VA_ARGS__)
#else
#define SHUFFLE(T, a, b, ...) __builtin_shuffle(a, b, (T){__VA_ARGS__})
#endif
"""


def _interleave(lanes: int, high: bool) -> str:
    """Indices interleaving the low (or high) halves of two ``lanes``-lane
    vectors ``a`` and ``b``: ``a0, b0, a1, b1, ...``."""
    base = lanes // 2 if high else 0
    return ", ".join(f"{base + i}, {lanes + base + i}" for i in range(lanes // 2))


def _vector_macros(ctype) -> str:
    """``VBYTES``, ``LV``, ``LOG_LV`` and the interleave indices per target."""
    size = int(ctype[3:-2]) // 8
    branches = []
    for test, vbytes in (("#if defined(__AVX512BW__)", 64),
                         ("#elif defined(__AVX2__)", 32), ("#else", 16)):
        lanes = vbytes // size
        branches.append(
            f"{test}\n#define VBYTES {vbytes}\n#define LV {lanes}\n"
            f"#define LOG_LV {lanes.bit_length() - 1}\n"
            f"#define LO_HALVES {_interleave(lanes, False)}\n"
            f"#define HI_HALVES {_interleave(lanes, True)}"
        )
    return "\n".join(branches) + "\n#endif"


def _c_enum(names) -> str:
    """The C enumerators ``S_<name>`` of descriptor fields, in order."""
    return ", ".join(f"S_{name}" for name in names)


_LANE_SOURCE = r"""#include <stdint.h>
#include <string.h>

/* The lane kernel for %(ctype)s wires (see repro.sim.native): one source
 * for every plan, each stage a descriptor row. */
%(shuffle)stypedef %(ctype)s wire_t;
#define WIRE_MIN %(wire_min)s
%(macros)s
/* A frontier row (one wire, LANES lanes) is NV vectors of the widest width
 * the target computes on natively: wider generic vectors are lowered
 * through memory. */
typedef wire_t vec_t __attribute__((vector_size(VBYTES), aligned(sizeof(wire_t))));
enum { LANES = %(lanes)d, NV = LANES / LV, GROUP_SLOTS = %(slots)d, LOG_SLOTS = %(log_slots)d };
enum { %(fields)s, L_FIELDS };
#define UNROLL _Pragma("GCC unroll 8")

/* One round: the low and the high halves of a[i] and a[i + LV/2]
 * interleaved into b[2i] and b[2i + 1].  Each round rotates the bits of
 * (vector, lane) by one, so after log2(LV) rounds vector j holds lane j
 * of every vector. */
static inline __attribute__((always_inline)) void interleave(
    vec_t *restrict b, const vec_t *restrict a)
{
    for (int i = 0; i < LV / 2; i++) {
        b[2 * i] = SHUFFLE(vec_t, a[i], a[i + LV / 2], LO_HALVES);
        b[2 * i + 1] = SHUFFLE(vec_t, a[i], a[i + LV / 2], HI_HALVES);
    }
}

/* The entry: cycles c0 .. c0 + nb - 1 of the (batch, n) demand matrix into
 * the frontier's entry rows, through the input permutation (NULL = none),
 * and each lane's live labels into live. */
void repro_enter(const wire_t *restrict dests, int64_t n, int64_t c0, int64_t nb,
                 const int64_t *restrict perm, wire_t *restrict frontier,
                 wire_t *restrict live)
{
    const int64_t chunk = n < LV ? n : LV;
    const vec_t idle = ~(vec_t){0};
    vec_t *rows = (vec_t *)frontier, acc[NV], a[LV], b[LV];
    for (int h = 0; h < NV; h++)
        acc[h] = (vec_t){0};
    for (int64_t t = 0; t < n; t += LV) {
        for (int h = 0; h < NV; h++) {
            vec_t *v = a, *w = b, *swap;
            int64_t have = nb - h * LV, l = 0;
            for (; l < LV && l < have; l++) {
                const wire_t *src = dests + (c0 + h * LV + l) * n + t;
                if (chunk == LV) {
                    memcpy(&v[l], src, sizeof(vec_t));
                } else {
                    v[l] = idle;
                    memcpy(&v[l], src, chunk * sizeof(wire_t));
                }
            }
            for (; l < LV; l++)
                v[l] = idle;
            for (int r = 0; r < LOG_LV; r++) {
                interleave(w, v);
                swap = v;
                v = w;
                w = swap;
            }
            for (int j = 0; j < chunk; j++) {
                rows[(perm ? perm[t + j] : t + j) * NV + h] = v[j];
                acc[h] -= v[j] >= 0;
            }
        }
    }
    memcpy(live, acc, sizeof acc);
}

/* One input X into the register file: where its digit is bucket j + g, it
 * enters register g at rank 0 and pushes the others up one rank. */
#define PUSH(CAP, GROUP, X)                                                        \
    do {                                                                           \
        const vec_t x = (X), d = (x >> shift) & mask;                              \
        UNROLL for (int g = 0; g < GROUP; g++) {                                   \
            const vec_t m = d == (wire_t)(j + g);                                  \
            vec_t *r = reg + g * CAP;                                              \
            UNROLL for (int q = CAP - 1; q > 0; q--)                               \
                r[q] = (m & r[q - 1]) | (~m & r[q]);                               \
            r[0] = (m & x) | (~m & r[0]);                                          \
        }                                                                          \
    } while (0)

/* One stage over the block: every slot of every switch pulled through a
 * register file of CAP x GROUP vectors, counted, and stored to its
 * next-stage row through ltab (NULL on the last stage), idle where fal
 * marks it dead (NULL = no faults).  Slot y + q of a pass is bucket wire
 * y + q of the column.  A scan takes the switch's last input alone, then
 * the ones between it and the first in pairs (fan-ins are powers of two),
 * then the first: one input per loop step made 2x2 switches about 1.2x
 * slower. */
#define STAGE(CAP, GROUP)                                                          \
static void stage_##CAP##_##GROUP(const int64_t *s, const vec_t *cur, vec_t *nxt,   \
                                  const wire_t *ltab, const uint8_t *fal,          \
                                  vec_t *live, vec_t *blk)                         \
{                                                                                  \
    const int64_t top = CAP * GROUP < GROUP_SLOTS ? GROUP - 1 : s[S_RMASK];        \
    const int64_t fan_in = (int64_t)1 << s[S_FIB], switches = s[S_WIDTH] >> s[S_FIB]; \
    const int64_t shift = s[S_SHIFT];                                              \
    const wire_t mask = (wire_t)(WIRE_MIN | top);                                  \
    for (int h = 0; h < NV; h++) {                                                 \
        const vec_t *in = cur + h;                                                 \
        vec_t out = {0};                                                           \
        int64_t y = 0;                                                             \
        for (int64_t sw = 0; sw < switches; sw++, in += fan_in * NV) {             \
            for (int64_t j = 0; j <= top; j += GROUP, y += CAP * GROUP) {          \
                vec_t reg[CAP * GROUP];                                            \
                {   /* into idle registers: rank 0 where it matches */             \
                    const vec_t x = in[(fan_in - 1) * NV], d = (x >> shift) & mask; \
                    UNROLL for (int q = 0; q < CAP * GROUP; q++)                   \
                        reg[q] = ~(vec_t){0};                                      \
                    UNROLL for (int g = 0; g < GROUP; g++)                         \
                        reg[g * CAP] = x | ~(vec_t)(d == (wire_t)(j + g));         \
                }                                                                  \
                for (int64_t k = fan_in - 2; k > 0; k -= 2) {                      \
                    PUSH(CAP, GROUP, in[k * NV]);                                  \
                    PUSH(CAP, GROUP, in[(k - 1) * NV]);                            \
                }                                                                  \
                if (fan_in > 1)                                                    \
                    PUSH(CAP, GROUP, in[0]);                                       \
                UNROLL for (int q = 0; q < CAP * GROUP; q++) {                     \
                    vec_t slot = reg[q];                                           \
                    if (fal)                                                       \
                        slot |= (wire_t)(fal[y + q] - 1);                          \
                    out -= slot >= 0;                                              \
                    if (ltab)                                                      \
                        nxt[ltab[y + q] * NV + h] = slot;                          \
                }                                                                  \
            }                                                                      \
        }                                                                          \
        blk[h] = live[h] - out;                                                    \
        live[h] = out;                                                             \
    }                                                                              \
}

typedef void stage_t(const int64_t *, const vec_t *, vec_t *, const wire_t *,
                     const uint8_t *, vec_t *, vec_t *);
%(stages)s
/* routine[log2 capacity][log2 group] */
static stage_t *const routine[LOG_SLOTS + 1][LOG_SLOTS + 1] = {
    %(table)s
};

/* Label-priority counts of `batch` cycles of the (batch, n) demand matrix
 * over the plan's nstages descriptor rows; frontier holds two columns of
 * maxw rows. */
void repro_lane_counts(
    const wire_t *restrict dests, int64_t n, int64_t batch,
    const int64_t *restrict stages, int64_t nstages, int64_t maxw,
    const wire_t *restrict links, const uint8_t *restrict falive,
    const int64_t *restrict input_perm, wire_t *restrict frontier,
    int64_t *restrict offered, int64_t *restrict delivered,
    int64_t *restrict blocked)
{
    vec_t off[NV], live[NV], blk[NV];
    for (int64_t i = 0; i < nstages; i++)
        blocked[i] = 0;
    for (int64_t c0 = 0; c0 < batch; c0 += LANES) {
        const int64_t nb = batch - c0 < LANES ? batch - c0 : LANES;
        vec_t *cur = (vec_t *)frontier, *nxt = cur + maxw * NV, *swap;
        repro_enter(dests, n, c0, nb, input_perm, frontier, (wire_t *)live);
        memcpy(off, live, sizeof off);
        for (int64_t i = 0; i < nstages; i++) {
            const int64_t *s = stages + i * L_FIELDS;
            const int last = i == nstages - 1;
            if (last && s[S_FIB] == 0 && s[S_RMASK] == 0 && s[S_ALIVE] < 0)
                continue;   /* a pure exit column: every live row delivers */
            const int cb = __builtin_ctzll((unsigned long long)s[S_CAP]);
            const int rb = __builtin_popcountll((unsigned long long)s[S_RMASK]);
            routine[cb][rb < LOG_SLOTS - cb ? rb : LOG_SLOTS - cb](
                s, cur, nxt, last ? 0 : links + s[S_LINK],
                s[S_ALIVE] < 0 ? 0 : falive + s[S_ALIVE], live, blk);
            swap = cur;
            cur = nxt;
            nxt = swap;
            /* Idle lanes block nothing, so every lane adds to the total. */
            for (int l = 0; l < LANES; l++)
                blocked[i] += ((const wire_t *)blk)[l];
        }
        for (int64_t l = 0; l < nb; l++) {
            offered[c0 + l] = ((const wire_t *)off)[l];
            delivered[c0 + l] = ((const wire_t *)live)[l];
        }
    }
}
"""


def _lane_source(ctype) -> str:
    """The lane kernel's C source for one wire type (``"int16_t"``, ...)."""
    return _LANE_SOURCE % {
        "ctype": ctype,
        "wire_min": ctype[:-2].upper() + "_MIN",
        "shuffle": _SHUFFLE_MACRO,
        "macros": _vector_macros(ctype),
        "lanes": _LANES,
        "slots": _GROUP_SLOTS,
        "log_slots": _GROUP_SLOTS.bit_length() - 1,
        "fields": _c_enum(_L_FIELDS),
        "stages": "".join(f"STAGE({c}, {g})\n" for c, g in _ROUTINES),
        "table": ", ".join(
            f"[{c.bit_length() - 1}][{g.bit_length() - 1}] = stage_{c}_{g}"
            for c, g in _ROUTINES
        ),
    }


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
#: about 1.5x slower and runs it no faster; ``-O1`` builds it in about
#: 0.6x the time but runs it 1.1-1.3x slower (docs/PERFORMANCE.md,
#: "Cold start").
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
    # Every build (thread or process) compiles its own copy of the source
    # into its own object and publishes both by atomic rename, so a
    # concurrent first build never reads a half-written source or loads a
    # half-written object.
    fd, tmp_c = tempfile.mkstemp(prefix=f".{stem}_{digest}.", suffix=".c", dir=cache)
    with os.fdopen(fd, "w") as fh:
        fh.write(source)
    tmp_so = tmp_c[: -len(".c")] + ".so"
    errors = []
    try:
        for cmd in commands:
            proc = subprocess.run(
                [*cmd, tmp_c, "-o", tmp_so], capture_output=True, text=True
            )
            if proc.returncode == 0:
                os.replace(tmp_so, so_path)
                os.replace(tmp_c, so_path.with_suffix(".c"))
                return so_path
            errors.append(proc.stderr.strip())
    finally:
        for leftover in (tmp_c, tmp_so):
            if os.path.exists(leftover):
                os.unlink(leftover)
    raise ConfigurationError(
        f"C kernel compilation failed with {compiler}: {errors[-1]!r}"
    )


_lane_libs: dict = {}


def _lane_library(wire) -> ctypes.CDLL:
    """The lane kernel's library for wire dtype ``wire``, built at first use.

    It exports ``repro_lane_counts`` and, for tests, its entry
    ``repro_enter``.
    """
    char = np.dtype(wire).char
    lib = _lane_libs.get(char)
    if lib is None:
        ctype = _CTYPE[char]
        path = _build_shared_object(_lane_source(ctype), f"repro_lanes{ctype[3:-2]}")
        lib = ctypes.CDLL(str(path))
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        lib.repro_lane_counts.restype = None
        lib.repro_lane_counts.argtypes = [
            ptr, i64, i64,               # dests, n, batch
            ptr, i64, i64,               # stages, nstages, maxw
            ptr, ptr, ptr,               # links, falive, input_perm
            ptr, ptr, ptr, ptr,          # frontier, offered, delivered, blocked
        ]
        _lane_libs[char] = lib
    return lib


# ----------------------------------------------------------------------
# Contended kernels (plan-independent, built once per host)
# ----------------------------------------------------------------------
# Random priority and buffered stepping draw their tie-breaks from the
# caller's NumPy generator, one cycle after another, so they are scalar C
# beside the lane kernel and take every stage shape as data: one source,
# one build per host.  Draws run in place on the generator's own
# ``bitgen_t`` (NumPy's C interface, read from
# ``bit_generator.capsule``): ``Generator.permutation(n)`` is ``arange``
# shuffled by a Fisher-Yates loop over ``random_interval`` draws, and
# the kernel repeats that loop call for call, so every bit generator and
# any pending 32-bit half stay in step with NumPy.
#
# A stage descriptor is one int64 row, fields in ``_S_FIELDS`` order (the
# C names them ``S_*``): the lane kernel's ``_L_FIELDS``, then three more.
# Offset fields index the concatenated ``tables`` (int64) and ``masks``
# (uint8) arrays, ``-1`` = none (identity link, no faults).  Counts use
# the rank-space fault view (``ALIVE``, and ``LINK`` pre-composed with the
# live remap); the FIFO step grants physical slots (``DEAD``, plain
# ``PLINK``).  ``QOFF`` is the stage's first queue in the flat
# :class:`~repro.sim.plan.BufferedState` arrays.

_S_FIELDS = _L_FIELDS + ("PLINK", "DEAD", "QOFF")

_CONTENDED_SOURCE = """#include <stdint.h>
#include <string.h>

/* NumPy's bitgen_t (numpy/random/bitgen.h). */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

enum { %(enum)s, S_FIELDS };

/* NumPy's random_interval: a draw in [0, max] by masked rejection. */
static uint64_t interval(bitgen_t *g, uint64_t max)
{
    uint64_t mask = max, value;
    if (max == 0)
        return 0;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffULL) {
        while ((value = (g->next_uint32(g->state) & mask)) > max) {
        }
    } else {
        while ((value = (g->next_uint64(g->state) & mask)) > max) {
        }
    }
    return value;
}

/* Generator.permutation(n): arange(n) under NumPy's Fisher-Yates shuffle. */
static void permutation(bitgen_t *g, int64_t *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = i;
    for (int64_t i = n - 1; i > 0; i--) {
        int64_t j = (int64_t)interval(g, (uint64_t)i);
        int64_t swap = out[i];
        out[i] = out[j];
        out[j] = swap;
    }
}

/* Row c of a demand matrix of `size`-byte labels, in first-column wire order. */
static void load_row(const void *dests, int64_t size, int64_t c, int64_t n,
                     const int64_t *src_of_wire, int64_t *row)
{
    if (size == 2) {
        const int16_t *d = (const int16_t *)dests + c * n;
        for (int64_t w = 0; w < n; w++) row[w] = d[src_of_wire[w]];
    } else if (size == 4) {
        const int32_t *d = (const int32_t *)dests + c * n;
        for (int64_t w = 0; w < n; w++) row[w] = d[src_of_wire[w]];
    } else {
        const int64_t *d = (const int64_t *)dests + c * n;
        for (int64_t w = 0; w < n; w++) row[w] = d[src_of_wire[w]];
    }
}

/* Random-priority counts of `batch` cycles.  Survivors stay in (cycle,
 * first-column wire) order.  Per stage each draws a tie value: one
 * permutation over all of the batch's survivors from gens[0] (ngens == 1),
 * or one per cycle with survivors from gens[cycle].  Each (switch, bucket)
 * group grants its `capacity` lowest tie values the bucket's wires in tie
 * order; a dead wire (ALIVE) blocks its winner after ranking. */
void repro_random_counts(
    const void *dests, int64_t size, int64_t batch, int64_t n,
    const int64_t *stages, int64_t nstages,
    const int64_t *tables, const uint8_t *masks, const int64_t *src_of_wire,
    bitgen_t *const *gens, int64_t ngens, int64_t *work,
    int32_t *count, int64_t groups,
    int64_t *offered, int64_t *delivered, int64_t *blocked)
{
    int64_t total = batch * n;
    int64_t *dest = work, *wire = dest + total, *cyc = wire + total;
    int64_t *tie = cyc + total, *order = tie + total, *next = order + total;
    int64_t *start = next + total;
    int64_t k = 0;
    for (int64_t c = 0; c < batch; c++) {
        load_row(dests, size, c, n, src_of_wire, next);
        offered[c] = 0;
        delivered[c] = 0;
        for (int64_t w = 0; w < n; w++) {
            if (next[w] == -1)
                continue;
            dest[k] = next[w];
            wire[k] = w;
            cyc[k] = c;
            k++;
            offered[c]++;
        }
    }
    memset(count, 0, sizeof(int32_t) * groups);
    for (int64_t i = 0; i < nstages; i++)
        blocked[i] = 0;
    for (int64_t i = 0; i < nstages && k > 0; i++) {
        const int64_t *s = stages + i * S_FIELDS;
        int64_t fib = s[S_FIB], shift = s[S_SHIFT], rmask = s[S_RMASK], cap = s[S_CAP];
        const int64_t *link = s[S_LINK] >= 0 ? tables + s[S_LINK] : 0;
        const uint8_t *alive = s[S_ALIVE] >= 0 ? masks + s[S_ALIVE] : 0;
        int last = i == nstages - 1;
        if (ngens == 1) {
            /* Deal the batch-wide permutation into the cycles' segments,
             * each in ascending tie order. */
            permutation(gens[0], tie, k);
            for (int64_t j = 0; j < k; j++) {
                next[tie[j]] = j;
                if (j == 0 || cyc[j] != cyc[j - 1])
                    start[cyc[j]] = j;
            }
            for (int64_t t = 0; t < k; t++)
                order[start[cyc[next[t]]]++] = next[t];
        }
        for (int64_t a = 0, b; a < k; a = b) {
            for (b = a + 1; b < k && cyc[b] == cyc[a]; b++) {
            }
            if (ngens != 1) {
                permutation(gens[cyc[a]], tie + a, b - a);
                for (int64_t j = a; j < b; j++)
                    order[a + tie[j]] = j;
            }
            /* Rank each group in tie order; tie[j] keeps j's group. */
            for (int64_t t = a; t < b; t++) {
                int64_t j = order[t];
                int64_t key = (wire[j] >> fib) * (rmask + 1) + ((dest[j] >> shift) & rmask);
                int64_t r = count[key]++;
                tie[j] = key;
                next[j] = -1;
                if (r < cap) {
                    int64_t y = key * cap + r;
                    if (!alive || alive[y])
                        next[j] = link ? link[y] : y;
                }
            }
            for (int64_t j = a; j < b; j++)
                count[tie[j]] = 0;
        }
        int64_t m = 0;
        for (int64_t j = 0; j < k; j++) {
            if (next[j] < 0) {
                blocked[i]++;
            } else if (last) {
                delivered[cyc[j]]++;
            } else {
                dest[m] = dest[j];
                wire[m] = next[j];
                cyc[m] = cyc[j];
                m++;
            }
        }
        k = m;
    }
}

/* What one buffered run steps on: the plan's tables, the flat FIFO arrays
 * (occupancy, head-first destinations and injection stamps, `depth` slots
 * per queue), the demand vector and the scratch and result buffers. */
typedef struct {
    const int64_t *stages;
    int64_t nstages, maxw;
    const int64_t *tables;
    const uint8_t *masks;
    const int64_t *wire_of_src;
    int64_t n, n_outputs, out_shift, depth;
    int64_t *occ, *qdest, *qstamp;
    const int64_t *dests;
    int64_t *work;
    int32_t *count;
    int64_t groups;
    int64_t *outputs, *latencies, *injection;
} step_t;

/* One buffered cycle at clock t.  Stages are serviced output side first:
 * contenders (queues with a head) rank within their bucket by wire, or by
 * tie value when `gen` is set (one permutation per stage with
 * contenders), and the rank-r winner takes the bucket's r-th slot that is
 * live and whose downstream queue has room, judged before the stage moves
 * anything.  Deliveries are written sorted by (output, latency); returns
 * their number.  injection[] = {offered, injected}. */
int64_t repro_buffered_step(const step_t *run, int64_t t, bitgen_t *gen)
{
    const int64_t *stages = run->stages, *tables = run->tables;
    const uint8_t *masks = run->masks;
    int64_t nstages = run->nstages, maxw = run->maxw, depth = run->depth;
    int64_t *occ = run->occ, *qdest = run->qdest, *qstamp = run->qstamp;
    int64_t *outputs = run->outputs, *latencies = run->latencies;
    int32_t *count = run->count;
    int64_t *con = run->work, *tie = con + maxw, *order = tie + maxw, *target = order + maxw;
    int64_t *dout = target + maxw, *dlat = dout + maxw, *bin = dlat + maxw;
    int64_t nd = 0;
    memset(count, 0, sizeof(int32_t) * run->groups);
    for (int64_t i = nstages - 1; i >= 0; i--) {
        const int64_t *s = stages + i * S_FIELDS;
        int64_t fib = s[S_FIB], shift = s[S_SHIFT], rmask = s[S_RMASK], cap = s[S_CAP];
        const int64_t *link = s[S_PLINK] >= 0 ? tables + s[S_PLINK] : 0;
        const uint8_t *dead = s[S_DEAD] >= 0 ? masks + s[S_DEAD] : 0;
        int last = i == nstages - 1;
        int64_t *o = occ + s[S_QOFF];
        int64_t *qd = qdest + s[S_QOFF] * depth, *qs = qstamp + s[S_QOFF] * depth;
        int64_t *no = 0, *nqd = 0, *nqs = 0;
        if (!last) {
            int64_t noff = s[S_FIELDS + S_QOFF];
            no = occ + noff;
            nqd = qdest + noff * depth;
            nqs = qstamp + noff * depth;
        }
        int64_t ncon = 0;
        for (int64_t w = 0; w < s[S_WIDTH]; w++)
            if (o[w] > 0)
                con[ncon++] = w;
        if (ncon == 0)
            continue;
        if (gen) {
            permutation(gen, tie, ncon);
            for (int64_t j = 0; j < ncon; j++)
                order[tie[j]] = j;
        } else {
            for (int64_t j = 0; j < ncon; j++)
                order[j] = j;
        }
        for (int64_t q = 0; q < ncon; q++) {
            int64_t j = order[q], w = con[j];
            int64_t key = (w >> fib) * (rmask + 1) + ((qd[w * depth] >> shift) & rmask);
            int64_t r = count[key]++;
            tie[j] = key;
            target[j] = -1;
            for (int64_t slot = 0; r < cap && slot < cap; slot++) {
                int64_t y = key * cap + slot;
                if ((dead && dead[y]) || (!last && no[link ? link[y] : y] >= depth))
                    continue;
                if (r-- == 0) {
                    target[j] = y;
                    break;
                }
            }
        }
        for (int64_t j = 0; j < ncon; j++) {
            int64_t y = target[j], w = con[j];
            count[tie[j]] = 0;
            if (y < 0)
                continue;
            int64_t *hd = qd + w * depth, *hs = qs + w * depth;
            int64_t d = hd[0], stamp = hs[0];
            for (int64_t p = 0; p + 1 < depth; p++) {
                hd[p] = hd[p + 1];
                hs[p] = hs[p + 1];
            }
            o[w]--;
            if (last) {
                dout[nd] = y >> run->out_shift;
                dlat[nd] = t - stamp;
                nd++;
            } else {
                int64_t nw = link ? link[y] : y;
                nqd[nw * depth + no[nw]] = d;
                nqs[nw * depth + no[nw]] = stamp;
                no[nw]++;
            }
        }
    }
    /* Counting sort by output, then insertion sort of each output's run. */
    memset(bin, 0, sizeof(int64_t) * (run->n_outputs + 1));
    for (int64_t q = 0; q < nd; q++)
        bin[dout[q] + 1]++;
    for (int64_t v = 0; v < run->n_outputs; v++)
        bin[v + 1] += bin[v];
    for (int64_t q = 0; q < nd; q++) {
        int64_t at = bin[dout[q]]++;
        outputs[at] = dout[q];
        latencies[at] = dlat[q];
    }
    for (int64_t q = 1; q < nd; q++) {
        int64_t lat = latencies[q], p = q;
        for (; p > 0 && outputs[p - 1] == outputs[q] && latencies[p - 1] > lat; p--)
            latencies[p] = latencies[p - 1];
        latencies[p] = lat;
    }
    int64_t *injection = run->injection;
    injection[0] = injection[1] = 0;
    for (int64_t src = 0; src < run->n; src++) {
        int64_t w = run->wire_of_src[src];
        if (run->dests[src] == -1)
            continue;
        injection[0]++;
        if (occ[w] >= depth)
            continue;
        qdest[w * depth + occ[w]] = run->dests[src];
        qstamp[w * depth + occ[w]] = t;
        occ[w]++;
        injection[1]++;
    }
    return nd;
}
""" % {"enum": _c_enum(_S_FIELDS)}

class _StepRun(ctypes.Structure):
    """``step_t``: everything one buffered run steps on, bound once per state."""

    _fields_ = [
        (name, ctypes.c_void_p if kind == "p" else ctypes.c_int64)
        for name, kind in (
            ("stages", "p"), ("nstages", "i"), ("maxw", "i"), ("tables", "p"),
            ("masks", "p"), ("wire_of_src", "p"), ("n", "i"), ("n_outputs", "i"),
            ("out_shift", "i"), ("depth", "i"), ("occ", "p"), ("qdest", "p"),
            ("qstamp", "p"), ("dests", "p"), ("work", "p"), ("count", "p"),
            ("groups", "i"), ("outputs", "p"), ("latencies", "p"),
            ("injection", "p"),
        )
    ]


_contended = None


def _contended_lib():
    """The contended kernels' shared library, built at first use."""
    global _contended
    if _contended is None:
        path = _build_shared_object(_CONTENDED_SOURCE, "repro_contended")
        lib = ctypes.CDLL(str(path))
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        lib.repro_random_counts.restype = None
        lib.repro_random_counts.argtypes = [
            ptr, i64, i64, i64,          # dests, size, batch, n
            ptr, i64,                    # stages, nstages
            ptr, ptr, ptr,               # tables, masks, src_of_wire
            ptr, i64, ptr,               # gens, ngens, work
            ptr, i64,                    # count, groups
            ptr, ptr, ptr,               # offered, delivered, blocked
        ]
        lib.repro_buffered_step.restype = i64
        lib.repro_buffered_step.argtypes = [ctypes.POINTER(_StepRun), i64, ptr]
        _contended = lib
    return _contended


# ----------------------------------------------------------------------
# Toolchain discovery
# ----------------------------------------------------------------------

#: Compiled and called once per process.  It uses the vector extension
#: and ``SHUFFLE`` the way the lane kernel does, so a compiler that builds
#: plain C but not the kernel reports ``native`` unavailable instead of
#: failing a cell.
#:
#: The same translation unit carries the traffic draws of
#: :mod:`repro.workloads.models` (see :func:`draw_library`), so no process
#: builds an object for them alone.  They compute numpy's ``PCG64`` words
#: bit for bit: the state is a 128-bit LCG, stepped before each word, and
#: the word is the XSL-RR output of the new state (its two halves xored,
#: rotated right by the state's top six bits).  Where the target has a
#: native 64-bit vector multiply (AVX-512DQ), ``DRAW_LANES`` = 8 lanes hold
#: the states of eight consecutive words and each step jumps every lane
#: eight words ahead; elsewhere one ``unsigned __int128`` lane steps word
#: by word.  Either way the words are used in stream order.  Two fused
#: loops use them, over a chunk of 2-, 4- or 8-byte signed labels:
#: ``repro_draw_labels`` stores the top bits of each 32-bit half (low half
#: first), and ``repro_draw_set`` sets each entry whose word is, or is not,
#: below a bound to a value.  ``st`` is ``{state high, state low, increment
#: high, increment low}``; the state of the last word drawn is written back
#: to its first two entries.  The draws are guarded on
#: ``__SIZEOF_INT128__``, so the probe still builds without them.
_C_PROBE = """#include <stdint.h>
#include <string.h>
""" + _SHUFFLE_MACRO + """typedef int16_t probe_t
    __attribute__((vector_size(32 * sizeof(int16_t)), aligned(sizeof(int16_t))));

long repro_probe(void)
{
    probe_t v = {0};
    v -= v >= 0;                        /* every lane 1 */
    probe_t m = (v >> 0) == (int16_t)1;
    v = (m & (v + 20)) | (~m & v);      /* every lane 21 */
    probe_t w = SHUFFLE(probe_t, v, v - v, """ + _interleave(32, True) + """);
    return (long)w[0] + (long)w[1] + (long)v[31];   /* 21 + 0 + 21 */
}

#if defined(__SIZEOF_INT128__)
typedef unsigned __int128 u128;

#ifndef DRAW_LANES
#if defined(__AVX512DQ__)
#define DRAW_LANES 8
#else
#define DRAW_LANES 1
#endif
#endif

#define INLINE static inline __attribute__((always_inline))
#define PCG_MULT (((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

long repro_draw_lanes(void)
{
    return DRAW_LANES;
}

/* A stream: `s` is the state of the last word drawn. */
typedef struct {
    u128 s, inc;
} pcg_t;

INLINE uint64_t pcg_output(u128 s)
{
    uint64_t x = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned r = (unsigned)(s >> 122);
    return (x >> r) | (x << (-r & 63));
}

INLINE uint64_t pcg_next(pcg_t *g)
{
    g->s = g->s * PCG_MULT + g->inc;
    return pcg_output(g->s);
}

INLINE int64_t get_entry(const void *a, int size, int64_t i)
{
    if (size == 2)
        return ((const int16_t *)a)[i];
    if (size == 4)
        return ((const int32_t *)a)[i];
    return ((const int64_t *)a)[i];
}

INLINE void put_entry(void *a, int size, int64_t i, int64_t v)
{
    if (size == 2)
        ((int16_t *)a)[i] = (int16_t)v;
    else if (size == 4)
        ((int32_t *)a)[i] = (int32_t)v;
    else
        ((int64_t *)a)[i] = v;
}

#if DRAW_LANES == 8
typedef uint64_t word_v __attribute__((vector_size(64)));
typedef uint32_t half_v __attribute__((vector_size(64)));
typedef int64_t mask_v __attribute__((vector_size(64)));

/* Lane j holds the state of the (j+1)-th word not yet drawn; a step is
 * eight LCG steps at once, s -> s * mul + add. */
typedef struct {
    word_v hi, lo, mul_hi, mul_lo, add_hi, add_lo;
} lanes_t;

INLINE lanes_t lanes_start(const pcg_t *g)
{
    lanes_t v;
    u128 s = g->s, mul = 1, add = 0;
    for (int j = 0; j < 8; j++) {
        s = s * PCG_MULT + g->inc;
        v.hi[j] = (uint64_t)(s >> 64);
        v.lo[j] = (uint64_t)s;
        mul *= PCG_MULT;
        add = add * PCG_MULT + g->inc;
    }
    v.mul_hi = (word_v){0} + (uint64_t)(mul >> 64);
    v.mul_lo = (word_v){0} + (uint64_t)mul;
    v.add_hi = (word_v){0} + (uint64_t)(add >> 64);
    v.add_lo = (word_v){0} + (uint64_t)add;
    return v;
}

/* Two AVX-512 instructions the vector extension does not emit, in inline
 * assembly: including <immintrin.h> would cost more to compile than the
 * rest of the probe. */

/* The low 32 bits of each lane times those of the other. */
INLINE word_v mul32(word_v a, word_v b)
{
    word_v r;
    __asm__("vpmuludq %2, %1, %0" : "=v"(r) : "v"(a), "v"(b));
    return r;
}

/* Each lane of x rotated right by that lane of r. */
INLINE word_v rotr(word_v x, word_v r)
{
    word_v y;
    __asm__("vprorvq %2, %1, %0" : "=v"(y) : "v"(x), "v"(r));
    return y;
}

/* The lanes' eight words; then every lane steps eight words on, and g->s
 * becomes the state of the last word returned. */
INLINE word_v lanes_next(lanes_t *v, pcg_t *g)
{
    word_v h = v->hi, l = v->lo;
    word_v w = rotr(h ^ l, h >> 58);
    /* (h, l) * (mul_hi, mul_lo): the high word of l * mul_lo from 32-bit
     * products, the two cross terms from 64-bit ones. */
    const word_v low = (word_v){0} + 0xffffffffULL;
    word_v l1 = l >> 32, m0 = v->mul_lo, m1 = v->mul_lo >> 32;
    word_v p00 = mul32(l, m0), p01 = mul32(l, m1), p10 = mul32(l1, m0);
    word_v mid = (p00 >> 32) + (p01 & low) + (p10 & low);
    word_v lo = ((mid << 32) | (p00 & low)) + v->add_lo;
    v->hi = mul32(l1, m1) + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
        + l * v->mul_hi + h * v->mul_lo + v->add_hi - (word_v)(lo < v->add_lo);
    v->lo = lo;
    g->s = ((u128)h[7] << 64) | l[7];
    return w;
}

INLINE void store_halves(void *out, int size, int64_t at, half_v h)
{
    if (size == 2) {
        typedef int16_t out_v __attribute__((vector_size(32), aligned(2)));
        out_v o = __builtin_convertvector(h, out_v);
        memcpy((int16_t *)out + at, &o, sizeof o);
    } else if (size == 4) {
        memcpy((int32_t *)out + at, &h, sizeof h);
    } else {
        typedef int64_t out_v __attribute__((vector_size(128), aligned(8)));
        out_v o = __builtin_convertvector(h, out_v);
        memcpy((int64_t *)out + at, &o, sizeof o);
    }
}

#define BLEND(T, bytes)                                                   \\
    do {                                                                  \\
        typedef T out_v __attribute__((vector_size(bytes), aligned(sizeof(T)))); \\
        out_v mm = __builtin_convertvector(m, out_v), o;                 \\
        memcpy(&o, (T *)out + at, sizeof o);                              \\
        o = (mm & (T)value) | (~mm & o);                                  \\
        memcpy((T *)out + at, &o, sizeof o);                              \\
    } while (0)

INLINE void blend_entries(void *out, int size, int64_t at, mask_v m, int64_t value)
{
    if (size == 2)
        BLEND(int16_t, 16);
    else if (size == 4)
        BLEND(int32_t, 32);
    else
        BLEND(int64_t, 64);
}
#endif

/* Word by word: the single lane, and the last words of a lane build. */
INLINE void labels_tail(pcg_t *g, void *out, int size, int64_t i, int64_t words, int shift)
{
    for (; i < words; i++) {
        uint64_t w = pcg_next(g);
        put_entry(out, size, 2 * i, (uint32_t)w >> shift);
        put_entry(out, size, 2 * i + 1, (uint32_t)(w >> 32) >> shift);
    }
}

INLINE void set_tail(pcg_t *g, void *out, int size, int64_t i, int64_t count,
                     uint64_t bound, int ge, int64_t value)
{
    for (; i < count; i++) {
        int64_t keep = ((pcg_next(g) >= bound) == ge) - 1;
        put_entry(out, size, i, (get_entry(out, size, i) & keep) | (value & ~keep));
    }
}

/* out[i] = the top 32 - shift bits of each 32-bit half, low half first:
 * numpy's integers(0, 2 ** (32 - shift)), two values per word. */
void repro_draw_labels(uint64_t *st, void *out, int64_t size, int64_t words, int64_t shift)
{
    pcg_t g = {((u128)st[0] << 64) | st[1], ((u128)st[2] << 64) | st[3]};
    int64_t i = 0;
#if DRAW_LANES == 8
    if (words >= 8) {
        lanes_t v = lanes_start(&g);
        for (; i + 8 <= words; i += 8)
            store_halves(out, (int)size, 2 * i, (half_v)lanes_next(&v, &g) >> shift);
    }
#endif
    if (size == 2)
        labels_tail(&g, out, 2, i, words, (int)shift);
    else if (size == 4)
        labels_tail(&g, out, 4, i, words, (int)shift);
    else
        labels_tail(&g, out, 8, i, words, (int)shift);
    st[0] = (uint64_t)(g.s >> 64);
    st[1] = (uint64_t)g.s;
}

/* out[i] = value wherever (word i >= bound) == ge: with bound =
 * ceil(p * 2**53) << 11, ge = 0 sets the entries where numpy's
 * random() < p holds, ge = 1 those where it fails. */
void repro_draw_set(uint64_t *st, void *out, int64_t size, int64_t count,
                    uint64_t bound, int64_t ge, int64_t value)
{
    pcg_t g = {((u128)st[0] << 64) | st[1], ((u128)st[2] << 64) | st[3]};
    int64_t i = 0;
#if DRAW_LANES == 8
    if (count >= 8) {
        lanes_t v = lanes_start(&g);
        mask_v flip = (mask_v){0} - !ge;
        for (; i + 8 <= count; i += 8)
            blend_entries(out, (int)size, i, (mask_v)(lanes_next(&v, &g) >= bound) ^ flip, value);
    }
#endif
    if (size == 2)
        set_tail(&g, out, 2, i, count, bound, ge != 0, value);
    else if (size == 4)
        set_tail(&g, out, 4, i, count, bound, ge != 0, value);
    else
        set_tail(&g, out, 8, i, count, bound, ge != 0, value);
    st[0] = (uint64_t)(g.s >> 64);
    st[1] = (uint64_t)g.s;
}
#endif
"""

_cc_error: Optional[str] = None
_cc_probed = False
_probe_lib: Optional[ctypes.CDLL] = None


def _probe_cc() -> Optional[str]:
    """Compile-and-call the vector probe once; ``None`` = toolchain works."""
    global _cc_error, _cc_probed, _probe_lib
    if not _cc_probed:
        _cc_probed = True
        try:
            lib = ctypes.CDLL(str(_build_shared_object(_C_PROBE, "repro_probe")))
            if int(lib.repro_probe()) != 42:
                raise ConfigurationError("probe kernel returned garbage")
            _cc_error = None
            _probe_lib = lib
        except Exception as exc:  # noqa: BLE001 - any failure = no kernel
            _cc_error = str(exc)
    return _cc_error


def draw_library() -> Optional[ctypes.CDLL]:
    """The probe's library if it built with its traffic draws, else ``None``.

    ``None`` without a working compiler, and where the compiler has no
    128-bit integer type (the draws are compiled out).  The caller sets
    the argument types and checks the draws (``repro.workloads.models``).
    """
    if _probe_cc() is not None or _probe_lib is None:
        return None
    return _probe_lib if hasattr(_probe_lib, "repro_draw_lanes") else None


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


def _put(parts, array) -> int:
    """Append ``array`` to ``parts``; its offset in their concatenation,
    or -1 for ``None``."""
    if array is None:
        return -1
    parts.append(array)
    return sum(part.size for part in parts[:-1])


def _shape_fields(stage, width) -> dict:
    """The descriptor fields of one stage's shape, by ``_L_FIELDS`` name."""
    return {
        "FIB": int(np.log2(stage.fan_in)),
        "SHIFT": int(stage.shift),
        "RMASK": int(stage.radix) - 1,
        "CAP": int(stage.capacity),
        "WIDTH": int(width),
    }


class _PlanTables:
    """One label-priority plan lowered for the lane kernel (``_LANE_SOURCE``).

    ``stages`` is the ``(nstages, len(_L_FIELDS))`` descriptor matrix;
    ``links`` the concatenated link tables in the plan's wire dtype, each
    pre-composed with the fault remap on a faulted stage and an identity
    boundary materialized, so the kernel's slot store is unconditional;
    ``falive`` the concatenated rank-space liveness masks of faulted
    stages; ``input_perm`` the source -> entry-wire table (``None`` =
    identity, passed as ``NULL``).  Addresses are taken once.
    """

    __slots__ = ("stages", "links", "falive", "input_perm", "maxw", "_ptrs")

    def __init__(self, plan):
        g = plan.graph
        wire = plan.wire_dtype
        widths = plan.stage_widths
        rows, links, masks = [], [], []
        for i, stage in enumerate(g.stages):
            link = None
            if i < g.num_stages - 1:
                link = plan.fault_link_table(i, wire)
                if link is None:
                    link = plan.perm_table(i, wire)
                if link is None:
                    link = np.arange(widths[i + 1], dtype=wire)
            fields = _shape_fields(stage, widths[i])
            fields["LINK"] = _put(links, link)
            fields["ALIVE"] = _put(masks, plan.fault_alive(i))
            rows.append([fields[name] for name in _L_FIELDS])
        self.stages = np.array(rows, dtype=np.int64)
        self.links = np.concatenate(links or [np.zeros(1)]).astype(wire)
        self.falive = np.concatenate(masks or [np.zeros(1)]).astype(np.uint8)
        perm = plan.input_perm_table(np.int64)
        self.input_perm = None if perm is None else np.ascontiguousarray(perm)
        self.maxw = int(max(widths))
        self._ptrs = (
            self.stages.ctypes.data,
            self.links.ctypes.data,
            self.falive.ctypes.data,
            None if perm is None else self.input_perm.ctypes.data,
        )


class _ContendedTables:
    """One plan lowered for the contended kernels (see ``_CONTENDED_SOURCE``).

    ``stages`` is the ``(nstages, len(_S_FIELDS))`` descriptor matrix; ``tables``
    and ``masks`` the concatenated link tables and fault masks its offsets
    index; ``src_of_wire``/``wire_of_src`` the input permutation both
    ways.  ``groups`` is the most ``(switch, bucket)`` groups of any
    stage (the size of the rank counters).  Addresses are taken once.
    """

    __slots__ = (
        "stages", "tables", "masks", "src_of_wire", "wire_of_src", "wire", "n",
        "n_outputs", "out_shift", "maxw", "groups", "_ptrs",
    )

    def __init__(self, plan):
        g = plan.graph
        widths = plan.stage_widths
        rows, tables, masks = [], [], []
        for i, stage in enumerate(g.stages):
            link = plan.fault_link_table(i, np.int64)
            if link is None:
                link = plan.perm_table(i, np.int64)
            fields = _shape_fields(stage, widths[i])
            fields["LINK"] = _put(tables, link)
            fields["ALIVE"] = _put(masks, plan.fault_alive(i))
            fields["PLINK"] = _put(tables, plan.perm_table(i, np.int64))
            fields["DEAD"] = _put(masks, plan.fault_dead_slots(i))
            fields["QOFF"] = int(sum(widths[:i]))
            rows.append([fields[name] for name in _S_FIELDS])
        self.stages = np.array(rows, dtype=np.int64)
        self.tables = np.concatenate(tables or [np.zeros(1)]).astype(np.int64)
        self.masks = np.concatenate(masks or [np.zeros(1)]).astype(np.uint8)
        self.wire = plan.wire_dtype
        wires = np.arange(g.n_inputs, dtype=np.int64)
        perm = plan.input_perm_table(np.int64)
        self.wire_of_src = wires if perm is None else np.ascontiguousarray(perm)
        self.src_of_wire = np.empty_like(wires)
        self.src_of_wire[self.wire_of_src] = wires
        self.n = g.n_inputs
        self.n_outputs = g.n_outputs
        self.out_shift = g.out_shift
        self.maxw = int(max(widths))
        self.groups = max(
            widths[i] // s.fan_in * s.radix for i, s in enumerate(g.stages)
        )
        self._ptrs = tuple(
            a.ctypes.data
            for a in (
                self.stages, self.tables, self.masks, self.src_of_wire, self.wire_of_src
            )
        )

    def random_counts(self, dests, ws, rng) -> BatchAcceptanceCounts:
        """Random-priority counts of a validated demand matrix (see the C)."""
        batch = dests.shape[0]
        nstages = self.stages.shape[0]
        dests = np.ascontiguousarray(dests, dtype=self.wire)
        work = ws.array("native_random", 6 * batch * self.n + batch, np.int64)
        count = ws.array("native_counters", self.groups, np.int32)
        offered = np.empty(batch, dtype=np.int64)
        delivered = np.empty(batch, dtype=np.int64)
        blocked = np.empty(nstages, dtype=np.int64)
        stages, tables, masks, src_of_wire, _ = self._ptrs
        pointers, locks = _bit_generators(rng)
        gens = np.array(pointers, dtype=np.uintp)
        with _held(locks):
            _contended_lib().repro_random_counts(
                dests.ctypes.data, dests.itemsize, batch, self.n,
                stages, nstages, tables, masks, src_of_wire,
                gens.ctypes.data, gens.size, work.ctypes.data,
                count.ctypes.data, self.groups,
                offered.ctypes.data, delivered.ctypes.data, blocked.ctypes.data,
            )
        return BatchAcceptanceCounts(
            offered_per_cycle=offered,
            delivered_per_cycle=delivered,
            blocked_by_stage={
                i + 1: int(v) for i, v in enumerate(blocked.tolist()) if v
            },
        )


_contended_local = threading.local()


def _contended_workspace() -> ChunkWorkspace:
    """This thread's scratch for the random-priority kernel, shared by plans."""
    ws = getattr(_contended_local, "ws", None)
    if ws is None:
        ws = _contended_local.ws = ChunkWorkspace()
    return ws


def contended_for(plan) -> _ContendedTables:
    """The plan lowered for the contended kernels, cached like :func:`kernel_for`."""
    key = ("native_contended",)
    tables = plan._tables.get(key)
    if tables is None:
        tables = _ContendedTables(plan)
        plan._tables[key] = tables
    return tables


_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.restype = ctypes.c_void_p
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]


def _bit_generators(rng):
    """``bitgen_t*`` per generator (one, or one per cycle) and their locks.

    The locks are each distinct bit generator's, once, in a fixed order
    (by ``id``), so two calls sharing generators cannot deadlock.
    """
    rngs = (rng,) if isinstance(rng, np.random.Generator) else rng
    pointers, locks = [], {}
    for r in rngs:
        if not isinstance(r, np.random.Generator):
            raise ConfigurationError(
                f"the native kernels draw on numpy Generators, got {type(r).__name__}"
            )
        bitgen = r.bit_generator
        if id(bitgen) not in locks:
            pointer = _capsule_pointer(bitgen.capsule, b"BitGenerator")
            locks[id(bitgen)] = (bitgen.lock, pointer)
        pointers.append(locks[id(bitgen)][1])
    return pointers, [lock for _, (lock, _) in sorted(locks.items())]


class _held:
    """Hold several locks for a block, releasing those taken on any exit.

    Buffered runs take a lock every cycle; ``contextlib.ExitStack`` costs
    several times more per call.
    """

    __slots__ = ("locks", "taken")

    def __init__(self, locks):
        self.locks = locks
        self.taken = []

    def __enter__(self):
        for lock in self.locks:
            lock.acquire()
            self.taken.append(lock)

    def __exit__(self, *exc):
        while self.taken:
            self.taken.pop().release()


class _BufferedRun:
    """A buffered state bound to the step kernel: its ``step_t``, scratch
    and result buffers, set up once instead of on every cycle."""

    __slots__ = ("state", "tables", "dests", "out", "injection", "struct", "_scratch")

    def __init__(self, tables: _ContendedTables, state):
        self.state = state
        self.tables = tables
        self.dests = np.empty(tables.n, dtype=np.int64)
        self.out = np.empty((2, tables.maxw), dtype=np.int64)
        self.injection = np.empty(2, dtype=np.int64)
        work = np.empty(6 * tables.maxw + tables.n_outputs + 1, dtype=np.int64)
        count = np.empty(tables.groups, dtype=np.int32)
        self._scratch = (work, count)
        stages, tabs, masks, _, wire_of_src = tables._ptrs
        self.struct = _StepRun(
            stages, tables.stages.shape[0], tables.maxw, tabs, masks,
            wire_of_src, tables.n, tables.n_outputs, tables.out_shift,
            state.depth, state.flat_occupancy.ctypes.data,
            state.flat_dests.ctypes.data, state.flat_stamps.ctypes.data,
            self.dests.ctypes.data, work.ctypes.data, count.ctypes.data,
            tables.groups, self.out.ctypes.data, self.out[1].ctypes.data,
            self.injection.ctypes.data,
        )


class NativeKernel:
    """One plan's native counts kernel.

    Label priority runs the lane kernel of the plan's wire dtype; random
    priority runs the shared contended kernel on the caller's generators.
    ``tables`` is ``None`` for a label plan with a capacity above
    ``_GROUP_SLOTS``, which no lane routine holds: NumPy routes it.
    """

    __slots__ = ("tables", "wire", "_fn")

    def __init__(self, plan):
        self.wire = plan.wire_dtype
        self.tables = self._fn = None
        if plan.priority != "label":
            self.tables = contended_for(plan)
        elif max(stage.capacity for stage in plan.graph.stages) <= _GROUP_SLOTS:
            self.tables = _PlanTables(plan)
            self._fn = _lane_library(self.wire).repro_lane_counts

    def counts(self, dests: np.ndarray, ws, rng=None) -> BatchAcceptanceCounts:
        """Route a validated ``(batch, n)`` demand matrix; counts only.

        ``dests`` must already be bounds-checked (the routers validate).
        The kernels read it in the plan's wire dtype, so it is cast here, a
        no-op for a contiguous matrix generated in that dtype.  The input
        permutation is applied inside the kernel, so callers pass the raw
        matrix.  Scratch comes from ``ws``; only the O(batch) result arrays
        are allocated per call.  ``rng`` (random priority only) is one
        generator or one per cycle, drawn exactly as
        :meth:`CompiledStageRouter.route_batch_counts` draws them.
        """
        t = self.tables
        if self._fn is None:
            return t.random_counts(dests, ws, rng)
        dests = np.ascontiguousarray(dests, dtype=self.wire)
        batch, n = dests.shape
        nstages = len(t.stages)
        frontier = ws.array("native_frontier", 2 * t.maxw * _LANES, self.wire)
        # offered, delivered (per cycle) and blocked (per stage) in one array.
        out = np.empty(2 * batch + nstages, dtype=np.int64)
        at = _address(out)
        stages, links, falive, input_perm = t._ptrs
        self._fn(
            dests.ctypes.data, n, batch, stages, nstages, t.maxw, links, falive,
            input_perm, _address(frontier), at, at + 8 * batch, at + 16 * batch,
        )
        return BatchAcceptanceCounts(
            offered_per_cycle=out[:batch],
            delivered_per_cycle=out[batch : 2 * batch],
            blocked_by_stage={
                i + 1: int(v) for i, v in enumerate(out[2 * batch :].tolist()) if v
            },
        )


def _address(array: np.ndarray) -> int:
    """The address of a writable contiguous array, at about a third of the
    cost of ``array.ctypes.data`` (a few µs per call of a kernel)."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


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
    """:class:`CompiledStageRouter` with its Monte-Carlo paths in native code.

    Three paths run in C: label-priority counts on the lane kernel, and
    random-priority counts and buffered stepping on the contended
    kernels, which draw every tie-break on the caller's own generators
    exactly as the NumPy engine does.  Everything else (per-message
    outcomes, fault hot-swapping, and label counts of a plan with a
    capacity above ``_GROUP_SLOTS``) is inherited unchanged, so the
    native backend has the full capability surface of ``batched`` with
    identical results.

    Construction raises :class:`ConfigurationError` when no working C
    compiler is present (the message says why); keyword options are
    those of :class:`CompiledStageRouter`.
    """

    #: The execution tier, recorded by provenance tooling: compiled C
    #: is the only one.
    tier = "cc"

    def __init__(self, graph, **options):
        reason = unavailable_reason()
        if reason is not None:
            raise ConfigurationError(reason)
        super().__init__(graph, **options)
        self._native_run = None

    @property
    def demand_dtype(self) -> np.dtype:
        """The dtype :meth:`route_batch_counts` reads demands in.

        The plan's wire dtype (int16 up to N = 4096) under both
        priorities, so a traffic model can generate the chunk in it and no
        int64 matrix is ever built.
        """
        return self._plan.wire_dtype

    def route_batch_counts(
        self, dests: np.ndarray, rng=None, *, workspace=None
    ) -> BatchAcceptanceCounts:
        kernel = kernel_for(self._plan)
        if kernel.tables is None:
            return super().route_batch_counts(dests, rng, workspace=workspace)
        g = self.graph
        # Bounds are checked in the dtype given, before the kernel's cast
        # to the wire dtype, so a too-wide label raises instead of wrapping.
        dests = _check_demand_shape(dests, g.n_inputs)
        _check_destination_bounds(dests.reshape(-1), g.n_outputs)
        if self.priority == "label":
            ws = workspace if workspace is not None else self._plan.workspace()
            return kernel.counts(dests, ws)
        # The random kernel's scratch depends on the batch shape only, so
        # one per-thread workspace serves every plan (random cells with
        # drawn faults churn through many plans).
        ws = workspace if workspace is not None else _contended_workspace()
        cycle_rngs = self._cycle_rngs(rng, dests.shape[0])
        return kernel.counts(dests, ws, rng if cycle_rngs is None else cycle_rngs)

    def _step_cycle(self, dests: np.ndarray, rng) -> BufferedCycleOutcome:
        tables = contended_for(self._plan)
        run = self._native_run
        if run is None or run.state is not self._buffers or run.tables is not tables:
            # A new state (reset_buffers) or plan (apply_faults) rebinds.
            run = self._native_run = _BufferedRun(tables, self._buffers)
        gen, locks = 0, ()
        if self.priority == "random":
            pointers, locks = _bit_generators(rng)
            gen = pointers[0]
        np.copyto(run.dests, dests)
        with _held(locks):
            delivered = _contended_lib().repro_buffered_step(
                run.struct, self._cycle, gen
            )
        self._cycle += 1
        result = run.out[:, :delivered].copy()
        return BufferedCycleOutcome(
            outputs=result[0],
            latencies=result[1],
            offered=int(run.injection[0]),
            injected=int(run.injection[1]),
        )

    def __repr__(self) -> str:
        faulted = f", faults={len(self.faults)}" if self.faults else ""
        return (
            f"NativeStageRouter({self.graph.label}, "
            f"priority={self.priority!r}{faulted})"
        )
