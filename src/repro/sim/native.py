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

A run of several chunks splits into ranges of whole chunks, one per
thread: the caller's and persistent helper threads of the lane library.
Each range begins its stream where the chunks before it end and adds
exact integer sums, so the split moves no count, sum or stream state.  A
process takes as many threads as its CPU affinity allows, and a worker of
the process layer (:class:`~repro.experiments.parallel.ParallelSweep`
and the serve worker pool, forked on purpose so they inherit warm plan
caches) its share of them (:func:`lane_share`), so the workers do not
oversubscribe the cores.  No helper lives across a ``fork``: a fork
handler joins them first, where an OpenMP pool left behind deadlocked a
forked worker's first kernel call.  Routing decisions are bit-identical
to :meth:`~repro.sim.batched.CompiledStageRouter.route_batch_counts`
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
:func:`draw_library`.  The lane kernel can draw a chunk's label traffic
itself (:meth:`NativeStageRouter.draw_batch_counts`), on the same PCG64
primitives (``_PCG_SOURCE``), and route a run of such chunks in one call,
adding up their :class:`~repro.sim.stats.RatioStats` sums in C.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import weakref
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
from repro.sim.plan import ChunkWorkspace, compile_stage_plan
from repro.sim.stagegraph import BufferedCycleOutcome
from repro.workloads.models import DrawDescriptor, advance_pcg64

__all__ = [
    "NativeStageRouter",
    "NativeKernel",
    "kernel_for",
    "lane_share",
    "take_pool_share",
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
# Drawn entry.  For the traffic models with a
# :class:`~repro.workloads.models.DrawDescriptor` the kernel takes a
# ``traffic_t`` instead of a demand matrix (``NULL`` = the matrix) and
# computes the chunk's PCG64 words itself, in ``generate_batch``'s stream
# order.  Lane ``c`` is one cycle: its state is jumped to the cycle's first
# word of each region (labels, hot-spot, rate).  On AVX-512DQ eight lanes
# step together and each step yields an entry row of all eight; elsewhere
# each row is filled lane after lane.  Rows are stored through the input
# permutation, so nothing is transposed.  Lanes past the batch are idle;
# ``state`` comes back as that of the chunk's last word.  A fixed pattern
# at full rate draws nothing: each of its rows is one broadcast store.
#
# Runs.  One call routes ``cycles`` cycles in chunks of ``batch``, each
# chunk's streams begun where ``generate_batch`` would begin them, and adds
# up the six exact sums of :class:`~repro.sim.stats.RatioStats` (delivered
# over offered, per cycle) and the per-stage blocked totals.  Per-cycle
# counts are written only where the caller passes arrays for them, so a
# run's memory does not grow with its cycles.
#
# Ranges.  A run of k chunks splits into up to ``threads`` contiguous
# ranges of whole chunks.  Range t starts its stream at the run's state
# jumped past the words of the chunks before it (``pcg_jump``), routes on
# its own frontier, and keeps its own sums and blocked totals; the call
# adds them up and returns the last range's end state.  The caller routes
# the first range and persistent helper threads of the library the others
# (see ``helper_t``); a caller that finds the helpers serving another run
# routes alone.
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


_LANE_SOURCE = r"""#define _GNU_SOURCE     /* pthread_setname_np */
#include <pthread.h>
#include <stdint.h>
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

/* A chunk's traffic drawn in place from one PCG64 stream (see
 * repro.workloads.models.DrawDescriptor): label words (shift >= 0) or the
 * pattern, then hot-spot words (hot) and rate words (rate), which set an
 * entry where (word >= bound) == ge.  NULL = a demand matrix.  The stream
 * itself is the kernel's `state` argument: state high, low (on return, the
 * last word's), increment high, low. */
typedef struct {
    int64_t shift;
    const int64_t *pattern;
    int64_t hot, hot_ge, hot_value;
    uint64_t hot_bound;
    int64_t rate, rate_ge;
    uint64_t rate_bound;
} traffic_t;

%(pcg)s
#if defined(__SIZEOF_INT128__)
long repro_lane_draws(void)
{
    return DRAW_LANES;
}

enum { LABELS, HOT, RATE, REGIONS };

/* Per region: the state of the next cycle's first word, one cycle's stride. */
typedef struct {
    u128 next[REGIONS], mul[REGIONS], add[REGIONS], inc;
} streams_t;

/* The words one cycle draws from each region. */
static void region_words(const traffic_t *t, int64_t n, uint64_t per[REGIONS])
{
    per[LABELS] = t->shift >= 0 ? (uint64_t)n / 2 : 0;
    per[HOT] = t->hot ? (uint64_t)n : 0;
    per[RATE] = t->rate ? (uint64_t)n : 0;
}

/* st (state high, low, increment high, low) moved `words` words on. */
static void pcg_jump(uint64_t *st, uint64_t words)
{
    u128 mul, add;
    pcg_stride(((u128)st[2] << 64) | st[3], words, &mul, &add);
    const u128 s = (((u128)st[0] << 64) | st[1]) * mul + add;
    st[0] = (uint64_t)(s >> 64);
    st[1] = (uint64_t)s;
}

/* The chunk's streams: cycle c of a region starts c strides past the
 * region's first word.  st becomes the chunk's last word's state. */
static void streams_begin(const traffic_t *t, uint64_t *st, int64_t n, int64_t batch,
                          streams_t *z)
{
    const u128 s = ((u128)st[0] << 64) | st[1];
    uint64_t per[REGIONS], used = 0;
    u128 mul, add;
    region_words(t, n, per);
    z->inc = ((u128)st[2] << 64) | st[3];
    for (int r = 0; r < REGIONS; r++) {
        pcg_stride(z->inc, used + 1, &mul, &add);
        z->next[r] = s * mul + add;
        pcg_stride(z->inc, per[r], &z->mul[r], &z->add[r]);
        used += per[r] * (uint64_t)batch;
    }
    pcg_jump(st, used);
}

/* The state of region r's next cycle; the region moves one cycle on. */
static inline u128 next_cycle(streams_t *z, int r)
{
    const u128 s = z->next[r];
    z->next[r] = s * z->mul[r] + z->add[r];
    return s;
}

/* A fixed pattern at full rate: each entry row one broadcast store, idle
 * past the batch, and each lane's live labels counted as they are stored. */
static void pattern_enter(const int64_t *restrict pattern, int64_t n, int64_t nb,
                          const int64_t *restrict perm, wire_t *restrict frontier,
                          wire_t *restrict live)
{
    vec_t *rows = (vec_t *)frontier, idle[NV], acc[NV];
    for (int h = 0; h < NV; h++) {
        for (int j = 0; j < LV; j++)
            idle[h][j] = -(wire_t)(h * LV + j >= nb);
        acc[h] = (vec_t){0};
    }
    for (int64_t i = 0; i < n; i++) {
        const vec_t v = (vec_t){0} + (wire_t)pattern[i];
        vec_t *row = rows + (perm ? perm[i] : i) * NV;
        for (int h = 0; h < NV; h++) {
            row[h] = v | idle[h];
            acc[h] -= row[h] >= 0;
        }
    }
    memcpy(live, acc, sizeof acc);
}

/* The entry rows' live labels, per lane. */
static void count_live(int64_t n, const wire_t *frontier, wire_t *live)
{
    const vec_t *rows = (const vec_t *)frontier;
    vec_t acc[NV];
    for (int h = 0; h < NV; h++)
        acc[h] = (vec_t){0};
    for (int64_t i = 0; i < n * NV; i += NV)
        for (int h = 0; h < NV; h++)
            acc[h] -= rows[i + h] >= 0;
    memcpy(live, acc, sizeof acc);
}

#if DRAW_LANES == 8
typedef wire_t wire8_v __attribute__((vector_size(8 * sizeof(wire_t)), aligned(sizeof(wire_t))));

static inline lanes_t lanes_of(streams_t *z, int r)
{
    lanes_t v;
    for (int j = 0; j < 8; j++) {
        const u128 s = next_cycle(z, r);
        v.hi[j] = (uint64_t)(s >> 64);
        v.lo[j] = (uint64_t)s;
    }
    return v;
}

/* The drawn entry: the nb cycles of a block drawn into the frontier's entry
 * rows through the input permutation (NULL = none), eight lanes (cycles)
 * per PCG64 step, one group of eight after another, and each lane's live
 * labels into live. */
static void draw_enter(const traffic_t *restrict t, streams_t *restrict z, int64_t n,
                       int64_t nb, const int64_t *restrict perm, wire_t *restrict frontier,
                       wire_t *restrict live)
{
    const stride_t one = stride_of(PCG_MULT, z->inc);
    const mask_v hot_flip = (mask_v){0} - !t->hot_ge, rate_flip = (mask_v){0} - !t->rate_ge;
    for (int g = 0; g < LANES; g += 8) {
        if (g >= nb) {  /* the rest of the block is past the batch */
            for (int64_t i = 0; i < n; i++)
                memset(frontier + i * LANES + g, 0xff, (LANES - g) * sizeof(wire_t));
            break;
        }
        lanes_t lab = lanes_of(z, LABELS), hot = lanes_of(z, HOT), rate = lanes_of(z, RATE);
        mask_v idle;
        word_v w = {0};
        for (int j = 0; j < 8; j++)
            idle[j] = -(int64_t)(g + j >= nb);
        for (int64_t i = 0; i < n; i++) {
            mask_v v;
            if (t->shift >= 0) {
                if (!(i & 1))
                    w = lanes_step(&lab, &one);
                v = (mask_v)(((i & 1) ? w >> 32 : w & 0xffffffffULL) >> t->shift);
            } else {
                v = (mask_v){0} + t->pattern[i];
            }
            if (t->hot) {
                const mask_v m = (mask_v)(lanes_step(&hot, &one) >= t->hot_bound) ^ hot_flip;
                v = (m & t->hot_value) | (~m & v);
            }
            if (t->rate)
                v |= (mask_v)(lanes_step(&rate, &one) >= t->rate_bound) ^ rate_flip;
            const wire8_v out = __builtin_convertvector(v | idle, wire8_v);
            memcpy(frontier + (perm ? perm[i] : i) * LANES + g, &out, sizeof out);
        }
    }
    count_live(n, frontier, live);
}
#else
/* The drawn entry, one 128-bit lane (cycle) after another in each row. */
static void draw_enter(const traffic_t *restrict t, streams_t *restrict z, int64_t n,
                       int64_t nb, const int64_t *restrict perm, wire_t *restrict frontier,
                       wire_t *restrict live)
{
    const u128 mul = PCG_MULT, inc = z->inc;
    u128 lane[REGIONS][LANES];
    uint64_t w[LANES];
    for (int g = 0; g < nb; g++)
        for (int r = 0; r < REGIONS; r++)
            lane[r][g] = next_cycle(z, r);
    for (int64_t i = 0; i < n; i++) {
        wire_t *row = frontier + (perm ? perm[i] : i) * LANES;
        if (t->shift >= 0) {
            if (!(i & 1))
                for (int g = 0; g < nb; g++) {
                    w[g] = pcg_output(lane[LABELS][g]);
                    lane[LABELS][g] = lane[LABELS][g] * mul + inc;
                }
            for (int g = 0; g < nb; g++)
                row[g] = (wire_t)((uint32_t)(w[g] >> (32 * (i & 1))) >> t->shift);
        } else {
            const vec_t v = (vec_t){0} + (wire_t)t->pattern[i];
            for (int h = 0; h < NV; h++)
                memcpy(row + h * LV, &v, sizeof v);
        }
        /* Branch-free: `set` is all ones where the entry is set. */
        if (t->hot)
            for (int g = 0; g < nb; g++) {
                const wire_t set = -(wire_t)((pcg_output(lane[HOT][g]) >= t->hot_bound) == t->hot_ge);
                row[g] = (row[g] & ~set) | ((wire_t)t->hot_value & set);
                lane[HOT][g] = lane[HOT][g] * mul + inc;
            }
        if (t->rate)
            for (int g = 0; g < nb; g++) {
                row[g] |= -(wire_t)((pcg_output(lane[RATE][g]) >= t->rate_bound) == t->rate_ge);
                lane[RATE][g] = lane[RATE][g] * mul + inc;
            }
        memset(row + nb, 0xff, (LANES - nb) * sizeof(wire_t));
    }
    count_live(n, frontier, live);
}
#endif
#endif

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

/* A run: `cycles` cycles in chunks of `batch`, of the (cycles, n) demand
 * matrix or of the traffic drawn in place, over the plan's nstages
 * descriptor rows; per-cycle counts into offered[] and delivered[] unless
 * NULL. */
typedef struct {
    const wire_t *dests;
    const traffic_t *traffic;
    int64_t n, batch;
    const int64_t *stages;
    int64_t nstages, maxw;
    const wire_t *links;
    const uint8_t *falive;
    const int64_t *input_perm;
    int64_t *offered, *delivered;
} run_t;

/* A range of a run's whole chunks: its cycles c0 .. c0 + cycles - 1, routed
 * on its own frontier (two columns of maxw rows) from its own stream state
 * (on return, that of its last word), its per-stage totals into blocked[]
 * and its five sums {sum d, sum o, sum d*d, sum o*o, sum d*o} into sums[]. */
typedef struct {
    const run_t *run;
    int64_t c0, cycles;
    uint64_t state[4];
    wire_t *frontier;
    int64_t *blocked, sums[5];
} range_t;

static void route_range(range_t *g)
{
    const run_t *run = g->run;
    const int64_t n = run->n, batch = run->batch, cycles = g->cycles;
    const int64_t nstages = run->nstages, maxw = run->maxw;
    const int64_t *restrict stages = run->stages, *restrict input_perm = run->input_perm;
    const wire_t *restrict dests = run->dests ? run->dests + g->c0 * n : 0;
    const wire_t *restrict links = run->links;
    const uint8_t *restrict falive = run->falive;
    wire_t *restrict frontier = g->frontier;
    int64_t *restrict offered = run->offered ? run->offered + g->c0 : 0;
    int64_t *restrict delivered = run->delivered ? run->delivered + g->c0 : 0;
    vec_t off[NV], live[NV], blk[NV];
    int64_t blocked[nstages + 1], sd = 0, so = 0, sdd = 0, soo = 0, sdo = 0;
#if defined(__SIZEOF_INT128__)
    const traffic_t *restrict traffic = run->traffic;
    streams_t z;
#endif
    for (int64_t i = 0; i < nstages; i++)
        blocked[i] = 0;
    for (int64_t c0 = 0, end = 0, nb; c0 < cycles; c0 += nb) {
        if (c0 == end) {    /* a chunk begins; its blocks are LANES cycles or its rest */
            end = cycles - c0 < batch ? cycles : c0 + batch;
#if defined(__SIZEOF_INT128__)
            if (traffic)
                streams_begin(traffic, g->state, n, end - c0, &z);
#endif
        }
        nb = end - c0 < LANES ? end - c0 : LANES;
        vec_t *cur = (vec_t *)frontier, *nxt = cur + maxw * NV, *swap;
#if defined(__SIZEOF_INT128__)
        if (traffic && traffic->shift < 0 && !traffic->hot && !traffic->rate)
            pattern_enter(traffic->pattern, n, nb, input_perm, frontier, (wire_t *)live);
        else if (traffic)
            draw_enter(traffic, &z, n, nb, input_perm, frontier, (wire_t *)live);
        else
#endif
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
            const int64_t o = ((const wire_t *)off)[l], d = ((const wire_t *)live)[l];
            sd += d;
            so += o;
            sdd += d * d;
            soo += o * o;
            sdo += d * o;
            if (offered) {
                offered[c0 + l] = o;
                delivered[c0 + l] = d;
            }
        }
    }
    memcpy(g->blocked, blocked, nstages * sizeof *blocked);
    g->sums[0] = sd;
    g->sums[1] = so;
    g->sums[2] = sdd;
    g->sums[3] = soo;
    g->sums[4] = sdo;
}

/* Helpers: threads of this library that route a run's other ranges while
 * its caller routes the first.  They start at the first split run.  Each
 * parks on its own condition variable, and every field of a helper is read
 * and written under its own mutex, so a job is posted and its end seen by
 * the plain mutex/condition handshake.  pool_mu is held by the one caller
 * the helpers serve; a caller that finds it taken routes alone.  A fork
 * holds it too: the prepare handler takes it and stops and joins every
 * helper, and the parent and child handlers release it.  So no helper
 * lives across a fork, and the next split run on either side starts them
 * again. */
enum { MAX_RANGES = %(max_ranges)d };

typedef struct {
    pthread_t id;
    pthread_mutex_t mu;
    pthread_cond_t go, done;
    range_t *job;       /* posted; NULL again once routed */
    int stop;
} helper_t;

static pthread_mutex_t pool_mu = PTHREAD_MUTEX_INITIALIZER;
static helper_t helper[MAX_RANGES - 1];
static int helpers, atfork_set;

static void *helper_main(void *arg)
{
    helper_t *h = arg;
#if defined(__linux__)
    pthread_setname_np(pthread_self(), "repro-lanes");
#endif
    pthread_mutex_lock(&h->mu);
    for (;;) {
        while (!h->job && !h->stop)
            pthread_cond_wait(&h->go, &h->mu);
        if (h->stop)
            break;
        range_t *job = h->job;
        pthread_mutex_unlock(&h->mu);
        route_range(job);
        pthread_mutex_lock(&h->mu);
        h->job = 0;
        pthread_cond_signal(&h->done);
    }
    pthread_mutex_unlock(&h->mu);
    return 0;
}

/* The fork's prepare handler: every helper stopped and joined, pool_mu kept. */
static void helpers_stop(void)
{
    pthread_mutex_lock(&pool_mu);
    for (int i = 0; i < helpers; i++) {
        helper_t *h = &helper[i];
        pthread_mutex_lock(&h->mu);
        h->stop = 1;
        pthread_cond_signal(&h->go);
        pthread_mutex_unlock(&h->mu);
        pthread_join(h->id, 0);
        pthread_cond_destroy(&h->go);
        pthread_cond_destroy(&h->done);
        pthread_mutex_destroy(&h->mu);
    }
    helpers = 0;
}

static void pool_release(void)
{
    pthread_mutex_unlock(&pool_mu);
}

/* Under pool_mu: up to `want` helpers running, started as needed; how many. */
static int helpers_start(int want)
{
    if (!atfork_set)
        atfork_set = pthread_atfork(helpers_stop, pool_release, pool_release) == 0;
    while (atfork_set && helpers < want) {
        helper_t *h = &helper[helpers];
        h->job = 0;
        h->stop = 0;
        pthread_mutex_init(&h->mu, 0);
        pthread_cond_init(&h->go, 0);
        pthread_cond_init(&h->done, 0);
        if (pthread_create(&h->id, 0, helper_main, h) != 0) {
            pthread_cond_destroy(&h->go);
            pthread_cond_destroy(&h->done);
            pthread_mutex_destroy(&h->mu);
            break;
        }
        helpers++;
    }
    return helpers < want ? helpers : want;
}

/* Label-priority counts of a run (see run_t), cut into at most `threads`
 * ranges of whole chunks, one per thread: the caller's and the helpers'.
 * Range t begins its stream where the chunks before it end (`state`
 * jumped by their words), so its counts, and the last range's end state,
 * are those of routing the chunks one after another; the run's state
 * comes back as the last range's.  frontier holds `threads` frontiers of
 * two columns of maxw rows each.  blocked[] gets each stage's total and
 * sums[] the run's {cycles, sum d, sum o, sum d*d, sum o*o, sum d*o} of
 * each cycle's delivered d and offered o (the caller keeps cycles * n * n
 * below 2**63).  Returns the threads the run used: 1 for a single chunk,
 * when the helpers are serving another run, or where none could start. */
int64_t repro_lane_counts(
    const wire_t *dests, const traffic_t *traffic, uint64_t *state,
    int64_t n, int64_t batch, int64_t cycles,
    const int64_t *stages, int64_t nstages, int64_t maxw,
    const wire_t *links, const uint8_t *falive,
    const int64_t *input_perm, wire_t *frontier,
    int64_t *offered, int64_t *delivered,
    int64_t *blocked, int64_t *sums, int64_t threads)
{
    const run_t run = {dests, traffic, n, batch, stages, nstages, maxw, links, falive,
                       input_perm, offered, delivered};
    const int64_t chunks = (cycles + batch - 1) / batch;
    int64_t ranges = threads < chunks ? threads : chunks;
    int pooled = 0;
    if (ranges > MAX_RANGES)
        ranges = MAX_RANGES;
    if (ranges > 1 && pthread_mutex_trylock(&pool_mu) == 0) {
        pooled = 1;
        ranges = 1 + helpers_start((int)ranges - 1);
    } else {
        ranges = 1;
    }
    range_t part[ranges];
    int64_t part_blocked[ranges * nstages + 1];
#if defined(__SIZEOF_INT128__)
    uint64_t words = 0;
    if (traffic) {
        uint64_t per[REGIONS];
        region_words(traffic, n, per);
        words = (per[LABELS] + per[HOT] + per[RATE]) * (uint64_t)batch;
    }
#endif
    for (int64_t t = 0; t < ranges; t++) {
        const int64_t first = t * chunks / ranges * batch, next = (t + 1) * chunks / ranges * batch;
        range_t *g = &part[t];
        g->run = &run;
        g->c0 = first;
        g->cycles = (next < cycles ? next : cycles) - first;
        g->frontier = frontier + t * 2 * maxw * LANES;
        g->blocked = part_blocked + t * nstages;
        if (state) {
            memcpy(g->state, state, sizeof g->state);
#if defined(__SIZEOF_INT128__)
            if (traffic && t)
                pcg_jump(g->state, words * (uint64_t)(first / batch));
#endif
        }
    }
    for (int64_t t = 1; t < ranges; t++) {
        helper_t *h = &helper[t - 1];
        pthread_mutex_lock(&h->mu);
        h->job = &part[t];
        pthread_cond_signal(&h->go);
        pthread_mutex_unlock(&h->mu);
    }
    route_range(&part[0]);
    for (int64_t t = 1; t < ranges; t++) {
        helper_t *h = &helper[t - 1];
        pthread_mutex_lock(&h->mu);
        while (h->job)
            pthread_cond_wait(&h->done, &h->mu);
        pthread_mutex_unlock(&h->mu);
    }
    if (pooled)
        pthread_mutex_unlock(&pool_mu);
    sums[0] = cycles;
    for (int j = 1; j < 6; j++)
        sums[j] = 0;
    for (int64_t i = 0; i < nstages; i++)
        blocked[i] = 0;
    for (int64_t t = 0; t < ranges; t++) {
        for (int j = 1; j < 6; j++)
            sums[j] += part[t].sums[j - 1];
        for (int64_t i = 0; i < nstages; i++)
            blocked[i] += part[t].blocked[i];
    }
    if (state)
        memcpy(state, part[ranges - 1].state, 2 * sizeof *state);
    return ranges;
}
"""


def _lane_source(ctype) -> str:
    """The lane kernel's C source for one wire type (``"int16_t"``, ...)."""
    return _LANE_SOURCE % {
        "ctype": ctype,
        "max_ranges": _MAX_THREADS,
        "wire_min": ctype[:-2].upper() + "_MIN",
        "shuffle": _SHUFFLE_MACRO,
        "pcg": _PCG_SOURCE,
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
#: working toolchain produce a kernel.  No ``-fopenmp``: libgomp's pool does
#: not survive ``fork``, so a lane-kernel run splits across the lane
#: library's own pthreads instead, which a fork handler stops (every build
#: gets ``-pthread``).
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
        [compiler, _OPT_LEVEL, "-fPIC", "-shared", "-pthread", *extra]
        for extra in _FLAG_LADDER
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
        lib.repro_lane_counts.restype = i64  # the threads the run used
        lib.repro_lane_counts.argtypes = [
            ptr, ptr, ptr,               # dests, traffic, state
            i64, i64, i64,               # n, batch, cycles
            ptr, i64, i64,               # stages, nstages, maxw
            ptr, ptr, ptr,               # links, falive, input_perm
            ptr, ptr, ptr,               # frontier, offered, delivered
            ptr, ptr, i64,               # blocked, sums, threads
        ]
        _lane_libs[char] = lib
    return lib


#: The most threads one lane-kernel run splits across (``MAX_RANGES`` in
#: the C).
_MAX_THREADS = 64

#: This process's :func:`lane_share`; ``None`` until first read.
_share: Optional[int] = None


def _cores() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def lane_share() -> int:
    """The most threads a lane-kernel run of several chunks splits across.

    A process on its own takes its CPU-affinity count.  A worker of
    :class:`~repro.serve.server.SimulationServer`'s or
    :func:`~repro.serve.supervisor.supervised_map`'s pool takes the share
    its pool's initializer gave it (:func:`take_pool_share`), so a pool's
    workers together run no more threads than there are cores.
    """
    global _share
    if _share is None:
        _share = _cores()
    return _share


def take_pool_share(workers: int) -> None:
    """A pool initializer: each of ``workers`` processes splits its runs
    across at most ``max(1, cores // workers)`` threads."""
    global _share
    _share = max(1, _cores() // workers)


class _Traffic(ctypes.Structure):
    """``traffic_t``: a model's draws as the lane kernel takes them."""

    _fields_ = [
        (name, {"p": ctypes.c_void_p, "i": ctypes.c_int64, "u": ctypes.c_uint64}[kind])
        for name, kind in (
            ("shift", "i"), ("pattern", "p"), ("hot", "i"), ("hot_ge", "i"),
            ("hot_value", "i"), ("hot_bound", "u"), ("rate", "i"), ("rate_ge", "i"),
            ("rate_bound", "u"),
        )
    ]


#: ``traffic_t`` per :class:`DrawDescriptor`, built at its first chunk and
#: dropped with it.  It holds no stream (the kernel takes the state as an
#: argument), so threads drawing on one model share it.
_traffic_structs: "weakref.WeakKeyDictionary[DrawDescriptor, _Traffic]" = (
    weakref.WeakKeyDictionary()
)


def _traffic_struct(draws: DrawDescriptor) -> _Traffic:
    """The ``traffic_t`` of ``draws`` (its pattern stays alive with it)."""
    traffic = _traffic_structs.get(draws)
    if traffic is None:
        traffic = _Traffic()
        if draws.shift is None:
            traffic.shift = -1
            traffic.pattern = draws.pattern.ctypes.data
        else:
            traffic.shift = draws.shift
        if draws.hot is not None:
            traffic.hot = 1
            traffic.hot_bound, traffic.hot_ge, traffic.hot_value = draws.hot
        if draws.rate is not None:
            traffic.rate = 1
            traffic.rate_bound, traffic.rate_ge = draws.rate
        _traffic_structs[draws] = traffic
    return traffic


#: Per wire dtype: whether its lane library draws traffic in place here.
_lane_draw_checks: dict = {}


def _lane_draws(wire) -> bool:
    """Whether the lane kernel of ``wire`` draws label traffic in place.

    True where a C compiler works, its library has the drawn entry (it
    needs 128-bit integers), on a little-endian host, and its load-time
    check (:func:`_lane_draws_agree`) passed; decided once per process and
    dtype.  Else every chunk takes the demand matrix.
    """
    char = np.dtype(wire).char
    ok = _lane_draw_checks.get(char)
    if ok is None:
        ok = (
            _probe_cc() is None
            and sys.byteorder == "little"
            and hasattr(_lane_library(wire), "repro_lane_draws")
            and _lane_draws_agree(wire)
        )
        _lane_draw_checks[char] = ok
    return ok


#: The stream the load-time check draws from.
_CHECK_SEED = 0x1A7E


def _lane_draws_agree(wire) -> bool:
    """Whether drawn chunks match ``generate_batch`` + the matrix entry.

    Two small plans (one with an input permutation), lowered in ``wire``,
    route uniform, hot-spot with rate, pattern-with-rate and full-rate
    pattern chunks of 37 and 5 cycles, and a run of three chunks of 13
    split across two threads, both ways on fixed-seed twin streams; counts
    (the run's sums), blocked
    totals and the streams' states must agree.  ``uinteger`` is compared
    only while ``has_uint32`` is set: NumPy's own ``integers`` (the matrix
    path's small draws) leaves it at the last high half it used, where
    nothing reads it.
    """
    from repro.core.config import EDNParams
    from repro.sim.stagegraph import edn_graph, omega_graph
    from repro.workloads.models import (
        HotspotTraffic,
        UniformTraffic,
        structured_permutation,
    )

    for graph in (omega_graph(16), edn_graph(EDNParams(16, 4, 4, 2))):
        plan = compile_stage_plan(graph)
        plan.wire_dtype = np.dtype(wire)  # a private plan, lowered in `wire`
        kernel, ws = NativeKernel(plan), ChunkWorkspace()
        n = graph.n_inputs
        for model in (
            UniformTraffic(n, n),
            HotspotTraffic(n, n, rate=0.5, hot_fraction=0.25, hot_output=3),
            structured_permutation("bit_reversal", n, rate=0.75),
            structured_permutation("bit_reversal", n),
        ):
            ours = np.random.Generator(np.random.PCG64(_CHECK_SEED))
            theirs = np.random.Generator(np.random.PCG64(_CHECK_SEED))
            for batch, chunks in ((37, 1), (5, 1), (13, 3)):
                got = kernel.drawn_counts(
                    model.draw_descriptor(), ours, batch, ws, chunks, _threads=2
                )
                want = kernel.counts(np.concatenate([
                    model.generate_batch(theirs, batch, wire) for _ in range(chunks)
                ]), ws)
                if not (
                    got.sums == want.sums
                    and got.blocked_by_stage == want.blocked_by_stage
                    and _stream_state(ours) == _stream_state(theirs)
                    and (got.offered_per_cycle is None or (
                        np.array_equal(got.offered_per_cycle, want.offered_per_cycle)
                        and np.array_equal(got.delivered_per_cycle, want.delivered_per_cycle)
                    ))
                ):
                    return False
    return True


def _stream_state(rng: np.random.Generator) -> dict:
    """``rng``'s state dict without ``uinteger`` while no half is pending."""
    state = rng.bit_generator.state
    if not state["has_uint32"]:
        del state["uinteger"]
    return state


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

#: The PCG64 primitives, shared by the probe's contiguous draws and the
#: lane kernel's drawn entry: the XSL-RR output, the ``k``-step jump, and
#: (where the target has AVX-512DQ, ``DRAW_LANES`` 8) eight streams stepped
#: together on 512-bit vectors.  Elsewhere each stream is one ``unsigned
#: __int128`` (``DRAW_LANES`` 1).  Guarded on ``__SIZEOF_INT128__``: without
#: it the draws compile out of both libraries.
_PCG_SOURCE = """#if defined(__SIZEOF_INT128__)
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

/* XSL-RR: the word of state s. */
INLINE uint64_t pcg_output(u128 s)
{
    uint64_t x = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned r = (unsigned)(s >> 122);
    return (x >> r) | (x << (-r & 63));
}

/* k steps of the stream with increment inc as one, s -> s * mul + add:
 * mul = a^k, add = inc * (a^(k-1) + ... + a + 1). */
INLINE void pcg_stride(u128 inc, uint64_t k, u128 *mul, u128 *add)
{
    u128 m = 1, c = 0, am = PCG_MULT, ac = inc;
    for (; k; k >>= 1) {
        if (k & 1) {
            m *= am;
            c = c * am + ac;
        }
        ac *= am + 1;
        am *= am;
    }
    *mul = m;
    *add = c;
}

#if DRAW_LANES == 8
typedef uint64_t word_v __attribute__((vector_size(64)));
typedef int64_t mask_v __attribute__((vector_size(64)));

/* Eight streams, each lane the state of its next word. */
typedef struct {
    word_v hi, lo;
} lanes_t;

/* A step of every lane, s -> s * mul + add, in 64-bit words. */
typedef struct {
    word_v mul_hi, mul_lo, add_hi, add_lo;
} stride_t;

INLINE stride_t stride_of(u128 mul, u128 add)
{
    stride_t t;
    t.mul_hi = (word_v){0} + (uint64_t)(mul >> 64);
    t.mul_lo = (word_v){0} + (uint64_t)mul;
    t.add_hi = (word_v){0} + (uint64_t)(add >> 64);
    t.add_lo = (word_v){0} + (uint64_t)add;
    return t;
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

/* The lanes' words; then every lane takes one step of t. */
INLINE word_v lanes_step(lanes_t *v, const stride_t *t)
{
    word_v h = v->hi, l = v->lo;
    word_v w = rotr(h ^ l, h >> 58);
    /* (h, l) * (mul_hi, mul_lo): the high word of l * mul_lo from 32-bit
     * products, the two cross terms from 64-bit ones. */
    const word_v low = (word_v){0} + 0xffffffffULL;
    word_v l1 = l >> 32, m0 = t->mul_lo, m1 = t->mul_lo >> 32;
    word_v p00 = mul32(l, m0), p01 = mul32(l, m1), p10 = mul32(l1, m0);
    word_v mid = (p00 >> 32) + (p01 & low) + (p10 & low);
    word_v lo = ((mid << 32) | (p00 & low)) + t->add_lo;
    v->hi = mul32(l1, m1) + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
        + l * t->mul_hi + h * t->mul_lo + t->add_hi - (word_v)(lo < t->add_lo);
    v->lo = lo;
    return w;
}
#endif
#endif
"""

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

""" + _PCG_SOURCE + """
#if defined(__SIZEOF_INT128__)
long repro_draw_lanes(void)
{
    return DRAW_LANES;
}

/* A stream: `s` is the state of the last word drawn. */
typedef struct {
    u128 s, inc;
} pcg_t;

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
typedef uint32_t half_v __attribute__((vector_size(64)));

/* Lane j holds the state of the (j+1)-th word not yet drawn; a step of
 * `eight` is eight words. */
INLINE lanes_t lanes_start(const pcg_t *g, stride_t *eight)
{
    lanes_t v;
    u128 s = g->s, mul, add;
    for (int j = 0; j < 8; j++) {
        s = s * PCG_MULT + g->inc;
        v.hi[j] = (uint64_t)(s >> 64);
        v.lo[j] = (uint64_t)s;
    }
    pcg_stride(g->inc, 8, &mul, &add);
    *eight = stride_of(mul, add);
    return v;
}

/* The lanes' eight words; then every lane steps eight words on, and g->s
 * becomes the state of the last word returned. */
INLINE word_v lanes_next(lanes_t *v, const stride_t *eight, pcg_t *g)
{
    g->s = ((u128)v->hi[7] << 64) | v->lo[7];
    return lanes_step(v, eight);
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
        stride_t eight;
        lanes_t v = lanes_start(&g, &eight);
        for (; i + 8 <= words; i += 8)
            store_halves(out, (int)size, 2 * i, (half_v)lanes_next(&v, &eight, &g) >> shift);
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
        stride_t eight;
        lanes_t v = lanes_start(&g, &eight);
        mask_v flip = (mask_v){0} - !ge;
        for (; i + 8 <= count; i += 8)
            blend_entries(out, (int)size, i, (mask_v)(lanes_next(&v, &eight, &g) >= bound) ^ flip, value);
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


_scratch_local = threading.local()


def _scratch() -> ChunkWorkspace:
    """This thread's scratch for the native kernels, shared by every plan.

    The lane kernel's frontier and the random kernel's work arrays depend
    on a chunk's shape only, so one workspace per thread serves every plan
    (cells churn through many shapes, and faulted cells through many
    plans), and a kernel call finds its buffers warm.
    """
    ws = getattr(_scratch_local, "ws", None)
    if ws is None:
        ws = _scratch_local.ws = ChunkWorkspace()
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

    __slots__ = ("tables", "wire", "_fn", "_frontier_size")

    def __init__(self, plan):
        self.wire = plan.wire_dtype
        self.tables = self._fn = None
        if plan.priority != "label":
            self.tables = contended_for(plan)
        elif max(stage.capacity for stage in plan.graph.stages) <= _GROUP_SLOTS:
            self.tables = _PlanTables(plan)
            self._fn = _lane_library(self.wire).repro_lane_counts
            self._frontier_size = 2 * self.tables.maxw * _LANES

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
        if self._fn is None:
            return self.tables.random_counts(dests, ws, rng)
        dests = np.ascontiguousarray(dests, dtype=self.wire)
        batch, n = dests.shape
        return self._lanes(dests.ctypes.data, None, None, n, batch, batch, ws, True)

    def drawn_counts(
        self, draws: DrawDescriptor, rng: np.random.Generator, batch: int, ws,
        chunks: int = 1, *, _threads: Optional[int] = None,
    ) -> Optional[BatchAcceptanceCounts]:
        """Label counts of ``chunks`` chunks of ``batch`` cycles drawn
        inside the lane kernel, in one call.

        The words are ``rng``'s (a ``PCG64`` generator), consumed as
        ``chunks`` calls of ``generate_batch`` of the model behind ``draws``
        consume them (:func:`~repro.workloads.models.advance_pcg64`), and
        the counts are those of routing those chunks.  A single chunk
        comes with its per-cycle counts; a run of several with its sums and
        blocked totals only, so its memory does not grow with its cycles.
        A run splits its chunks across at most :func:`lane_share` threads
        (``_threads``, for tests, forces the count) with the same counts
        and end state.  Its sums are int64 in C, so ``batch * chunks *
        n_inputs**2`` must be below ``2**63``
        (:meth:`~repro.sim.stats.RatioStats.push_many`'s bound).  ``None``,
        with nothing drawn, when a 32-bit half is pending before label
        draws.  Callers check that the library draws (:func:`_lane_draws`)
        and that ``draws`` fits the plan.
        """
        n, cycles = draws.n_inputs, batch * chunks
        if cycles * n * n >= 1 << 63:
            raise ValueError(
                f"a run of {cycles} cycles at {n} inputs overflows its int64 sums"
            )
        traffic = ctypes.byref(_traffic_struct(draws))
        threads = min(chunks, lane_share()) if _threads is None else _threads
        result = []

        def draw(words):
            result.append(self._lanes(
                None, traffic, words, n, batch, cycles, ws, chunks == 1, threads
            ))

        if not advance_pcg64(rng, draw, pending_ok=draws.shift is None):
            return None
        return result[0]

    def _lanes(self, dests, traffic, state, n, batch, cycles, ws, per_cycle, threads=1):
        """One lane-kernel call on a demand matrix's address, or a
        ``traffic_t`` and its stream; per-cycle counts if ``per_cycle``;
        split across at most ``threads`` threads, each on its own frontier."""
        t = self.tables
        nstages = len(t.stages)
        threads = max(1, min(threads, _MAX_THREADS))
        frontier = ws.array("native_frontier", threads * self._frontier_size, self.wire)
        # blocked (per stage), the six sums, and offered and delivered per
        # cycle if asked for, in one array.
        head = nstages + 6
        out = np.empty(head + 2 * cycles if per_cycle else head, dtype=np.int64)
        at = _address(out)
        offered = delivered = None
        if per_cycle:
            offered = at + 8 * head
            delivered = offered + 8 * cycles
        stages, links, falive, input_perm = t._ptrs
        used = self._fn(
            dests, traffic, state, n, batch, cycles, stages, nstages, t.maxw, links,
            falive, input_perm, _address(frontier), offered, delivered,
            at, at + 8 * nstages, threads,
        )
        values = out[:head].tolist()
        return BatchAcceptanceCounts(
            offered_per_cycle=out[head : head + cycles] if per_cycle else None,
            delivered_per_cycle=out[head + cycles :] if per_cycle else None,
            blocked_by_stage={i + 1: v for i, v in enumerate(values[:nstages]) if v},
            sums=tuple(values[nstages:]),
            threads=used,
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

    def draw_batch_counts(
        self, traffic, rng, batch: int, chunks: int = 1
    ) -> Optional[BatchAcceptanceCounts]:
        """Draw ``chunks`` chunks of ``batch`` cycles of ``traffic`` on
        ``rng`` and count them, in one lane-kernel call, or return ``None``
        with nothing drawn.

        The counts, and ``rng``'s state afterwards, are those of
        ``chunks`` calls of ``route_batch_counts(traffic.generate_batch(rng,
        batch, self.demand_dtype))``, with no demand matrix in between: each
        lane of the kernel computes its own cycle's ``PCG64`` words.  A run
        of several chunks carries its sums and blocked totals but no
        per-cycle counts (see :meth:`NativeKernel.drawn_counts`).  ``None``
        for random priority, a plan that routes on NumPy, a model without a
        :class:`~repro.workloads.models.DrawDescriptor` or with other
        terminal counts than the graph's, a generator other than
        ``PCG64``, a pending 32-bit half before label draws, and where the
        library cannot draw (:func:`_lane_draws`): the caller then takes
        the demand matrix, whose bounds scan reports mismatched labels.
        """
        if self.priority != "label":
            return None
        kernel = kernel_for(self._plan)
        draws = traffic.draw_descriptor()
        g = self.graph
        if (
            kernel._fn is None
            or draws is None
            or (draws.n_inputs, draws.n_outputs) != (g.n_inputs, g.n_outputs)
            or type(getattr(rng, "bit_generator", None)) is not np.random.PCG64
            or not _lane_draws(kernel.wire)
        ):
            return None
        return kernel.drawn_counts(draws, rng, batch, _scratch(), chunks)

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
        ws = workspace if workspace is not None else _scratch()
        if self.priority == "label":
            return kernel.counts(dests, ws)
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
