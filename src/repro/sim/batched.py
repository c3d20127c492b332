"""The compiled stage-graph router: every unidirectional multistage network
on one set of batched NumPy kernels.

A Monte-Carlo estimate needs thousands of independent routed cycles, and
driving a per-cycle router from a Python loop leaves interpreter
overhead, numpy dispatch, and many small sorts — not array math --
dominating wall-clock time.  :class:`CompiledStageRouter` routes a whole
``(batch, N)`` demand matrix of any :class:`~repro.sim.stagegraph.StageGraph`
(EDN, delta, omega, dilated delta) in one pass of array operations per
stage, over the tables of a cached :class:`~repro.sim.plan.StagePlan`.

Two resolution strategies implement identical semantics:

* **label priority** (the paper's default) is resolved *densely and
  sort-free*: the frontier is kept as per-wire arrays of shape
  ``(batch, wires)``, and the rank of each request within its
  ``(cycle, switch, bucket)`` contention group — which under label
  priority is just the count of lower-labelled same-bucket requests on the
  same switch — falls out of a prefix sum of packed bucket counters along
  the switch axis.  All arrays use narrow dtypes, so a whole chunk of
  cycles costs a few streaming passes.
* **random priority** folds the batch (cycle) index into the contention
  sort key with per-batch offsets, so one batch-wide ``argsort`` resolves
  every cycle's grouped ranks at once.

Semantics are *bit-identical* per message to the per-cycle
:class:`~repro.sim.stagegraph.StageGraphReference` interpreter: for every
cycle ``i`` of the batch, ``route_batch(dests)[i]`` equals
``StageGraphReference.route(dests[i])`` under label priority, and under
random priority too when each cycle is given its own generator (pass a
sequence of per-cycle generators; the router then draws each cycle's
tie-break keys from its own stream exactly as the interpreter would).
The cross-engine equivalence suites pin this on randomized batches of
every family.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.config import EDNParams
from repro.core.exceptions import ConfigurationError, LabelError
from repro.core.labels import ilog2
from repro.core.tags import RetirementOrder
from repro.sim.stagegraph import IDLE, BufferedCycleOutcome, VectorCycleResult, edn_graph
from repro.sim.stats import ratio_sums

__all__ = [
    "CompiledStageRouter",
    "BatchedEDN",
    "BatchCycleResult",
    "BatchAcceptanceCounts",
    "validate_demand_matrix",
]

#: Random-priority streams: one generator for the whole batch, or one per cycle.
BatchRng = Union[np.random.Generator, Sequence[np.random.Generator], None]


def _check_integer_labels(arr: np.ndarray, what: str) -> None:
    if arr.dtype.kind not in "iu":
        raise LabelError(
            f"demand {what} must have an integer dtype (output labels, with "
            f"-1 marking idle inputs); got dtype {arr.dtype}"
        )


def _check_demand_shape(dests: np.ndarray, n_inputs: int) -> np.ndarray:
    """Check an integer dtype and the ``(batch, n_inputs)`` shape.

    Dtype and shape are rejected *here*, before any routing starts, so a
    malformed matrix fails with one clear message instead of a numpy cast
    error (or a silent float truncation) deep inside a stage loop.  The
    array comes back in its own dtype: bounds are checked on it before
    any cast, so a label too wide for the engine's dtype is rejected
    rather than wrapped.
    """
    arr = np.asanyarray(dests)
    _check_integer_labels(arr, "matrix")
    if arr.ndim != 2 or arr.shape[1] != n_inputs:
        raise LabelError(
            f"expected demand matrix of shape (batch, {n_inputs}), "
            f"got {arr.shape}"
        )
    return arr


def _check_demand_vector(dests, n_inputs: int, n_outputs: int) -> np.ndarray:
    """The batch path's dtype, shape and bounds check on one cycle's vector.

    Every per-cycle entry point (``route``, ``step``, and the reference
    interpreters') validates through here, so a float label raises
    :class:`LabelError` exactly as it does in a batch instead of being
    truncated to an output.  Returns the vector in its own dtype.
    """
    arr = np.asanyarray(dests)
    _check_integer_labels(arr, "vector")
    if arr.shape != (n_inputs,):
        raise LabelError(
            f"expected demand vector of shape ({n_inputs},), got {arr.shape}"
        )
    _check_destination_bounds(arr, n_outputs)
    return arr


def _check_destination_bounds(flat: np.ndarray, n_outputs: int) -> None:
    """Reject destinations outside ``[0, n_outputs)`` (``-1`` = idle).

    Idle entries are exactly ``IDLE``, so two full-array reductions cover
    the live-entry bounds check without materializing a compressed copy.
    """
    if flat.size:
        lo, hi = int(flat.min()), int(flat.max())
        if lo < IDLE or hi >= n_outputs:
            raise LabelError("demand matrix contains out-of-range destinations")


def validate_demand_matrix(
    dests: np.ndarray, n_inputs: int, n_outputs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a ``(batch, n_inputs)`` demand matrix for batched routing.

    Shared by every batched router (:class:`CompiledStageRouter` and the
    batched crossbar baseline) so the accepted input contract cannot drift
    between engines.  Returns ``(dests, flat, live0)``: the matrix as contiguous
    ``int64``, its flat view, and the flat liveness mask.
    """
    dests = _check_demand_shape(dests, n_inputs)
    _check_destination_bounds(dests.reshape(-1), n_outputs)
    dests = np.ascontiguousarray(dests, dtype=np.int64)
    flat = dests.reshape(-1)
    live0 = flat != IDLE
    return dests, flat, live0


@dataclass
class BatchCycleResult:
    """Per-input outcome arrays for a batch of independent cycles.

    ``output[i, s]`` is the output terminal reached by source ``s`` in
    cycle ``i`` (``-1`` if idle/blocked); ``blocked_stage[i, s]`` is ``0``
    for delivered messages, the 1-indexed blocking stage otherwise, and
    ``-1`` for idle inputs — exactly the per-cycle convention of
    :class:`~repro.sim.stagegraph.VectorCycleResult`, stacked.
    """

    output: np.ndarray
    blocked_stage: np.ndarray

    @property
    def num_cycles(self) -> int:
        return self.blocked_stage.shape[0]

    @property
    def offered_per_cycle(self) -> np.ndarray:
        """Requests offered in each cycle (``int64[batch]``)."""
        return (self.blocked_stage != IDLE).sum(axis=1)

    @property
    def delivered_per_cycle(self) -> np.ndarray:
        """Requests delivered in each cycle (``int64[batch]``)."""
        return (self.blocked_stage == 0).sum(axis=1)

    @property
    def num_offered(self) -> int:
        return int((self.blocked_stage != IDLE).sum())

    @property
    def num_delivered(self) -> int:
        return int((self.blocked_stage == 0).sum())

    @property
    def acceptance_ratio(self) -> float:
        offered = self.num_offered
        return 1.0 if offered == 0 else self.num_delivered / offered

    def blocked_stage_histogram(self) -> dict[int, int]:
        """Stage index -> number of requests discarded there, over all cycles."""
        # Stage values are small non-negative ints (after shifting the -1
        # idle marker), so a bincount beats np.unique's sort handily.
        counts = np.bincount((self.blocked_stage + 1).reshape(-1))
        return {
            stage: int(count)
            for stage, count in enumerate(counts[2:], start=1)
            if count
        }

    def cycle(self, i: int) -> VectorCycleResult:
        """The ``i``-th cycle's outcome as a single-cycle result."""
        return VectorCycleResult(
            output=self.output[i], blocked_stage=self.blocked_stage[i]
        )


@dataclass
class BatchAcceptanceCounts:
    """Acceptance counters for a batch of cycles, without per-message detail.

    Produced by :meth:`CompiledStageRouter.route_batch_counts` — everything the
    Monte-Carlo acceptance harness consumes, at a fraction of the cost of
    materializing per-message outcome arrays.  ``sums`` holds the six exact
    :class:`~repro.sim.stats.RatioStats` sums of delivered over offered
    (``n, Σd, Σo, Σd², Σo², Σdo``), which the harness adds with
    ``RatioStats._add``: the native lane kernel computes them in C, and
    they are formed from the per-cycle arrays otherwise.  A run of several
    chunks drawn in the lane kernel carries no per-cycle arrays (``None``),
    and ``threads`` says how many threads the lane kernel split it across
    (1 on every other path).
    """

    offered_per_cycle: Optional[np.ndarray]
    delivered_per_cycle: Optional[np.ndarray]
    blocked_by_stage: dict[int, int]
    sums: Optional[tuple[int, int, int, int, int, int]] = None
    threads: int = 1

    def __post_init__(self) -> None:
        if self.sums is None:
            self.sums = ratio_sums(self.delivered_per_cycle, self.offered_per_cycle)


class CompiledStageRouter:
    """Any :class:`~repro.sim.stagegraph.StageGraph` on the batched kernels.

    The one NumPy router of the repository: a topology is handed over as
    *data* (a stage graph), compiled once into a cached
    :class:`~repro.sim.plan.StagePlan` (link-permutation tables,
    switch-base rows, narrow dtypes, per-thread workspaces), and routed
    by the dense packed-lane / batch-folded-sort kernels below.  ``edn``,
    ``delta``, ``omega``, and ``dilated`` specs all compile here (the
    ``batched`` backend, and the ``native`` backend's base for
    everything its C kernels do not lower); the per-cycle
    :class:`~repro.sim.stagegraph.StageGraphReference` interpreter behind
    the generic batch loop remains as the independent cross-check path.

    Graphs with an input permutation (omega) are routed in wire space:
    the demand matrix is permuted column-wise, routed, and the outcome
    arrays gathered back — identical to composing the permutation by
    hand, and bit-identical per message to the per-cycle interpreter.

    >>> import numpy as np
    >>> from repro.sim.stagegraph import delta_graph
    >>> net = CompiledStageRouter(delta_graph(4, 4, 3))
    >>> res = net.route_batch(np.tile(np.arange(64), (3, 1)))
    >>> res.output.shape
    (3, 64)
    """

    def __init__(
        self,
        graph,
        *,
        priority: str = "label",
        plan="auto",
        faults=(),
        buffer_depth: Optional[int] = None,
    ):
        from repro.sim.plan import compile_stage_plan, stage_plan_for

        if priority not in ("label", "random"):
            raise ConfigurationError(f"unknown priority discipline {priority!r}")
        self.graph = graph
        self.priority = priority
        self.faults = tuple(sorted(set(faults)))
        if plan == "auto":
            plan = stage_plan_for(graph, priority, self.faults, buffer_depth)
        elif plan is None:
            plan = compile_stage_plan(graph, priority, self.faults, buffer_depth)
        else:
            if tuple(plan.faults) != self.faults:
                raise ConfigurationError(
                    f"explicit plan carries faults {plan.faults}, router was "
                    f"given {self.faults}"
                )
            if buffer_depth is not None and plan.buffer_depth != int(buffer_depth):
                raise ConfigurationError(
                    f"explicit plan carries buffer depth {plan.buffer_depth}, "
                    f"router was given {buffer_depth}"
                )
        self._plan = plan
        self._buffers = (
            plan.buffered_state() if plan.buffer_depth is not None else None
        )
        self._cycle = 0
        self._dropped = 0

    @property
    def n_inputs(self) -> int:
        return self.graph.n_inputs

    @property
    def n_outputs(self) -> int:
        return self.graph.n_outputs

    @property
    def buffer_depth(self) -> Optional[int]:
        """Per-wire FIFO depth, or ``None`` for the unbuffered discipline."""
        return self._plan.buffer_depth

    def preferred_batch(self) -> int:
        """Cycles per chunk keeping a stage's working set cache-resident."""
        return self._plan.preferred_batch()

    # ------------------------------------------------------------------
    # Contention-resolution kernels
    # ------------------------------------------------------------------

    # Every chunk-sized work buffer comes from ``ws``, a
    # :class:`~repro.sim.plan.ChunkWorkspace` (the plan's per-thread one
    # unless the caller overrides it): chunked Monte-Carlo runs call these
    # kernels thousands of times with identical shapes, so recycled
    # buffers keep allocator traffic out of the hot loop.  Contents never
    # survive between stages.

    #: Bits per packed bucket counter; holds counts up to a = 64 wires.
    _LANE_BITS = 8
    _LANE_MASK = (1 << _LANE_BITS) - 1

    def _dense_rank(
        self,
        dest: np.ndarray,
        live: np.ndarray,
        fan_in: int,
        digit_bits: int,
        shift: int,
        capacity: int,
        ws,
        rank_dtype=None,
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Dense in-bucket ranking for one stage (the sort-free core).

        ``dest`` holds the flat per-wire frontier of one stage (``fan_in``
        wires per switch, ``-1`` marking dead wires, ``live`` its
        precomputed liveness); each live wire requests bucket ``(dest >>
        shift) & (2**digit_bits - 1)`` of its switch, and the first
        ``capacity`` requests per bucket in wire-label order win.
        ``digit_bits == 0`` degenerates to a single bucket per switch.

        All buckets of a switch are counted at once: each wire contributes
        ``1`` to an 8-bit lane selected by its bucket digit inside one
        packed integer, an inclusive prefix sum along the switch's
        ``fan_in`` wires accumulates every bucket's running occupancy
        simultaneously, and shifting the wire's own lane back out yields
        its 1-based rank — no sorting, no ``radix``-times-wider one-hot
        tensor.  (Switch shapes that cannot pack — ``radix * 8`` bits
        beyond an ``int64``, or ``fan_in`` overflowing a lane — take the
        one-hot fallback.)

        Returns ``(rank_incl, accepted, lane_shift, digit)``: dense
        1-based in-bucket ranks (junk at dead wires), the dense acceptance
        mask, and the digit information — ``lane_shift`` (``digit * 8``)
        on the packed path, an explicit ``digit`` array on the fallback
        path (the other is ``None``).  All returned arrays alias scratch
        buffers: consume them before the next ``_dense_rank`` call.
        """
        radix = 1 << digit_bits
        size = dest.size
        lane_width = radix * self._LANE_BITS
        # The top lane's running count must stay clear of the sign bit.
        packable = fan_in <= self._LANE_MASK >> 1
        if packable and lane_width <= 64:
            # Fused digit-times-8 extraction: ((dest >> shift) & m) << 3
            # == (dest >> (shift - 3)) & (m << 3), one temp fewer.
            mask3 = (radix - 1) << 3
            lane_shift = ws.array("lane_shift", size, dest.dtype)
            if shift >= 3:
                np.right_shift(dest, shift - 3, out=lane_shift)
            else:
                np.left_shift(dest, 3 - shift, out=lane_shift)
            np.bitwise_and(lane_shift, mask3, out=lane_shift)
            lane_dtype = np.int32 if lane_width <= 32 else np.int64
            lanes = ws.array("lanes", size, lane_dtype)
            # dtype= pins the ufunc loop itself to the lane width — with
            # out= alone the shift would run in the promoted input dtype
            # (int32) and overflow for high lanes.
            np.left_shift(live, lane_shift, out=lanes, dtype=lane_dtype, casting="unsafe")
            # Column-at-a-time prefix sum: one fully vectorized strided add
            # per wire position beats np.cumsum's per-switch inner loops.
            view = lanes.reshape(-1, fan_in)
            for j in range(1, fan_in):
                view[:, j] += view[:, j - 1]
            if rank_dtype is not None and rank_dtype != lane_dtype:
                # Unshift straight into the caller's narrow dtype so the
                # downstream bucket-wire arithmetic runs pure-dtype SIMD
                # loops (mixed-dtype ufuncs cost ~5x per pass).
                rank_incl = ws.array("rank", size, rank_dtype)
                np.right_shift(lanes, lane_shift, out=rank_incl, casting="unsafe")
                np.bitwise_and(rank_incl, self._LANE_MASK, out=rank_incl)
            else:
                np.right_shift(lanes, lane_shift, out=lanes)
                np.bitwise_and(lanes, self._LANE_MASK, out=lanes)
                rank_incl = lanes
            digit = None
        else:
            digit = ws.array("digit", size, dest.dtype)
            if radix > 1:
                np.right_shift(dest, shift, out=digit)
                np.bitwise_and(digit, radix - 1, out=digit)
            else:
                digit.fill(0)
            rank_incl = self._onehot_rank(digit, live, fan_in, radix, ws)
            lane_shift = None
        accepted = ws.array("accepted", size, bool)
        np.less_equal(rank_incl, capacity, out=accepted, casting="unsafe")
        np.logical_and(accepted, live, out=accepted)
        return rank_incl, accepted, lane_shift, digit

    def _onehot_rank(
        self,
        digit: np.ndarray,
        live: np.ndarray,
        fan_in: int,
        radix: int,
        ws,
    ) -> np.ndarray:
        """Inclusive in-bucket rank via an explicit one-hot tensor.

        Fallback for switch shapes too wide for packed lanes: one boolean
        channel per bucket, cumulated along the switch axis.  Idle wires
        are aimed at channel ``radix``, which no real request occupies.
        Runs entirely in scratch buffers — wide-radix graphs stay on the
        zero-allocation chunk path just like the packed-lane shapes.
        """
        size = digit.size
        channels = ws.array("oh_channels", size, digit.dtype)
        dead = ws.array("oh_dead", size, bool)
        np.copyto(channels, digit)
        np.logical_not(live, out=dead)
        np.copyto(channels, radix, where=dead, casting="unsafe")
        ch2 = channels.reshape(-1, fan_in)
        count_dtype = np.int16 if fan_in > 127 else np.int8
        onehot = ws.array("oh_onehot", size * radix, bool)
        onehot3 = onehot.reshape(-1, fan_in, radix)
        np.equal(ch2[..., None], np.arange(radix, dtype=digit.dtype), out=onehot3)
        cum = ws.array("oh_cum", size * radix, count_dtype)
        cum3 = cum.reshape(-1, fan_in, radix)
        np.cumsum(onehot3, axis=1, dtype=count_dtype, out=cum3)
        # Gather each wire's own channel out of the cumulated tensor one
        # channel at a time: radix masked copies instead of the fancy
        # gather ``take_along_axis`` would allocate for.
        rank = ws.array("oh_rank", size, count_dtype)
        sel = ws.array("oh_sel", size, bool)
        rank2 = rank.reshape(-1, fan_in)
        sel2 = sel.reshape(-1, fan_in)
        for r in range(radix):
            np.equal(ch2, r, out=sel2)
            np.copyto(rank2, cum3[:, :, r], where=sel2)
        return rank

    def _resolve_sparse(
        self,
        cyc: np.ndarray,
        local_key: np.ndarray,
        span: int,
        cycle_rngs: Optional[Sequence[np.random.Generator]],
        rng: BatchRng,
        capacity: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch-wide grouped resolution under random priority.

        ``local_key`` identifies the ``(switch, bucket)`` group *within* a
        cycle (values in ``[0, span)``); folding in ``cyc`` makes groups
        globally distinct.  Returns ``(accept_mask, winner_ranks)`` with
        the same conventions as the per-cycle interpreter's resolver
        (:func:`repro.sim.stagegraph._resolve_grouped`).
        """
        count = local_key.size
        if count == 0:
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
        key = cyc * span + local_key
        tie = self._random_tiebreak(cyc, count, rng, cycle_rngs)
        max_combined = (int(cyc[-1]) + 1) * span * count
        if max_combined < (1 << 62):
            # (key, tie) pairs are unique, so an unstable argsort of the
            # combined integer realizes the grouped priority order.
            order = np.argsort(key * count + tie)
        else:
            order = np.lexsort((tie, key))  # overflow fallback: astronomical sizes
        sorted_key = key[order]
        new_group = np.empty(count, dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_group[1:])
        group_ids = np.cumsum(new_group) - 1
        group_starts = np.flatnonzero(new_group)
        rank_sorted = np.arange(count) - group_starts[group_ids]
        accept_sorted = rank_sorted < capacity

        accept_mask = np.zeros(count, dtype=bool)
        accept_mask[order[accept_sorted]] = True
        rank_by_pos = np.empty(count, dtype=np.int64)
        rank_by_pos[order] = rank_sorted
        return accept_mask, rank_by_pos[accept_mask]

    @staticmethod
    def _random_tiebreak(
        cyc: np.ndarray,
        count: int,
        rng: BatchRng,
        cycle_rngs: Optional[Sequence[np.random.Generator]],
    ) -> np.ndarray:
        """Random-priority sub-keys, batch-wide or per-cycle.

        With per-cycle generators each cycle's contiguous slice of the
        frontier receives ``rngs[i].permutation(slice_len)`` — the exact
        draw (size, order, and position) the per-cycle interpreter makes, so
        tie-break decisions match it bit for bit.
        """
        if cycle_rngs is None:
            return rng.permutation(count)
        tie = np.empty(count, dtype=np.int64)
        boundaries = np.flatnonzero(np.diff(cyc)) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [count]))
        for start, stop in zip(starts, stops):
            tie[start:stop] = cycle_rngs[cyc[start]].permutation(stop - start)
        return tie

    @staticmethod
    def _cycle_rngs(rng: BatchRng, batch: int) -> Optional[list]:
        """Normalize ``rng``: ``None`` for a single generator, else a list."""
        if rng is None:
            raise ConfigurationError(
                "random priority requires a numpy Generator (or one per cycle)"
            )
        if isinstance(rng, np.random.Generator):
            return None
        cycle_rngs = list(rng)
        if len(cycle_rngs) != batch:
            raise ConfigurationError(
                f"need one generator per cycle: got {len(cycle_rngs)} "
                f"for batch {batch}"
            )
        return cycle_rngs

    # ------------------------------------------------------------------
    # Routing entry points
    # ------------------------------------------------------------------

    def route(self, dests: np.ndarray, rng: BatchRng = None):
        """Route one cycle (``dests[s]`` = output terminal or ``-1``).

        Semantics equal ``route_batch(dests[None])[0]`` by construction,
        so the per-cycle and batched views of a compiled topology can
        never drift apart; under random priority ``rng`` draws exactly
        the per-cycle stream the reference interpreter would.
        """
        g = self.graph
        dests = _check_demand_vector(dests, g.n_inputs, g.n_outputs)
        result = self.route_batch(dests[None, :], rng)
        return VectorCycleResult(
            output=result.output[0], blocked_stage=result.blocked_stage[0]
        )

    def _shuffled(self, dests: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Apply the graph's input permutation to a validated demand matrix."""
        perm = self._plan.input_perm_table(np.int64)
        if perm is None:
            return dests, None
        shuffled = np.full_like(dests, IDLE)
        shuffled[:, perm] = dests
        return shuffled, perm

    def route_batch(
        self, dests: np.ndarray, rng: BatchRng = None, *, workspace=None
    ) -> BatchCycleResult:
        """Route ``batch`` independent cycles (``dests[i, s]`` = output or ``-1``).

        ``rng`` is only consumed under ``random`` priority.  A single
        generator draws the tie-break keys for the whole batch (the fast
        path); a sequence of ``batch`` generators draws each cycle's keys
        from its own stream, reproducing the per-cycle interpreter's draws
        bit for bit regardless of chunking (the Monte-Carlo harness's
        chunk-size-invariant convention).  ``workspace`` optionally
        overrides the scratch buffers (default: the compiled plan's
        per-thread :class:`~repro.sim.plan.ChunkWorkspace`).
        """
        g = self.graph
        dests, flat, live0 = validate_demand_matrix(dests, g.n_inputs, g.n_outputs)
        batch, n = dests.shape
        inner, perm = self._shuffled(dests)
        if perm is not None:
            flat = inner.reshape(-1)
            live0 = flat != IDLE
        if self.priority == "label":
            ws = workspace if workspace is not None else self._plan.workspace()
            output, blocked = self._route_batch_dense(flat, live0, batch, ws)
        else:
            output, blocked = self._route_batch_sparse(flat, live0, batch, rng)
        output = output.reshape(batch, n)
        blocked = blocked.reshape(batch, n)
        if perm is not None:
            output = output[:, perm]
            blocked = blocked[:, perm]
        return BatchCycleResult(output=output, blocked_stage=blocked)

    def route_batch_counts(
        self, dests: np.ndarray, rng: BatchRng = None, *, workspace=None
    ) -> BatchAcceptanceCounts:
        """Route a batch but return only acceptance *counts*, maximally fast.

        Routing decisions are identical to :meth:`route_batch`, message
        for message; dropping source attribution keeps every stage dense
        (one scatter per stage, losers parked on a trash slot, all
        arithmetic in the plan's narrow wire dtype, zero chunk-sized
        allocations).  The input permutation relabels sources but moves
        no message between cycles or stages, so counts need no gather
        back.  Falls back to :meth:`route_batch` under ``random``
        priority, where contention is resolved by sort anyway.
        """
        if self.priority != "label":
            result = self.route_batch(dests, rng, workspace=workspace)
            return BatchAcceptanceCounts(
                offered_per_cycle=result.offered_per_cycle,
                delivered_per_cycle=result.delivered_per_cycle,
                blocked_by_stage=result.blocked_stage_histogram(),
            )
        g = self.graph
        dests = _check_demand_shape(dests, g.n_inputs)
        _check_destination_bounds(dests.reshape(-1), g.n_outputs)
        inner, _perm = self._shuffled(np.ascontiguousarray(dests, dtype=np.int64))
        ws = workspace if workspace is not None else self._plan.workspace()
        return self._route_counts(inner, ws)

    # ------------------------------------------------------------------
    # Buffered stepping (per-wire FIFOs + back-pressure)
    # ------------------------------------------------------------------
    # One step() = one cycle of buffered packet switching on the compiled
    # plan's tables: stages are serviced output side first, a bucket's
    # rank-r contender advances iff r next-queue slots still have room
    # (taking the r-th roomy slot in slot order), losers stay queued, and
    # offered packets enter their source's entry FIFO if it has room.
    # The per-packet cross-check path is
    # :class:`repro.sim.stagegraph.BufferedStageReference`; the two are
    # bit-identical per cycle (see tests/sim/test_buffered_core.py).

    def reset_buffers(self) -> None:
        """Drop all queued packets and restart the cycle counter."""
        self._require_buffered()
        self._buffers = self._plan.buffered_state()
        self._cycle = 0
        self._dropped = 0

    def total_occupancy(self) -> int:
        """Packets currently queued anywhere in the network."""
        self._require_buffered()
        return self._buffers.total_occupancy()

    @property
    def dropped_packets(self) -> int:
        """Packets dropped by wire failures so far (see :meth:`apply_faults`)."""
        return self._dropped

    def apply_faults(self, faults=()) -> int:
        """Swap the live buffered network onto a new fault set mid-run.

        Models links dying (or healing) under a running network: the
        router re-keys onto the plan compiled for ``faults`` (a cache hit
        after the first window of a fault process) while the per-wire
        FIFO state — queued packets, stamps, the cycle clock — carries
        over untouched.  Packets already queued on a wire that just died
        are *dropped with accounting*: each interior dead wire's
        downstream FIFO is emptied, the loss added to
        :attr:`dropped_packets`, and the number dropped by this call
        returned.  Dead wires never grant afterwards, so the drop is
        idempotent; conservation becomes
        ``injected == delivered + in_flight + dropped``.
        """
        from repro.sim.plan import stage_plan_for

        self._require_buffered()
        canonical = tuple(sorted(set(faults)))
        state = self._buffers
        if canonical != self._plan.faults:
            plan = stage_plan_for(
                self.graph, self.priority, canonical, self._plan.buffer_depth
            )
            # Same graph + depth means identically shaped queue arrays,
            # so the state simply re-binds to the sibling plan.
            self._plan = plan
            self.faults = canonical
            state.plan = plan
        plan = self._plan
        dropped = 0
        # Final-stage wires feed output terminals directly — no
        # downstream queue exists, so nothing can be stranded there.
        for i in range(self.graph.num_stages - 1):
            dead = plan.fault_dead_slots(i)
            if dead is None:
                continue
            slots = np.flatnonzero(dead)
            link = plan.perm_table(i, np.int64)
            wires = link[slots] if link is not None else slots
            occ = state.occupancy[i + 1]
            dropped += int(occ[wires].sum())
            occ[wires] = 0
        self._dropped += dropped
        return dropped

    def _require_buffered(self) -> None:
        if self._buffers is None:
            raise ConfigurationError(
                "router was compiled without buffer_depth; "
                "buffered stepping is unavailable"
            )

    def step(self, dests: np.ndarray, rng: BatchRng = None):
        """Advance the buffered network one cycle under demand ``dests``.

        Returns a :class:`~repro.sim.stagegraph.BufferedCycleOutcome`
        whose delivery arrays are canonically sorted, so a compiled run
        and a :class:`~repro.sim.stagegraph.BufferedStageReference` run
        under the same seed compare bit for bit.  Random priority draws
        one ``rng.permutation`` per stage with live contenders, stages
        serviced last column first — the reference draw protocol.

        The vector is validated here (integer dtype, shape, bounds) and
        the cycle handed to ``_step_cycle``, the NumPy core that
        :class:`~repro.sim.native.NativeStageRouter` replaces with C.
        """
        self._require_buffered()
        g = self.graph
        dests = _check_demand_vector(dests, g.n_inputs, g.n_outputs)
        if self.priority == "random" and rng is None:
            raise ConfigurationError(
                "random priority requires an explicit numpy Generator"
            )
        return self._step_cycle(dests, rng)

    def _step_cycle(self, dests: np.ndarray, rng) -> BufferedCycleOutcome:
        """One validated buffered cycle on the NumPy kernels."""
        plan, g = self._plan, self.graph
        state = self._buffers
        depth = state.depth
        live0 = dests != IDLE
        t = self._cycle
        out_arr = lat_arr = None
        last = g.num_stages - 1
        for i in range(last, -1, -1):
            stage = g.stages[i]
            occ = state.occupancy[i]
            contenders = np.flatnonzero(occ > 0)
            ncon = contenders.size
            if ncon == 0:
                continue
            heads = state.dests[i][contenders, 0]
            switch = contenders >> ilog2(stage.fan_in)
            digit = (heads >> stage.shift) & (stage.radix - 1)
            bucket = switch * stage.radix + digit
            if self.priority == "random":
                order = np.lexsort((rng.permutation(ncon), bucket))
            else:
                order = np.argsort(bucket, kind="stable")
            bucket_s = bucket[order]
            wires_s = contenders[order]
            new_group = np.empty(ncon, dtype=bool)
            new_group[0] = True
            np.not_equal(bucket_s[1:], bucket_s[:-1], out=new_group[1:])
            group_ids = np.cumsum(new_group) - 1
            group_starts = np.flatnonzero(new_group)
            rank = np.arange(ncon) - group_starts[group_ids]
            cap = stage.capacity
            dead = plan.fault_dead_slots(i)
            if i == last:
                if dead is None:
                    accept = rank < cap
                    winners = wires_s[accept]
                    y = bucket_s[accept] * cap + rank[accept]
                else:
                    # Only live output wires deliver: the rank-r winner
                    # takes the bucket's r-th live slot in slot order.
                    live2 = (~dead).reshape(-1, cap)
                    live_count = live2.sum(axis=1)
                    order_slots = np.argsort(dead.reshape(-1, cap), axis=1,
                                             kind="stable")
                    accept = rank < live_count[bucket_s]
                    b_acc = bucket_s[accept]
                    y = b_acc * cap + order_slots[b_acc, rank[accept]]
                    winners = wires_s[accept]
                out_arr = y >> g.out_shift
                lat_arr = t - state.stamps[i][winners, 0]
                self._buffered_pop(i, winners)
            else:
                occ_next = state.occupancy[i + 1]
                link = plan.perm_table(i, np.int64)
                # Room per virtual slot (bucket * capacity + k): whether
                # the next-boundary queue that slot feeds still has room.
                if link is None:
                    roomy = occ_next < depth
                else:
                    roomy = occ_next[link] < depth
                if dead is not None:
                    # A dead wire never grants: available = roomy ∧ live.
                    roomy &= ~dead
                room2 = roomy.reshape(-1, cap)
                room_count = room2.sum(axis=1)
                # Roomy slots first, in slot order (stable argsort of the
                # negated mask): the rank-r winner takes the r-th one.
                order_slots = np.argsort(~room2, axis=1, kind="stable")
                accept = rank < room_count[bucket_s]
                b_acc = bucket_s[accept]
                y = b_acc * cap + order_slots[b_acc, rank[accept]]
                winners = wires_s[accept]
                if winners.size == 0:
                    continue
                next_wires = link[y] if link is not None else y
                moved_dest = state.dests[i][winners, 0].copy()
                moved_stamp = state.stamps[i][winners, 0].copy()
                self._buffered_pop(i, winners)
                pos = occ_next[next_wires]
                state.dests[i + 1][next_wires, pos] = moved_dest
                state.stamps[i + 1][next_wires, pos] = moved_stamp
                occ_next[next_wires] += 1

        sources = np.flatnonzero(live0)
        offered = int(sources.size)
        perm = plan.input_perm_table(np.int64)
        wires = perm[sources] if perm is not None else sources
        occ0 = state.occupancy[0]
        has_room = occ0[wires] < depth
        w_ok = wires[has_room]
        pos = occ0[w_ok]
        state.dests[0][w_ok, pos] = dests[sources[has_room]]
        state.stamps[0][w_ok, pos] = t
        occ0[w_ok] += 1
        injected = int(w_ok.size)
        self._cycle = t + 1

        if out_arr is None:
            out_arr = np.zeros(0, dtype=np.int64)
            lat_arr = np.zeros(0, dtype=np.int64)
        out_arr = np.asarray(out_arr, dtype=np.int64)
        lat_arr = np.asarray(lat_arr, dtype=np.int64)
        sort = np.lexsort((lat_arr, out_arr))
        return BufferedCycleOutcome(
            outputs=out_arr[sort],
            latencies=lat_arr[sort],
            offered=offered,
            injected=injected,
        )

    def _buffered_pop(self, i: int, winners: np.ndarray) -> None:
        """Shift the winning wires' FIFOs left by one (head removal)."""
        state = self._buffers
        dq, st = state.dests[i], state.stamps[i]
        dq[winners, :-1] = dq[winners, 1:]
        st[winners, :-1] = st[winners, 1:]
        state.occupancy[i][winners] -= 1

    # ------------------------------------------------------------------
    # Dense per-message kernel (label priority)
    # ------------------------------------------------------------------

    def _route_batch_dense(
        self, flat: np.ndarray, live0: np.ndarray, batch: int, ws
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-message batch routing with dense per-wire frontier arrays.

        The frontier after each stage is two ``(batch * width,)`` arrays —
        destination and source id (``-1`` marking dead wires) — indexed
        by ``cycle * width + wire``.  Winners take bucket wire ``rank``
        (first-free), pass through the stage's compiled link-permutation
        table, and scatter into the next column's arrays; survivors of
        the final column deliver to ``bucket_wire >> out_shift``.
        """
        plan, g = self._plan, self.graph
        n = g.n_inputs
        total = batch * n
        peak = batch * max(plan.stage_widths)
        idx_dtype = np.int32 if peak < 2**31 and g.n_outputs < 2**31 else np.int64

        output = np.full(total, IDLE, dtype=np.int64)
        blocked_stage = np.full(total, IDLE, dtype=np.int64)
        blocked_stage[live0] = 0  # provisional: delivered unless marked

        dest = flat.astype(idx_dtype)
        src = np.arange(total, dtype=idx_dtype)
        src[~live0] = -1
        last = g.num_stages - 1

        for i, stage in enumerate(g.stages):
            width = plan.stage_widths[i]
            live = ws.array("live", dest.size, bool)
            np.greater_equal(dest, 0, out=live)
            rank_incl, accepted, lane_shift, digit = self._dense_rank(
                dest, live, stage.fan_in, stage.digit_bits, stage.shift,
                stage.capacity, ws,
            )
            np.logical_xor(live, accepted, out=live)  # live becomes the loser mask
            blocked_stage[src[np.flatnonzero(live)]] = i + 1
            accept_idx = np.flatnonzero(accepted)
            if accept_idx.size == 0:
                break
            accept_idx = accept_idx.astype(idx_dtype)
            rank = rank_incl[accept_idx].astype(idx_dtype) - 1
            if digit is None:
                digit_w = lane_shift[accept_idx] >> 3
            else:
                digit_w = digit[accept_idx]
            switch = (accept_idx & (width - 1)) >> ilog2(stage.fan_in)
            y = (
                (switch << ilog2(stage.bucket_wires))
                + (digit_w << ilog2(stage.capacity))
                + rank
            )
            falive = plan.fault_alive(i)
            if falive is not None:
                # Rank-k winners of buckets with <= k live wires are
                # blocked here; survivors continue on their live wire.
                ok = falive[y]
                dead_idx = accept_idx[~ok]
                if dead_idx.size:
                    blocked_stage[src[dead_idx]] = i + 1
                    accept_idx = accept_idx[ok]
                    y = y[ok]
                    if accept_idx.size == 0:
                        break
            if i == last:
                output[src[accept_idx]] = y >> g.out_shift
                break
            table = plan.fault_link_table(i, idx_dtype)
            if table is None:
                table = plan.perm_table(i, idx_dtype)
            if table is not None:
                y = table[y]
            next_width = plan.stage_widths[i + 1]
            next_idx = ((accept_idx >> ilog2(width)) << ilog2(next_width)) + y
            next_dest = np.full(batch * next_width, IDLE, dtype=idx_dtype)
            next_src = np.full(batch * next_width, -1, dtype=idx_dtype)
            next_dest[next_idx] = dest[accept_idx]
            next_src[next_idx] = src[accept_idx]
            dest, src = next_dest, next_src
        return output, blocked_stage

    # ------------------------------------------------------------------
    # Dense counts-only kernel (label priority)
    # ------------------------------------------------------------------

    def _counts_bucket_wire(
        self, i, stage, batch, width, rank_incl, lane_shift, digit, ws
    ):
        """Virtual bucket wire per frontier slot (junk at dead/blocked wires):
        ``y = (switch * radix * capacity - 1) + digit * capacity + rank_incl``.
        """
        plan = self._plan
        wire = plan.wire_dtype
        y = ws.array("y", batch * width, wire)
        cshift = 3 - ilog2(stage.capacity)
        if digit is None:
            if cshift >= 0:
                np.right_shift(lane_shift, cshift, out=y, casting="unsafe")
            else:
                np.left_shift(lane_shift, -cshift, out=y, casting="unsafe")
        else:
            np.left_shift(digit, ilog2(stage.capacity), out=y, casting="unsafe")
        np.add(y, rank_incl, out=y, casting="unsafe")
        y2 = y.reshape(batch, width)
        np.add(y2, plan.stage_base(i, wire), out=y2)
        return y

    def _route_counts(self, dests: np.ndarray, ws) -> BatchAcceptanceCounts:
        """Counts kernel over the compiled stage list: narrow dtypes, no allocs.

        Routing decisions are identical to :meth:`_route_batch_dense`; the
        wins are mechanical: all frontier arithmetic runs in the plan's
        ``wire_dtype`` (``int16`` whenever every stage width and the
        output space fit 15 bits), link tables, stage bases, and row
        offsets come precompiled from the plan, losers are parked on a
        trash slot by one streaming multiply, and every chunk-sized buffer
        comes from the workspace.  Stages whose switch shapes cannot pack
        take the one-hot rank fallback.
        """
        plan, g = self._plan, self.graph
        n = g.n_inputs
        batch = dests.shape[0]
        total = batch * n
        flat = dests.reshape(-1)
        live0 = ws.array("live0", total, bool)
        np.not_equal(flat, IDLE, out=live0)
        offered = np.count_nonzero(live0.reshape(batch, n), axis=1)

        wire = plan.wire_dtype
        dest = ws.array("dest0", total, wire)
        np.copyto(dest, flat, casting="unsafe")
        blocked: dict[int, int] = {}
        alive = int(offered.sum())
        delivered = np.zeros(batch, dtype=np.int64)
        last = g.num_stages - 1

        for i, stage in enumerate(g.stages):
            if alive == 0:
                break
            width = plan.stage_widths[i]
            size = batch * width
            live = ws.array("live", size, bool)
            np.greater_equal(dest, 0, out=live)
            rank_incl, accepted, lane_shift, digit = self._dense_rank(
                dest, live, stage.fan_in, stage.digit_bits, stage.shift,
                stage.capacity, ws, rank_dtype=wire,
            )
            y = None
            falive = plan.fault_alive(i)
            if falive is not None:
                # Fault refinement: a provisional rank-k winner survives
                # only if its bucket still has > k live wires.  Junk
                # entries (already rejected) gather harmlessly in clip
                # mode and stay rejected under the logical-and.
                y = self._counts_bucket_wire(
                    i, stage, batch, width, rank_incl, lane_shift, digit, ws
                )
                ok = ws.array("fok", size, bool)
                np.take(falive, y, out=ok, mode="clip")
                np.logical_and(accepted, ok, out=accepted)
            surviving = int(np.count_nonzero(accepted))
            if surviving != alive:
                blocked[i + 1] = alive - surviving
            alive = surviving
            if i == last:
                delivered = np.count_nonzero(
                    accepted.reshape(batch, width), axis=1
                )
                break
            if alive == 0:
                break
            if y is None:
                y = self._counts_bucket_wire(
                    i, stage, batch, width, rank_incl, lane_shift, digit, ws
                )
            next_width = plan.stage_widths[i + 1]
            trash = batch * next_width
            index = plan.index_dtype(trash + 1)
            table = plan.fault_link_table(i, wire)
            if table is None:
                table = plan.perm_table(i, wire)
            if table is not None:
                # Junk entries may index anywhere in [-1, width + 255]:
                # clip-mode gathering keeps them harmless until trashed.
                src_w = ws.array("target_w", size, wire)
                np.take(table, y, out=src_w, mode="clip")
            else:
                src_w = y
            # Widen to global scatter indices (1 + cycle * width + wire) in
            # the same pass that applies the per-cycle row offsets.  The
            # +1 bias reserves flat index 0 as the trash slot, so parking
            # losers and dead wires is a single streaming multiply by the
            # acceptance mask.
            target = ws.array("target", size, index)
            np.add(
                src_w.reshape(batch, width),
                plan.row_offsets(batch, ilog2(next_width), index, bias=1),
                out=target.reshape(batch, width),
                casting="unsafe",
            )
            np.multiply(target, accepted, out=target, casting="unsafe")
            name = "dest_even" if i % 2 else "dest_odd"
            next_dest = ws.array(name, trash + 1, wire)
            next_dest.fill(IDLE)
            next_dest[target] = dest
            dest = next_dest[1 : trash + 1]
        return BatchAcceptanceCounts(
            offered_per_cycle=offered,
            delivered_per_cycle=delivered,
            blocked_by_stage=dict(sorted(blocked.items())),
        )

    # ------------------------------------------------------------------
    # Sparse, sort-based path (random priority)
    # ------------------------------------------------------------------

    def _route_batch_sparse(
        self, flat: np.ndarray, live0: np.ndarray, batch: int, rng: BatchRng
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve a whole batch by folding the cycle index into the sort key."""
        plan, g = self._plan, self.graph
        n = g.n_inputs
        cycle_rngs = self._cycle_rngs(rng, batch)

        output = np.full(batch * n, IDLE, dtype=np.int64)
        blocked_stage = np.full(batch * n, IDLE, dtype=np.int64)
        blocked_stage[live0] = 0

        sources = np.flatnonzero(live0)
        cyc = sources // n
        wires = sources - cyc * n
        last = g.num_stages - 1

        for i, stage in enumerate(g.stages):
            if sources.size == 0:
                break
            width = plan.stage_widths[i]
            switch = wires >> ilog2(stage.fan_in)
            digit = (flat[sources] >> stage.shift) & (stage.radix - 1)
            local_key = switch * stage.radix + digit
            span = (width // stage.fan_in) * stage.radix
            accept_mask, rank = self._resolve_sparse(
                cyc, local_key, span, cycle_rngs, rng, capacity=stage.capacity
            )
            blocked_stage[sources[~accept_mask]] = i + 1
            sources = sources[accept_mask]
            cyc = cyc[accept_mask]
            y = (
                switch[accept_mask] * stage.bucket_wires
                + digit[accept_mask] * stage.capacity
                + rank
            )
            falive = plan.fault_alive(i)
            if falive is not None:
                ok = falive[y]
                if not ok.all():
                    blocked_stage[sources[~ok]] = i + 1
                    sources = sources[ok]
                    cyc = cyc[ok]
                    y = y[ok]
            if i == last:
                output[sources] = y >> g.out_shift
                break
            table = plan.fault_link_table(i, np.int64)
            if table is None:
                table = plan.perm_table(i, np.int64)
            wires = table[y] if table is not None else y
        return output, blocked_stage

    def __repr__(self) -> str:
        faulted = f", faults={len(self.faults)}" if self.faults else ""
        return (
            f"CompiledStageRouter({self.graph.label}, "
            f"priority={self.priority!r}{faulted})"
        )


class BatchedEDN(CompiledStageRouter):
    """An ``EDN(a, b, c, l)`` on the compiled stage-graph core.

    A constructor, not an engine: it compiles :func:`edn_graph` under the
    given retirement order and routes with everything
    :class:`CompiledStageRouter` implements.  ``params`` stays available
    for callers that think in EDN parameters.

    >>> import numpy as np
    >>> net = BatchedEDN(EDNParams(16, 4, 4, 2))
    >>> res = net.route_batch(np.tile(np.arange(64), (3, 1)))
    >>> res.output.shape
    (3, 64)
    """

    def __init__(
        self,
        params: EDNParams,
        *,
        priority: str = "label",
        retirement_order: Optional[RetirementOrder] = None,
        faults=(),
        buffer_depth: Optional[int] = None,
    ):
        super().__init__(
            edn_graph(params, retirement_order),
            priority=priority,
            faults=faults,
            buffer_depth=buffer_depth,
        )
        self.params = params

    # Bound on this class too, so instrumentation that wraps a class's own
    # attributes (the benchmark's layer tracer) finds the counts entry.
    route_batch_counts = CompiledStageRouter.route_batch_counts
