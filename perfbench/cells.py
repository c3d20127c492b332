"""Seeded cell generators for the three workloads.

The program only ever sees the :class:`~repro.api.jobs.SweepCell` values
built here.  ``mc-label`` draws a fixed *pool* of cells from stratified
counts — every stratum (spec x traffic) has the same number of cells
under every seed — so the seed changes cell seeds and order but not the
amount of work per pass; the timed loop then walks the pool round-robin.  ``serve-mixed`` draws an endless
stream instead, where a fixed share of cells repeats an earlier cell's
content key.
"""

from __future__ import annotations

import numpy as np

#: mc-label: (spec, cycles per cell).  N=4096 and N=1024 for all four
#: stage-graph families; cycles give every cell two kernel batches.
LABEL_SPECS = (
    ("delta:4,4,6", 64), ("edn:16,4,4,5", 64), ("omega:4096", 64), ("dilated:4096,4,2", 64),
    ("delta:4,4,5", 128), ("edn:16,4,4,4", 128), ("omega:1024", 128), ("dilated:1024,4,2", 128),
)
LABEL_TRAFFIC = ("uniform", "hotspot:0.1", "bitrev")
LABEL_PER_STRATUM = 8

#: serve-mixed: sizes per family, buffer depths, and shares of the stream.
SERVE_SPECS = {
    64: ("delta:4,4,3", "omega:64", "edn:16,4,4,2", "dilated:64,4,2"),
    256: ("delta:4,4,4", "omega:256", "edn:16,4,4,3", "dilated:256,4,2"),
    1024: ("delta:4,4,5", "omega:1024", "edn:16,4,4,4", "dilated:1024,4,2"),
}
BUFFERED_DEPTHS = (2, 4)
SERVE_REPEAT_SHARE = 0.2
SERVE_FAULT_SHARE = 0.2


def _spec(text: str, priority: str = "label", faults=()):
    from repro.api import NetworkSpec

    return NetworkSpec.parse(text, priority=priority, faults=tuple(faults))


def _cell(spec, **config):
    from repro.api import RunConfig
    from repro.api.jobs import SweepCell

    return SweepCell(spec, RunConfig(**config))


def random_faults(text: str, rng: np.random.Generator, count: int = 2) -> tuple:
    """``count`` distinct dead wires on the first stage of spec ``text``.

    Keeping every fault on stage 1 keeps one native kernel source per
    spec (the C tier specializes on which stages carry faults, not on
    where), so the warm-up builds every kernel a timed cell can need.
    """
    from repro.core.faults import WireFault

    stage = _spec(text).stage_graph().stages[0]
    switches = _spec(text).n_inputs // stage.fan_in
    faults = set()
    while len(faults) < count:
        switch = int(rng.integers(switches))
        faults.add(WireFault(1, switch, int(rng.integers(stage.bucket_wires))))
    return tuple(sorted(faults))


def _below_saturation(n: int, kind: str) -> str:
    """Buffered traffic that keeps every output below one packet per cycle."""
    if kind == "uniform":
        return "uniform:0.4"
    rate = 0.3
    frac = 0.5 / (n * rate)  # the hot output receives about 0.5 + 0.3
    return f"hotspot:{frac:.5f},rate={rate}"


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def mc_label(seed: int) -> list:
    """The mc-label pool: label-priority acceptance cells, fixed cycles."""
    rng = np.random.default_rng([seed, 1])
    pool = [
        _cell(_spec(text), cycles=cycles, seed=_seed(rng), traffic=traffic)
        for text, cycles in LABEL_SPECS
        for traffic in LABEL_TRAFFIC
        for _ in range(LABEL_PER_STRATUM)
    ]
    return [pool[i] for i in rng.permutation(len(pool))]


def serve_stream(seed: int):
    """Endless serve-mixed cells; ``SERVE_REPEAT_SHARE`` repeat an earlier key.

    Kinds: 65% label acceptance over N = 64, 256, 1024, 28% random-priority
    acceptance and 7% buffered cells (depth 2 or 4) over N = 64, 256,
    every family, at 100-200 cycles (100 for buffered cells); a fifth of
    the fresh cells carry two random dead wires, so the distinct plans far
    exceed a worker's 32-entry plan cache.  The costly kinds are kept
    small so that the main phase runs well below capacity.
    """
    rng = np.random.default_rng([seed, 3])
    made: list = []
    while True:
        if made and rng.random() < SERVE_REPEAT_SHARE:
            yield made[int(rng.integers(len(made)))]
            continue
        kind = int(rng.choice(3, p=(0.65, 0.28, 0.07)))
        sizes = (64, 256, 1024) if kind == 0 else (64, 256)
        n = sizes[int(rng.integers(len(sizes)))]
        text = SERVE_SPECS[n][int(rng.integers(4))]
        faults = random_faults(text, rng) if rng.random() < SERVE_FAULT_SHARE else ()
        cycles = int(rng.choice((100, 150, 200)))
        if kind == 2:
            depth = int(rng.choice(BUFFERED_DEPTHS))
            traffic = _below_saturation(n, "uniform" if rng.random() < 0.5 else "hotspot")
            cell = _cell(_spec(text, "label", faults), cycles=100, seed=_seed(rng),
                         traffic=traffic, buffer_depth=depth)
        else:
            traffic = ("uniform", "hotspot:0.1", "bitrev")[int(rng.integers(3))]
            priority = "label" if kind == 0 else "random"
            cell = _cell(_spec(text, priority, faults), cycles=cycles,
                         seed=_seed(rng), traffic=traffic)
        made.append(cell)
        yield cell


def serve_warmup() -> list:
    """One cell per serve plan shape, so every kernel is built before timing."""
    rng = np.random.default_rng(0)
    cells = []
    for n, texts in SERVE_SPECS.items():
        for text in texts:
            faulted = _spec(text, "label", random_faults(text, rng))
            for spec in (_spec(text), _spec(text, "random"), faulted):
                cells.append(_cell(spec, cycles=8, seed=0))
            if n <= 256:
                for depth in BUFFERED_DEPTHS:
                    cells.append(_cell(_spec(text), cycles=8, seed=0,
                                       traffic="uniform:0.4", buffer_depth=depth))
    return cells


def cell_cycles(cell) -> int:
    """Network cycles a cell simulates (buffered cells add their warm-up)."""
    cycles = cell.config.cycles
    if cell.config.buffer_depth is not None:
        return cycles + cycles // 4
    return cycles
