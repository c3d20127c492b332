"""Experiments ``fig7``/``fig8``: PA(1) vs network size for hyperbar families.

Figures 7 and 8 plot the full-load probability of acceptance (Eq. 4)
against the number of network inputs, for every EDN family generated by a
fixed-I/O hyperbar (8x8 in Figure 7, 16x16 in Figure 8) plus the full
crossbar as reference.  Expected shape (the paper's reading):

* the crossbar dominates at every size and flattens near ``1 - 1/e``;
* within a family, larger capacity ``c`` performs better —
  ``EDN(8,2,4,*)`` above ``EDN(8,4,2,*)`` above the delta ``EDN(8,8,1,*)``;
* the 16-I/O families (Figure 8) beat their 8-I/O counterparts;
* the delta (``c = 1``) family "performs the worse" and falls off fastest
  with size.

``run_montecarlo_validation`` rides the same curves with the compiled
simulator at simulable sizes, quantifying the independence-approximation
optimism of Eq. 4 (a few percent, growing slowly with depth).
"""

from __future__ import annotations

from typing import Optional

from repro.api.spec import RunConfig
from repro.core.analysis import acceptance_probability, crossbar_acceptance
from repro.core.config import EDNParams, family_members, hyperbar_family
from repro.experiments.base import ExperimentResult
from repro.experiments.parallel import ParallelSweep
from repro.sim.batched import BatchedEDN
from repro.sim.montecarlo import measure_acceptance
from repro.workloads import UniformTraffic

__all__ = ["run", "run_montecarlo_validation"]

DEFAULT_MAX_INPUTS = 1_050_000  # the paper's x-axis tops out near 10^6


def _family_label(a: int, b: int, c: int) -> str:
    return f"EDN({a},{b},{c},*)"


def run(
    io_size: int = 8,
    *,
    rate: float = 1.0,
    max_inputs: int = DEFAULT_MAX_INPUTS,
    config: Optional[RunConfig] = None,
) -> ExperimentResult:
    """Regenerate Figure 7 (``io_size=8``) or Figure 8 (``io_size=16``).

    Analytic (Eq. 4 closed forms); ``config`` is accepted for uniform
    registry dispatch and ignored.
    """
    del config
    figure = {8: "fig7", 16: "fig8"}.get(io_size, f"fig7_io{io_size}")
    result = ExperimentResult(
        experiment_id=figure,
        title=(
            f"Figure {'7' if io_size == 8 else '8' if io_size == 16 else '7-like'}: "
            f"PA({rate:g}) of EDN families with {io_size}-I/O hyperbars vs network size"
        ),
    )

    sizes: set[int] = set()
    for a, b, c in hyperbar_family(io_size):
        label = _family_label(a, b, c)
        points = []
        for params in family_members(a, b, c, max_inputs=max_inputs):
            pa = acceptance_probability(params, rate)
            points.append((float(params.num_inputs), pa))
            sizes.add(params.num_inputs)
        result.series[label] = points

    result.series["Full Crossbar"] = [
        (float(n), crossbar_acceptance(n, rate)) for n in sorted(sizes)
    ]

    headers = ["inputs"] + [_family_label(*shape) for shape in hyperbar_family(io_size)] + ["crossbar"]
    rows = []
    for n in sorted(sizes):
        row: list[object] = [n]
        for shape in hyperbar_family(io_size):
            lookup = dict(result.series[_family_label(*shape)])
            row.append(lookup.get(float(n), ""))
        row.append(crossbar_acceptance(n, rate))
        rows.append(row)
    result.tables[f"PA({rate:g}) by network size"] = (headers, rows)
    result.notes.append(
        "expected shape: crossbar >= higher-c EDN >= lower-c EDN >= delta (c=1) at every size"
    )
    return result


def _mc_point(task, seed_key) -> list[object]:
    """One grid point of the validation sweep (ParallelSweep worker)."""
    shape, rate, cycles, batch, rel_err = task
    params = EDNParams(*shape)
    analytic = acceptance_probability(params, rate)
    traffic = UniformTraffic(params.num_inputs, params.num_outputs, rate)
    # Routers consult the plan cache, so within one worker process the
    # family members of equal shape share compiled wiring tables.
    measured = measure_acceptance(
        BatchedEDN(params),
        traffic,
        cycles=cycles,
        seed=seed_key,
        batch=batch,
        rel_err=rel_err,
    )
    return [
        str(params),
        params.num_inputs,
        analytic,
        measured.point,
        analytic - measured.point,
        measured.cycles,
    ]


def run_montecarlo_validation(
    io_size: int = 8,
    *,
    rate: float = 1.0,
    max_inputs: int = 4096,
    cycles: int = 60,
    seed: int = 0,
    batch: int | None = None,
    jobs: int | None = 1,
    config: Optional[RunConfig] = None,
) -> ExperimentResult:
    """Simulated PA vs Eq. 4 for every family member up to ``max_inputs``.

    Every grid point routes through the batched engine in chunks of
    ``batch`` cycles (``None`` = the engine's cache-sized default) and
    draws its traffic from its own positionally spawned child of ``seed``,
    so results are identical whether the grid runs inline (``jobs=1``) or
    fanned out across processes.  A :class:`RunConfig` may supply
    cycles/seed/batch/jobs/rel_err; the explicit keywords act as its
    defaults.  With ``rel_err`` set, each grid point stops as soon as its
    own estimate converges (the ``cycles`` column then records what each
    point actually spent of the budget).
    """
    cfg = (config if config is not None else RunConfig()).resolve(
        cycles=cycles, seed=seed, batch=batch, jobs=jobs
    )
    result = ExperimentResult(
        experiment_id="fig7_mc" if io_size == 8 else "fig8_mc",
        title=f"Monte-Carlo validation of Eq. 4 ({io_size}-I/O families, r={rate:g})",
    )
    tasks = [
        (
            (params.a, params.b, params.c, params.l),
            rate,
            cfg.cycles,
            cfg.batch,
            cfg.rel_err,
        )
        for a, b, c in hyperbar_family(io_size)
        for params in family_members(a, b, c, max_inputs=max_inputs)
    ]
    rows = ParallelSweep.from_config(cfg).map_seeded(_mc_point, tasks, cfg.seed)
    result.tables["Eq.4 vs simulation"] = (
        ["network", "inputs", "analytic PA", "simulated PA", "gap", "cycles"],
        rows,
    )
    result.notes.append(
        "Eq. 4 is built on Patel's stage-independence approximation and runs a few "
        "percent optimistic; the gap is the model's, not the simulator's."
    )
    return result
