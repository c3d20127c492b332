#!/usr/bin/env python3
"""Quickstart: build an EDN, inspect it, route traffic, check the math.

Walks the library's core loop in five steps:

1. parameterize an ``EDN(16, 4, 4, 2)`` (the paper's Figure 4 network);
2. print its structure and costs (Eqs. 2-3);
3. route a single message and show the multipath freedom (Theorem 2);
4. route one full-load random cycle and compare measured acceptance with
   the analytic ``PA(1)`` of Eq. 4;
5. run a proper Monte-Carlo measurement with confidence intervals.

Run: ``python examples/quickstart.py``
"""

from __future__ import annotations

import numpy as np

from repro import (
    EDNParams,
    EDNetwork,
    EDNTopology,
    DestinationTag,
    Message,
    acceptance_probability,
    cost_report,
    count_paths,
)
from repro.sim import BatchedEDN, UniformTraffic, measure_acceptance
from repro.viz import render_network


def main() -> None:
    # 1. Parameterize. ----------------------------------------------------
    params = EDNParams(a=16, b=4, c=4, l=2)
    print(render_network(params))
    print()

    # 2. Costs. ------------------------------------------------------------
    report = cost_report(params)
    print(f"crosspoints: {report['crosspoints']:,} (Eq. 2 closed form: "
          f"{report['crosspoints_closed_form']:,})")
    print(f"wires:       {report['wires']:,} (Eq. 3 closed form: "
          f"{report['wires_closed_form']:,})")
    print(f"same-size crossbar would cost {report['crossbar_equivalent_crosspoints']:,} "
          f"crosspoints ({1 / report['cost_ratio_vs_crossbar']:.1f}x more)")
    print()

    # 3. One message, many paths. -------------------------------------------
    network = EDNetwork(params)
    message = Message.to_output(source=5, output=42, params=params)
    outcome = network.route_cycle([message]).outcomes[0]
    print(f"message 5 -> 42 delivered via wires {outcome.path}")
    tag = DestinationTag.from_output(42, params)
    multiplicity = count_paths(EDNTopology(params), 5, tag)
    print(f"Theorem 2: {multiplicity} alternate paths exist (c^l = "
          f"{params.c}^{params.l})")
    print()

    # 4. A full-load cycle. ---------------------------------------------------
    rng = np.random.default_rng(0)
    demands = rng.integers(0, params.num_outputs, size=params.num_inputs)
    cycle = network.route_destinations(list(demands))
    print(f"full-load cycle: {cycle.num_delivered}/{cycle.num_offered} delivered "
          f"(acceptance {cycle.acceptance_ratio:.3f})")
    print(f"blocked per stage: {cycle.blocked_stage_histogram()}")
    print(f"Eq. 4 predicts PA(1) = {acceptance_probability(params, 1.0):.4f}")
    print()

    # 5. Monte-Carlo with confidence intervals. -----------------------------
    measurement = measure_acceptance(
        BatchedEDN(params),
        UniformTraffic(params.num_inputs, params.num_outputs, rate=1.0),
        cycles=300,
        seed=1,
    )
    print(f"Monte-Carlo PA(1) over {measurement.cycles} cycles: "
          f"{measurement.acceptance}")
    print("(Eq. 4 runs a couple of percent optimistic — its stage-independence "
          "approximation; see EXPERIMENTS.md)")


if __name__ == "__main__":
    main()
