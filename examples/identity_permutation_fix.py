#!/usr/bin/env python3
"""Fixing the identity permutation with digit-retirement order (Figures 5-6).

The 1024-port ``EDN(64,16,4,2)`` — the MasPar router network — cannot route
the identity permutation in one pass: all 64 sources feeding each
first-stage hyperbar share their most significant destination digit, pile
into one capacity-4 bucket, and 960 of 1024 messages die.  Corollary 2's
remedy: retire the tag digits in the opposite order (spreading the load
across buckets) and append the inverse digit-rearrangement as an output
permutation stage.  Identity then routes conflict-free — while average-case
behaviour on random permutations is untouched.

Run: ``python examples/identity_permutation_fix.py``
"""

from __future__ import annotations

import numpy as np

from repro import EDNParams, RetirementOrder
from repro.sim import (
    BatchedEDN,
    PermutationTraffic,
    measure_acceptance,
    structured_permutation,
)
from repro.viz import format_table

PATTERNS = ("identity", "reversal", "bit_reversal", "shuffle", "transpose", "butterfly")


def main() -> None:
    params = EDNParams(64, 16, 4, 2)
    canonical = BatchedEDN(params)
    order = RetirementOrder.reversed_order(params.l)
    modified = BatchedEDN(params, retirement_order=order)
    fixup = order.fixup_permutation(params)
    rng = np.random.default_rng(0)

    print(f"network: {params.describe()}")
    print(f"modified retirement order: {order.order} + output fix-up stage")
    print()

    rows = []
    for name in PATTERNS:
        dests = structured_permutation(name, params.num_inputs).generate(rng)
        plain = canonical.route(dests)
        alt = modified.route(dests)
        # Verify the fix-up restores intended destinations for all delivered.
        delivered = np.flatnonzero(alt.blocked_stage == 0)
        correct = all(fixup(int(alt.output[s])) == int(dests[s]) for s in delivered)
        rows.append([name, plain.num_delivered, alt.num_delivered, correct])
    print(
        format_table(
            ["pattern", "canonical (of 1024)", "modified (of 1024)", "fix-up correct"],
            rows,
            title="structured permutations, one pass",
        )
    )
    print()

    traffic = PermutationTraffic(params.num_inputs, params.num_outputs)
    base = measure_acceptance(canonical, traffic, cycles=60, seed=1)
    alt = measure_acceptance(modified, traffic, cycles=60, seed=1)
    print(f"average case (random permutations): canonical PAp = {base.point:.4f}, "
          f"modified PAp = {alt.point:.4f}")
    print()
    print("reading: the two networks are interchangeable on random traffic but "
          "wildly different on structured patterns — choose the retirement order "
          "to match the machine's dominant communication patterns (the paper's "
          "Corollary 2 trade).  Note the modified order simply moves the pain: "
          "patterns that scramble low digits (e.g. bit reversal) now suffer "
          "instead.")


if __name__ == "__main__":
    main()
