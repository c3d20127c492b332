"""The benchmark's tracer still finds every name it wraps.

``perfbench/trace.py`` measures the program from outside: it swaps module
attributes and class-dict entries of ``src`` for timing wrappers.  A
refactor that renames or moves one of them would make the benchmark fail
or, worse, stop seeing a layer.  This test loads the tracer from its file
(read-only, the benchmark's own copy), installs its wrappers, measures
one label, random-priority, buffered and closed-loop cell, and
uninstalls.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.api import NetworkSpec, RunConfig
from repro.api.jobs import SweepCell, measure_cell
from repro.sim import batched, montecarlo, native
from repro.sim.stats import RatioStats

TRACE = Path(__file__).resolve().parents[2] / "perfbench" / "trace.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not TRACE.exists(), reason="no perfbench/ in this checkout")
def test_the_tracer_wraps_what_it_names_and_puts_it_back():
    trace = load_tracer()
    # Names the tracer wraps that no cell below may reach.
    originals = {
        "push_many": RatioStats.__dict__["push_many"],
        "bounds": native._check_destination_bounds,
        "make_traffic": montecarlo.make_traffic,
        "edn_counts": batched.BatchedEDN.__dict__["route_batch_counts"],
        "measure_acceptance": montecarlo.measure_acceptance,
    }
    tracer = trace.Tracer()
    undo = trace.install(tracer)
    try:
        for spec, priority, config in (
            ("omega:64", "label", {"traffic": "hotspot:0.1"}),
            ("edn:16,4,4,2", "random", {}),
            ("delta:4,4,3", "label", {"buffer_depth": 2, "traffic": "uniform:0.4"}),
            ("edn:16,4,4,2", "label", {"retry": "4"}),
        ):
            measure_cell(SweepCell(
                NetworkSpec.parse(spec, priority=priority),
                RunConfig(cycles=40, seed=5, **config),
            ))
    finally:
        trace.uninstall(undo)
    layers = trace.summarize(tracer.spans)
    # measure_cell reaches the harness through the module attribute.
    assert layers["sim.montecarlo"]["calls"] == 3
    assert layers["sim.buffered"]["calls"] == 1
    assert layers["api.resolve_backend"]["calls"] >= 4
    assert originals == {
        "push_many": RatioStats.__dict__["push_many"],
        "bounds": native._check_destination_bounds,
        "make_traffic": montecarlo.make_traffic,
        "edn_counts": batched.BatchedEDN.__dict__["route_batch_counts"],
        "measure_acceptance": montecarlo.measure_acceptance,
    }
