"""The cell path's memo (``repro.api.jobs._CellMemo``): reused routers and
traffic models never change a payload, and never outlive the plan cache."""

from __future__ import annotations

import gc
import json
import subprocess
import sys

import numpy as np
import pytest

from repro.api import NetworkSpec, RunConfig, jobs, resolve_backend
from repro.api.jobs import SweepCell, measure_cell, measurement_to_payload
from repro.core.faults import WireFault
from repro.sim import native
from repro.sim.plan import PLAN_CACHE_MAXSIZE, StagePlan, clear_plan_cache, is_cached

HAS_CC = native.unavailable_reason() is None


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """An empty memo and plan cache for each test."""
    monkeypatch.setattr(jobs, "_memo", jobs._CellMemo())
    clear_plan_cache()
    yield
    clear_plan_cache()


def payload(cell) -> str:
    return json.dumps(measurement_to_payload(measure_cell(cell)), sort_keys=True)


def cell(text="edn:16,4,4,2", **config) -> SweepCell:
    config.setdefault("cycles", 70)
    config.setdefault("seed", 3)
    return SweepCell(NetworkSpec.parse(text), RunConfig(**config))


@pytest.mark.skipif(not HAS_CC, reason="no working C compiler")
def test_auto_follows_the_backend_a_memoized_router_no_longer_matches(monkeypatch):
    c = cell(traffic="hotspot:0.1")
    first = payload(c)
    assert (c.spec, "native") in jobs._memo._routers
    monkeypatch.setattr(native, "unavailable_reason", lambda: "no compiler today")
    assert payload(c) == first
    assert (c.spec, "batched") in jobs._memo._routers


def test_the_memo_keeps_only_models_with_draw_descriptors():
    for traffic in ("uniform", "hotspot:0.1", "bitrev:0.5", "permutation", "bursty:on=4,off=4"):
        payload(cell(traffic=traffic))
    kept = {key[0] for key in jobs._memo._traffic}
    assert kept == {"uniform", "hotspot:0.1", "bitrev:0.5"}


def test_a_trace_cell_twice_equals_the_cell_in_a_fresh_process(tmp_path):
    # A trace model has a cursor, so each cell builds its own.
    path = tmp_path / "demands.npy"
    rows = np.random.default_rng(7).integers(-1, 64, size=(9, 64))
    np.save(path, rows)
    c = cell(traffic=f"trace:{path}", cycles=20, batch=4)
    here = [payload(c), payload(c)]
    script = (
        "import json, sys; from repro.api.jobs import SweepCell, measure_cell, "
        "measurement_to_payload; c = SweepCell.from_payload(json.loads(sys.argv[1])); "
        "print(json.dumps(measurement_to_payload(measure_cell(c)), sort_keys=True))"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", script, json.dumps(c.payload())],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert here == [fresh, fresh]


def test_the_memo_keeps_no_more_plans_alive_than_the_plan_cache():
    spec = NetworkSpec.parse("edn:16,4,4,2")
    stage = spec.stage_graph().stages[0]
    faults = [
        WireFault(1, switch, wire)
        for switch in range(spec.n_inputs // stage.fan_in)
        for wire in range(stage.bucket_wires)
    ][: PLAN_CACHE_MAXSIZE + 8]
    for fault in faults:
        c = SweepCell(
            NetworkSpec.parse("edn:16,4,4,2", faults=(fault,)), RunConfig(cycles=8, seed=1)
        )
        measure_cell(c)
        assert (c.spec, resolve_backend(c.spec).name) in jobs._memo._routers
    gc.collect()
    ours = {(fault,) for fault in faults}
    alive = [o for o in gc.get_objects() if isinstance(o, StagePlan) and o.faults in ours]
    assert len(alive) == PLAN_CACHE_MAXSIZE
    assert len(jobs._memo._routers) == PLAN_CACHE_MAXSIZE
    assert all(is_cached(router._plan) for router in jobs._memo._routers.values())
