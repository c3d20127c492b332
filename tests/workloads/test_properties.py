"""Property tests over every registered workload (the subsystem's contract).

Four invariants for the whole registry:

* batched and per-cycle generation agree *distribution-wise* for seeded
  rngs (vectorized ``generate_batch`` may consume the stream in a
  different order, but never a different law);
* every draw respects the ``n_outputs`` bound (``-1`` idle or a valid
  output terminal);
* every built model round-trips: ``parse -> build -> describe`` yields a
  spec the registry parses back to an equivalent model;
* a chunk generated in a narrow dtype is the ``int64`` chunk cast to it,
  drawn from the same stream, and thinning a stored pattern or trace never
  writes into it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import (
    FixedPattern,
    TraceTraffic,
    available_workloads,
    make_traffic,
    parse_workload,
)

N = 64
BATCH = 300


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "demands.npy"
    rng = np.random.default_rng(7)
    trace = rng.integers(-1, N, size=(17, N))
    np.save(path, trace)
    return str(path)


def registry_specs(trace_path: str) -> dict[str, str]:
    """One buildable spec per registered workload name."""
    specs = {
        "uniform": "uniform:0.8",
        "permutation": "permutation:0.9",
        "hotspot": "hotspot:0.2,out=3,rate=0.9",
        "bursty": "bursty:on=8,off=24",
        "mixture": "mixture:uniform@0.7+hotspot:0.1@0.3",
        "trace": f"trace:{trace_path}",
        "identity": "identity",
        "reversal": "reversal",
        "bitrev": "bitrev:0.5",
        "shuffle": "shuffle",
        "transpose": "transpose",
        "butterfly": "butterfly",
        "complement": "complement",
        "tornado": "tornado",
    }
    assert set(specs) == set(available_workloads()), "registry grew: extend the spec map"
    return specs


@pytest.fixture(params=sorted(registry_specs("x.npy")))
def spec_text(request, trace_path):
    return registry_specs(trace_path)[request.param]


def _histogram(demands: np.ndarray) -> np.ndarray:
    live = demands[demands != -1]
    return np.bincount(live, minlength=N) / max(live.size, 1)


def test_batch_matches_stacked_generate_distribution(spec_text):
    batched = make_traffic(spec_text, N, N)
    per_cycle = make_traffic(spec_text, N, N)
    chunk = batched.generate_batch(np.random.default_rng(42), BATCH)
    cycle_rng = np.random.default_rng(43)
    stacked = np.stack([per_cycle.generate(cycle_rng) for _ in range(BATCH)])
    assert chunk.shape == stacked.shape == (BATCH, N)
    activity_gap = abs((chunk != -1).mean() - (stacked != -1).mean())
    assert activity_gap < 0.03, f"offered-load mismatch: {activity_gap:.4f}"
    tv_distance = 0.5 * np.abs(_histogram(chunk) - _histogram(stacked)).sum()
    assert tv_distance < 0.08, f"destination-law mismatch: TV={tv_distance:.4f}"


def test_draws_respect_output_bounds(spec_text):
    gen = make_traffic(spec_text, N, N)
    chunk = gen.generate_batch(np.random.default_rng(0), 50)
    assert chunk.dtype == np.int64
    live = chunk[chunk != -1]
    if live.size:
        assert live.min() >= 0 and live.max() < gen.n_outputs
    single = make_traffic(spec_text, N, N).generate(np.random.default_rng(0))
    assert single.shape == (N,)
    assert ((single == -1) | ((single >= 0) & (single < N))).all()


def test_round_trips_through_parse_and_describe(spec_text):
    described = make_traffic(spec_text, N, N).describe()
    reparsed = parse_workload(described)
    rebuilt = reparsed.build(N, N)
    assert rebuilt.describe() == described
    assert type(rebuilt) is type(make_traffic(spec_text, N, N))


def test_empty_batch_is_well_formed(spec_text):
    gen = make_traffic(spec_text, N, N)
    empty = gen.generate_batch(np.random.default_rng(0), 0)
    assert empty.shape == (0, N)


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
def test_batch_in_a_narrow_dtype_is_the_int64_batch_cast(spec_text, dtype):
    gen, twin = make_traffic(spec_text, N, N), make_traffic(spec_text, N, N)
    rng, twin_rng = np.random.default_rng(3), np.random.default_rng(3)
    for batch in (1, 7, 32):
        got = gen.generate_batch(rng, batch, dtype=dtype)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, twin.generate_batch(twin_rng, batch).astype(dtype))
    # The dtype never changes how much of the stream a chunk consumes.
    np.testing.assert_array_equal(rng.random(4), twin_rng.random(4))


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
def test_thinning_never_writes_model_state(trace_path, dtype):
    pattern = FixedPattern(np.arange(N)[::-1].copy(), N, rate=0.5)
    trace = TraceTraffic(np.load(trace_path), N, rate=0.5)
    before = pattern.dests.copy(), trace.demands.copy()
    rng = np.random.default_rng(9)
    for gen in (pattern, trace):
        thinned = gen.generate_batch(rng, 40, dtype=dtype)
        assert (thinned == -1).any()
        gen.generate(rng)
    np.testing.assert_array_equal(pattern.dests, before[0])
    np.testing.assert_array_equal(trace.demands, before[1])
