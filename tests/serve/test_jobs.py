"""SweepCell / CellResult contract tests: payloads, content keys, seeds.

The service's dedupe correctness reduces to three properties pinned
here: payloads round-trip losslessly (including fault sets, retry
policies, and spawned seeds), content keys cover exactly the
result-determining inputs, and measurements serialize bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.jobs import (
    SweepCell,
    measure_cell,
    measurement_from_payload,
    measurement_to_payload,
    seed_from_payload,
    seed_to_payload,
)
from repro.api.spec import NetworkSpec, RunConfig
from repro.core.exceptions import ConfigurationError
from repro.core.faults import WireFault
from repro.sim.rng import spawn_keys

SPEC = NetworkSpec.edn(16, 4, 4, 2)


class TestSeedPayloads:
    @pytest.mark.parametrize("seed", [None, 0, 12345])
    def test_plain_seeds_pass_through(self, seed):
        assert seed_from_payload(seed_to_payload(seed)) == seed

    def test_seed_sequence_round_trips_streams(self):
        original = np.random.SeedSequence(42).spawn(3)[2]
        restored = seed_from_payload(seed_to_payload(original))
        assert restored.entropy == original.entropy
        assert restored.spawn_key == original.spawn_key
        # The restored sequence reproduces the stream bit for bit.
        assert (
            np.random.default_rng(restored).random(8).tolist()
            == np.random.default_rng(original).random(8).tolist()
        )

    def test_spawned_children_round_trip(self):
        for key in spawn_keys(7, 4):
            restored = seed_from_payload(seed_to_payload(key))
            assert restored.spawn_key == key.spawn_key

    def test_generators_are_rejected(self):
        with pytest.raises(ConfigurationError, match="Generator"):
            seed_to_payload(np.random.default_rng(0))


class TestCellPayloads:
    def test_round_trip(self):
        cell = SweepCell(SPEC, RunConfig(cycles=50, seed=3, traffic="hotspot:0.1"))
        assert SweepCell.from_payload(cell.payload()) == cell

    def test_round_trip_with_faults_and_retry(self):
        spec = NetworkSpec.edn(16, 4, 4, 2, faults=(WireFault(1, 0, 2),))
        cell = SweepCell(spec, RunConfig(cycles=20, seed=0, retry="4:1:2"))
        restored = SweepCell.from_payload(cell.payload())
        assert restored == cell
        assert restored.spec.faults == spec.faults
        assert restored.config.retry.label == "4:1:2"

    def test_round_trip_with_spawned_seed(self):
        # SeedSequence has identity equality, so compare the stream roots.
        (key,) = spawn_keys(9, 1)
        cell = SweepCell(SPEC, RunConfig(cycles=20, seed=key))
        restored = SweepCell.from_payload(cell.payload())
        assert restored.config.seed.entropy == key.entropy
        assert restored.config.seed.spawn_key == key.spawn_key
        assert restored.key() == cell.key()

    def test_payload_survives_json(self):
        import json

        cell = SweepCell(SPEC, RunConfig(cycles=50, seed=3, rel_err=0.05))
        rewired = SweepCell.from_payload(json.loads(json.dumps(cell.payload())))
        assert rewired == cell


class TestContentKeys:
    def test_equal_cells_hash_equal(self):
        a = SweepCell(SPEC, RunConfig(cycles=50, seed=1))
        b = SweepCell(NetworkSpec.parse("edn:16,4,4,2"), RunConfig(cycles=50, seed=1))
        assert a.key() == b.key()
        assert len(a.key()) == 64

    @pytest.mark.parametrize(
        "other",
        [
            RunConfig(cycles=51, seed=1),
            RunConfig(cycles=50, seed=2),
            RunConfig(cycles=50, seed=1, batch=16),
            RunConfig(cycles=50, seed=1, rel_err=0.05),
            RunConfig(cycles=50, seed=1, traffic="bitrev"),
            RunConfig(cycles=50, seed=1, retry="4"),
            RunConfig(cycles=50, seed=1, backend="vectorized"),
        ],
    )
    def test_result_determining_fields_change_the_key(self, other):
        base = SweepCell(SPEC, RunConfig(cycles=50, seed=1))
        assert SweepCell(SPEC, other).key() != base.key()

    def test_fault_sets_change_the_key(self):
        faulted = NetworkSpec.edn(16, 4, 4, 2, faults=(WireFault(1, 0, 2),))
        assert SweepCell(faulted, RunConfig(cycles=50, seed=1)).key() != SweepCell(
            SPEC, RunConfig(cycles=50, seed=1)
        ).key()

    def test_execution_knobs_do_not_change_the_key(self):
        # jobs / shard_timeout / service move work around; they must
        # never split the cache.
        base = SweepCell(SPEC, RunConfig(cycles=50, seed=1))
        tuned = SweepCell(
            SPEC,
            RunConfig(
                cycles=50, seed=1, jobs=8, shard_timeout=30.0,
                service="127.0.0.1:1",
            ),
        )
        assert tuned.key() == base.key()

    def test_canonicalization_dedupes_alias_spellings(self):
        # Traffic aliases canonicalize in RunConfig, so spelled-differently
        # identical cells still coalesce.
        a = SweepCell(SPEC, RunConfig(cycles=50, seed=1, traffic="bitrev"))
        b = SweepCell(SPEC, RunConfig(cycles=50, seed=1, traffic="bit_reversal"))
        assert a.key() == b.key()


class TestMeasurementPayloads:
    def test_open_loop_round_trip_is_bit_identical(self):
        measurement = measure_cell(SweepCell(SPEC, RunConfig(cycles=30, seed=5)))
        restored = measurement_from_payload(measurement_to_payload(measurement))
        assert restored == measurement

    def test_adaptive_fields_round_trip(self):
        measurement = measure_cell(
            SweepCell(SPEC, RunConfig(cycles=400, seed=5, rel_err=0.05))
        )
        restored = measurement_from_payload(measurement_to_payload(measurement))
        assert restored == measurement
        assert restored.converged == measurement.converged
        assert restored.target_rel_err == measurement.target_rel_err

    def test_closed_loop_round_trip_is_bit_identical(self):
        measurement = measure_cell(
            SweepCell(SPEC, RunConfig(cycles=30, seed=5, retry="4:1:2"))
        )
        restored = measurement_from_payload(measurement_to_payload(measurement))
        assert restored == measurement
        assert restored.policy.label == "4:1:2"

    def test_closed_loop_histogram_round_trips(self):
        # The streaming latency histogram rides inside the closed-loop
        # payload so shard merges keep their percentiles.
        measurement = measure_cell(
            SweepCell(SPEC, RunConfig(cycles=30, seed=5, retry="4"))
        )
        histogram = measurement.latency_histogram
        assert histogram is not None and histogram.count > 0
        restored = measurement_from_payload(measurement_to_payload(measurement))
        assert restored.latency_histogram == histogram
        assert (
            restored.latency_histogram.p50,
            restored.latency_histogram.p95,
            restored.latency_histogram.p99,
        ) == (histogram.p50, histogram.p95, histogram.p99)

    def test_payload_survives_json_bit_identically(self):
        import json

        measurement = measure_cell(SweepCell(SPEC, RunConfig(cycles=30, seed=5)))
        payload = json.loads(json.dumps(measurement_to_payload(measurement)))
        assert measurement_from_payload(payload) == measurement


class TestMeasureCell:
    def test_matches_inline_measure_acceptance(self):
        from repro.api.registry import build_router
        from repro.sim.montecarlo import measure_acceptance

        config = RunConfig(cycles=40, seed=2, traffic="hotspot:0.1")
        via_cell = measure_cell(SweepCell(SPEC, config))
        inline = measure_acceptance(build_router(SPEC, "auto"), config=config)
        assert via_cell == inline


class TestBufferedCells:
    """buffer_depth rides the cell: keys, payloads, measure_cell semantics."""

    def test_buffer_depth_changes_the_key(self):
        base = SweepCell(SPEC, RunConfig(cycles=50, seed=1))
        buffered = SweepCell(SPEC, RunConfig(cycles=50, seed=1, buffer_depth=2))
        deeper = SweepCell(SPEC, RunConfig(cycles=50, seed=1, buffer_depth=4))
        assert len({base.key(), buffered.key(), deeper.key()}) == 3

    def test_unbuffered_keys_are_unchanged_by_the_new_field(self):
        # buffer_depth enters the key only when set: a pre-buffer_depth
        # payload (the field absent entirely) keys identically to a new
        # unbuffered cell, so cached unbuffered results stay reachable.
        cell = SweepCell(SPEC, RunConfig(cycles=50, seed=1))
        legacy = cell.payload()
        del legacy["config"]["buffer_depth"]
        assert SweepCell.from_payload(legacy).key() == cell.key()

    def test_round_trip_with_buffer_depth(self):
        import json

        cell = SweepCell(SPEC, RunConfig(cycles=50, seed=1, buffer_depth=2))
        rewired = SweepCell.from_payload(json.loads(json.dumps(cell.payload())))
        assert rewired == cell
        assert rewired.config.buffer_depth == 2

    def test_buffered_measurement_round_trips_bit_identically(self):
        import json

        cell = SweepCell(SPEC, RunConfig(cycles=60, seed=4, buffer_depth=2))
        measurement = measure_cell(cell)
        payload = json.loads(json.dumps(measurement_to_payload(measurement)))
        assert measurement_from_payload(payload) == measurement

    def test_faulted_buffered_measurement_round_trips(self):
        import json

        spec = NetworkSpec.edn(16, 4, 4, 2, faults=(WireFault(1, 0, 2),))
        cell = SweepCell(spec, RunConfig(cycles=60, seed=4, buffer_depth=2))
        measurement = measure_cell(cell)
        assert measurement.faults == spec.faults
        payload = json.loads(json.dumps(measurement_to_payload(measurement)))
        assert measurement_from_payload(payload) == measurement

    def test_measure_cell_backends_map_to_engines(self):
        fast = measure_cell(
            SweepCell(SPEC, RunConfig(cycles=60, seed=4, buffer_depth=2))
        )
        slow = measure_cell(
            SweepCell(
                SPEC,
                RunConfig(cycles=60, seed=4, buffer_depth=2, backend="reference"),
            )
        )
        assert fast.injected == slow.injected
        assert fast.delivered == slow.delivered
        assert fast.throughput == slow.throughput
        with pytest.raises(ConfigurationError, match="runs no buffered cells"):
            measure_cell(
                SweepCell(
                    SPEC,
                    RunConfig(cycles=60, seed=4, buffer_depth=2, backend="matching"),
                )
            )
        with pytest.raises(ConfigurationError, match="unknown backend"):
            measure_cell(
                SweepCell(
                    SPEC,
                    RunConfig(cycles=60, seed=4, buffer_depth=2, backend="gpu"),
                )
            )
