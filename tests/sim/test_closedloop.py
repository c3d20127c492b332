"""Tests for closed-loop retrying sources (RetryPolicy, drive_closed_loop)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registry import build_router
from repro.api.spec import NetworkSpec, RunConfig
from repro.core.exceptions import ConfigurationError
from repro.sim.closedloop import ClosedLoopMeasurement, RetryPolicy, drive_closed_loop
from repro.sim.montecarlo import measure_acceptance
from repro.sim.rng import make_rng
from repro.workloads.registry import make_traffic


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 8
        assert policy.backoff == 0.0 and policy.factor == 2.0

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4", RetryPolicy(4)),
            ("8:1", RetryPolicy(8, 1.0)),
            ("8:1:2", RetryPolicy(8, 1.0, 2.0)),
            ("16:0.5:1.5", RetryPolicy(16, 0.5, 1.5)),
        ],
    )
    def test_parse_grammar(self, text, expected):
        assert RetryPolicy.parse(text) == expected

    @pytest.mark.parametrize("bad", ["", "a", "4:b", "4:1:2:3", "0", "4:-1", "4:1:0.5"])
    def test_parse_rejects_bad_specs(self, bad):
        with pytest.raises(ConfigurationError):
            RetryPolicy.parse(bad)

    def test_label_round_trips(self):
        for text in ("4", "8:1:2", "16:0.5:1.5"):
            policy = RetryPolicy.parse(text)
            assert RetryPolicy.parse(policy.label) == policy

    def test_no_backoff_retries_immediately(self):
        policy = RetryPolicy(8)
        assert [policy.delay_after(k) for k in (1, 2, 5)] == [0, 0, 0]

    def test_exponential_backoff_doubles(self):
        policy = RetryPolicy(8, backoff=1.0, factor=2.0)
        assert [policy.delay_after(k) for k in (1, 2, 3, 4)] == [1, 2, 4, 8]


class TestDriveClosedLoop:
    def _run(self, spec, policy, *, cycles=200, seed=0, traffic="uniform", **kw):
        router = build_router(spec)
        return drive_closed_loop(
            router,
            make_traffic(traffic, router.n_inputs, router.n_outputs),
            policy,
            cycles=cycles,
            rng=make_rng(seed),
            **kw,
        )

    def test_measurement_contract(self):
        result = self._run(NetworkSpec.edn(4, 2, 2, 2), RetryPolicy(4))
        assert isinstance(result, ClosedLoopMeasurement)
        assert result.policy == RetryPolicy(4)
        assert result.cycles == 200
        assert 0 < result.acceptance.point <= 1
        assert result.attempts.point >= 1.0
        assert result.latency.point >= result.attempts.point - 1e-12
        assert result.delivered_messages > 0
        assert result.abandoned >= 0

    def test_attempts_bounded_by_policy(self):
        result = self._run(NetworkSpec.edn(4, 2, 2, 2), RetryPolicy(3))
        assert result.attempts.point <= 3.0

    def test_single_attempt_never_abandons_later(self):
        # max_attempts=1 abandons on first blocking: per-message attempts
        # are exactly 1 and latency exactly 1 for every delivery.
        result = self._run(NetworkSpec.edn(4, 2, 2, 2), RetryPolicy(1))
        assert result.attempts.point == pytest.approx(1.0)
        assert result.latency.point == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        a = self._run(NetworkSpec.edn(8, 2, 4, 2), RetryPolicy(6, 1.0), seed=5)
        b = self._run(NetworkSpec.edn(8, 2, 4, 2), RetryPolicy(6, 1.0), seed=5)
        assert a == b

    def test_abandoned_messages_appear_under_damage(self):
        # Kill a whole first-stage bucket: its sources exhaust attempts.
        from repro.core.faults import WireFault

        faults = tuple(WireFault(1, 0, w) for w in range(8))
        result = self._run(
            NetworkSpec.edn(8, 2, 4, 2, faults=faults), RetryPolicy(2), cycles=100
        )
        assert result.abandoned > 0

    def test_reference_router_outcome_contract(self):
        # The per-message reference engine reports outcomes, not arrays;
        # the driver must read deliveries from either contract.
        spec = NetworkSpec.edn(4, 2, 2, 2)
        router = build_router(spec, "reference")
        result = drive_closed_loop(
            router,
            make_traffic("uniform", router.n_inputs, router.n_outputs),
            RetryPolicy(4),
            cycles=50,
            rng=make_rng(0),
        )
        assert result.delivered_messages > 0

    def test_adaptive_stopping_respects_budget(self):
        result = self._run(
            NetworkSpec.edn(8, 2, 4, 2),
            RetryPolicy(4),
            cycles=5000,
            rel_err=0.05,
            min_cycles=32,
        )
        assert result.converged is True
        assert result.cycles < 5000
        assert result.budget == 5000


class TestMeasureAcceptanceRetry:
    def test_retry_keyword_switches_to_closed_loop(self):
        router = build_router(NetworkSpec.edn(4, 2, 2, 2))
        result = measure_acceptance(router, cycles=50, retry="4")
        assert isinstance(result, ClosedLoopMeasurement)
        assert result.policy == RetryPolicy(4)

    def test_config_retry_wins_over_keyword(self):
        router = build_router(NetworkSpec.edn(4, 2, 2, 2))
        config = RunConfig(cycles=50, retry="2")
        result = measure_acceptance(router, retry="6", config=config)
        assert result.policy == RetryPolicy(2)

    def test_open_loop_unchanged_without_retry(self):
        router = build_router(NetworkSpec.edn(4, 2, 2, 2))
        result = measure_acceptance(router, cycles=50)
        assert not isinstance(result, ClosedLoopMeasurement)

    def test_runconfig_canonicalizes_retry_strings(self):
        config = RunConfig(retry="8:1:2")
        assert config.retry == RetryPolicy(8, 1.0, 2.0)
        assert RunConfig(retry=RetryPolicy(4)).retry == RetryPolicy(4)

    def test_runconfig_rejects_bad_retry(self):
        with pytest.raises(ConfigurationError):
            RunConfig(retry="zero")
        with pytest.raises(ConfigurationError):
            RunConfig(retry=3.5)

    def test_closed_loop_retry_on_faulted_compiled_router(self):
        from repro.core.faults import WireFault

        spec = NetworkSpec.edn(8, 2, 4, 2, faults=(WireFault(1, 0, 0),))
        router = build_router(spec)
        result = measure_acceptance(router, cycles=80, retry="8:1:2", seed=3)
        assert isinstance(result, ClosedLoopMeasurement)
        assert 0 < result.acceptance.point <= 1


class TestRetryStats:
    def test_attempts_and_latency_ratios(self):
        from repro.sim.stats import RetryStats

        stats = RetryStats()
        stats.record_delivery(attempts=3, latency=5)
        stats.record_delivery(attempts=1, latency=1)
        assert stats.ratio == pytest.approx(2.0)
        assert stats.latency.ratio == pytest.approx(3.0)
        assert stats.delivered == 2

    def test_array_recording_matches_scalar(self):
        from repro.sim.stats import RetryStats

        scalar, arrays = RetryStats(), RetryStats()
        attempts, latencies = [2, 1, 4], [3, 1, 9]
        for a, t in zip(attempts, latencies):
            scalar.record_delivery(a, t)
        arrays.record_deliveries(np.array(attempts), np.array(latencies))
        assert scalar.sums == arrays.sums
        assert scalar.latency == arrays.latency
        assert scalar.confidence_interval() == arrays.confidence_interval()
        assert scalar.latency.confidence_interval() == arrays.latency.confidence_interval()
        assert scalar.delivered == arrays.delivered

    def test_abandoned_counter(self):
        from repro.sim.stats import RetryStats

        stats = RetryStats()
        stats.record_abandoned()
        stats.record_abandoned(4)
        assert stats.abandoned == 5
        assert stats.delivered == 0


def test_an_empty_closed_loop_stream_reads_zero_everywhere():
    # No message is ever offered: attempts and latency have no observation,
    # and their points read 0.0, as the latency histogram's mean does (not
    # the 1.0 an empty acceptance ratio reads).
    from repro.api.jobs import SweepCell, measure_cell, measurement_to_payload

    cell = SweepCell(
        NetworkSpec.parse("edn:16,4,4,2"),
        RunConfig(cycles=20, seed=0, retry="4", traffic="uniform:0"),
    )
    result = measure_cell(cell)
    assert result.delivered_messages == 0 and result.latency_histogram.count == 0
    assert result.attempts.point == result.latency.point == 0.0
    assert result.latency_histogram.mean == 0.0
    closed = measurement_to_payload(result)["closed_loop"]
    assert closed["attempts"] == closed["latency"] == [0.0, None, None]
