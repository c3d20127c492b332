"""End-to-end service tests: bit-identity, dedupe, supervision, streaming.

Every test runs a real :class:`SimulationServer` on a background thread
(ephemeral port) and talks to it over the actual socket protocol.  The
worker-death and stall tests monkeypatch ``repro.serve.server.measure_cell``
in the *parent*: pool workers fork lazily on first submit, so they inherit
the patched module state — the same marker-file technique the
ParallelSweep suite uses.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import threading
import time

import pytest

import repro.serve.server as server_mod
from repro.api.jobs import SweepCell, measure_cell
from repro.api.spec import NetworkSpec, RunConfig
from repro.experiments.parallel import ParallelSweep
from repro.serve.client import ServiceClient, ServiceError
from repro.serve.server import start_server_thread

#: Env var pointing forked workers at the per-test scratch directory.
_SCRATCH = "REPRO_TEST_SERVE_SCRATCH"

SPEC = NetworkSpec.edn(16, 4, 4, 2)

_REAL_MEASURE_CELL = measure_cell


def _grid(cycles=40, seeds=(0, 1, 2)):
    return [
        SweepCell(spec, RunConfig(cycles=cycles, seed=seed, traffic=traffic))
        for spec in (SPEC, NetworkSpec.parse("delta:4,4,2"))
        for seed, traffic in zip(seeds, ("uniform", "hotspot:0.1", "bitrev"))
    ]


def _kill_once_measure_cell(cell, *, progress=None):
    # Fork-inherited stand-in for measure_cell: SIGKILL this worker the
    # first time the marked cell arrives, compute faithfully otherwise.
    if cell.config.seed == 3:
        marker = pathlib.Path(os.environ[_SCRATCH]) / "killed"
        if not marker.exists():
            marker.write_text("killed")
            os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_MEASURE_CELL(cell, progress=progress)


def _stall_once_measure_cell(cell, *, progress=None):
    # Stall (past shard_timeout) the first time the marked cell arrives,
    # spinning on a stop file so the abandoned worker exits after the test.
    if cell.config.seed == 2:
        base = pathlib.Path(os.environ[_SCRATCH])
        marker = base / "stalled"
        if not marker.exists():
            marker.write_text("stalled")
            for _ in range(600):
                if (base / "stop").exists():
                    break
                time.sleep(0.05)
    return _REAL_MEASURE_CELL(cell, progress=progress)


@pytest.fixture
def server():
    handle = start_server_thread(workers=2)
    yield handle
    handle.stop()


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_service_matches_inline_across_worker_counts(self, workers):
        cells = _grid()
        expected = [measure_cell(cell) for cell in cells]
        handle = start_server_thread(workers=workers)
        try:
            with ServiceClient(handle.address) as client:
                assert client.run(cells) == expected
        finally:
            handle.stop()

    def test_adaptive_and_closed_loop_cells_match_inline(self, server):
        cells = [
            SweepCell(SPEC, RunConfig(cycles=300, seed=4, rel_err=0.1)),
            SweepCell(SPEC, RunConfig(cycles=40, seed=5, retry="4:1:2")),
        ]
        expected = [measure_cell(cell) for cell in cells]
        with ServiceClient(server.address) as client:
            assert client.run(cells) == expected


class TestDedupe:
    def test_repeat_submission_hits_cache_byte_identically(self, server):
        cells = _grid()
        with ServiceClient(server.address) as client:
            first = client.submit(cells)
            second = client.submit(cells)
            stats = client.status()
        assert all(not r.cached for r in first)
        assert all(r.cached and r.worker is None for r in second)
        # Hits are replayed from the stored encoded bytes, so the decoded
        # measurements (and their canonical JSON) are identical.
        assert [r.measurement for r in second] == [r.measurement for r in first]
        assert stats["cells"]["computed"] == len(cells)
        assert stats["cells"]["cached"] == len(cells)
        assert stats["result_cache"]["hits"] == len(cells)
        assert stats["dedupe_rate"] == pytest.approx(0.5)

    def test_duplicates_within_one_job_compute_once(self, server):
        cell = SweepCell(SPEC, RunConfig(cycles=40, seed=0))
        alias = SweepCell(  # same content key, different spelling
            NetworkSpec.parse("edn:16,4,4,2"), RunConfig(cycles=40, seed=0)
        )
        with ServiceClient(server.address) as client:
            results = client.submit([cell, alias, cell])
            stats = client.status()
        assert len({r.key for r in results}) == 1
        assert results[0].measurement == results[1].measurement == results[2].measurement
        assert stats["cells"]["computed"] == 1
        assert stats["cells"]["deduped_in_job"] == 2

    def test_concurrent_clients_share_computations(self, server):
        # Two clients submit the identical grid at once: however the race
        # lands (coalesced in flight or answered from cache), the server
        # computes each unique cell exactly once and both get full results.
        cells = _grid(cycles=120)
        outcomes = {}
        barrier = threading.Barrier(2)

        def submit(name):
            with ServiceClient(server.address) as client:
                barrier.wait()
                outcomes[name] = client.run(cells)

        threads = [
            threading.Thread(target=submit, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes["a"] == outcomes["b"]
        with ServiceClient(server.address) as client:
            stats = client.status()
        assert stats["cells"]["computed"] == len(cells)
        assert (
            stats["cells"]["cached"] + stats["cells"]["coalesced"] == len(cells)
        )


class TestSupervision:
    def test_sigkilled_worker_cell_is_resubmitted(self, tmp_path, monkeypatch):
        # The killer replaces measure_cell BEFORE the pool's workers fork
        # (they fork lazily on first submit), so the worker that draws
        # seed 3 SIGKILLs itself mid-job exactly once.
        monkeypatch.setenv(_SCRATCH, str(tmp_path))
        monkeypatch.setattr(server_mod, "measure_cell", _kill_once_measure_cell)
        cells = [SweepCell(SPEC, RunConfig(cycles=40, seed=seed)) for seed in range(6)]
        expected = [_REAL_MEASURE_CELL(cell) for cell in cells]
        handle = start_server_thread(workers=2)
        try:
            with ServiceClient(handle.address) as client:
                results = client.run(cells)
                stats = client.status()
        finally:
            handle.stop()
        assert results == expected
        assert (tmp_path / "killed").exists()
        assert stats["workers"]["pool_rebuilds"] >= 1
        assert stats["cells"]["resubmitted"] >= 1
        assert stats["cells"]["failed"] == 0

    def test_stalled_worker_cell_is_resubmitted_after_timeout(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(_SCRATCH, str(tmp_path))
        monkeypatch.setattr(server_mod, "measure_cell", _stall_once_measure_cell)
        cells = [SweepCell(SPEC, RunConfig(cycles=40, seed=seed)) for seed in range(4)]
        expected = [_REAL_MEASURE_CELL(cell) for cell in cells]
        handle = start_server_thread(workers=2, shard_timeout=1.0)
        try:
            with ServiceClient(handle.address) as client:
                results = client.run(cells)
                stats = client.status()
        finally:
            (tmp_path / "stop").write_text("done")  # release the spinner
            handle.stop()
        assert results == expected
        assert stats["workers"]["pool_rebuilds"] >= 1
        assert stats["cells"]["resubmitted"] >= 1
        assert stats["cells"]["failed"] == 0


class TestStreaming:
    def test_adaptive_cells_stream_partials(self, server):
        # A deliberately slow-to-converge adaptive cell: its chunk
        # boundaries must surface as partial messages while it runs.
        cell = SweepCell(
            SPEC, RunConfig(cycles=60_000, seed=0, batch=16, rel_err=0.002)
        )
        partials = []
        with ServiceClient(server.address) as client:
            (result,) = client.submit([cell], on_partial=partials.append)
            stats = client.status()
        assert partials, "no partial messages streamed"
        cycles_seen = [message["cycles"] for message in partials]
        assert cycles_seen == sorted(cycles_seen)
        assert cycles_seen[-1] <= 60_000
        for message in partials:
            assert message["key"] == result.key
            point, low, high = message["acceptance"]
            assert 0.0 <= low <= point <= high <= 1.0
        assert stats["partials_streamed"] >= len(partials)


class TestProtocolEdges:
    def test_invalid_cell_fails_alone(self, server):
        good = SweepCell(SPEC, RunConfig(cycles=40, seed=0))
        with ServiceClient(server.address) as client:
            client._send({
                "type": "submit", "job_id": "mixed",
                "cells": [{"spec": {"kind": "nope"}, "config": {}}, good.payload()],
            })
            events = []
            while True:
                message = client._recv()
                events.append(message)
                if message["type"] == "done":
                    break
        kinds = [event["type"] for event in events]
        assert kinds.count("error") == 1
        assert kinds.count("result") == 1
        error = next(event for event in events if event["type"] == "error")
        assert error["indices"] == [0]
        result = next(event for event in events if event["type"] == "result")
        assert result["indices"] == [1]
        done = events[-1]
        assert done["failed"] == 1 and done["computed"] == 1

    def test_failed_cells_raise_service_error_after_drain(self, tmp_path, monkeypatch):
        # Kill-every-attempt cell: the ledger gives up after
        # max_poison_attempts, the cell is quarantined, and the client
        # raises — but only after the healthy cells land.
        monkeypatch.setenv(_SCRATCH, str(tmp_path / "never-written"))

        def kill_always(cell, *, progress=None):
            if cell.config.seed == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return _REAL_MEASURE_CELL(cell, progress=progress)

        monkeypatch.setattr(server_mod, "measure_cell", kill_always)
        cells = [SweepCell(SPEC, RunConfig(cycles=40, seed=seed)) for seed in (1, 3)]
        handle = start_server_thread(workers=1)
        try:
            with ServiceClient(handle.address) as client:
                with pytest.raises(ServiceError, match="quarantined"):
                    client.submit(cells)
        finally:
            handle.stop()

    def test_empty_job_is_rejected(self, server):
        with ServiceClient(server.address) as client:
            client._send({"type": "submit", "job_id": "empty", "cells": []})
            message = client._recv()
        assert message["type"] == "error"
        assert "non-empty" in message["message"]

    def test_unknown_message_type_errors(self, server):
        with ServiceClient(server.address) as client:
            client._send({"type": "frobnicate"})
            message = client._recv()
        assert message["type"] == "error"
        assert "frobnicate" in message["message"]


class TestObservability:
    def test_stats_shape_and_plan_cache_visibility(self, server):
        cells = _grid()
        with ServiceClient(server.address) as client:
            client.run(cells)
            stats = client.status()
        assert stats["type"] == "stats"
        assert stats["address"] == server.address
        assert stats["workers"]["configured"] == 2
        assert 0.0 <= stats["workers"]["utilization"] <= 1.0
        assert stats["queue_depth"] >= 0
        assert stats["jobs"] == {"submitted": 1, "completed": 1}
        assert 0.0 <= stats["dedupe_rate"] <= 1.0
        assert stats["result_cache"]["size"] == len(cells)
        per_worker = stats["plan_cache"]["per_worker"]
        assert per_worker, "no per-worker plan-cache info reported"
        for info in per_worker.values():
            assert info["size"] >= 1  # each worker compiled at least one plan
        # The whole snapshot is wire-clean JSON.
        json.dumps(stats)

    def test_shutdown_message_stops_the_server(self):
        handle = start_server_thread(workers=1)
        with ServiceClient(handle.address) as client:
            client.shutdown_server()
        handle.thread.join(timeout=10.0)
        assert not handle.thread.is_alive()


class TestParallelSweepIntegration:
    def test_map_cells_via_service_matches_local(self, server):
        cells = _grid()
        local = ParallelSweep(jobs=1).map_cells(cells)
        remote_sweep = ParallelSweep(jobs=2, service=server.address)
        assert remote_sweep.map_cells(cells) == local
        assert remote_sweep.last_retried == ()

    def test_workload_matrix_experiment_via_service_matches_inline(self, server):
        # The registry threads ``service`` through to the experiment grid;
        # the table the service produces must equal the inline one.
        from repro.experiments.registry import run_experiment

        config = RunConfig(cycles=30, seed=1, traffic="uniform")
        inline = run_experiment("workload_matrix", config=config)
        served = run_experiment(
            "workload_matrix", config=config, service=server.address
        )
        assert served.tables == inline.tables
        assert served.series == inline.series

    def test_from_config_threads_service(self, server):
        config = RunConfig(jobs=2, service=server.address, shard_timeout=60.0)
        sweep = ParallelSweep.from_config(config)
        assert sweep.service == server.address
        assert sweep.shard_timeout == 60.0
        cells = [SweepCell(SPEC, RunConfig(cycles=40, seed=9))]
        assert sweep.map_cells(cells) == [measure_cell(cells[0])]


class TestQuarantine:
    def test_poison_cell_quarantined_siblings_byte_identical(
        self, tmp_path, monkeypatch
    ):
        # The poison cell (kill on every attempt, including the solo
        # probe) must be quarantined after max_poison_attempts while its
        # sibling cells — whose workers die as collateral — still land
        # byte-identically to the inline run.
        monkeypatch.setenv(_SCRATCH, str(tmp_path))

        def kill_always(cell, *, progress=None):
            if cell.config.seed == 13:
                os.kill(os.getpid(), signal.SIGKILL)
            return _REAL_MEASURE_CELL(cell, progress=progress)

        monkeypatch.setattr(server_mod, "measure_cell", kill_always)
        siblings = [
            SweepCell(SPEC, RunConfig(cycles=40, seed=seed)) for seed in (0, 1, 2)
        ]
        poison = SweepCell(SPEC, RunConfig(cycles=40, seed=13))
        expected = [_REAL_MEASURE_CELL(cell) for cell in siblings]
        handle = start_server_thread(workers=2, max_poison_attempts=2)
        try:
            with ServiceClient(handle.address) as client:
                results = client.submit(
                    siblings + [poison], tolerate_failures=True
                )
                stats = client.status()
        finally:
            handle.stop()
        assert [r.measurement for r in results[:3]] == expected
        assert all(not r.quarantined for r in results[:3])
        bad = results[3]
        assert bad.quarantined and bad.measurement is None
        assert "quarantined after 2 attempts" in bad.error
        assert stats["cells"]["quarantined"] == 1
        assert stats["quarantine"]["size"] == 1
        assert stats["quarantine"]["max_poison_attempts"] == 2

    def test_quarantined_key_answers_instantly_on_resubmit(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(_SCRATCH, str(tmp_path))

        def kill_always(cell, *, progress=None):
            if cell.config.seed == 13:
                os.kill(os.getpid(), signal.SIGKILL)
            return _REAL_MEASURE_CELL(cell, progress=progress)

        monkeypatch.setattr(server_mod, "measure_cell", kill_always)
        poison = SweepCell(SPEC, RunConfig(cycles=40, seed=13))
        handle = start_server_thread(workers=1, max_poison_attempts=2)
        try:
            with ServiceClient(handle.address) as client:
                first = client.submit([poison], tolerate_failures=True)
                rebuilds_after_first = client.status()["workers"]["pool_rebuilds"]
                second = client.submit([poison], tolerate_failures=True)
                stats = client.status()
        finally:
            handle.stop()
        assert first[0].quarantined and second[0].quarantined
        # The resubmission burned zero additional workers.
        assert stats["workers"]["pool_rebuilds"] == rebuilds_after_first
        assert stats["cells"]["quarantined"] == 1  # quarantined once, not twice

    def test_innocent_cell_survives_collateral_charges(
        self, tmp_path, monkeypatch
    ):
        # A healthy cell whose retry budget is exhausted purely by pool
        # deaths it did not cause must pass the solo probe and deliver,
        # not be quarantined.
        monkeypatch.setenv(_SCRATCH, str(tmp_path))

        def kill_often(cell, *, progress=None):
            if cell.config.seed == 13:
                marker = pathlib.Path(os.environ[_SCRATCH])
                for slot in range(2):
                    path = marker / f"kill.{slot}"
                    try:
                        path.touch(exist_ok=False)
                    except FileExistsError:
                        continue
                    os.kill(os.getpid(), signal.SIGKILL)
            return _REAL_MEASURE_CELL(cell, progress=progress)

        monkeypatch.setattr(server_mod, "measure_cell", kill_often)
        innocent = SweepCell(SPEC, RunConfig(cycles=40, seed=0))
        killer = SweepCell(SPEC, RunConfig(cycles=40, seed=13))
        expected = _REAL_MEASURE_CELL(innocent)
        handle = start_server_thread(workers=1, max_poison_attempts=2)
        try:
            with ServiceClient(handle.address) as client:
                results = client.submit([innocent, killer], tolerate_failures=True)
        finally:
            handle.stop()
        assert results[0].measurement == expected
        assert not results[0].quarantined
        # The killer only dies twice, so it recovers too (on pool or probe).
        assert results[1].measurement == expected or results[1].measurement is not None


class TestReconnectResume:
    def test_client_resumes_after_connection_drop(self, server):
        from repro.serve.chaos import DroppingClient

        cells = _grid()
        expected = [measure_cell(cell) for cell in cells]
        client = DroppingClient(
            server.address, drop_after=3, times=1, max_reconnects=2
        )
        with client:
            results = client.submit(cells)
        assert [r.measurement for r in results] == expected
        assert client.reconnects == 1
        assert 0 < client.resubmissions <= len(cells)

    def test_drop_without_reconnect_budget_raises(self, server):
        from repro.serve.chaos import DroppingClient
        from repro.serve.client import ConnectionLost

        cells = _grid()
        client = DroppingClient(server.address, drop_after=2, times=1)
        with pytest.raises(ConnectionLost):
            with client:
                client.submit(cells)


def _run_one_cell(cell_payload):
    server_mod._run_cell(("key", cell_payload))


class TestProgressCheckpoints:
    def test_worker_exits_though_a_killed_sibling_holds_the_write_lock(
        self, monkeypatch
    ):
        # A worker SIGKILLed while its feeder thread sends a checkpoint
        # leaves the progress queue's shared write lock held for good.
        # Checkpoints are best-effort, so another worker must still exit
        # rather than wait forever at exit to flush its own.
        from repro.serve.supervisor import fork_context

        ctx = fork_context()
        queue = ctx.Queue()
        queue._wlock.acquire()
        monkeypatch.setattr(server_mod, "_PROGRESS_QUEUE", queue)
        cell = SweepCell(SPEC, RunConfig(cycles=64, seed=0, batch=4))
        worker = ctx.Process(target=_run_one_cell, args=(cell.payload(),))
        worker.start()
        worker.join(20)
        try:
            assert worker.exitcode == 0
        finally:
            if worker.is_alive():
                worker.kill()
                worker.join()
            queue._wlock.release()
            queue.close()
