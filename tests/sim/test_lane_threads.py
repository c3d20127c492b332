"""Lane-kernel runs split across threads: no test can hang on the helpers.

``repro_lane_counts`` (``_LANE_SOURCE`` in :mod:`repro.sim.native`) cuts a
run of several chunks into ranges of whole chunks, one per thread: the
caller's and the lane library's persistent helper threads.
``tests/sim/test_differential.py`` pins the split's counts bit for bit;
these tests pin the helpers' life cycle and the share of threads a
process takes:

* after a split run, a forked pool worker and a bare ``os.fork`` child
  each run split runs and return the parent's counts, also when forked
  within the spin budget, while a helper still polls its slot;
* no helper thread exists in the parent across a fork (Linux: helper
  threads are named ``repro-lanes`` in ``/proc/self/task``);
* idle helpers park: they stop taking CPU time soon after a run;
* runs back to back (the helper still polling) and runs after a gap
  longer than the budget (the helper parked) get the serial results, and
  so do runs of a process pinned to one CPU, where caller and helper
  poll in turn;
* Python threads running split runs of different plans at once get the
  serial results (a caller that finds the helpers busy routes alone);
* a few seconds of short split runs with random gaps return the serial
  results every time;
* workers of the serve and sweep pools take ``max(1, cores // workers)``
  threads, a process on its own its CPU-affinity count, and a process
  with a share of 1 keeps no helper.

Every wait has a deadline, so a lost wake-up fails its test instead of
stalling the suite.
"""

from __future__ import annotations

import os
import pickle
import random
import select
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.config import EDNParams
from repro.serve.server import start_server_thread
from repro.serve.supervisor import fork_context, supervised_map
from repro.sim import native
from repro.sim.plan import ChunkWorkspace, stage_plan_for
from repro.sim.stagegraph import delta_graph, edn_graph, omega_graph
from repro.workloads.models import HotspotTraffic, UniformTraffic, structured_permutation

#: Seconds any one wait may take.
DEADLINE = 60.0

#: (graph, traffic, batch, chunks): short runs over three int16 plans.
CASES = (
    (omega_graph(256), UniformTraffic(256, 256), 32, 4),
    (
        edn_graph(EDNParams(16, 4, 4, 2)),
        HotspotTraffic(64, 64, rate=0.5, hot_fraction=0.25, hot_output=3),
        13, 5,
    ),
    (delta_graph(4, 4, 3), structured_permutation("bit_reversal", 64, rate=0.75), 32, 3),
)

DRAWS = bool(native.available_tiers()) and native._lane_draws(np.int16)
needs_draws = pytest.mark.skipif(not DRAWS, reason="the lane kernel does not draw here")
linux_only = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="reads /proc/self/task"
)


def one_run(case: int, threads: int, ws=None) -> tuple:
    """Case ``case`` on ``threads`` threads: its sums, blocked totals, end
    state and the threads it used."""
    graph, traffic, batch, chunks = CASES[case]
    kernel = native.kernel_for(stage_plan_for(graph))
    rng = np.random.default_rng(11 + case)
    counts = kernel.drawn_counts(
        traffic.draw_descriptor(), rng, batch, ws or ChunkWorkspace(), chunks,
        _threads=threads,
    )
    state = rng.bit_generator.state["state"]["state"]
    return counts.sums, counts.blocked_by_stage, state, counts.threads


def split_runs(threads: int) -> list:
    """Every case on ``threads`` threads (a pool and fork target)."""
    return [one_run(case, threads) for case in range(len(CASES))]


def counts_of(runs) -> list:
    """Runs without the threads they used."""
    return [run[:3] for run in runs]


def helper_threads() -> int:
    """Lane-kernel helper threads alive in this process."""
    count = 0
    for task in Path("/proc/self/task").iterdir():
        try:
            count += (task / "comm").read_text().strip() == "repro-lanes"
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return count


def helper_cpu() -> dict:
    """CPU seconds (user + system) of each helper thread, by thread id."""
    seconds = {}
    for task in Path("/proc/self/task").iterdir():
        try:
            if (task / "comm").read_text().strip() != "repro-lanes":
                continue
            fields = (task / "stat").read_text().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended meanwhile
            continue
        # Fields 14 and 15 of stat(5), utime and stime, in clock ticks.
        seconds[task.name] = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return seconds


def in_pool_worker(fn, *args, before=None):
    """``fn(*args)`` in a ``fork_context()`` pool worker, within the
    deadline; ``before()``, if given, runs just before the fork."""
    pool = ProcessPoolExecutor(max_workers=1, mp_context=fork_context())
    try:
        if before is not None:
            before()
        # A fork-context pool forks its worker inside the first submit.
        return pool.submit(fn, *args).result(timeout=DEADLINE)
    except TimeoutError:
        for proc in pool._processes.values():  # a hung worker must not outlive the test
            proc.kill()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


def in_fork_child(fn, *args, before=None):
    """``fn(*args)`` in a bare ``os.fork`` child, its result read back
    through a pipe within the deadline; ``before()``, if given, runs just
    before the fork."""
    read, write = os.pipe()
    if before is not None:
        before()
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        os.close(read)
        try:
            reply = ("ok", fn(*args))
        except BaseException:  # noqa: BLE001 - reported to the parent
            reply = ("error", traceback.format_exc())
        with os.fdopen(write, "wb") as out:
            pickle.dump(reply, out)
        os._exit(0)
    os.close(write)
    data, end = b"", time.monotonic() + DEADLINE
    try:
        with os.fdopen(read, "rb") as src:
            while time.monotonic() < end:
                if select.select([src], [], [], max(0.0, end - time.monotonic()))[0]:
                    chunk = os.read(src.fileno(), 1 << 16)
                    if not chunk:
                        break
                    data += chunk
            else:
                os.kill(pid, 9)
                pytest.fail(f"the forked child did not answer within {DEADLINE} s")
    finally:
        os.waitpid(pid, 0)
    status, value = pickle.loads(data)
    assert status == "ok", value
    return value


def bounded(targets) -> list:
    """Run each callable on its own daemon thread; their results, once all
    have ended within the deadline."""
    results = [None] * len(targets)

    def run(i):
        try:
            results[i] = ("ok", targets[i]())
        except BaseException:  # noqa: BLE001 - reported below
            results[i] = ("error", traceback.format_exc())

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(len(targets))]
    for thread in threads:
        thread.start()
    end = time.monotonic() + DEADLINE
    for thread in threads:
        thread.join(max(0.0, end - time.monotonic()))
        assert not thread.is_alive(), f"a thread did not finish within {DEADLINE} s"
    for status, value in results:
        assert status == "ok", value
    return [value for _, value in results]


@needs_draws
def test_forked_children_split_after_the_parent_did():
    want = split_runs(2)  # the parent's helpers start here
    assert [run[3] for run in want] == [2, 2, 2]
    assert counts_of(want) == counts_of(split_runs(1))
    assert in_pool_worker(split_runs, 2) == want
    assert in_fork_child(split_runs, 2) == want
    # Forked within the spin budget of a split run: the prepare handler
    # stops a helper that still polls its slot.
    assert in_pool_worker(split_runs, 2, before=lambda: one_run(0, 2)) == want
    assert in_fork_child(split_runs, 2, before=lambda: one_run(0, 2)) == want


def _child_helpers() -> tuple:
    """Helpers at a forked child's start, its split runs, helpers after."""
    before = helper_threads()
    runs = split_runs(2)
    return before, runs, helper_threads()


@needs_draws
@linux_only
def test_no_helper_lives_across_a_fork():
    want = split_runs(3)
    assert helper_threads() >= 2
    before, runs, after = in_fork_child(_child_helpers)
    # The fork's prepare handler joined every helper of every lane library,
    # and nothing has run a split in the parent since.
    assert helper_threads() == 0
    assert (before, counts_of(runs)) == (0, counts_of(want)) and after >= 1
    assert counts_of(split_runs(2)) == counts_of(want) and helper_threads() >= 1


@needs_draws
@linux_only
def test_idle_helpers_park():
    split_runs(2)
    before = helper_cpu()
    assert before
    time.sleep(0.5)
    after = helper_cpu()
    # A helper polls for a fraction of a millisecond after its last range,
    # then sleeps; one that kept polling would take the whole half second.
    grown = {tid: after.get(tid, spent) - spent for tid, spent in before.items()}
    assert max(grown.values()) < 0.02, grown


@needs_draws
def test_runs_back_to_back_and_after_the_helpers_parked():
    serial = counts_of(split_runs(1))

    def loop():
        # No gap: the helper still polls when the next run posts.  5 ms:
        # past the spin budget, so each run wakes a parked helper.
        for gap in (0.0, 0.005):
            for _ in range(20):
                runs = split_runs(2)
                assert counts_of(runs) == serial and {run[3] for run in runs} == {2}
                time.sleep(gap)

    bounded([loop])


_PINNED = """
import os
import numpy as np
from repro.sim import native
from repro.sim.plan import ChunkWorkspace, stage_plan_for
from repro.sim.stagegraph import omega_graph
from repro.workloads.models import UniformTraffic

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
kernel = native.kernel_for(stage_plan_for(omega_graph(256)))
draws, ws = UniformTraffic(256, 256).draw_descriptor(), ChunkWorkspace()


def run(threads):
    counts = kernel.drawn_counts(
        draws, np.random.default_rng(7), 32, ws, 4, _threads=threads
    )
    return counts.sums, counts.blocked_by_stage, counts.threads


serial = run(1)
for i in range(50):
    got = run(2)
    assert got[:2] == serial[:2] and got[2] == 2, (i, got, serial)
print("ok")
"""


@needs_draws
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_split_runs_on_one_cpu():
    # Caller and helper share the CPU: each polls only for the spin
    # budget before it sleeps and lets the other run.
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _PINNED], env=env, capture_output=True,
        text=True, timeout=DEADLINE,
    )
    assert out.returncode == 0 and out.stdout.split() == ["ok"], out.stderr


@needs_draws
def test_concurrent_callers_get_the_serial_results():
    serial = counts_of(split_runs(1))

    def caller(case):
        def work():
            ws = ChunkWorkspace()
            runs = [one_run(case, 2, ws) for _ in range(60)]
            assert [run[:3] for run in runs] == [serial[case]] * len(runs)
            return {run[3] for run in runs}
        return work

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # More callers than cores, over every plan at once.
        used = bounded([caller(i % len(CASES)) for i in range(4)])
    finally:
        sys.setswitchinterval(switch)
    assert set().union(*used) <= {1, 2}


@needs_draws
def test_short_split_runs_with_random_gaps():
    serial = counts_of(split_runs(1))

    def loop():
        rnd, ws = random.Random(2024), ChunkWorkspace()
        runs, end = 0, time.monotonic() + 3.0
        while time.monotonic() < end:
            case = rnd.randrange(len(CASES))
            got = one_run(case, rnd.randint(2, 4), ws)
            assert got[:3] == serial[case] and got[3] > 1, (runs, got)
            runs += 1
            time.sleep(rnd.choice((0.0, 0.0, 1e-5, 1e-4, 1e-3)))
        return runs

    (runs,) = bounded([loop])
    assert runs > 100


def worker_report(_payload=None) -> tuple:
    """A pool worker's share, and the threads an unforced run of four
    chunks used there (``None`` where the lane kernel does not draw)."""
    share = native.lane_share()
    if not native._lane_draws(np.int16):
        return share, None
    graph, traffic, batch, chunks = CASES[0]
    router = native.NativeStageRouter(graph)
    counts = router.draw_batch_counts(traffic, np.random.default_rng(3), batch, chunks)
    return share, counts.threads


def expected_report(workers: int) -> tuple:
    share = max(1, len(os.sched_getaffinity(0)) // workers)
    return share, min(CASES[0][3], share) if DRAWS else None


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_a_server_pool_worker_takes_its_share():
    handle = start_server_thread(workers=2)
    try:
        report = handle.server._pool.submit(worker_report).result(timeout=DEADLINE)
    finally:
        handle.stop()
    assert report == expected_report(2)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_a_sweep_pool_worker_takes_its_share():
    reports, retried = supervised_map(worker_report, [0, 1], jobs=2, timeout=DEADLINE)
    assert reports == [expected_report(2)] * 2 and retried == ()


_ALONE = """
import os, sys
from repro.sim import native
if sys.argv[1:] == ["one"]:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
print(native.lane_share(), len(os.sched_getaffinity(0)))
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
@pytest.mark.parametrize("cpus", ["all", "one"])
def test_a_process_on_its_own_takes_its_affinity_count(cpus):
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _ALONE, cpus], env=env, capture_output=True,
        text=True, timeout=DEADLINE, check=True,
    ).stdout.split()
    share, affinity = map(int, out)
    assert share == affinity
    if cpus == "one":
        assert share == 1


_SHARE_ONE = """
import os
from pathlib import Path
from repro.api import NetworkSpec, RunConfig
from repro.api.jobs import SweepCell, measure_cell
from repro.sim import native

native.take_pool_share(os.cpu_count())
measure_cell(SweepCell(NetworkSpec.parse("omega:256"),
                       RunConfig(cycles=64, seed=1, traffic="uniform")))
names = [(task / "comm").read_text().strip() for task in Path("/proc/self/task").iterdir()]
print(native.lane_share(), names.count("repro-lanes"))
"""


@needs_draws
@linux_only
def test_a_process_with_a_share_of_one_keeps_no_helper():
    # Its first label cell runs the load-time check, which splits a run on
    # two threads; no run of the process itself would use the helper.
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _SHARE_ONE], env=env, capture_output=True,
        text=True, timeout=DEADLINE, check=True,
    ).stdout.split()
    assert out == ["1", "0"]
