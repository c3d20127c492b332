"""Payload bytes do not depend on which OpenBLAS kernel the host runs.

A ``DYNAMIC_ARCH`` OpenBLAS picks its kernels by CPU at run time, and
the kernels sum in different orders, so float statistics that pass
through BLAS (a dot product, say) can differ in the last bit between an
AVX2 and an AVX-512 host.  ``OPENBLAS_CORETYPE`` forces a kernel in one
process.  This test measures the same cells and seeded statistic streams
in a subprocess per kernel the CPU supports and requires equal bytes:

* acceptance cells with a chunk that is not a power of two (36 cycles),
  label and random priority;
* buffered cells over four families, two depths and two workloads;
* one closed-loop cell with its latency histogram;
* the intervals of seeded integer streams pushed in 36-cycle chunks,
  pair by pair, and as merged shards.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

#: Kernels to force, each with the ``/proc/cpuinfo`` flag it needs
#: (``None``: every x86_64 CPU runs it).
KERNELS = (("SkylakeX", "avx512f"), ("Haswell", "avx2"),
           ("Sandybridge", "avx"), ("Nehalem", None))

SCRIPT = r'''
import ctypes, glob, json, os, sys
import numpy as np
from repro.api import NetworkSpec, RunConfig
from repro.api.jobs import SweepCell, measure_cell, measurement_to_payload
from repro.serve.protocol import encode_message
from repro.sim.stats import RatioStats


def corename():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown"


def canonical(measurement):
    """The payload's wire form, one JSON line."""
    payload = measurement_to_payload(measurement)
    return encode_message(json.loads(encode_message(payload))).decode()


def cell(text, priority="label", **config):
    return SweepCell(NetworkSpec.parse(text, priority=priority), RunConfig(**config))


cells = []
for i, text in enumerate(("delta:4,4,3", "omega:64", "edn:16,4,4,2", "dilated:256,4,2")):
    for priority in ("label", "random"):
        cells.append(cell(text, priority, cycles=108, batch=36, seed=10 + i,
                          traffic="hotspot:0.1" if i % 2 else "uniform"))
buffered = ("delta:4,4,3", "omega:64", "edn:16,4,4,2", "dilated:64,4,2",
            "delta:4,4,4", "omega:256", "edn:16,4,4,3")
for i, text in enumerate(buffered):
    n = NetworkSpec.parse(text).n_inputs
    for depth, traffic in ((2, "uniform:0.4"), (4, f"hotspot:{0.5 / (n * 0.3):.5f},rate=0.3")):
        cells.append(cell(text, cycles=100, seed=20 + i, traffic=traffic, buffer_depth=depth))
cells.append(cell("edn:16,4,4,2", cycles=150, seed=5, retry="6:1:2"))
for c in cells:
    print(canonical(measure_cell(c)), end="")

rng = np.random.default_rng(2024)
for _ in range(300):
    dens = rng.integers(0, 4097, size=108)
    nums = rng.binomial(dens, rng.uniform(0.3, 0.9))
    chunked, paired, sharded = RatioStats(), RatioStats(), RatioStats()
    for lo in range(0, 108, 36):
        chunked.push_many(nums[lo:lo + 36], dens[lo:lo + 36])
    for x, y in zip(nums.tolist(), dens.tolist()):
        paired.push(x, y)
    for lo in (96, 64, 32, 0):
        shard = RatioStats()
        shard.push_many(nums[lo:lo + 32], dens[lo:lo + 32])
        sharded.merge(shard)
    intervals = (acc.confidence_interval() for acc in (chunked, paired, sharded))
    print(*(float(v).hex() for i in intervals for v in (i.point, i.low, i.high)))
print(corename(), file=sys.stderr)
'''


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _cpu_flags() -> set[str]:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("flags"):
                return set(line.split(":", 1)[1].split())
    return set()


def _run(coretype: str | None) -> tuple[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        check=True, timeout=240,
    )
    return proc.stdout, proc.stderr.strip().splitlines()[-1]


@pytest.mark.skipif(platform.machine() != "x86_64", reason="x86_64 kernels only")
@pytest.mark.skipif(not _dynamic_openblas(), reason="NumPy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
def test_payloads_equal_under_every_kernel():
    flags = _cpu_flags()
    forced = [name for name, flag in KERNELS if flag is None or flag in flags]
    reference, _ = _run(None)
    assert reference.count("\n") == 8 + 14 + 1 + 300
    for coretype in forced:
        out, core = _run(coretype)
        # The forced kernel really ran (the name is "unknown" when the
        # library exports no corename call).
        assert core in (coretype, "unknown"), (coretype, core)
        assert out == reference, coretype
