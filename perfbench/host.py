"""Host and provenance record: what produced a run's numbers."""

from __future__ import annotations

import os
import platform
import subprocess
import sys


def _first_line(cmd: list[str]) -> str | None:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = (proc.stdout or proc.stderr).strip().splitlines()
    return lines[0] if proc.returncode == 0 and lines else None


def host_record(root: str) -> dict:
    """Cores, affinity, interpreter, compiler, OpenMP environment, load."""
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        affinity = None
    compiler = None
    for name in ("cc", "gcc", "clang"):
        compiler = _first_line([name, "--version"])
        if compiler:
            compiler = f"{name}: {compiler}"
            break
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "compiler": compiler,
        # None when the checkout is not a git work tree.
        "git_sha": _first_line(["git", "-C", root, "rev-parse", "HEAD"]),
        "omp_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("OMP_")},
        "repro_env": {
            k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")
        },
        "loadavg": list(os.getloadavg()),
    }


def program_record() -> dict:
    """What the program itself resolved to (call in a process that imported it)."""
    import numpy

    from repro.sim import native

    return {
        "numpy": numpy.__version__,
        "native_default_tier": native.default_tier(),
        "native_available_tiers": list(native.available_tiers()),
    }


def resolved_backends(cells) -> dict[str, str]:
    """The backend ``auto`` resolves to for each distinct spec in ``cells``."""
    from repro.api.registry import resolve_backend

    out = {}
    for cell in cells:
        spec = cell.spec
        name = f"{spec.label}/{spec.priority}" + ("/faulted" if spec.faults else "")
        if cell.config.buffer_depth is not None:
            name += "/buffered"
            out.setdefault(name, "compiled (buffered cells bypass the registry)")
        else:
            out.setdefault(name, resolve_backend(spec, cell.config.backend).name)
    return dict(sorted(out.items()))


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one process, in MiB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children(pid: int) -> list[int]:
    """Direct child pids of ``pid`` (Linux ``/proc``)."""
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                found.extend(int(v) for v in fh.read().split())
        except OSError:
            continue
    return found
