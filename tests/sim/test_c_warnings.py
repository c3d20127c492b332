"""Every C source of :mod:`repro.sim.native` builds clean under
``-Wall -Wextra -Werror``.

A warning in a kernel is often a real fault (a value read before it is
set, a signed/unsigned mix-up), and a source that warns cannot move to a
stricter build.  Each source is compiled with every compile command of
the flag ladder (``_build_commands``: ``-march=native``, then portable),
by every distinct compiler on ``PATH`` (``cc``, ``gcc``, ``clang``).  The
lane kernel builds once per wire type: each has its own vector widths.
The module skips without a compiler.
"""

from __future__ import annotations

import os
import shutil
import subprocess

import pytest

from repro.sim import native

#: Every distinct compiler on PATH, by resolved path.
COMPILERS = sorted({
    os.path.realpath(found)
    for found in map(shutil.which, ("cc", "gcc", "clang"))
    if found
})

SOURCES = {
    **{f"lane_{ctype}": (lambda ctype=ctype: native._lane_source(ctype))
       for ctype in ("int16_t", "int32_t", "int64_t")},
    "contended": lambda: native._CONTENDED_SOURCE,
    "probe": lambda: native._C_PROBE,
}

pytestmark = pytest.mark.skipif(not COMPILERS, reason="no cc, gcc or clang on PATH")


@pytest.mark.parametrize("compiler", COMPILERS, ids=os.path.basename)
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_the_source_builds_without_warnings(name, compiler, tmp_path):
    source = tmp_path / f"{name}.c"
    source.write_text(SOURCES[name]())
    for command in native._build_commands(compiler):
        proc = subprocess.run(
            [*command, "-Wall", "-Wextra", "-Werror", str(source),
             "-o", str(tmp_path / f"{name}.so")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, (command, proc.stderr)
