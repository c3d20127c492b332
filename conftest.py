"""Suite-wide hang guard for ``tests/`` and ``benchmarks/``.

No test may stall the run.  If one test (setup, call and teardown) outlives
:data:`TEST_DEADLINE_S`, every thread's stack is dumped to the terminal and
the process exits, so a deadlock fails fast and says where it is.  This is
the effect of a per-test ``timeout`` marker using only the stdlib.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

#: Seconds one test may take; the slowest tests take well under a minute.
TEST_DEADLINE_S = 300

_stderr_fd: int | None = None


def pytest_configure(config):
    global _stderr_fd
    # Output capture is suspended while plugins configure, so this is the
    # terminal's stderr rather than a capture file the dump would vanish in.
    _stderr_fd = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    global _stderr_fd
    if _stderr_fd is not None:
        os.close(_stderr_fd)
        _stderr_fd = None


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_DEADLINE_S, exit=True, file=_stderr_fd)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
