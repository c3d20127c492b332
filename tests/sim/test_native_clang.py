"""The lane kernel built with clang, where clang is on ``PATH``.

The shuffle the kernel's entry transpose is made of has one spelling per
compiler (``SHUFFLE`` in :mod:`repro.sim.native`): GCC's
``__builtin_shuffle`` and clang's ``__builtin_shufflevector``.  A host
whose ``cc`` is GCC never compiles the clang branch, so this module points
the native backend at clang and runs the lane-kernel boundary examples,
the entry-transpose cases and every routine of the lane library again,
against :class:`CompiledStageRouter` and :class:`StageGraphReference`.  It skips without clang; CI asserts clang is
present before it runs this module, so there it cannot skip silently.
"""

from __future__ import annotations

import shutil

import pytest

from repro.sim import native
from repro.sim.plan import clear_plan_cache

from .test_native_kernel import TestEntryTranspose as _EntryTranspose
from .test_native_kernel import TestLaneKernelBoundaries as _LaneKernelBoundaries

CLANG = shutil.which("clang")

pytestmark = pytest.mark.skipif(CLANG is None, reason="no clang on PATH")


@pytest.fixture(autouse=True)
def built_with_clang(monkeypatch, tmp_path_factory, fresh_native_state):
    """Every probe and lane library of the test built by clang, afresh."""
    monkeypatch.setattr(native, "_compiler", lambda: CLANG)
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path_factory.getbasetemp() / "clang"))
    # Routers find their plans, and the kernels riding them, in the plan
    # cache: start and leave it empty so no GCC kernel serves a test here.
    clear_plan_cache()
    assert native._probe_cc() is None, native._cc_error
    yield
    clear_plan_cache()


class TestLaneKernelBoundariesWithClang(_LaneKernelBoundaries):
    pass


class TestEntryTransposeWithClang(_EntryTranspose):
    pass
