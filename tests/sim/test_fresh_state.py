"""The ``fresh_native_state`` fixture resets every per-process cache of
:mod:`repro.sim.native` and :mod:`repro.api.jobs`, or the cache is kept on
purpose (``tests/sim/conftest.py``), so a module-level cache added later
cannot leak a host build into a test that rebuilds the libraries."""

from __future__ import annotations

import __future__
import ast
import inspect
import types

import pytest

from repro.api import jobs
from repro.sim import native

from .conftest import FRESH_STATE, KEPT_STATE

_IMMUTABLE = (
    type(None), bool, int, float, str, bytes, tuple, frozenset,
    type(__future__.annotations),
)


def module_state(module) -> set[str]:
    """The names a module rebinds (``global``) or holds mutable values under."""
    rebound = {
        name
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.Global)
        for name in node.names
    }
    held = {
        name
        for name, value in vars(module).items()
        if not name.startswith("__")
        and not callable(value)
        and not isinstance(value, (types.ModuleType, *_IMMUTABLE))
    }
    return rebound | held


@pytest.mark.parametrize("module", list(FRESH_STATE), ids=lambda m: m.__name__)
def test_the_fixture_resets_every_per_process_cache(module):
    fresh, kept = set(FRESH_STATE[module]), set(KEPT_STATE[module])
    assert fresh | kept <= set(vars(module)), "the fixture names state the module lost"
    unreset = module_state(module) - fresh - kept
    assert not unreset, (
        f"{module.__name__} holds per-process state {sorted(unreset)}: reset it in "
        "fresh_native_state (tests/sim/conftest.py), or keep it in KEPT_STATE with a reason"
    )


def test_the_fixture_starts_from_nothing(fresh_native_state):
    assert native._lane_libs == {} and native._lane_draw_checks == {}
    assert not native._cc_probed and native._probe_lib is None and native._contended is None
    assert not hasattr(native._scratch_local, "ws") and len(native._traffic_structs) == 0
    assert jobs._memo._routers == {} and jobs._memo._traffic == {}
