"""Fixtures shared by the simulation tests."""

from __future__ import annotations

import threading
import weakref

import pytest

from repro.api import jobs
from repro.sim import native

#: The per-process state of the native backend and of the cell path, each
#: name with a maker of its fresh value.  A test that builds the C
#: libraries afresh (another compiler, another ``-march``) starts without
#: it, or a library, load-time verdict, scratch buffer or memoized router
#: of the host build would serve it.
FRESH_STATE = {
    native: {
        "_cc_probed": lambda: False,
        "_cc_error": lambda: None,
        "_probe_lib": lambda: None,
        "_lane_libs": dict,
        "_lane_draw_checks": dict,
        "_traffic_structs": weakref.WeakKeyDictionary,
        "_contended": lambda: None,
        "_scratch_local": threading.local,
    },
    jobs: {"_memo": jobs._CellMemo},
}

#: Module state such a test keeps, and why.
KEPT_STATE = {
    native: {
        "_CTYPE": "a constant table",
        "_isa_fingerprints": "keyed by compiler, and a host's ISA does not change",
    },
    jobs: {},
}


@pytest.fixture
def fresh_native_state(monkeypatch):
    """Reset :data:`FRESH_STATE` for the test (restored after it).

    Returns the reset itself, for a fixture that changes how libraries are
    built (the flag ladder, the compiler) and must drop what was built or
    probed before.
    """

    def reset() -> None:
        for module, state in FRESH_STATE.items():
            for name, fresh in state.items():
                monkeypatch.setattr(module, name, fresh())

    reset()
    return reset
