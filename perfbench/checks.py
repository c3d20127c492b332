"""Output checks, run off the clock.

* :func:`recheck` recomputes a seeded sample of cells through an
  independent engine and requires a bit-identical measurement payload:
  the per-cycle ``vectorized`` interpreter for acceptance cells (at the
  chunk size ``auto`` used, so traffic streams line up), the per-packet
  ``reference`` engine for buffered cells.
* :func:`model_error` compares uniform label-priority delta cells with
  Patel's analytic acceptance (``repro.core.analysis.delta_acceptance``),
  the model-validation statement.
"""

from __future__ import annotations

import json
from dataclasses import replace


def canonical(payload: dict) -> str:
    """The wire form of a payload as a client receives it.

    A payload crosses the wire as JSON, which turns integer dict keys
    (latency histogram bins) into strings; one JSON round trip puts a
    locally computed payload into that same form before comparing bytes.
    """
    from repro.serve.protocol import encode_message

    return encode_message(json.loads(encode_message(payload))).decode()


def encode(measurement) -> str:
    from repro.api.jobs import measurement_to_payload

    return canonical(measurement_to_payload(measurement))


def independent(cell):
    """The same cell on the independent engine of its discipline."""
    from repro.api.jobs import SweepCell
    from repro.api.registry import build_router

    config = cell.config
    if config.buffer_depth is not None:
        return SweepCell(cell.spec, replace(config, backend="reference"))
    batch = config.batch or build_router(cell.spec, config.backend).preferred_batch()
    return SweepCell(cell.spec, replace(config, backend="vectorized", batch=batch))


def recheck(sample) -> list[dict]:
    """``sample`` is ``[(cell, encoded measurement)]``; returns the mismatches."""
    from repro.api.jobs import measure_cell

    bad = []
    for cell, encoded in sample:
        other = encode(measure_cell(independent(cell)))
        if other != encoded:
            bad.append({"cell": cell.payload(), "got": encoded, "independent": other})
    return bad


def model_error(measured) -> dict | None:
    """Simulated minus analytic acceptance over uniform label delta cells."""
    from repro.core.analysis import delta_acceptance

    errors = []
    for cell, measurement in measured:
        spec, config = cell.spec, cell.config
        if (spec.kind != "delta" or spec.priority != "label" or spec.faults
                or config.buffer_depth is not None
                or (config.traffic or "uniform") != "uniform"):
            continue
        a, b, l = spec.delta_shape
        errors.append(measurement.acceptance.point - delta_acceptance(a, b, l, 1.0))
    if not errors:
        return None
    return {
        "model": "repro.core.analysis.delta_acceptance (Patel), full-rate uniform",
        "cells": len(errors),
        "mean_error": sum(errors) / len(errors),
        "max_abs_error": max(abs(e) for e in errors),
    }
