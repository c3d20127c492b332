"""Wire protocol of the simulation service: JSON lines over a stream.

Deliberately boring: every message is one JSON object on one
``\\n``-terminated line (UTF-8, no embedded newlines — ``json.dumps``
escapes them), over TCP or a Unix domain socket.  Any language (or
``nc``) can speak it; both sides process messages strictly in order.

Client -> server messages (``type`` field):

``submit``
    ``{"type": "submit", "job_id": str, "cells": [cell payload, ...]}``
    — a job of measurement cells (:meth:`repro.api.jobs.SweepCell.payload`
    dicts).  The server replies with one ``accepted``, streams ``partial``
    and ``result`` events as they happen, and finishes with ``done``.
``status``
    ``{"type": "status"}`` — replies with one ``stats`` message.
``shutdown``
    ``{"type": "shutdown"}`` — asks the server to stop (tests, benches,
    and operators; replies ``bye`` before the server winds down).

Server -> client messages:

``accepted``
    ``{"type": "accepted", "job_id", "cells", "unique"}`` — the job was
    parsed; ``unique`` counts distinct content keys after intra-job dedupe.
``partial``
    ``{"type": "partial", "job_id", "key", "indices", "cycles",
    "acceptance": [point, low, high]}`` — a streaming checkpoint from a
    still-running cell, emitted at adaptive-stopping chunk boundaries.
    An unbounded side of an interval, here and in payloads, is ``null``.
``result``
    ``{"type": "result", "job_id", "key", "indices", "cached",
    "worker", "payload"}`` — one cell finished; ``indices`` are the
    positions in the submitted job this result answers (duplicates within
    a job collapse to one event), ``payload`` is the canonical
    measurement encoding (byte-identical for every cache hit).
``done``
    ``{"type": "done", "job_id", "cells", "computed", "cached",
    "coalesced", "elapsed_s"}`` — all cells answered.
``stats``
    ``{"type": "stats", ...}`` — see ``SimulationServer.stats``.
``error``
    ``{"type": "error", "job_id"?, "key"?, "indices"?, "message"}`` — a
    malformed message, or a cell that failed permanently (bad spec, or a
    shard exhausting its retry attempts).  Cell-level errors carry the
    job context and do not abort the rest of the job.

Addresses are ``HOST:PORT`` (TCP) or ``unix:/PATH`` (Unix socket),
parsed by :func:`parse_address`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from repro.core.exceptions import ConfigurationError

__all__ = [
    "DEFAULT_ADDRESS",
    "MAX_MESSAGE_BYTES",
    "TcpAddress",
    "UnixAddress",
    "parse_address",
    "encode_message",
    "decode_message",
]

#: Where ``repro serve`` listens and ``repro submit`` connects by default.
DEFAULT_ADDRESS = "127.0.0.1:8753"

#: Per-line size bound (asyncio reader limit and client sanity check):
#: generous for thousand-cell jobs, small enough to fail fast on garbage.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class TcpAddress:
    host: str
    port: int

    @property
    def label(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass(frozen=True)
class UnixAddress:
    path: str

    @property
    def label(self) -> str:
        return f"unix:{self.path}"


Address = Union[TcpAddress, UnixAddress]


def parse_address(text: str) -> Address:
    """Parse ``HOST:PORT`` or ``unix:/PATH``.

    >>> parse_address("127.0.0.1:8753")
    TcpAddress(host='127.0.0.1', port=8753)
    >>> parse_address("unix:/tmp/repro.sock")
    UnixAddress(path='/tmp/repro.sock')
    """
    text = text.strip()
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ConfigurationError("unix: address needs a socket path")
        return UnixAddress(path)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"cannot parse service address {text!r}: expected HOST:PORT or unix:/PATH"
        )
    try:
        return TcpAddress(host, int(port))
    except ValueError:
        raise ConfigurationError(
            f"cannot parse service address {text!r}: port must be an integer"
        ) from None


def encode_message(message: dict) -> bytes:
    """One message -> one canonical JSON line (sorted keys, compact).

    Strict RFC 8259 JSON: a ``NaN`` or infinite float raises ``ValueError``
    instead of being written as a token no other JSON parser reads.
    """
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":"), allow_nan=False)
        + "\n"
    ).encode("utf-8")


def _refuse_constant(token: str):
    raise ValueError(f"not strict JSON: {token}")


def decode_message(line: "bytes | str") -> dict:
    """One received line -> the message dict (raises on malformed input)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    message = json.loads(line, parse_constant=_refuse_constant)
    if not isinstance(message, dict) or "type" not in message:
        raise ValueError("protocol messages are JSON objects with a 'type' field")
    return message
