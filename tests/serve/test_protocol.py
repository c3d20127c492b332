"""Wire-protocol unit tests: addresses, framing, canonical encoding."""

from __future__ import annotations

import json
import math

import pytest

from repro.api import NetworkSpec, RunConfig
from repro.api.jobs import (
    SweepCell,
    measure_cell,
    measurement_from_payload,
    measurement_to_payload,
)
from repro.core.exceptions import ConfigurationError
from repro.serve.protocol import (
    TcpAddress,
    UnixAddress,
    decode_message,
    encode_message,
    parse_address,
)


class TestParseAddress:
    def test_tcp(self):
        assert parse_address("127.0.0.1:8753") == TcpAddress("127.0.0.1", 8753)

    def test_tcp_label_round_trips(self):
        address = parse_address("0.0.0.0:80")
        assert parse_address(address.label) == address

    def test_unix(self):
        address = parse_address("unix:/tmp/repro.sock")
        assert address == UnixAddress("/tmp/repro.sock")
        assert address.label == "unix:/tmp/repro.sock"

    def test_whitespace_tolerated(self):
        assert parse_address(" 127.0.0.1:1 ") == TcpAddress("127.0.0.1", 1)

    @pytest.mark.parametrize("bad", ["", "justahost", ":1234", "host:notaport", "unix:"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            parse_address(bad)


class TestFraming:
    def test_round_trip(self):
        message = {"type": "result", "key": "k", "payload": {"pa": 0.5}}
        line = encode_message(message)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert decode_message(line) == message

    def test_encoding_is_canonical(self):
        # Key order never changes the bytes — the property the result
        # cache's byte-identity contract rests on.
        a = encode_message({"x": 1, "y": 2})
        b = encode_message({"y": 2, "x": 1})
        assert a == b

    def test_floats_round_trip_exactly(self):
        value = 0.1 + 0.2  # not representable prettily; repr round-trips
        decoded = decode_message(encode_message({"type": "t", "v": value}))
        assert decoded["v"] == value

    def test_decode_accepts_str(self):
        assert decode_message('{"type": "status"}') == {"type": "status"}

    @pytest.mark.parametrize("bad", [b"[1, 2]\n", b'{"no": "type"}\n', b"garbage\n"])
    def test_decode_rejects_non_messages(self, bad):
        with pytest.raises(ValueError):
            decode_message(bad)


def _strict(token: str):
    raise AssertionError(f"not strict JSON: {token}")


class TestStrictJson:
    """Every line is RFC 8259 JSON: an unbounded interval side is ``null``."""

    CELLS = (
        # One cycle: the acceptance interval is (-inf, inf).
        ("delta:4,4,2", RunConfig(cycles=1, seed=0)),
        # A closed loop that delivers nothing: attempts and latency too.
        ("edn:16,4,4,2", RunConfig(cycles=20, seed=0, retry="4", traffic="uniform:0")),
    )

    @pytest.mark.parametrize("spec, config", CELLS)
    def test_unbounded_intervals_encode_as_null(self, spec, config):
        measurement = measure_cell(SweepCell(NetworkSpec.parse(spec), config))
        line = encode_message({"type": "result", "payload": measurement_to_payload(measurement)})
        message = json.loads(line, parse_constant=_strict)
        back = measurement_from_payload(message["payload"])
        assert back.acceptance == measurement.acceptance
        if config.retry is None:
            unbounded = message["payload"]["acceptance"]
        else:
            assert back.attempts == measurement.attempts
            assert back.latency == measurement.latency
            unbounded = message["payload"]["closed_loop"]["latency"]
        assert unbounded[1:] == [None, None]

    def test_encoding_refuses_non_finite_floats(self):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                encode_message({"type": "x", "value": value})

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_decoding_refuses_non_finite_tokens(self, token):
        with pytest.raises(ValueError):
            decode_message('{"type": "x", "value": %s}' % token)
