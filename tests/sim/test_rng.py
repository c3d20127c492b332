"""Unit tests for reproducible RNG streams."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.sim.rng import make_rng, spawn, spawn_keys, stream_for


class TestMakeRng:
    def test_seeded_reproducible(self):
        assert make_rng(7).integers(1 << 30) == make_rng(7).integers(1 << 30)

    def test_different_seeds_differ(self):
        draws_a = make_rng(1).integers(0, 1 << 30, size=8)
        draws_b = make_rng(2).integers(0, 1 << 30, size=8)
        assert not np.array_equal(draws_a, draws_b)


class TestSpawn:
    def test_streams_are_reproducible(self):
        first = [g.integers(1 << 30) for g in spawn(42, 3)]
        second = [g.integers(1 << 30) for g in spawn(42, 3)]
        assert first == second

    def test_streams_are_distinct(self):
        draws = [g.integers(0, 1 << 30, size=4).tolist() for g in spawn(42, 4)]
        assert len({tuple(d) for d in draws}) == 4


class TestStreamFor:
    def test_same_name_same_stream(self):
        a = stream_for(1, "mimd", "traffic").integers(1 << 30)
        b = stream_for(1, "mimd", "traffic").integers(1 << 30)
        assert a == b

    def test_different_names_independent(self):
        a = stream_for(1, "mimd", "traffic").integers(0, 1 << 30, size=8)
        b = stream_for(1, "mimd", "switch").integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = stream_for(1, "x").integers(0, 1 << 30, size=8)
        b = stream_for(2, "x").integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, b)

    def test_same_stream_in_every_interpreter(self):
        # The built-in hash() of a str is salted per interpreter; the
        # stream must not depend on that salt.
        code = (
            "from repro.sim.rng import stream_for; "
            "print(stream_for(42, 'mimd', 'traffic').integers(0, 1 << 30, size=4).tolist())"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for salt in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": salt}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                check=True, timeout=120,
            )
            outputs.append(proc.stdout.strip())
        here = stream_for(42, "mimd", "traffic").integers(0, 1 << 30, size=4).tolist()
        assert outputs == [str(here)] * 2


class TestSeedLike:
    def test_make_rng_passes_generator_through(self):
        gen = np.random.default_rng(5)
        assert make_rng(gen) is gen

    def test_make_rng_accepts_seedsequence(self):
        seq = np.random.SeedSequence(11)
        a = make_rng(seq).random(4)
        b = np.random.default_rng(np.random.SeedSequence(11)).random(4)
        assert (a == b).all()

    def test_spawn_accepts_all_seed_kinds(self):
        for seed in (3, np.random.SeedSequence(3), np.random.default_rng(3)):
            streams = spawn(seed, 3)
            assert len(streams) == 3
            draws = {float(stream.random()) for stream in streams}
            assert len(draws) == 3  # statistically independent children

    def test_spawn_keys_are_positional(self):
        # Child i must be identical regardless of how many siblings exist.
        few = spawn_keys(42, 2)
        many = spawn_keys(42, 6)
        a = np.random.default_rng(few[1]).random(4)
        b = np.random.default_rng(many[1]).random(4)
        assert (a == b).all()

    def test_spawn_keys_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_keys(0, -1)

    def test_spawn_keys_pickle(self):
        import pickle

        for seed in (1, np.random.default_rng(1)):
            keys = spawn_keys(seed, 2)
            clones = pickle.loads(pickle.dumps(keys))
            a = make_rng(keys[0]).random(3)
            b = make_rng(clones[0]).random(3)
            assert (a == b).all()
