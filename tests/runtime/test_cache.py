"""Tests for repro.runtime.cache — canonical keys and the on-disk store."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.parameters import AHSParameters
from repro.core.partasks import AnalyticalCurveTask, UnsafetySimulationTask
from repro.runtime import ResultCache, cache_key, fingerprint
from repro.runtime import cache as cache_module


class TestFingerprint:
    def test_primitives_and_floats_are_exact(self):
        assert fingerprint(1) == 1
        assert fingerprint("x") == "x"
        assert fingerprint(0.1) == repr(0.1)
        assert fingerprint(None) is None

    def test_numpy_values_normalise(self):
        assert fingerprint(np.float64(0.5)) == repr(0.5)
        assert fingerprint(np.array([1.0, 2.0])) == [repr(1.0), repr(2.0)]

    def test_mappings_are_order_insensitive(self):
        assert fingerprint({"b": 1, "a": 2}) == fingerprint({"a": 2, "b": 1})

    def test_dataclasses_with_enum_keyed_dicts(self):
        params = AHSParameters(max_platoon_size=6)
        token = fingerprint(params)
        assert token["__dataclass__"] == "AHSParameters"
        assert token["max_platoon_size"] == 6
        # Maneuver-keyed dicts become sorted string-keyed dicts
        assert all(isinstance(k, str) for k in token["maneuver_rates"])

    def test_unfingerprintable_type_raises(self):
        with pytest.raises(TypeError):
            fingerprint(object())


class TestCacheKey:
    def test_key_is_stable_across_equal_tokens(self):
        task_a = UnsafetySimulationTask(
            params=AHSParameters(max_platoon_size=6), times=(2.0, 6.0)
        )
        task_b = UnsafetySimulationTask(
            params=AHSParameters(max_platoon_size=6), times=(2.0, 6.0)
        )
        assert cache_key(task_a.cache_token()) == cache_key(task_b.cache_token())

    def test_any_parameter_change_changes_the_key(self):
        base = AnalyticalCurveTask(
            params=AHSParameters(max_platoon_size=6), times=(2.0, 6.0)
        )
        other_n = AnalyticalCurveTask(
            params=AHSParameters(max_platoon_size=8), times=(2.0, 6.0)
        )
        other_t = AnalyticalCurveTask(
            params=AHSParameters(max_platoon_size=6), times=(2.0, 10.0)
        )
        keys = {
            cache_key(base.cache_token()),
            cache_key(other_n.cache_token()),
            cache_key(other_t.cache_token()),
        }
        assert len(keys) == 3

    def test_engine_is_part_of_the_key(self):
        params = AHSParameters(max_platoon_size=6)
        sim = UnsafetySimulationTask(params=params, times=(2.0,))
        ana = AnalyticalCurveTask(params=params, times=(2.0,))
        assert cache_key(sim.cache_token()) != cache_key(ana.cache_token())

    def test_source_digest_is_part_of_the_key(self, monkeypatch):
        # an edited package (same __version__) must not reuse old entries
        token = {"x": 1}
        before = cache_key(token)
        monkeypatch.setattr(cache_module, "source_digest", lambda: "0" * 64)
        assert cache_key(token) != before
        monkeypatch.undo()
        assert cache_key(token) == before

    def test_identities_ignore_the_source_digest(self, monkeypatch):
        # run ids and kernel-IR digests name what is computed, not the
        # package build, so a source edit must not rename them
        from repro.analysis.lowering import extract_kernel_ir
        from repro.core.composed import build_composed_model
        from repro.obs.events import deterministic_run_id

        model = build_composed_model(AHSParameters(max_platoon_size=2)).model
        token = {"x": 1}
        before = (
            cache_module.content_key(token),
            deterministic_run_id(token),
            extract_kernel_ir(model).digest(),
        )
        monkeypatch.setattr(cache_module, "source_digest", lambda: "0" * 64)
        assert (
            cache_module.content_key(token),
            deterministic_run_id(token),
            extract_kernel_ir(model).digest(),
        ) == before
        assert cache_module.content_key(token) != cache_key(token)

    def test_source_digest_is_memoised(self):
        digest = cache_module.source_digest()
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert cache_module.source_digest() == digest
        assert cache_module.source_digest.cache_info().currsize == 1

    def test_source_digest_is_not_computed_at_import(self):
        probe = (
            "import repro, repro.runtime, repro.orchestrate, repro.san\n"
            "from repro.runtime.cache import source_digest\n"
            "assert source_digest.cache_info().misses == 0\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"x": 1})
        assert cache.get(key) is None
        cache.put(key, {"values": [1.0, 2.0]})
        assert cache.get(key) == {"values": [1.0, 2.0]}
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.puts == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_entries_are_sharded_json_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"x": 2})
        path = cache.put(key, {"v": 1})
        assert path.parent.name == key[:2]
        record = json.loads(path.read_text())
        assert record["key"] == key
        assert record["payload"] == {"v": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"x": 3})
        path = cache.put(key, {"v": 1})
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_hit_rate_with_no_lookups(self, tmp_path):
        assert ResultCache(tmp_path).hit_rate == 0.0
