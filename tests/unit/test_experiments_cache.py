"""Experiment-runner cache tests (repro.analysis.experiments)."""

import json

import pytest

from repro.analysis import experiments
from repro.sim.yearsim import YearResult


@pytest.fixture()
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(experiments, "_memory_cache", {})
    # These tests patch the scalar entry point (experiments.run_year), so
    # pin the scalar engine; lane-engine caching has its own tests.
    monkeypatch.setattr(experiments, "DEFAULT_SIM_ENGINE", "scalar")
    return tmp_path


def fake_result(label="All-ND", climate="Newark"):
    return YearResult(
        label=label,
        climate_name=climate,
        sampled_days=[0, 14],
        daily_worst_range_c=[5.0, 6.0],
        daily_outside_range_c=[10.0, 11.0],
        daily_avg_violation_c=[0.0, 0.1],
        daily_max_rate_c_per_hour=[4.0, 5.0],
        cooling_kwh=42.0,
        it_kwh=500.0,
    )


class TestSerialization:
    def test_roundtrip(self):
        result = fake_result()
        payload = experiments._result_to_json(result)
        # The payload must be plain JSON.
        restored = experiments._result_from_json(
            json.loads(json.dumps(payload))
        )
        assert restored.label == result.label
        assert restored.cooling_kwh == result.cooling_kwh
        assert restored.daily_worst_range_c == result.daily_worst_range_c
        assert restored.pue == result.pue


class TestCaching:
    def test_disk_cache_hit_skips_simulation(self, tmp_cache, monkeypatch):
        calls = []

        def fake_run_year(*args, **kwargs):
            calls.append(1)
            return fake_result()

        monkeypatch.setattr(experiments, "run_year", fake_run_year)
        monkeypatch.setattr(
            experiments, "trained_cooling_model", lambda **kw: object()
        )
        from repro.weather.locations import NEWARK

        first = experiments.year_result("All-ND", NEWARK)
        assert len(calls) == 1
        # New memory cache, same disk cache: no new simulation.
        monkeypatch.setattr(experiments, "_memory_cache", {})
        second = experiments.year_result("All-ND", NEWARK)
        assert len(calls) == 1
        assert second.cooling_kwh == first.cooling_kwh

    def test_memory_cache_returns_same_object(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year", lambda *a, **k: fake_result()
        )
        monkeypatch.setattr(
            experiments, "trained_cooling_model", lambda **kw: object()
        )
        from repro.weather.locations import NEWARK

        a = experiments.year_result("All-ND", NEWARK)
        b = experiments.year_result("All-ND", NEWARK)
        assert a is b

    def test_distinct_keys_for_bias_and_workload(self, tmp_cache, monkeypatch):
        calls = []
        monkeypatch.setattr(
            experiments,
            "run_year",
            lambda *a, **k: calls.append(1) or fake_result(),
        )
        monkeypatch.setattr(
            experiments, "trained_cooling_model", lambda **kw: object()
        )
        from repro.weather.locations import NEWARK

        experiments.year_result("All-ND", NEWARK)
        experiments.year_result("All-ND", NEWARK, forecast_bias_c=5.0)
        experiments.year_result("All-ND", NEWARK, workload="nutch")
        assert len(calls) == 3


class TestCacheVersioning:
    """Schema-versioned keys and corrupt-entry recovery."""

    def _count_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            experiments,
            "run_year",
            lambda *a, **k: calls.append(1) or fake_result(),
        )
        monkeypatch.setattr(
            experiments, "trained_cooling_model", lambda **kw: object()
        )
        return calls

    def test_key_embeds_schema_version(self):
        from repro.weather.locations import NEWARK

        key = experiments.cache_key("baseline", NEWARK)
        assert key.endswith(f"-v{experiments.CACHE_SCHEMA_VERSION}")

    def test_key_embeds_engine_token(self):
        """Lane-engine and scalar results live in separate cache lineages."""
        from repro.weather.locations import NEWARK

        lanes_key = experiments.cache_key("baseline", NEWARK, engine="lanes")
        scalar_key = experiments.cache_key("baseline", NEWARK, engine="scalar")
        assert lanes_key != scalar_key
        assert "-elanes-" in lanes_key
        assert "-escalar-" in scalar_key

    def test_unknown_engine_rejected(self):
        from repro.weather.locations import NEWARK

        with pytest.raises(ValueError, match="unknown sim engine"):
            experiments.cache_key("baseline", NEWARK, engine="gpu")

    def test_parasol_keys_are_pre_backend_keys(self):
        """The default plant adds no token: old cache entries stay valid."""
        from repro.weather.locations import NEWARK

        key = experiments.cache_key("baseline", NEWARK)
        assert experiments.cache_key("baseline", NEWARK, plant="parasol") == key
        assert "-pparasol" not in key

    def test_non_parasol_plants_get_their_own_lineage(self):
        from repro.weather.locations import NEWARK

        keys = {
            plant: experiments.cache_key("baseline", NEWARK, plant=plant)
            for plant in ("parasol", "chiller", "cooling_tower", "hybrid")
        }
        assert len(set(keys.values())) == 4
        assert "-pchiller-" in keys["chiller"]
        assert "-pcooling_tower-" in keys["cooling_tower"]
        # Alternative plants ride the lane engine through their
        # lane-vectorized units, and the key records that.
        assert "-elanes-" in keys["chiller"]

    def test_non_parasol_plants_ride_the_lane_engine(self):
        from repro.weather.locations import NEWARK

        for plant in ("parasol", "chiller", "cooling_tower", "hybrid"):
            assert "-elanes" in experiments.cache_key(
                "baseline", NEWARK, engine="lanes", plant=plant
            )
        assert "-escalar-" in experiments.cache_key(
            "baseline", NEWARK, engine="scalar", plant="chiller"
        )

    # Keys as the commit before faulted cells rode lanes computed them
    # (pinned literals, so a change to any key component shows up here).
    CLEAN_KEYS = (
        (("baseline", "Newark"), {"sample_every_days": 14},
         "baseline-Newark-facebook-defFalse-s14-b+0.0-j1200-elanes-v4"),
        (("All-ND", "Newark"), {"sample_every_days": 14},
         "All-ND-f243821601-Newark-facebook-defFalse-s14-b+0.0-j1200"
         "-elanes-v4"),
        (("baseline", "Chad"), {"sample_every_days": 92, "plant": "chiller"},
         "baseline-Chad-facebook-defFalse-s92-b+0.0-j1200-elanes-pchiller"
         "-v4"),
        (("Temperature", "Singapore"),
         {"workload": "nutch", "deferrable": True, "sample_every_days": 183,
          "forecast_bias_c": 1.0},
         "Temperature-ed588ef3ee-Singapore-nutch-defTrue-s183-b+1.0-j1200"
         "-elanes-v4"),
    )

    def test_clean_cell_keys_are_byte_identical(self, monkeypatch):
        """Routing faulted cells to lanes left every fault-free key (and
        so every cached fault-free payload) where it was."""
        from repro.weather.locations import NAMED_LOCATIONS

        monkeypatch.setattr(experiments, "DEFAULT_TRACE_JOBS", 1200)
        for (system, site), kwargs, key in self.CLEAN_KEYS:
            assert experiments.cache_key(
                system, NAMED_LOCATIONS[site], engine="lanes", **kwargs
            ) == key

    def test_faulted_cells_moved_to_the_lane_lineage(self, monkeypatch):
        """As the non-parasol plant cells did before them: the bits are
        asserted identical (tests/integration/test_fault_lanes.py), so
        only the engine token moves; the scalar request keeps the old
        key."""
        import dataclasses

        from repro.core.versions import ALL_VERSIONS
        from repro.faults import builtin_scenario
        from repro.weather.locations import NEWARK

        monkeypatch.setattr(experiments, "DEFAULT_TRACE_JOBS", 1200)
        faulted = dataclasses.replace(
            ALL_VERSIONS["All-ND"](), faults=builtin_scenario("inlet-dropout")
        )
        old = (
            "All-ND-2da60df3f3-Newark-facebook-defFalse-s183-b+0.0-j1200"
            "-escalar-v4"
        )
        assert experiments.cache_key(
            faulted, NEWARK, sample_every_days=183, engine="lanes"
        ) == old.replace("-escalar-", "-elanes-")
        assert experiments.cache_key(
            faulted, NEWARK, sample_every_days=183, engine="scalar"
        ) == old

    def test_exotic_timing_config_falls_back_to_scalar(self):
        from repro.core.versions import ALL_VERSIONS
        from repro.sim.eligibility import decide_engine
        from repro.weather.locations import NEWARK

        config = ALL_VERSIONS["All-ND"]()
        assert decide_engine(config, "lanes").engine == "lanes"
        config.model_step_s = 60.0
        assert decide_engine(config, "lanes").engine == "scalar"
        # The key records the engine the cell really runs on.
        assert "-escalar-" in experiments.cache_key(
            config, NEWARK, engine="lanes"
        )

    def test_fingerprint_distinguishes_same_name_configs(self):
        from repro.core.versions import ALL_VERSIONS

        a = ALL_VERSIONS["All-ND"]()
        b = ALL_VERSIONS["All-ND"]()
        b.width_c = 10.0
        assert experiments.config_fingerprint(a) != (
            experiments.config_fingerprint(b)
        )
        assert experiments.config_fingerprint(a) == (
            experiments.config_fingerprint(ALL_VERSIONS["All-ND"]())
        )

    def test_corrupt_entry_recomputed_not_crashed(self, tmp_cache, monkeypatch):
        calls = self._count_runs(monkeypatch)
        from repro.weather.locations import NEWARK

        key = experiments.cache_key("All-ND", NEWARK)
        experiments.cache_path(key).parent.mkdir(exist_ok=True)
        experiments.cache_path(key).write_text("{not json")
        result = experiments.year_result("All-ND", NEWARK)
        assert len(calls) == 1
        assert result.cooling_kwh == 42.0
        # The recompute repaired the entry on disk.
        monkeypatch.setattr(experiments, "_memory_cache", {})
        experiments.year_result("All-ND", NEWARK)
        assert len(calls) == 1

    def test_stale_schema_version_is_a_miss(self, tmp_cache, monkeypatch):
        calls = self._count_runs(monkeypatch)
        from repro.weather.locations import NEWARK

        experiments.year_result("All-ND", NEWARK)
        assert len(calls) == 1
        key = experiments.cache_key("All-ND", NEWARK)
        payload = json.loads(experiments.cache_path(key).read_text())
        payload["schema_version"] = experiments.CACHE_SCHEMA_VERSION - 1
        experiments.cache_path(key).write_text(json.dumps(payload))
        monkeypatch.setattr(experiments, "_memory_cache", {})
        experiments.year_result("All-ND", NEWARK)
        assert len(calls) == 2

    def test_key_mismatch_is_a_miss(self, tmp_cache, monkeypatch):
        calls = self._count_runs(monkeypatch)
        from repro.weather.locations import NEWARK

        experiments.year_result("All-ND", NEWARK)
        key = experiments.cache_key("All-ND", NEWARK)
        payload = json.loads(experiments.cache_path(key).read_text())
        payload["key"] = "someone-else"
        experiments.cache_path(key).write_text(json.dumps(payload))
        monkeypatch.setattr(experiments, "_memory_cache", {})
        experiments.year_result("All-ND", NEWARK)
        assert len(calls) == 2

    def test_writes_are_atomic_and_leave_no_temp_files(
        self, tmp_cache, monkeypatch
    ):
        self._count_runs(monkeypatch)
        from repro.weather.locations import NEWARK

        experiments.year_result("All-ND", NEWARK)
        leftovers = [
            p for p in tmp_cache.iterdir() if not p.name.endswith(".json")
        ]
        assert leftovers == []


class TestTraceHelpers:
    def test_facebook_trace_cached(self):
        a = experiments.facebook_trace()
        b = experiments.facebook_trace()
        assert a is b

    def test_deferrable_is_distinct(self):
        assert experiments.facebook_trace() is not experiments.facebook_trace(
            deferrable=True
        )

    def test_nutch_trace(self):
        trace = experiments.nutch_trace()
        assert trace.name == "nutch"
