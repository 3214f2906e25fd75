"""Benchmark harness tests (``python -m repro bench``).

The quick suite is what CI's bench-smoke step runs; these tests pin the
report schema, the baseline comparison arithmetic, and the CLI wiring.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import profiling
from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def quick_bench(cooling_model):
    """One real quick-suite run, shared by every test here that needs
    its results (CI's bench-smoke step runs the real suite too)."""
    return profiling.run_bench(quick=True, model=cooling_model)


@pytest.fixture()
def replay_quick_bench(quick_bench, monkeypatch):
    """Serve the shared quick run to the CLI instead of re-running it."""

    def run_bench(quick, model):
        assert quick is True
        return quick_bench

    monkeypatch.setattr(profiling, "run_bench", run_bench)


class TestQuickSuite:
    def test_run_bench_quick(self, quick_bench):
        results = quick_bench
        assert set(results) == {
            "plant_step", "optimizer_decision", "day_sim", "world_chunk",
            "plant_world_chunk", "fault_chunk", "year_unfold", "world_100k",
        }
        for result in results.values():
            assert result["median_s"] > 0.0
        assert results["plant_step"]["steps_per_s"] > 0.0
        assert results["optimizer_decision"]["decision_latency_ms"] > 0.0
        # The quick world chunk is one climate x {baseline, All-ND}.
        assert results["world_chunk"]["lanes"] == 2
        assert results["world_chunk"]["s_per_lane"] > 0.0
        # The plant chunk runs the same shape on the non-parasol lanes.
        assert results["plant_world_chunk"]["lanes"] == 2
        assert results["plant_world_chunk"]["s_per_lane"] > 0.0
        # The fault chunk keeps its recorded 8-lane shape (one lane per
        # builtin scenario), so --check gates it in quick mode too.
        assert results["fault_chunk"]["lanes"] == 8
        assert results["fault_chunk"]["s_per_lane"] > 0.0
        # The unfolded year runs at the same shape the baseline recorded,
        # so --check gates it even in quick mode.
        unfold = results["year_unfold"]
        assert unfold["day_lanes"] == profiling.UNFOLD_DAY_LANES
        assert unfold["sample_every_days"] == profiling.UNFOLD_STRIDE_DAYS
        assert unfold["s_per_day"] > 0.0
        # The screened sweep accounts for every grid point.
        screened = results["world_100k"]
        assert (
            screened["simulated"]
            + screened["served_from_cluster"]
            + screened["surrogate_only"]
        ) == screened["grid_points"]

    def test_write_report_and_reload(self, cooling_model, tmp_path):
        results = {"day_sim": {"median_s": 0.25, "days_per_s": 4.0}}
        out = tmp_path / "bench.json"
        payload = profiling.write_report(
            results,
            path=out,
            quick=True,
            baseline_path=REPO_ROOT / "benchmarks" / "perf" / "baseline_sim_core.json",
        )
        assert payload["schema"] == profiling.SCHEMA_VERSION
        assert json.loads(out.read_text())["results"] == results
        # The repo ships a recorded pre-PR baseline; the report must carry
        # the comparison.
        assert payload["speedup_vs_baseline"]["day_sim"] > 0.0

    def test_format_report_mentions_speedup(self):
        payload = {
            "quick": True,
            "results": {"day_sim": {"median_s": 0.2, "days_per_s": 5.0}},
            "speedup_vs_baseline": {"day_sim": 3.2},
        }
        text = profiling.format_report(payload)
        assert "day_sim" in text and "3.20x" in text

    def test_format_report_without_baseline(self):
        payload = {"results": {"day_sim": {"median_s": 0.2}}}
        assert "no recorded baseline" in profiling.format_report(payload)


class TestBaseline:
    def test_missing_baseline_is_none(self, tmp_path):
        assert profiling.load_baseline(tmp_path / "nope.json") is None

    def test_wrong_schema_is_none(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": -1, "results": {}}))
        assert profiling.load_baseline(path) is None

    def test_recorded_baseline_loads(self):
        baseline = profiling.load_baseline(
            REPO_ROOT / "benchmarks" / "perf" / "baseline_sim_core.json"
        )
        assert baseline is not None
        assert "day_sim" in baseline["results"]

    def test_speedup_arithmetic(self):
        results = {"day_sim": {"median_s": 0.25}, "extra": {"median_s": 1.0}}
        baseline = {"results": {"day_sim": {"median_s": 1.0}}}
        speedups = profiling.speedups_vs_baseline(results, baseline)
        assert speedups == {"day_sim": 4.0}
        assert profiling.speedups_vs_baseline(results, None) == {}

    def test_speedup_skips_shape_mismatches(self):
        # A full 100k world_100k run against the quick-shape baseline is
        # not a speedup or a regression — it is a different workload.
        results = {"world_100k": {
            "median_s": 134.0, "grid_points": 100_000,
            "sample_every_days": 365, "trace_jobs": 400,
        }}
        baseline = {"results": {"world_100k": {
            "median_s": 26.0, "grid_points": 240,
            "sample_every_days": 365, "trace_jobs": 400,
        }}}
        assert profiling.speedups_vs_baseline(results, baseline) == {}
        # Same shape: compared as usual.
        baseline["results"]["world_100k"]["grid_points"] = 100_000
        speedups = profiling.speedups_vs_baseline(results, baseline)
        assert speedups["world_100k"] == pytest.approx(26.0 / 134.0)


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench", "--quick"])
        assert args.quick is True
        assert args.output == "BENCH_sim_core.json"
        assert args.profile is False

    def test_bench_quick_end_to_end(
        self, replay_quick_bench, tmp_path, capsys
    ):
        # cooling_model (behind quick_bench) pre-populates the in-process
        # campaign cache, so the CLI's trained_cooling_model() call is free.
        out = tmp_path / "BENCH_sim_core.json"
        assert main(
            ["bench", "--quick", "--no-history", "--output", str(out)]
        ) == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "sim-core benchmarks (quick)" in captured


class TestHistory:
    """The append-only perf log behind ``python -m repro bench``."""

    PAYLOAD = {
        "recorded_unix_s": 1700000000,
        "quick": False,
        "results": {
            "day_sim": {"median_s": 0.25, "days_per_s": 4.0},
            "world_chunk": {"median_s": 1.2, "lanes": 8},
        },
        "speedup_vs_baseline": {"day_sim": 3.4},
    }

    def test_append_writes_one_json_line_per_run(self, tmp_path):
        path = tmp_path / "history.jsonl"
        entry = profiling.append_history(
            self.PAYLOAD, label="first", path=path
        )
        profiling.append_history(self.PAYLOAD, label="second", path=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == entry
        assert first["label"] == "first"
        assert first["medians_s"] == {"day_sim": 0.25, "world_chunk": 1.2}
        assert first["speedup_vs_baseline"] == {"day_sim": 3.4}
        assert json.loads(lines[1])["label"] == "second"

    def test_entries_carry_the_git_revision(self, tmp_path):
        entry = profiling.append_history(
            self.PAYLOAD, path=tmp_path / "h.jsonl"
        )
        rev = entry["git_rev"]
        assert rev == "unknown" or all(
            c in "0123456789abcdef" for c in rev
        )

    def test_cli_passes_label_through(
        self, replay_quick_bench, tmp_path, monkeypatch, capsys
    ):
        seen = {}
        real_append = profiling.append_history

        def fake_append(payload, label=""):
            seen["label"] = label
            return real_append(
                payload, label=label, path=tmp_path / "h.jsonl"
            )

        monkeypatch.setattr(profiling, "append_history", fake_append)
        out = tmp_path / "bench.json"
        assert main(
            ["bench", "--quick", "--output", str(out), "--label", "pr3"]
        ) == 0
        assert seen["label"] == "pr3"
        assert (tmp_path / "h.jsonl").exists()
        assert "appended run @" in capsys.readouterr().out

    def test_no_history_skips_the_log(
        self, replay_quick_bench, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            profiling,
            "append_history",
            lambda *a, **k: pytest.fail("history written with --no-history"),
        )
        out = tmp_path / "bench.json"
        assert main(
            ["bench", "--quick", "--no-history", "--output", str(out)]
        ) == 0
        assert "appended run" not in capsys.readouterr().out

    def test_append_is_atomic_no_temp_leftovers(self, tmp_path):
        path = tmp_path / "history.jsonl"
        profiling.append_history(self.PAYLOAD, path=path)
        profiling.append_history(self.PAYLOAD, path=path)
        assert [p.name for p in tmp_path.iterdir()] == ["history.jsonl"]
        assert len(path.read_text().splitlines()) == 2

    def test_append_repairs_missing_trailing_newline(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"torn": true}')  # no trailing newline
        profiling.append_history(self.PAYLOAD, path=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"torn": True}
        assert json.loads(lines[1])["quick"] is False


class TestCheckRegressions:
    """The ``bench --check`` gate against the recorded baseline."""

    def current(self, **overrides):
        results = {
            "day_sim": {"median_s": 0.25, "days_per_s": 4.0},
            "world_chunk": {"median_s": 1.0, "lanes": 8, "s_per_lane": 0.125},
        }
        results.update(overrides)
        return results

    def baseline(self):
        return {
            "results": {
                "day_sim": {"median_s": 0.25},
                "world_chunk": {
                    "median_s": 1.0, "lanes": 8, "s_per_lane": 0.125,
                },
            }
        }

    def test_clean_run_has_no_regressions(self):
        regressions, notes = profiling.check_regressions(
            self.current(), self.baseline()
        )
        assert regressions == []
        assert notes == []

    def test_slow_metric_flagged_over_threshold(self):
        results = self.current(
            day_sim={"median_s": 0.40, "days_per_s": 2.5}  # 60% slower
        )
        regressions, _ = profiling.check_regressions(
            results, self.baseline(), threshold=0.25
        )
        assert len(regressions) == 1
        assert "day_sim" in regressions[0]
        # A looser threshold lets the same run through.
        regressions, _ = profiling.check_regressions(
            results, self.baseline(), threshold=1.0
        )
        assert regressions == []

    def test_higher_is_better_direction(self):
        results = {"plant_step": {"median_s": 0.3, "steps": 2000,
                                  "steps_per_s": 5000.0}}
        baseline = {"results": {"plant_step": {
            "median_s": 0.2, "steps": 2000, "steps_per_s": 10000.0,
        }}}
        regressions, _ = profiling.check_regressions(results, baseline)
        assert len(regressions) == 1 and "steps_per_s" in regressions[0]

    def test_shape_mismatch_skipped_with_note(self):
        results = self.current(
            world_chunk={"median_s": 9.0, "lanes": 2, "s_per_lane": 4.5}
        )
        regressions, notes = profiling.check_regressions(
            results, self.baseline()
        )
        assert regressions == []
        assert any("world_chunk" in n and "shape" in n for n in notes)

    def test_missing_baseline_is_a_note_not_a_failure(self):
        regressions, notes = profiling.check_regressions(self.current(), None)
        assert regressions == []
        assert notes == ["no recorded baseline; nothing to check"]

    def test_bench_absent_from_baseline_noted(self):
        results = self.current(
            world_sweep_stream={
                "median_s": 5.0, "locations": 24, "workers": 4,
                "sample_every_days": 365, "trace_jobs": 400,
            }
        )
        regressions, notes = profiling.check_regressions(
            results, self.baseline()
        )
        assert regressions == []
        assert any("world_sweep_stream" in n for n in notes)

    def test_every_tracked_bench_names_a_real_metric(self):
        # The tracked table must agree with what the benches emit.
        for name, spec in profiling.TRACKED_METRICS.items():
            assert spec["better"] in ("higher", "lower")
            assert isinstance(spec["shape"], tuple)
            assert spec["metric"]

    def test_cli_check_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            profiling, "run_bench",
            lambda quick, model: {"day_sim": {"median_s": 9.9}},
        )
        import repro.cli as cli

        monkeypatch.setattr(
            cli, "trained_cooling_model", lambda *a, **k: object()
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "schema": profiling.SCHEMA_VERSION,
            "results": {"day_sim": {"median_s": 0.25}},
        }))
        out = tmp_path / "bench.json"
        code = main([
            "bench", "--quick", "--no-history", "--check",
            "--output", str(out), "--baseline", str(baseline),
        ])
        assert code == 3
        assert "regressed" in capsys.readouterr().err
        # Same run, catastrophic-only threshold: passes.
        code = main([
            "bench", "--quick", "--no-history", "--check",
            "--check-threshold", "50.0",
            "--output", str(out), "--baseline", str(baseline),
        ])
        assert code == 0
