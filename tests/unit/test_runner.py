"""Parallel campaign runner tests (repro.analysis.runner).

The pool tests monkeypatch the simulation entry points and rely on the
``fork`` start method to carry the patches into workers, so they skip on
platforms that spawn.
"""

import multiprocessing

import pytest

from repro.analysis import experiments, runner
from repro.errors import ReproError
from repro.sim.yearsim import YearResult
from repro.weather.locations import ICELAND, NEWARK, SANTIAGO

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool tests need fork to inherit monkeypatched state",
)


@pytest.fixture()
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(experiments, "_memory_cache", {})
    # These tests patch the scalar entry point (experiments.run_year), so
    # pin the scalar engine; the lane-chunked path has its own tests.
    monkeypatch.setattr(experiments, "DEFAULT_SIM_ENGINE", "scalar")
    return tmp_path


def fake_result(label="Baseline", climate="Newark"):
    return YearResult(
        label=label,
        climate_name=climate,
        sampled_days=[0, 183],
        daily_worst_range_c=[5.0, 6.0],
        daily_outside_range_c=[10.0, 11.0],
        daily_avg_violation_c=[0.0, 0.1],
        daily_max_rate_c_per_hour=[4.0, 5.0],
        cooling_kwh=42.0,
        it_kwh=500.0,
    )


def baseline_tasks(*climates):
    return [runner.YearTask("baseline", c) for c in climates]


class TestResolveWorkers:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert runner.resolve_workers(3) == 3

    def test_env_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert runner.resolve_workers() == 5

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        import os

        assert runner.resolve_workers() == (os.cpu_count() or 1)

    def test_invalid_env_is_clean_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ReproError, match="REPRO_WORKERS"):
            runner.resolve_workers()

    @pytest.mark.parametrize("bad", [0, -2])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ReproError, match=">= 1"):
            runner.resolve_workers(bad)


class TestSerialPath:
    def test_workers_1_never_builds_a_pool(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )

        def boom(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("pool built on the serial path")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", boom)
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND), workers=1
        )
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]

    def test_single_pending_task_stays_in_process(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year", lambda *a, **k: fake_result()
        )
        monkeypatch.setattr(
            runner, "ProcessPoolExecutor",
            lambda *a, **k: pytest.fail("pool built for one task"),
        )
        (result,) = runner.run_year_tasks(baseline_tasks(NEWARK), workers=8)
        assert result.cooling_kwh == 42.0

    def test_progress_ticks_every_task(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year", lambda *a, **k: fake_result()
        )
        seen = []
        runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO),
            workers=1,
            progress=lambda done, total, task: seen.append((done, total)),
        )
        assert seen == [(1, 2), (2, 2)]

    def test_cached_cells_skip_simulation(self, tmp_cache, monkeypatch):
        calls = []
        monkeypatch.setattr(
            experiments, "run_year",
            lambda *a, **k: calls.append(1) or fake_result(),
        )
        tasks = baseline_tasks(NEWARK, SANTIAGO)
        runner.run_year_tasks(tasks, workers=1)
        assert len(calls) == 2
        runner.run_year_tasks(tasks, workers=1)
        assert len(calls) == 2


@fork_only
class TestPoolPath:
    def test_results_come_back_in_task_order(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )
        tasks = baseline_tasks(NEWARK, SANTIAGO, ICELAND)
        results = runner.run_year_tasks(tasks, workers=2)
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]

    def test_workers_persist_to_the_shared_disk_cache(
        self, tmp_cache, monkeypatch
    ):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )
        tasks = baseline_tasks(NEWARK, SANTIAGO)
        runner.run_year_tasks(tasks, workers=2)
        assert len(list(tmp_cache.glob("*.json"))) == 2
        # A cold process (fresh memory cache) is served from disk.
        monkeypatch.setattr(experiments, "_memory_cache", {})
        monkeypatch.setattr(
            experiments, "run_year",
            lambda *a, **k: pytest.fail("disk cache missed"),
        )
        results = runner.run_year_tasks(tasks, workers=2)
        assert results[1].climate_name == "Santiago"

    def test_parallel_matches_serial(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )
        tasks = baseline_tasks(NEWARK, SANTIAGO, ICELAND)
        serial = runner.run_year_tasks(tasks, workers=1, use_disk_cache=False)
        monkeypatch.setattr(experiments, "_memory_cache", {})
        parallel = runner.run_year_tasks(tasks, workers=3, use_disk_cache=False)
        import dataclasses

        for a, b in zip(serial, parallel):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)


@pytest.fixture()
def lane_cache(tmp_path, monkeypatch):
    """Like ``tmp_cache`` but with the lane engine left on."""
    monkeypatch.setattr(experiments, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(experiments, "_memory_cache", {})
    monkeypatch.setattr(experiments, "DEFAULT_SIM_ENGINE", "lanes")
    return tmp_path


class TestResolveLanes:
    def test_explicit_wins_over_default(self, monkeypatch):
        monkeypatch.setattr(experiments, "DEFAULT_LANES", 4)
        assert runner.resolve_lanes(2) == 2

    def test_defaults_to_repro_lanes(self, monkeypatch):
        monkeypatch.setattr(experiments, "DEFAULT_LANES", 6)
        assert runner.resolve_lanes() == 6

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ReproError, match=">= 1"):
            runner.resolve_lanes(bad)


class TestLaneChunking:
    """Uncached lane-compatible cells batch into lockstep chunks.

    These tests pin whole-cell chunking, so ``_record_chunks`` turns the
    day-unfold rule off; ``TestDayUnfoldRule`` covers the rule and the
    day chunks it plans.
    """

    def _record_chunks(self, monkeypatch):
        chunks = []
        monkeypatch.setattr(runner, "unfold_pays", lambda *a, **k: False)

        def fake_chunk(chunk, use_disk_cache, cache_memory=True):
            chunks.append(list(chunk))
            results = [
                fake_result(climate=task.climate.name) for task in chunk
            ]
            # Mirror the real chunk runner's cache writes.
            for task, result in zip(chunk, results):
                key = experiments.cache_key(
                    task.system,
                    task.climate,
                    task.workload,
                    task.deferrable,
                    task.sample_every_days,
                    task.forecast_bias_c,
                    "lanes",
                )
                experiments.store_result(
                    key, result, use_disk_cache, cache_memory
                )
            return results

        monkeypatch.setattr(runner, "_run_lane_chunk", fake_chunk)
        monkeypatch.setattr(
            runner,
            "_run_task",
            lambda *a, **k: pytest.fail("cell bypassed the lane engine"),
        )
        return chunks

    def test_group_splits_into_lane_sized_chunks(
        self, lane_cache, monkeypatch
    ):
        chunks = self._record_chunks(monkeypatch)
        tasks = baseline_tasks(NEWARK, SANTIAGO, ICELAND)
        results = runner.run_year_tasks(tasks, workers=1, lanes=2)
        assert [len(c) for c in chunks] == [2, 1]
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]

    def test_chunks_grouped_by_sampling_stride(self, lane_cache, monkeypatch):
        chunks = self._record_chunks(monkeypatch)
        tasks = [
            runner.YearTask("baseline", NEWARK, sample_every_days=7),
            runner.YearTask("baseline", SANTIAGO, sample_every_days=30),
            runner.YearTask("baseline", ICELAND, sample_every_days=7),
        ]
        runner.run_year_tasks(tasks, workers=1, lanes=8)
        strides = sorted(
            tuple(t.sample_every_days for t in chunk) for chunk in chunks
        )
        assert strides == [(7, 7), (30,)]

    def test_chunks_mix_cooling_models(self, lane_cache, monkeypatch):
        """Cooling models mix inside a chunk: cells group by stride alone.

        The lane engine makes one stacked rollout per distinct model, so
        model-gap cells (a degraded model) share a chunk with fault-free
        and baseline cells, in task order."""
        import dataclasses

        from repro.core.versions import ALL_VERSIONS
        from repro.faults import builtin_scenario

        chunks = self._record_chunks(monkeypatch)

        def faulted(name):
            return dataclasses.replace(
                ALL_VERSIONS["All-ND"](), faults=builtin_scenario(name)
            )

        tasks = [
            runner.YearTask("All-ND", NEWARK),
            runner.YearTask(faulted("model-gap"), NEWARK),
            runner.YearTask(faulted("sensor-spike"), SANTIAGO),
            runner.YearTask("baseline", ICELAND),
            runner.YearTask(faulted("model-gap"), ICELAND),
        ]
        runner.run_year_tasks(tasks, workers=1, lanes=8)
        assert chunks == [tasks]

    def test_lanes_1_restores_per_cell_runs(self, lane_cache, monkeypatch):
        for name in ("_run_lane_chunk", "_run_day_chunk"):
            monkeypatch.setattr(
                runner,
                name,
                lambda *a, name=name, **k: pytest.fail(
                    f"{name} called with lanes=1"
                ),
            )
        calls = []

        def fake_year_result(system, climate, *a, lanes=None, **k):
            calls.append((climate.name, lanes))
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "year_result", fake_year_result)
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO), workers=1, lanes=1
        )
        assert [r.climate_name for r in results] == ["Newark", "Santiago"]
        # One whole cell per call, told to keep its days sequential.
        assert calls == [("Newark", 1), ("Santiago", 1)]

    def test_scalar_engine_skips_lane_batching(self, lane_cache, monkeypatch):
        monkeypatch.setattr(experiments, "DEFAULT_SIM_ENGINE", "scalar")
        monkeypatch.setattr(
            runner,
            "_run_lane_chunk",
            lambda *a, **k: pytest.fail("lane chunk built on scalar engine"),
        )
        monkeypatch.setattr(
            experiments, "run_year", lambda *a, **k: fake_result()
        )
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO), workers=1, lanes=4
        )
        assert len(results) == 2

    def test_cached_cells_never_reach_a_chunk(self, lane_cache, monkeypatch):
        chunks = self._record_chunks(monkeypatch)
        tasks = baseline_tasks(NEWARK, SANTIAGO)
        runner.run_year_tasks(tasks, workers=1, lanes=4)
        assert [len(c) for c in chunks] == [2]
        # Second run: everything is served from the cache.
        runner.run_year_tasks(tasks, workers=1, lanes=4)
        assert [len(c) for c in chunks] == [2]

    @fork_only
    def test_pool_chunks_spread_across_workers(self, lane_cache, monkeypatch):
        chunks = self._record_chunks(monkeypatch)
        tasks = baseline_tasks(NEWARK, SANTIAGO, ICELAND)
        # 3 lane-compatible cells, 2 workers, 8 lanes: ceil(3/2)=2 per
        # chunk, so both workers get work instead of one 3-lane batch.
        results = runner.run_year_tasks(tasks, workers=2, lanes=8)
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]
        # The fakes ran in forked workers; the parent's recorder stays
        # empty, which itself proves the pool path was taken.
        assert chunks == []


def fake_day_payload(day):
    return {
        "worst_range_c": float(day),
        "outside_range_c": 1.0,
        "avg_violation_c": 0.0,
        "max_rate_c_per_hour": 2.0,
        "cooling_kwh": 0.5,
        "it_kwh": 4.0,
        "water_l": 0.0,
        "tower_mech_hours": 0.0,
        "chiller_mech_hours": 0.0,
        "degraded_fraction": 0.0,
    }


# (cells, days, workers) of the campaign shapes the rule is stated on.
UNFOLD_SHAPES = [
    (5, 2, 2),  # a small_campaigns query
    (1, 27, 2),  # a lone cell
    (5, 2, 1),  # one worker
    (25, 4, 2),  # paper_matrix
    (48, 4, 2),  # plant_world
    (10, 4, 2),  # CI's day-unfold smoke
]


class TestBalancedChunks:
    """``_chunked`` cuts contiguous, balanced chunks; ``_passes`` counts
    exactly the chunks it cuts."""

    @pytest.mark.parametrize("lanes", [1, 8, 32])
    @pytest.mark.parametrize("cells, days, workers", UNFOLD_SHAPES)
    def test_chunk_plan(self, cells, days, workers, lanes):
        for units in (cells, cells * days):
            chunks = runner._chunked(list(range(units)), workers, lanes)
            sizes = [len(chunk) for chunk in chunks]
            # Contiguous slices, in order, covering every unit once.
            assert [u for chunk in chunks for u in chunk] == list(
                range(units)
            )
            assert max(sizes) - min(sizes) <= 1
            assert max(sizes) <= lanes
            # Whole passes for every worker, unless units run out first.
            assert len(chunks) % workers == 0 or len(chunks) == units
            assert runner._passes(units, workers, lanes) == -(
                -len(chunks) // workers
            )

    def test_no_short_tail(self):
        """25 cells on 2 workers x 8 lanes: four chunks of 6-7, not
        8, 8, 8, 1."""
        chunks = runner._chunked(list(range(25)), 2, 8)
        assert [len(chunk) for chunk in chunks] == [7, 6, 6, 6]


class TestDayUnfoldRule:
    """When ``run_year_tasks`` unfolds a lane group's cells into days."""

    @pytest.mark.parametrize(
        "cells, days, workers, lanes, cell_passes, day_passes, unfold",
        [
            (5, 2, 2, 8, 2, 1, True),  # a small_campaigns query
            (1, 27, 2, 8, 27, 2, True),  # a lone cell
            (5, 2, 1, 8, 2, 2, False),  # one worker: a tie keeps cells
            (25, 4, 2, 8, 8, 7, False),  # paper_matrix fills the lanes
            (48, 4, 2, 8, 12, 12, False),  # plant_world fills the lanes
            (1, 27, 2, 1, 27, 14, False),  # lanes=1 never unfolds
            # The default width, 32 lanes:
            (5, 2, 2, 32, 2, 1, True),  # small_campaigns: plan unchanged
            (1, 27, 2, 32, 27, 1, True),  # a lone cell: one pass
            (25, 4, 2, 32, 4, 2, True),  # paper_matrix unfolds
            (48, 4, 2, 32, 4, 3, True),  # plant_world unfolds
            (10, 4, 2, 32, 4, 1, True),  # CI's day-unfold smoke
        ],
    )
    def test_decision_table(
        self, cells, days, workers, lanes, cell_passes, day_passes, unfold
    ):
        assert days * runner._passes(cells, workers, lanes) == cell_passes
        assert runner._passes(cells * days, workers, lanes) == day_passes
        assert runner.unfold_pays(cells, days, workers, lanes) is unfold

    def _record(self, monkeypatch):
        """Fake both chunk runners; returns (lane chunks, day chunks)."""
        lane_chunks, day_chunks = [], []

        def fake_lane_chunk(chunk, use_disk_cache, cache_memory=True):
            lane_chunks.append([task.climate.name for task in chunk])
            return [fake_result(climate=t.climate.name) for t in chunk]

        def fake_day_chunk(items, use_disk_cache):
            day_chunks.append(
                [(task.climate.name, day) for task, day in items]
            )
            return [fake_day_payload(day) for _, day in items]

        monkeypatch.setattr(runner, "_run_lane_chunk", fake_lane_chunk)
        monkeypatch.setattr(runner, "_run_day_chunk", fake_day_chunk)
        monkeypatch.setattr(
            runner,
            "_run_task",
            lambda *a, **k: pytest.fail("cell left the planned chunks"),
        )
        return lane_chunks, day_chunks

    def test_ineligible_cells_stay_whole_in_an_unfolding_group(
        self, lane_cache, monkeypatch
    ):
        """Eligible cells unfold; a faulted cell of the same group (one
        stride, one cooling model) still runs as a whole-cell chunk."""
        import dataclasses

        from repro.core.versions import ALL_VERSIONS
        from repro.faults import builtin_scenario

        lane_chunks, day_chunks = self._record(monkeypatch)
        faulted = dataclasses.replace(
            ALL_VERSIONS["All-ND"](), faults=builtin_scenario("sensor-spike")
        )
        tasks = [
            runner.YearTask("baseline", NEWARK, sample_every_days=183),
            runner.YearTask(faulted, SANTIAGO, sample_every_days=183),
            runner.YearTask("baseline", ICELAND, sample_every_days=183),
        ]
        results = runner.run_year_tasks(tasks, workers=1, lanes=8)
        assert day_chunks == [
            [("Newark", 0), ("Newark", 183), ("Iceland", 0), ("Iceland", 183)]
        ]
        assert lane_chunks == [["Santiago"]]
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]
        # The fold keeps day order and sums the days' energies.
        assert results[0].sampled_days == [0, 183]
        assert results[0].daily_worst_range_c == [0.0, 183.0]
        assert results[0].cooling_kwh == 1.0

    def test_failed_day_chunk_reruns_its_cells_whole(
        self, lane_cache, monkeypatch
    ):
        """In-process, like a failed lane chunk: each cell of a failed day
        chunk re-runs whole, at the run's lane width, exactly once."""
        monkeypatch.setattr(
            runner,
            "_run_day_chunk",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        calls = []

        def fake_year_result(system, climate, *a, lanes=None, **k):
            calls.append((climate.name, lanes))
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "year_result", fake_year_result)
        tasks = [
            runner.YearTask("baseline", c, sample_every_days=183)
            for c in (NEWARK, SANTIAGO)
        ]
        results = runner.run_year_tasks(
            tasks, workers=1, lanes=8, backoff_s=0.0
        )
        assert calls == [("Newark", 8), ("Santiago", 8)]
        assert [r.climate_name for r in results] == ["Newark", "Santiago"]

    def test_folded_cells_reach_the_cache_through_store_result(
        self, lane_cache, monkeypatch
    ):
        """One put per unfolded cell; the memory half follows
        ``keep_results`` like ``load_cached(cache_memory=)``."""
        self._record(monkeypatch)
        puts = []
        real_store = experiments.store_result

        def spy_store(key, result, use_disk_cache=True, cache_memory=True):
            puts.append((use_disk_cache, cache_memory))
            real_store(key, result, use_disk_cache, cache_memory)

        monkeypatch.setattr(experiments, "store_result", spy_store)
        tasks = [
            runner.YearTask("baseline", c, sample_every_days=183)
            for c in (NEWARK, SANTIAGO)
        ]
        runner.run_year_tasks(tasks, workers=1, keep_results=False)
        assert puts == [(True, False), (True, False)]
        assert len(list(lane_cache.glob("*.json"))) == 2
        assert experiments._memory_cache == {}


class TestFailureKnobResolvers:
    def test_retries_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "5")
        assert runner.resolve_task_retries(0) == 0

    def test_retries_env_parsed_and_defaulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "3")
        assert runner.resolve_task_retries() == 3
        monkeypatch.delenv("REPRO_TASK_RETRIES")
        assert runner.resolve_task_retries() == 1

    def test_retries_invalid_env_is_clean_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "many")
        with pytest.raises(ReproError, match="REPRO_TASK_RETRIES"):
            runner.resolve_task_retries()

    def test_retries_rejects_negative(self):
        with pytest.raises(ReproError, match=">= 0"):
            runner.resolve_task_retries(-1)

    def test_timeout_env_and_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT_S", "2.5")
        assert runner.resolve_task_timeout() == 2.5
        assert runner.resolve_task_timeout(0) is None  # non-positive disables
        monkeypatch.delenv("REPRO_TASK_TIMEOUT_S")
        assert runner.resolve_task_timeout() is None


class TestSerialFailureHandling:
    def test_retry_then_success(self, tmp_cache, monkeypatch):
        calls = []

        def flaky(system, climate, *a, **k):
            calls.append(climate.name)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", flaky)
        retried = []
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK), workers=1, task_retries=1,
            backoff_s=0.0, retried=retried,
        )
        assert results[0].climate_name == "Newark"
        assert len(calls) == 2
        assert retried == ["baseline @ Newark (facebook)"]

    def test_exhausted_retries_raise_with_task_identity(
        self, tmp_cache, monkeypatch
    ):
        def always_fails(*a, **k):
            raise RuntimeError("bad cell")

        monkeypatch.setattr(experiments, "run_year", always_fails)
        from repro.errors import TaskExecutionError

        with pytest.raises(TaskExecutionError, match="baseline @ Newark"):
            runner.run_year_tasks(
                baseline_tasks(NEWARK), workers=1, task_retries=1,
                backoff_s=0.0,
            )

    def test_failures_list_collects_instead_of_raising(
        self, tmp_cache, monkeypatch
    ):
        def santiago_fails(system, climate, *a, **k):
            if climate.name == "Santiago":
                raise RuntimeError("bad cell")
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", santiago_fails)
        failures = []
        seen = []
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND), workers=1,
            task_retries=0, backoff_s=0.0, failures=failures,
            progress=lambda done, total, task: seen.append((done, total)),
        )
        assert [r.climate_name if r else None for r in results] == [
            "Newark", None, "Iceland",
        ]
        (failure,) = failures
        assert "Santiago" in failure.label()
        assert "bad cell" in failure.error
        # Progress still reaches total: failed cells tick too.
        assert seen[-1] == (3, 3)


CHUNK_RUNNERS = ["_run_lane_chunk", "_run_day_chunk"]


class TestInProcessChunkRetries:
    """In-process, a failed lane or day chunk obeys ``task_retries`` as
    the pool does: the chunk run is each cell's first attempt."""

    def _run(self, monkeypatch, chunk_runner, retries, rerun_fails):
        if chunk_runner == "_run_lane_chunk":
            monkeypatch.setattr(runner, "unfold_pays", lambda *a, **k: False)
        monkeypatch.setattr(
            runner,
            chunk_runner,
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        reruns = []

        def counting_year_result(system, climate, *a, **k):
            reruns.append(climate.name)
            if rerun_fails:
                raise RuntimeError("still broken")
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "year_result", counting_year_result)
        failures = []
        tasks = [
            runner.YearTask("baseline", c, sample_every_days=183)
            for c in (NEWARK, SANTIAGO)
        ]
        results = runner.run_year_tasks(
            tasks, workers=1, lanes=8, task_retries=retries,
            backoff_s=0.0, failures=failures,
        )
        return reruns, failures, results

    @pytest.mark.parametrize("chunk_runner", CHUNK_RUNNERS)
    def test_no_retries_fails_the_cells_at_once(
        self, lane_cache, monkeypatch, chunk_runner
    ):
        reruns, failures, results = self._run(
            monkeypatch, chunk_runner, retries=0, rerun_fails=False
        )
        assert reruns == []
        assert [f.attempts for f in failures] == [1, 1]
        assert all("boom" in f.error for f in failures)
        assert results == [None, None]

    @pytest.mark.parametrize("rerun_fails", [False, True])
    @pytest.mark.parametrize("chunk_runner", CHUNK_RUNNERS)
    def test_one_retry_reruns_each_cell_once(
        self, lane_cache, monkeypatch, chunk_runner, rerun_fails
    ):
        reruns, failures, results = self._run(
            monkeypatch, chunk_runner, retries=1, rerun_fails=rerun_fails
        )
        assert reruns == ["Newark", "Santiago"]
        if rerun_fails:
            # The chunk run and the re-run: two attempts each.
            assert [f.attempts for f in failures] == [2, 2]
        else:
            assert failures == []
            assert [r.climate_name for r in results] == ["Newark", "Santiago"]


@fork_only
class TestPoolFailureHandling:
    def test_pool_failure_carries_identity_and_is_collected(
        self, tmp_cache, monkeypatch
    ):
        def santiago_fails(system, climate, *a, **k):
            if climate.name == "Santiago":
                raise RuntimeError("bad cell")
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", santiago_fails)
        failures = []
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND), workers=2,
            task_retries=0, backoff_s=0.0, failures=failures,
        )
        assert [r.climate_name if r else None for r in results] == [
            "Newark", None, "Iceland",
        ]
        (failure,) = failures
        assert "Santiago" in failure.label()

    def test_pool_retry_recovers_transient_failure(
        self, tmp_cache, tmp_path, monkeypatch
    ):
        flag = tmp_path / "failed-once"

        def flaky(system, climate, *a, **k):
            if climate.name == "Santiago" and not flag.exists():
                flag.write_text("x")
                raise RuntimeError("transient")
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", flaky)
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND), workers=2,
            task_retries=1, backoff_s=0.0,
        )
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]

    def test_worker_crash_recovers_unfinished_cells_serially(
        self, tmp_cache, tmp_path, monkeypatch
    ):
        import os

        flag = tmp_path / "crashed-once"

        def crashing(system, climate, *a, **k):
            if climate.name == "Santiago" and not flag.exists():
                flag.write_text("x")
                os._exit(1)  # hard crash: BrokenProcessPool in the parent
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", crashing)
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND), workers=2,
            task_retries=1, backoff_s=0.0,
        )
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]

    def test_stalled_pool_times_out_and_recovers_serially(
        self, tmp_cache, monkeypatch
    ):
        import os
        import time

        parent_pid = os.getpid()

        def hangs_in_workers(system, climate, *a, **k):
            if os.getpid() != parent_pid:
                time.sleep(3.0)  # longer than the timeout below
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", hangs_in_workers)
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO), workers=2,
            task_timeout_s=0.3, backoff_s=0.0,
        )
        assert [r.climate_name for r in results] == ["Newark", "Santiago"]

    def test_crash_recovery_prefers_cells_the_worker_persisted(
        self, tmp_cache, tmp_path, monkeypatch
    ):
        """A cell persisted by a dying worker is never recomputed."""
        import os

        flag = tmp_path / "crashed-once"
        parent_pid = os.getpid()
        parent_calls = []

        def persist_then_crash(system, climate, *a, **k):
            result = fake_result(climate=climate.name)
            if climate.name == "Santiago":
                if os.getpid() == parent_pid:
                    parent_calls.append(climate.name)
                elif not flag.exists():
                    flag.write_text("x")
                    # Simulate a worker that wrote its cache entry and
                    # then died before reporting the result back.
                    key = experiments.cache_key(
                        system, climate, "facebook", False, None, 0.0
                    )
                    experiments._write_disk_entry(key, result)
                    os._exit(1)
            return result

        monkeypatch.setattr(experiments, "run_year", persist_then_crash)
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND), workers=2,
            task_retries=1, backoff_s=0.0,
        )
        assert [r.climate_name for r in results] == [
            "Newark", "Santiago", "Iceland",
        ]
        assert parent_calls == []  # served from the persisted cache entry


class TestResolveMpContext:
    def test_env_and_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_CONTEXT", "spawn")
        assert runner.resolve_mp_context() == "spawn"
        available = multiprocessing.get_all_start_methods()[0]
        assert runner.resolve_mp_context(available) == available
        monkeypatch.delenv("REPRO_MP_CONTEXT")
        assert runner.resolve_mp_context() is None

    def test_invalid_is_clean_error(self, monkeypatch):
        monkeypatch.delenv("REPRO_MP_CONTEXT", raising=False)
        with pytest.raises(ReproError, match="mp context"):
            runner.resolve_mp_context("threads")


def worker_affinity(_):
    """A pool worker's CPU affinity (None where the OS has none)."""
    import os

    getter = getattr(os, "sched_getaffinity", None)
    return getter(0) if getter else None


class TestSpreadWorker:
    """Pool workers start on distinct CPUs and keep their full affinity."""

    def test_takes_its_slot_cpu_then_restores_affinity(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            runner.os, "sched_getaffinity", lambda pid: {0, 1, 2},
            raising=False,
        )
        monkeypatch.setattr(
            runner.os, "sched_setaffinity",
            lambda pid, cpus: calls.append((pid, set(cpus))),
            raising=False,
        )
        started = multiprocessing.Value("i", 4)
        runner._spread_worker(started)
        runner._spread_worker(started)
        assert started.value == 6
        # Slots 4 and 5 of three CPUs: CPUs 1 and 2, each then released.
        assert calls == [
            (0, {1}), (0, {0, 1, 2}), (0, {2}), (0, {0, 1, 2}),
        ]

    def test_pool_workers_keep_the_parent_affinity(self):
        executor = runner._new_executor(2, None)
        try:
            seen = list(executor.map(worker_affinity, range(4)))
        finally:
            executor.shutdown()
        assert seen == [worker_affinity(None)] * 4


class TestWarmSharedState:
    """The pre-pool warm pass trains every distinct model the tasks need."""

    def _record_models(self, monkeypatch):
        import repro.sim.campaign as campaign

        calls = []
        monkeypatch.setattr(
            campaign,
            "trained_cooling_model",
            lambda *a, **k: calls.append(tuple(k.get("log_gaps", ())))
            or object(),
        )
        monkeypatch.setattr(
            experiments, "facebook_trace", lambda deferrable=False: None
        )
        monkeypatch.setattr(
            experiments, "nutch_trace", lambda deferrable=False: None
        )
        return calls

    def _gapped_config(self):
        import dataclasses

        from repro.core.versions import ALL_VERSIONS
        from repro.faults import FaultSchedule, LogGapFault

        gap = LogGapFault(drop_mode="free_cooling")
        config = dataclasses.replace(
            ALL_VERSIONS["All-ND"](), faults=FaultSchedule(log_gaps=(gap,))
        )
        return config, gap

    def test_baseline_only_trains_nothing(self, monkeypatch):
        calls = self._record_models(monkeypatch)
        runner._warm_shared_state(baseline_tasks(NEWARK, SANTIAGO))
        assert calls == []

    def test_warms_every_distinct_model_key_once(self, monkeypatch):
        calls = self._record_models(monkeypatch)
        gapped, gap = self._gapped_config()
        runner._warm_shared_state([
            runner.YearTask("baseline", NEWARK),
            runner.YearTask("All-ND", NEWARK),
            runner.YearTask(gapped, SANTIAGO),
            runner.YearTask(gapped, NEWARK),  # same gap key: warmed once
            runner.YearTask("Energy", ICELAND),  # same default key
        ])
        assert sorted(calls, key=len) == [(), (gap,)]

    def test_gapped_only_tasks_skip_the_default_model(self, monkeypatch):
        """Before the fix, only the default model was ever warmed — and
        gapped cells retrained their degraded model in every worker."""
        calls = self._record_models(monkeypatch)
        gapped, gap = self._gapped_config()
        runner._warm_shared_state([runner.YearTask(gapped, NEWARK)])
        assert calls == [(gap,)]


class TestStreaming:
    def test_keep_results_false_streams_and_drops(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )
        seen = []
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND),
            workers=1,
            keep_results=False,
            consume=lambda i, task, result: seen.append(
                (i, result.climate_name)
            ),
        )
        assert results == [None, None, None]
        assert sorted(seen) == [
            (0, "Newark"), (1, "Santiago"), (2, "Iceland"),
        ]

    def test_consume_includes_cache_hits(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )
        tasks = baseline_tasks(NEWARK, SANTIAGO)
        runner.run_year_tasks(tasks, workers=1)
        monkeypatch.setattr(
            experiments, "run_year",
            lambda *a, **k: pytest.fail("cache hit recomputed"),
        )
        seen = []
        runner.run_year_tasks(
            tasks,
            workers=1,
            keep_results=False,
            consume=lambda i, task, result: seen.append(result.climate_name),
        )
        assert sorted(seen) == ["Newark", "Santiago"]

    def test_keep_results_false_skips_memory_seeding(
        self, tmp_cache, monkeypatch
    ):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )
        tasks = baseline_tasks(NEWARK, SANTIAGO)
        runner.run_year_tasks(tasks, workers=1)
        # Disk entries exist; a fresh memory cache must stay empty when
        # the cells are served in streaming mode.
        monkeypatch.setattr(experiments, "_memory_cache", {})
        runner.run_year_tasks(
            tasks, workers=1, keep_results=False, consume=lambda *a: None
        )
        assert experiments._memory_cache == {}

    def test_failed_cells_never_reach_consume(self, tmp_cache, monkeypatch):
        def santiago_fails(system, climate, *a, **k):
            if climate.name == "Santiago":
                raise RuntimeError("bad cell")
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", santiago_fails)
        failures = []
        seen = []
        runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND),
            workers=1, task_retries=0, backoff_s=0.0, failures=failures,
            keep_results=False,
            consume=lambda i, task, result: seen.append(result.climate_name),
        )
        assert sorted(seen) == ["Iceland", "Newark"]
        assert len(failures) == 1

    @fork_only
    def test_pool_streaming_consumes_every_cell(self, tmp_cache, monkeypatch):
        monkeypatch.setattr(
            experiments, "run_year",
            lambda system, climate, *a, **k: fake_result(climate=climate.name),
        )
        seen = []
        results = runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND),
            workers=2,
            keep_results=False,
            consume=lambda i, task, result: seen.append(
                (i, result.climate_name)
            ),
        )
        assert results == [None, None, None]
        assert sorted(seen) == [
            (0, "Newark"), (1, "Santiago"), (2, "Iceland"),
        ]
        # No memory seeding happened in streaming mode.
        assert experiments._memory_cache == {}

    @fork_only
    def test_crash_recovery_still_streams_each_cell_once(
        self, tmp_cache, tmp_path, monkeypatch
    ):
        import os

        flag = tmp_path / "crashed-once"

        def crashing(system, climate, *a, **k):
            if climate.name == "Santiago" and not flag.exists():
                flag.write_text("x")
                os._exit(1)
            return fake_result(climate=climate.name)

        monkeypatch.setattr(experiments, "run_year", crashing)
        seen = []
        runner.run_year_tasks(
            baseline_tasks(NEWARK, SANTIAGO, ICELAND), workers=2,
            task_retries=1, backoff_s=0.0, keep_results=False,
            consume=lambda i, task, result: seen.append(result.climate_name),
        )
        assert sorted(seen) == ["Iceland", "Newark", "Santiago"]


class TestYearTask:
    def test_label(self):
        task = runner.YearTask("baseline", NEWARK, workload="nutch")
        assert task.label() == "baseline @ Newark (nutch)"

    def test_is_picklable(self):
        import pickle

        from repro.core.versions import ALL_VERSIONS

        task = runner.YearTask(ALL_VERSIONS["All-ND"](), NEWARK)
        clone = pickle.loads(pickle.dumps(task))
        assert clone.system.name == "All-ND"
        assert clone.climate.name == "Newark"
