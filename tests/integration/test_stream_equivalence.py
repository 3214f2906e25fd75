"""Streaming world-sweep equivalence (the campaign data plane).

The world sweep folds each completed cell into compact columnar
summaries instead of holding every :class:`YearResult` in the parent.
Its output must be *identical* — same locations, same order, bit-equal
floats — to :func:`~repro.analysis.worldmap.summarize_world` over the
full result list (the in-memory oracle), with real simulations on both
sides, and it must leave the parent's memory cache unseeded.  The
accumulator's pairing rules (drop a climate missing either result, grid
order, error on empty) are pinned with fakes.
"""

import dataclasses

import pytest

from repro.analysis import experiments
from repro.analysis.runner import YearTask, run_year_tasks
from repro.analysis.worldmap import StreamingWorldAccumulator, summarize_world
from repro.errors import SimulationError
from repro.sim.yearsim import YearResult
from repro.weather.locations import world_grid

# One sampled day per year keeps each of the 8 cells fast.
FAST_STRIDE = 365


@pytest.fixture()
def fresh_caches(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(experiments, "_memory_cache", {})
    return monkeypatch


def world_tasks(climates):
    return [
        YearTask(system, climate, sample_every_days=FAST_STRIDE)
        for climate in climates
        for system in ("baseline", "All-ND")
    ]


def test_streaming_sweep_identical_to_in_memory(fresh_caches):
    streamed = experiments.world_sweep(
        num_locations=2,
        sample_every_days=FAST_STRIDE,
        workers=1,
    )
    fresh_caches.setattr(experiments, "_memory_cache", {})
    fresh_caches.setattr(
        experiments, "CACHE_DIR", experiments.CACHE_DIR.parent / "cache2"
    )
    climates = world_grid(2)
    results = run_year_tasks(world_tasks(climates), workers=1)
    in_memory = summarize_world(
        [(results[2 * i], results[2 * i + 1]) for i in range(len(climates))],
        [(c.latitude, c.longitude) for c in climates],
    )
    # Frozen dataclasses: == is field-wise over every location, in order.
    assert streamed == in_memory
    assert streamed.comparisons[0].name == in_memory.comparisons[0].name
    assert streamed.headline() == in_memory.headline()


class TestParentMemory:
    """``keep_results`` decides whether the parent's memory cache is
    seeded, on the in-process plan as on the pool's."""

    @pytest.mark.parametrize("lanes", [None, 1])
    def test_streamed_sweep_pins_no_result(self, fresh_caches, lanes):
        experiments.world_sweep(
            num_locations=3,
            sample_every_days=FAST_STRIDE,
            workers=1,
            lanes=lanes,
        )
        assert experiments._memory_cache == {}

    @pytest.mark.parametrize("lanes", [None, 1])
    def test_kept_results_seed_the_memory_cache(self, fresh_caches, lanes):
        tasks = world_tasks(world_grid(2))
        results = run_year_tasks(tasks, workers=1, lanes=lanes)
        cached = experiments._memory_cache
        assert len(cached) == len(tasks)
        assert sorted(map(id, cached.values())) == sorted(map(id, results))


def fake_result(system, climate_name, range_c, pue_overhead):
    return YearResult(
        label=system,
        climate_name=climate_name,
        sampled_days=[0],
        daily_worst_range_c=[range_c],
        daily_outside_range_c=[range_c + 4.0],
        daily_avg_violation_c=[0.0],
        daily_max_rate_c_per_hour=[2.0],
        cooling_kwh=pue_overhead * 500.0,
        it_kwh=500.0,
    )


class TestAccumulatorRules:
    def _tasks_and_climates(self):
        climates = world_grid(2)
        tasks = []
        for climate in climates:
            for system in ("baseline", "All-ND"):
                tasks.append(YearTask(system, climate))
        return climates, tasks

    def test_matches_summarize_world_pairing(self):
        climates, tasks = self._tasks_and_climates()
        accumulator = StreamingWorldAccumulator(climates, "All-ND")
        results = []
        for task in tasks:
            name = task.system
            results.append(
                fake_result(
                    name,
                    task.climate.name,
                    12.0 if name == "baseline" else 7.0,
                    0.10 if name == "baseline" else 0.08,
                )
            )
        # Feed out of order: completion order must not matter.
        for index in (3, 0, 2, 1):
            accumulator.consume(index, tasks[index], results[index])
        summary = accumulator.summary()
        pairs = [(results[0], results[1]), (results[2], results[3])]
        coordinates = [(c.latitude, c.longitude) for c in climates]
        from repro.analysis.worldmap import summarize_world

        assert summary == summarize_world(pairs, coordinates)
        assert [c.name for c in summary.comparisons] == [
            c.name for c in climates
        ]

    def test_incomplete_climate_dropped(self):
        climates, tasks = self._tasks_and_climates()
        accumulator = StreamingWorldAccumulator(climates, "All-ND")
        # First climate gets both results; second only its baseline
        # (e.g. its All-ND cell failed and stayed None).
        accumulator.consume(
            0, tasks[0], fake_result("baseline", climates[0].name, 12.0, 0.1)
        )
        accumulator.consume(
            1, tasks[1], fake_result("All-ND", climates[0].name, 7.0, 0.08)
        )
        accumulator.consume(
            2, tasks[2], fake_result("baseline", climates[1].name, 11.0, 0.1)
        )
        accumulator.consume(3, tasks[3], None)
        summary = accumulator.summary()
        assert [c.name for c in summary.comparisons] == [climates[0].name]

    def test_empty_summary_raises(self):
        climates, tasks = self._tasks_and_climates()
        accumulator = StreamingWorldAccumulator(climates, "All-ND")
        with pytest.raises(SimulationError, match="no locations"):
            accumulator.summary()

    def test_metrics_bit_exact_through_columns(self):
        climates, tasks = self._tasks_and_climates()
        accumulator = StreamingWorldAccumulator(climates, "All-ND")
        baseline = fake_result("baseline", climates[0].name, 12.34567, 0.1)
        coolair = fake_result("All-ND", climates[0].name, 7.65432, 0.08)
        accumulator.consume(0, tasks[0], baseline)
        accumulator.consume(1, tasks[1], coolair)
        (comparison,) = accumulator.summary().comparisons
        assert comparison.baseline_max_range_c == baseline.max_range_c
        assert comparison.coolair_max_range_c == coolair.max_range_c
        assert comparison.baseline_pue == baseline.pue
        assert comparison.coolair_pue == coolair.pue
