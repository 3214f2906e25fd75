"""Wide lane chunks: mixed cooling models, shared weather and traces.

The runner groups lane cells by sampling stride alone, so one chunk may
hold lanes of several cooling models (the default and a fault log-gap
schedule's).  Inside a batch the lanes share what they only read: one
weather table row per distinct climate, and the source trace of every
lane whose temporal scheduler never moves a job.  Each lane must still
equal its scalar run, and the shared source trace must come out of the
batch untouched.
"""

import dataclasses

import pytest

from repro.analysis import experiments, runner
from repro.core.versions import all_def, all_nd
from repro.faults import builtin_scenario
from repro.sim.lanes import LaneRunner, LaneScenario
from repro.sim.yearsim import run_year
from repro.weather.locations import ICELAND, NEWARK, SANTIAGO
from repro.workload.traces import FacebookTraceGenerator

STRIDE = 183  # days 0 and 183


def result_fields(result):
    return {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if field.name != "traces"
    }


def faulted(name):
    return dataclasses.replace(all_nd(), faults=builtin_scenario(name))


def test_mixed_model_campaign_is_one_group_equal_to_scalar(
    tmp_path, monkeypatch
):
    """Model-gap (degraded model) and default-model cells share one lane
    chunk, and every cell equals ``REPRO_SIM_ENGINE=scalar``."""
    monkeypatch.setattr(experiments, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(experiments, "_memory_cache", {})
    tasks = [
        runner.YearTask(system, climate, sample_every_days=STRIDE)
        for system, climate in (
            (faulted("model-gap"), NEWARK),
            (faulted("sensor-spike"), SANTIAGO),
            ("All-ND", ICELAND),
            ("baseline", NEWARK),
        )
    ]
    lane_chunks = []
    real_chunk = runner._run_lane_chunk

    def spy_chunk(chunk, use_disk_cache, cache_memory=True):
        lane_chunks.append(list(chunk))
        return real_chunk(chunk, use_disk_cache, cache_memory)

    monkeypatch.setattr(runner, "_run_lane_chunk", spy_chunk)
    monkeypatch.setattr(experiments, "DEFAULT_SIM_ENGINE", "lanes")
    lanes = runner.run_year_tasks(
        tasks, workers=1, lanes=8, use_disk_cache=False
    )
    # The faulted cells run whole (their fault state carries across
    # days), both models in one chunk; the others unfold into days.
    assert lane_chunks == [tasks[:2]]

    monkeypatch.setattr(experiments, "DEFAULT_SIM_ENGINE", "scalar")
    monkeypatch.setattr(experiments, "_memory_cache", {})
    scalar = runner.run_year_tasks(tasks, workers=1, use_disk_cache=False)
    for task, got, want in zip(tasks, lanes, scalar):
        assert result_fields(got) == result_fields(want), task.label()


@pytest.fixture(scope="module")
def deferrable_trace():
    return FacebookTraceGenerator(num_jobs=400, seed=42).generate(
        deferrable=True
    )


def test_only_rescheduling_lanes_copy_the_trace(deferrable_trace):
    """All-DEF (temporal scheduling), All-ND and baseline lanes on one
    deferrable source trace: the last two share it, the first moves jobs
    in its own copy, all equal their scalar runs, and the source comes
    out with no job scheduled."""
    scenarios = [
        LaneScenario(system=system, climate=climate, trace=deferrable_trace)
        for system, climate in (
            (all_def(), NEWARK),
            (all_def(), SANTIAGO),
            (all_nd(), NEWARK),
            ("baseline", NEWARK),
        )
    ]
    batch = LaneRunner(scenarios)
    results = batch.run_year(sample_every_days=STRIDE)

    rescheduling, sharing = batch.lanes[:2], batch.lanes[2:]
    assert all(lane.workload.trace is not deferrable_trace
               for lane in rescheduling)
    assert all(lane.workload.trace is deferrable_trace for lane in sharing)
    # The temporal lanes did move jobs, in their own copies ...
    assert any(
        job.scheduled_start_s is not None
        for lane in rescheduling
        for job in lane.workload.jobs
    )
    # ... and none in the shared source.
    assert all(job.scheduled_start_s is None for job in deferrable_trace.jobs)

    for scenario, got in zip(scenarios, results):
        want = run_year(
            scenario.system,
            scenario.climate,
            deferrable_trace,
            sample_every_days=STRIDE,
        )
        assert result_fields(got) == result_fields(want), (
            f"{got.label} @ {got.climate_name}"
        )
