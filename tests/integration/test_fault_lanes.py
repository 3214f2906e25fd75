"""Faulted lanes vs the scalar reference (repro.sim.lanes + repro.faults).

Faulted cells ride the lane engine: each faulted lane owns a
:class:`~repro.faults.FaultInjector` on its own layout and units, exactly
as a scalar run does, and CoolAir's safe-mode branching runs per lane.
The scalar :func:`~repro.sim.yearsim.run_year` stays the oracle: every
YearResult field, every step record (the ``degraded`` flag included) and
every day's degradation intervals must equal it exactly.  Runs sample
two days (0 and 183), so fault state that carries across days (held
readings, spike RNG streams, drift origins, stuck latches) is covered.

The builtin grid runs every scenario on all four plants (one fast
two-lane case in the default selection, the full grid marked ``slow``);
a hypothesis suite draws random schedules; a mixed batch checks that
faulted, fault-free, baseline and model-gap lanes stay independent.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.versions import all_nd
from repro.faults import (
    ACTUATOR_FAULT_KINDS,
    BUILTIN_SCENARIOS,
    SENSOR_FAULT_KINDS,
    ActuatorFault,
    FaultSchedule,
    SensorFault,
    builtin_scenario,
)
from repro.sim.lanes import LaneScenario, run_year_lanes
from repro.sim.yearsim import run_year
from repro.weather.locations import CHAD, NEWARK, SINGAPORE

PLANTS = ("parasol", "chiller", "cooling_tower", "hybrid")
SENSORS = tuple(f"inlet_pod{pod}" for pod in range(4)) + (
    "outside_temp",
    "cold_aisle_rh",
    "hot_aisle_rh",
    "outside_rh",
)
STRIDE = 183  # days 0 and 183


def faulted(schedule):
    return dataclasses.replace(all_nd(), faults=schedule)


def result_fields(result):
    return {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if field.name != "traces"
    }


def assert_same_run(got, want, what):
    """Field, record and degradation-interval equality of two runs."""
    assert result_fields(got) == result_fields(want), what
    assert len(got.traces) == len(want.traces), what
    for got_day, want_day in zip(got.traces, want.traces):
        where = f"{what}, day {want_day.day_of_year}"
        assert len(got_day.records) == len(want_day.records), where
        for got_rec, want_rec in zip(got_day.records, want_day.records):
            assert got_rec == want_rec, f"{where}, t={want_rec.time_s}"
        assert (
            got_day.degradation_intervals()
            == want_day.degradation_intervals()
        ), where


def scalar_run(scenario):
    return run_year(
        scenario.system,
        scenario.climate,
        scenario.trace,
        sample_every_days=STRIDE,
        forecast_bias_c=scenario.forecast_bias_c,
        keep_traces=True,
        plant=scenario.plant,
    )


def assert_lanes_match_scalar(scenarios):
    """One lane batch (each lane's own model) == one scalar run each."""
    lane_results = run_year_lanes(
        scenarios, sample_every_days=STRIDE, keep_traces=True
    )
    for scenario, lane_result in zip(scenarios, lane_results):
        name = getattr(scenario.system, "name", scenario.system)
        assert_same_run(
            lane_result,
            scalar_run(scenario),
            f"{name} @ {scenario.climate.name} / {scenario.plant}",
        )
    return lane_results


def builtin_scenarios(trace, cases):
    return [
        LaneScenario(
            system=faulted(builtin_scenario(name)),
            climate=NEWARK,
            trace=trace,
            plant=plant,
        )
        for name, plant in cases
    ]


def test_fast_two_builtin_lanes_match_scalar(facebook_trace):
    """Default selection: a spiky lane and a model-gap lane (two models
    in one batch), both degrading, on two plants."""
    results = assert_lanes_match_scalar(
        builtin_scenarios(
            facebook_trace,
            [("sensor-spike", "parasol"), ("model-gap", "hybrid")],
        )
    )
    for result in results:
        assert result.degraded_fraction > 0.0


@pytest.mark.slow
def test_every_builtin_on_every_plant_matches_scalar(facebook_trace):
    """All builtin scenarios x 4 plants as one 32-lane batch."""
    cases = [
        (name, plant)
        for name in sorted(BUILTIN_SCENARIOS)
        for plant in PLANTS
    ]
    results = assert_lanes_match_scalar(
        builtin_scenarios(facebook_trace, cases)
    )
    for (name, plant), result in zip(cases, results):
        # Every builtin bundles a safe-mode trigger (docs/ROBUSTNESS.md).
        assert any(
            day.degradation_intervals() for day in result.traces
        ), f"{name} / {plant} never degraded"


def test_mixed_batch_lanes_equal_their_solo_runs(facebook_trace):
    """Faulted, fault-free CoolAir, baseline and model-gap lanes in one
    batch: each lane equals its own one-lane run and its scalar run."""
    scenarios = [
        LaneScenario(
            system=faulted(builtin_scenario("sensor-drift")),
            climate=CHAD,
            trace=facebook_trace,
            plant="hybrid",
        ),
        LaneScenario(system=all_nd(), climate=NEWARK, trace=facebook_trace),
        LaneScenario(system="baseline", climate=NEWARK, trace=facebook_trace),
        LaneScenario(
            system=faulted(builtin_scenario("model-gap")),
            climate=SINGAPORE,
            trace=facebook_trace,
        ),
    ]
    mixed = run_year_lanes(
        scenarios, sample_every_days=STRIDE, keep_traces=True
    )
    for index, (scenario, lane_result) in enumerate(zip(scenarios, mixed)):
        (solo,) = run_year_lanes(
            [scenario], sample_every_days=STRIDE, keep_traces=True
        )
        assert_same_run(lane_result, solo, f"lane {index} vs its solo run")
        assert result_fields(lane_result) == result_fields(
            scalar_run(scenario)
        ), f"lane {index} vs its scalar run"
    assert mixed[0].degraded_fraction > 0.0
    assert mixed[1].degraded_fraction == 0.0
    assert mixed[2].degraded_fraction == 0.0
    assert mixed[3].degraded_fraction > 0.0


def test_fault_campaign_cells_match_the_scalar_engine(
    tmp_path, monkeypatch
):
    """run_year_tasks runs the faulted cells as one mixed-model lane
    chunk (model-gap's degraded model beside the default one); every
    payload equals the scalar engine's, and keys move to -elanes-."""
    from repro.analysis import experiments, runner
    from repro.service.spec import CampaignSpec

    monkeypatch.setattr(experiments, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(experiments, "_memory_cache", {})
    tasks = CampaignSpec(
        kind="faults",
        system="All-ND",
        location="Newark",
        scenarios=("inlet-dropout", "model-gap", "sensor-spike"),
        sample_every_days=STRIDE,
    ).expand()
    monkeypatch.setattr(experiments, "DEFAULT_SIM_ENGINE", "lanes")
    lanes = runner.run_year_tasks(tasks, workers=1, use_disk_cache=False)
    for task in tasks:
        key = experiments.cache_key(
            task.system, task.climate, sample_every_days=STRIDE
        )
        assert "-elanes-" in key
    monkeypatch.setattr(experiments, "DEFAULT_SIM_ENGINE", "scalar")
    monkeypatch.setattr(experiments, "_memory_cache", {})
    scalar = runner.run_year_tasks(tasks, workers=1, use_disk_cache=False)
    for task, got, want in zip(tasks, lanes, scalar):
        assert result_fields(got) == result_fields(want), task.label()


# -- random schedules ----------------------------------------------------------


@st.composite
def windows(draw):
    """Fault windows around the two sampled days: both, either, none."""
    start = draw(st.sampled_from([0, 0, 90, 183, 184, 250]))
    end = draw(st.sampled_from([1, 150, 183, 184, 300, 366]).filter(
        lambda day: day > start
    ))
    return start, end


@st.composite
def sensor_faults(draw, sensor=None):
    start, end = draw(windows())
    return SensorFault(
        sensor=sensor if sensor is not None else draw(
            st.sampled_from(SENSORS)
        ),
        kind=draw(st.sampled_from(SENSOR_FAULT_KINDS)),
        start_day=start,
        end_day=end,
        stuck_value=draw(st.sampled_from([None, 18.0, 24.0, 31.5])),
        drift_per_hour=draw(st.sampled_from([-0.5, 0.25, 1.0])),
        spike_magnitude=draw(st.sampled_from([2.0, 6.0])),
        spike_probability=draw(st.sampled_from([0.0, 0.05, 0.5])),
    )


@st.composite
def actuator_faults(draw):
    start, end = draw(windows())
    return ActuatorFault(
        kind=draw(st.sampled_from(ACTUATOR_FAULT_KINDS)),
        start_day=start,
        end_day=end,
        stuck_fan_speed=draw(st.sampled_from([0.2, 0.35, 0.8])),
    )


@st.composite
def schedules(draw):
    channels = draw(st.lists(sensor_faults(), min_size=1, max_size=3))
    if draw(st.booleans()):
        # A second channel on an already-faulted sensor: the pipe chains
        # them in schedule order.
        channels.append(draw(sensor_faults(sensor=channels[0].sensor)))
    return FaultSchedule(
        sensor_faults=tuple(channels),
        actuator_faults=tuple(
            draw(st.lists(actuator_faults(), max_size=2))
        ),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(
    max_examples=6,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    lanes=st.lists(
        st.tuples(
            schedules(),
            st.sampled_from([NEWARK, CHAD, SINGAPORE]),
            st.sampled_from(PLANTS),
        ),
        min_size=2,
        max_size=2,
    )
)
def test_random_schedules_match_scalar(lanes, facebook_trace):
    assert_lanes_match_scalar(
        [
            LaneScenario(
                system=faulted(schedule),
                climate=climate,
                trace=facebook_trace,
                plant=plant,
            )
            for schedule, climate, plant in lanes
        ]
    )
