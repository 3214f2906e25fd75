"""Fault-injection layer tests (repro.faults + the sensor seam).

Covers schedule validation, each sensor fault channel's semantics
(including the healthy/unhealthy split that drives safe-mode fallback),
seeded determinism, log-gap filtering, and the half-up quantization rule
shared by the scalar sensors and the lane engine.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.datacenter.layout import parasol_layout
from repro.datacenter.sensors import TemperatureSensor, quantize_half_up
from repro.errors import ConfigError
from repro.faults import (
    ActuatorFault,
    BUILTIN_SCENARIOS,
    FaultInjector,
    FaultSchedule,
    LogGapFault,
    SensorFault,
    apply_log_gaps,
    builtin_scenario,
)
from repro.cooling.regimes import CoolingMode


class TestQuantizeHalfUp:
    """The tie-pinning satellite: halves round up, never to even."""

    @pytest.mark.parametrize("value, expected", [
        (25.25, 25.5),   # round() would give 25.0 (half to even)
        (25.75, 26.0),
        (25.1, 25.0),
        (25.4, 25.5),
        (-0.25, 0.0),    # halves round toward +inf, also below zero
    ])
    def test_ties_round_up_at_half_degree(self, value, expected):
        assert quantize_half_up(value, 0.5) == expected

    def test_sensor_observe_uses_half_up(self):
        sensor = TemperatureSensor("t", resolution_c=0.5)
        assert sensor.observe(25.25) == 25.5
        assert sensor.observe(25.75) == 26.0

    def test_lane_formula_matches_scalar_bit_for_bit(self):
        values = np.array([25.25, 25.75, -0.25, 18.1, 33.3333, 29.999])
        lanes = np.floor(values / 0.5 + 0.5) * 0.5
        scalar = [quantize_half_up(v, 0.5) for v in values]
        assert list(lanes) == scalar

    def test_differs_from_python_round_exactly_at_ties(self):
        # Documented divergence: round() is half-to-even.
        assert round(25.25 / 0.5) * 0.5 == 25.0
        assert quantize_half_up(25.25, 0.5) == 25.5


class TestScheduleValidation:
    def test_empty_schedule_is_falsy(self):
        assert FaultSchedule().is_empty
        assert not FaultSchedule()
        assert bool(builtin_scenario("inlet-dropout"))

    def test_unknown_sensor_kind_rejected(self):
        with pytest.raises(ConfigError, match="fault kind"):
            SensorFault(sensor="inlet_pod0", kind="melt")

    def test_unknown_actuator_kind_rejected(self):
        with pytest.raises(ConfigError, match="fault kind"):
            ActuatorFault(kind="explode")

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            SensorFault(sensor="x", kind="dropout", start_day=10, end_day=10)

    def test_spike_probability_range_checked(self):
        with pytest.raises(ConfigError, match="spike_probability"):
            SensorFault(sensor="x", kind="spike", spike_probability=1.5)

    def test_log_gap_must_drop_something(self):
        with pytest.raises(ConfigError, match="drops nothing"):
            LogGapFault()

    def test_unknown_builtin_scenario(self):
        with pytest.raises(ConfigError, match="choices"):
            builtin_scenario("meteor-strike")

    def test_unknown_target_sensor_rejected_at_attach(self):
        schedule = FaultSchedule(
            sensor_faults=(SensorFault(sensor="inlet_pod99", kind="dropout"),)
        )
        injector = FaultInjector(schedule)
        with pytest.raises(ConfigError, match="unknown sensor"):
            injector.attach(parasol_layout(), units=None)


def _wired_sensor(fault, day=182):
    """A real inlet sensor with one fault channel installed."""
    layout = parasol_layout()
    injector = FaultInjector(FaultSchedule(sensor_faults=(fault,)))
    injector.attach(layout, units=None)
    injector.begin_day(day)
    sensor = next(
        s for s in layout.inlet_sensors if s.name == fault.sensor
    )
    return sensor, injector


class TestSensorChannels:
    def test_dropout_holds_last_reading_and_reports_unhealthy(self):
        fault = SensorFault(sensor="inlet_pod3", kind="dropout",
                            start_day=100, end_day=200)
        sensor, injector = _wired_sensor(fault, day=50)
        injector.set_time(0.0)
        assert sensor.observe(24.0) == 24.0
        assert sensor.healthy
        injector.begin_day(150)
        assert sensor.observe(30.0) == 24.0  # held, not the new value
        assert not sensor.healthy
        injector.begin_day(250)  # window over
        assert sensor.observe(30.0) == 30.0
        assert sensor.healthy

    def test_dead_sensor_with_no_prior_reading_returns_quantized_truth(self):
        fault = SensorFault(sensor="inlet_pod3", kind="dropout")
        sensor, injector = _wired_sensor(fault)
        injector.set_time(0.0)
        assert sensor.observe(26.2) == 26.0
        assert not sensor.healthy

    def test_stuck_pins_value_and_reports_unhealthy(self):
        fault = SensorFault(sensor="inlet_pod0", kind="stuck", stuck_value=24.0)
        sensor, injector = _wired_sensor(fault)
        injector.set_time(0.0)
        assert sensor.observe(31.0) == 24.0
        assert sensor.observe(18.0) == 24.0
        assert not sensor.healthy

    def test_stuck_without_value_freezes_first_windowed_reading(self):
        fault = SensorFault(sensor="inlet_pod0", kind="stuck")
        sensor, injector = _wired_sensor(fault)
        injector.set_time(0.0)
        assert sensor.observe(27.3) == 27.5
        assert sensor.observe(19.0) == 27.5

    def test_drift_ramps_with_time_but_stays_healthy(self):
        fault = SensorFault(sensor="inlet_pod2", kind="drift",
                            drift_per_hour=0.5)
        sensor, injector = _wired_sensor(fault)
        injector.set_time(0.0)
        assert sensor.observe(25.0) == 25.0
        injector.set_time(4 * 3600.0)
        assert sensor.observe(25.0) == 27.0  # +0.5C/h * 4h
        assert sensor.healthy  # drift is undetectable

    def test_spike_same_seed_same_sequence(self):
        fault = SensorFault(sensor="inlet_pod1", kind="spike",
                            spike_magnitude=6.0, spike_probability=0.3)

        def run():
            sensor, injector = _wired_sensor(fault)
            readings = []
            for step in range(50):
                injector.set_time(step * 120.0)
                readings.append(sensor.observe(25.0))
            return readings

        first, second = run(), run()
        assert first == second
        assert any(r != 25.0 for r in first)  # some spikes fired
        assert all(abs(r - 25.0) in (0.0, 6.0) for r in first)

    def test_window_relatch_resets_stuck_value(self):
        fault = SensorFault(sensor="inlet_pod0", kind="stuck",
                            start_day=10, end_day=20)
        sensor, injector = _wired_sensor(fault, day=12)
        injector.set_time(0.0)
        assert sensor.observe(22.0) == 22.0
        injector.begin_day(25)  # heal
        assert sensor.observe(30.0) == 30.0
        injector.begin_day(15)  # re-enter window: latch anew
        assert sensor.observe(28.0) == 28.0
        assert sensor.observe(18.0) == 28.0


class TestActuatorFaults:
    def test_begin_day_programs_units_inside_window_only(self):
        calls = []
        units = SimpleNamespace(
            set_faults=lambda **kw: calls.append(kw)
        )
        schedule = FaultSchedule(actuator_faults=(
            ActuatorFault(kind="fan_stuck", stuck_fan_speed=0.35,
                          start_day=100, end_day=200),
            ActuatorFault(kind="compressor_lockout"),
        ))
        injector = FaultInjector(schedule)
        injector.attach(parasol_layout(), units)
        injector.begin_day(150)
        assert calls[-1] == dict(
            fan_stuck_speed=0.35, compressor_locked=True, damper_jammed=False
        )
        injector.begin_day(250)
        assert calls[-1] == dict(
            fan_stuck_speed=None, compressor_locked=True, damper_jammed=False
        )


def _sample(mode):
    return SimpleNamespace(mode=mode)


class TestLogGaps:
    def test_drop_by_mode(self):
        log = [
            _sample(CoolingMode.FREE_COOLING),
            _sample(CoolingMode.CLOSED),
            _sample(CoolingMode.FREE_COOLING),
            _sample(CoolingMode.AC_ON),
        ]
        kept = apply_log_gaps(log, (LogGapFault(drop_mode="free_cooling"),))
        assert [s.mode for s in kept] == [
            CoolingMode.CLOSED, CoolingMode.AC_ON,
        ]

    def test_drop_positional_slice(self):
        log = [_sample(CoolingMode.CLOSED) for _ in range(10)]
        kept = apply_log_gaps(
            log, (LogGapFault(start_fraction=0.2, end_fraction=0.5),)
        )
        assert len(kept) == 7  # indices 2, 3, 4 dropped

    def test_no_gaps_is_identity(self):
        log = [_sample(CoolingMode.CLOSED)]
        assert apply_log_gaps(log, ()) == log


class TestBuiltinScenarios:
    def test_every_scenario_is_nonempty_and_valid(self):
        for name, schedule in BUILTIN_SCENARIOS.items():
            assert schedule, name
            # Sensor-fault scenarios must attach cleanly to the layout.
            if schedule.sensor_faults:
                FaultInjector(schedule).attach(parasol_layout(), units=None)


class TestEngineRouting:
    """Faulted configs ride the lane engine, day-sequentially."""

    def test_effective_engine_routes_faulted_cells_to_lanes(self):
        import dataclasses

        from repro.core.versions import all_nd
        from repro.sim.eligibility import decide_engine

        faulted = dataclasses.replace(
            all_nd(), faults=builtin_scenario("inlet-dropout")
        )
        decision = decide_engine(faulted, "lanes")
        assert decision.engine == "lanes"
        assert not decision.day_unfold
        # The scalar request still wins (the reference path stays).
        assert decide_engine(faulted, "scalar").engine == "scalar"
        # An empty schedule is a no-op: lane-eligible and unfoldable.
        empty = dataclasses.replace(all_nd(), faults=FaultSchedule())
        decision = decide_engine(empty, "lanes")
        assert decision.engine == "lanes"
        assert decision.day_unfold

    def test_fingerprint_distinguishes_faulted_configs(self):
        import dataclasses

        from repro.analysis.experiments import config_fingerprint
        from repro.core.versions import all_nd

        plain = config_fingerprint(all_nd())
        faulted = config_fingerprint(dataclasses.replace(
            all_nd(), faults=builtin_scenario("inlet-dropout")
        ))
        assert plain != faulted
