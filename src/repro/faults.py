"""Seeded, deterministic fault injection for the simulated datacenter.

CoolAir operates at the mercy of an uncontrollable environment (Sections
3 and 5): sensors drift and die, actuators stick, and the monitoring log
the Cooling Modeler learns from can have gaps.  This module defines the
fault channels the simulator can inject and the runtime
:class:`FaultInjector` that applies them:

* **Sensor faults** (:class:`SensorFault`) — ``stuck`` (the reading
  freezes, and the sensor is reported unhealthy because a flat-lined
  sensor is detectable), ``dropout`` (no reading at all; consumers keep
  the last value and the sensor is unhealthy), ``drift`` (a slow additive
  ramp — undetectable, so the sensor stays "healthy"), and ``spike``
  (occasional large excursions, also undetectable).
* **Actuator faults** (:class:`ActuatorFault`) — ``fan_stuck`` (the
  free-cooling fan runs at a fixed speed whenever it is on),
  ``compressor_lockout`` (the AC compressor cannot engage), and
  ``damper_jam`` (the free-cooling damper will not open, forcing the fan
  to zero).
* **Log-gap faults** (:class:`LogGapFault`) — holes in the learning
  campaign's monitoring log, by position or by cooling mode, which can
  starve :class:`~repro.core.modeler.CoolingLearner` of a whole regime.

A :class:`FaultSchedule` bundles the channels plus a seed; it rides on
:class:`~repro.core.config.CoolAirConfig` (``faults=``).  Both engines
consume it through this module's :class:`FaultInjector`, attached to a
run's own layout and cooling units: the scalar
:class:`~repro.sim.engine.DayRunner` for its one run, and the lane engine
(:mod:`repro.sim.lanes`) once per faulted lane, so there is one
implementation of the fault semantics.  All randomness comes from
per-channel ``numpy`` generators seeded from the schedule seed, so
same-seed runs are bit-identical.  See ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError

# A window that covers every day a year simulation can sample.
ALL_YEAR = 366

SENSOR_FAULT_KINDS = ("stuck", "dropout", "drift", "spike")
ACTUATOR_FAULT_KINDS = ("fan_stuck", "compressor_lockout", "damper_jam")


@dataclasses.dataclass(frozen=True)
class SensorFault:
    """One fault channel on one named sensor (e.g. ``"inlet_pod3"``)."""

    sensor: str
    kind: str
    start_day: int = 0
    end_day: int = ALL_YEAR
    # ``stuck``: freeze at this value (None = freeze at the first reading
    # observed inside the fault window).
    stuck_value: Optional[float] = None
    # ``drift``: additive ramp, in sensor units per hour of fault time.
    drift_per_hour: float = 0.0
    # ``spike``: excursion magnitude and per-reading probability.
    spike_magnitude: float = 0.0
    spike_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SENSOR_FAULT_KINDS:
            raise ConfigError(
                f"unknown sensor fault kind {self.kind!r}; "
                f"choices: {SENSOR_FAULT_KINDS}"
            )
        if self.start_day < 0 or self.end_day <= self.start_day:
            raise ConfigError(
                f"fault window [{self.start_day}, {self.end_day}) is empty"
            )
        if self.kind == "spike" and not 0.0 <= self.spike_probability <= 1.0:
            raise ConfigError(
                f"spike_probability {self.spike_probability} out of [0, 1]"
            )

    def active_on(self, day_of_year: int) -> bool:
        return self.start_day <= day_of_year < self.end_day


@dataclasses.dataclass(frozen=True)
class ActuatorFault:
    """One fault on the cooling unit actuators, active day-granular."""

    kind: str
    start_day: int = 0
    end_day: int = ALL_YEAR
    # ``fan_stuck``: the speed the FC fan is stuck at whenever it is on.
    stuck_fan_speed: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ACTUATOR_FAULT_KINDS:
            raise ConfigError(
                f"unknown actuator fault kind {self.kind!r}; "
                f"choices: {ACTUATOR_FAULT_KINDS}"
            )
        if self.start_day < 0 or self.end_day <= self.start_day:
            raise ConfigError(
                f"fault window [{self.start_day}, {self.end_day}) is empty"
            )
        if not 0.0 < self.stuck_fan_speed <= 1.0:
            raise ConfigError(
                f"stuck_fan_speed {self.stuck_fan_speed} out of (0, 1]"
            )

    def active_on(self, day_of_year: int) -> bool:
        return self.start_day <= day_of_year < self.end_day


@dataclasses.dataclass(frozen=True)
class LogGapFault:
    """A hole in the learning campaign's monitoring log.

    ``drop_mode`` removes every sample recorded in that cooling mode
    (e.g. ``"free_cooling"`` starves the FC steady regime below
    ``min_samples``); ``start_fraction``/``end_fraction`` drop a
    positional slice of the log (0.0 = first sample, 1.0 = last).
    """

    drop_mode: Optional[str] = None
    start_fraction: float = 0.0
    end_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_fraction <= 1.0:
            raise ConfigError("start_fraction out of [0, 1]")
        if not 0.0 <= self.end_fraction <= 1.0:
            raise ConfigError("end_fraction out of [0, 1]")
        if self.drop_mode is None and self.end_fraction <= self.start_fraction:
            raise ConfigError("log gap drops nothing")


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """Everything the injector needs: channels plus a seed.

    Frozen and tuple-valued so it can ride on ``CoolAirConfig`` (whose
    fingerprint hashes it into the cache key) and key model caches.
    """

    sensor_faults: Tuple[SensorFault, ...] = ()
    actuator_faults: Tuple[ActuatorFault, ...] = ()
    log_gaps: Tuple[LogGapFault, ...] = ()
    seed: int = 0

    @property
    def is_empty(self) -> bool:
        return not (self.sensor_faults or self.actuator_faults or self.log_gaps)

    def __bool__(self) -> bool:
        return not self.is_empty


def apply_log_gaps(
    log: Sequence, gaps: Sequence[LogGapFault]
) -> List:
    """The monitoring log with every gap's samples removed."""
    if not gaps:
        return list(log)
    total = len(log)
    kept = []
    for index, sample in enumerate(log):
        frac = index / total if total else 0.0
        drop = False
        for gap in gaps:
            if gap.drop_mode is not None and sample.mode.value == gap.drop_mode:
                drop = True
            if gap.end_fraction > gap.start_fraction and (
                gap.start_fraction <= frac < gap.end_fraction
            ):
                drop = True
        if not drop:
            kept.append(sample)
    return kept


# -- runtime injection ---------------------------------------------------------


class _SensorChannel:
    """Runtime state of one SensorFault: window latch, RNG, held value."""

    def __init__(self, fault: SensorFault, seed: int) -> None:
        self.fault = fault
        self._rng = np.random.default_rng(seed)
        self.active = False
        self._held: Optional[float] = None
        self._start_s: Optional[float] = None

    def begin_day(self, day_of_year: int) -> None:
        was_active = self.active
        self.active = self.fault.active_on(day_of_year)
        if self.active and not was_active:
            self._held = None
            self._start_s = None

    def apply(
        self, value: float, now_s: float
    ) -> Tuple[Optional[float], bool]:
        """(faulted value or None if the sensor is dead, healthy flag)."""
        if not self.active:
            return value, True
        fault = self.fault
        if fault.kind == "dropout":
            return None, False
        if fault.kind == "stuck":
            if self._held is None:
                self._held = (
                    fault.stuck_value
                    if fault.stuck_value is not None
                    else value
                )
            # A flat-lined sensor is detectable, so it reports unhealthy.
            return self._held, False
        if fault.kind == "drift":
            if self._start_s is None:
                self._start_s = now_s
            hours = (now_s - self._start_s) / 3600.0
            return value + fault.drift_per_hour * hours, True
        # spike
        if (
            fault.spike_probability > 0.0
            and self._rng.random() < fault.spike_probability
        ):
            sign = 1.0 if self._rng.random() < 0.5 else -1.0
            return value + sign * fault.spike_magnitude, True
        return value, True


class _SensorPipe:
    """The ``inject`` hook installed on a sensor: chains its channels."""

    def __init__(self, injector: "FaultInjector", channels: List[_SensorChannel]):
        self._injector = injector
        self.channels = channels

    def __call__(self, value: float) -> Tuple[Optional[float], bool]:
        now_s = self._injector.now_s
        healthy = True
        for channel in self.channels:
            value, channel_healthy = channel.apply(value, now_s)
            healthy = healthy and channel_healthy
            if value is None:
                return None, False
        return value, healthy


class FaultInjector:
    """Applies a :class:`FaultSchedule` to a live layout and cooling units.

    The engine owns the lifecycle: :meth:`attach` once per run,
    :meth:`begin_day` at each day start (windows and actuator faults are
    day-granular), :meth:`set_time` before each batch of sensor
    observations (drift and spike draws are time/order deterministic).
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.now_s = 0.0
        self._channels: List[_SensorChannel] = []
        self._units = None

    def attach(self, layout, units) -> None:
        sensors: Dict[str, object] = {
            sensor.name: sensor for sensor in layout.inlet_sensors
        }
        for sensor in (
            layout.outside_temp,
            layout.cold_aisle_humidity,
            layout.hot_aisle_humidity,
            layout.outside_humidity,
        ):
            sensors[sensor.name] = sensor
        by_sensor: Dict[str, List[_SensorChannel]] = {}
        for index, fault in enumerate(self.schedule.sensor_faults):
            if fault.sensor not in sensors:
                raise ConfigError(
                    f"fault targets unknown sensor {fault.sensor!r}; "
                    f"known: {sorted(sensors)}"
                )
            channel = _SensorChannel(
                fault, seed=(self.schedule.seed + 1) * 7919 + index
            )
            self._channels.append(channel)
            by_sensor.setdefault(fault.sensor, []).append(channel)
        for name, channels in by_sensor.items():
            sensors[name].inject = _SensorPipe(self, channels)
        self._units = units

    def begin_day(self, day_of_year: int) -> None:
        for channel in self._channels:
            channel.begin_day(day_of_year)
        if self._units is None:
            return
        fan_stuck: Optional[float] = None
        compressor_locked = False
        damper_jammed = False
        for fault in self.schedule.actuator_faults:
            if not fault.active_on(day_of_year):
                continue
            if fault.kind == "fan_stuck":
                fan_stuck = fault.stuck_fan_speed
            elif fault.kind == "compressor_lockout":
                compressor_locked = True
            else:
                damper_jammed = True
        self._units.set_faults(
            fan_stuck_speed=fan_stuck,
            compressor_locked=compressor_locked,
            damper_jammed=damper_jammed,
        )

    def set_time(self, abs_time_s: float) -> None:
        self.now_s = abs_time_s


# -- built-in scenarios --------------------------------------------------------
#
# Each scenario is an "incident bundle": its headline channel plus an
# inlet-sensor dropout, so every scenario exercises the safe-mode
# fallback (the acceptance contract: at least one degradation interval
# per scenario).  ``model-gap`` degrades through the model path instead.

BUILTIN_SCENARIOS: Dict[str, FaultSchedule] = {
    "inlet-dropout": FaultSchedule(
        sensor_faults=(SensorFault(sensor="inlet_pod3", kind="dropout"),),
    ),
    "sensor-stuck": FaultSchedule(
        sensor_faults=(
            SensorFault(sensor="inlet_pod0", kind="stuck", stuck_value=24.0),
        ),
    ),
    "sensor-drift": FaultSchedule(
        sensor_faults=(
            SensorFault(sensor="inlet_pod2", kind="drift", drift_per_hour=0.5),
            SensorFault(sensor="inlet_pod3", kind="dropout"),
        ),
    ),
    "sensor-spike": FaultSchedule(
        sensor_faults=(
            SensorFault(
                sensor="outside_temp",
                kind="spike",
                spike_magnitude=6.0,
                spike_probability=0.05,
            ),
            SensorFault(sensor="inlet_pod1", kind="dropout"),
        ),
        seed=11,
    ),
    "fan-stuck": FaultSchedule(
        sensor_faults=(SensorFault(sensor="inlet_pod3", kind="dropout"),),
        actuator_faults=(
            ActuatorFault(kind="fan_stuck", stuck_fan_speed=0.35),
        ),
    ),
    "ac-lockout": FaultSchedule(
        sensor_faults=(SensorFault(sensor="inlet_pod3", kind="dropout"),),
        actuator_faults=(ActuatorFault(kind="compressor_lockout"),),
    ),
    "damper-jam": FaultSchedule(
        sensor_faults=(SensorFault(sensor="inlet_pod3", kind="dropout"),),
        actuator_faults=(ActuatorFault(kind="damper_jam"),),
    ),
    "model-gap": FaultSchedule(
        log_gaps=(LogGapFault(drop_mode="free_cooling"),),
    ),
}


def builtin_scenario(name: str) -> FaultSchedule:
    """Look up a built-in scenario by name (for ``--faults``)."""
    try:
        return BUILTIN_SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown fault scenario {name!r}; "
            f"choices: {', '.join(sorted(BUILTIN_SCENARIOS))}"
        )
