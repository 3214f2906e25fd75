"""Simulation traces: per-step records of one simulated day."""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

from repro import constants
from repro.cooling.regimes import CoolingMode
from repro.errors import SimulationError


# -- day-metric formulas -------------------------------------------------------
#
# Module-level array functions so the per-record DayTrace path and the
# lane-batched engine compute every day metric with the *same* expressions
# on the same-shaped arrays (bit-identical results by construction).


def worst_sensor_range_from(temps: np.ndarray) -> float:
    """Worst per-sensor (max - min) over a (steps, sensors) day matrix."""
    if temps.size == 0:
        raise SimulationError("empty trace")
    ranges = temps.max(axis=0) - temps.min(axis=0)
    return float(ranges.max())


def outside_range_from(outside: np.ndarray) -> float:
    return float(outside.max() - outside.min())


def avg_violation_from(temps: np.ndarray, threshold_c: float) -> float:
    return float(np.mean(np.maximum(0.0, temps - threshold_c)))


def max_rate_from(temps: np.ndarray, times_s: np.ndarray) -> float:
    if len(times_s) < 2:
        return 0.0
    dt_h = np.diff(times_s)[:, None] / 3600.0
    slopes = np.abs(np.diff(temps, axis=0)) / dt_h
    return float(slopes.max())


def energy_kwh_from(powers_w: np.ndarray, times_s: np.ndarray) -> float:
    if len(times_s) < 2:
        return 0.0
    dt = float(np.median(np.diff(times_s)))
    return float(np.sum(powers_w)) * dt / 3.6e6


def degraded_fraction_from(flags: np.ndarray) -> float:
    """Fraction of steps under safe-mode control, from per-step flags."""
    if flags.size == 0:
        return 0.0
    return float(np.mean(np.asarray(flags, dtype=float)))


@dataclasses.dataclass(frozen=True)
class StepRecord:
    """State at the end of one model step."""

    time_s: float
    outside_temp_c: float
    sensor_temps_c: Tuple[float, ...]
    mode: CoolingMode
    fc_fan_speed: float
    ac_compressor_duty: float
    cooling_power_w: float
    it_power_w: float
    inside_rh_pct: float
    outside_rh_pct: float
    utilization: float  # fraction of active servers
    disk_temps_c: Tuple[float, ...] = ()
    # Whether the step ran under a degraded (safe-mode) control decision;
    # always False for the baseline and for fault-free runs.
    degraded: bool = False
    # Water drawn by the cooling plant over this step, liters; always 0
    # for the air-cooled plants (parasol, chiller).
    water_l: float = 0.0
    # The hybrid plant's active regime this step ("free_cooling",
    # "tower", "chiller", or "off"); empty for single-regime plants.
    regime: str = ""


class DayTrace:
    """The full record of one simulated day."""

    def __init__(self, day_of_year: int, label: str = "") -> None:
        self.day_of_year = day_of_year
        self.label = label
        self.records: List[StepRecord] = []

    def append(self, record: StepRecord) -> None:
        if self.records and record.time_s <= self.records[-1].time_s:
            raise SimulationError("trace records must advance in time")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # -- column accessors ------------------------------------------------------

    def times_s(self) -> np.ndarray:
        return np.array([r.time_s for r in self.records])

    def sensor_temps(self) -> np.ndarray:
        """(steps, sensors) inlet temperature matrix."""
        return np.array([r.sensor_temps_c for r in self.records])

    def outside_temps(self) -> np.ndarray:
        return np.array([r.outside_temp_c for r in self.records])

    def cooling_powers_w(self) -> np.ndarray:
        return np.array([r.cooling_power_w for r in self.records])

    def it_powers_w(self) -> np.ndarray:
        return np.array([r.it_power_w for r in self.records])

    def inside_rh(self) -> np.ndarray:
        return np.array([r.inside_rh_pct for r in self.records])

    def water_draws_l(self) -> np.ndarray:
        return np.array([r.water_l for r in self.records])

    def modes(self) -> List[CoolingMode]:
        return [r.mode for r in self.records]

    # -- day-level metrics -------------------------------------------------------

    def worst_sensor_range_c(self) -> float:
        """The paper's daily variation metric: per-sensor (max - min),
        worst sensor of the day (Figure 9)."""
        return worst_sensor_range_from(self.sensor_temps())

    def outside_range_c(self) -> float:
        return outside_range_from(self.outside_temps())

    def max_sensor_temp_c(self) -> float:
        return float(self.sensor_temps().max())

    def avg_violation_c(self, threshold_c: float = 30.0) -> float:
        """Mean over all sensor readings of max(0, reading - threshold)."""
        return avg_violation_from(self.sensor_temps(), threshold_c)

    def max_rate_c_per_hour(self) -> float:
        """Steepest sensor temperature slope of the day."""
        return max_rate_from(self.sensor_temps(), self.times_s())

    def cooling_energy_kwh(self) -> float:
        return energy_kwh_from(self.cooling_powers_w(), self.times_s())

    def it_energy_kwh(self) -> float:
        return energy_kwh_from(self.it_powers_w(), self.times_s())

    def water_liters(self) -> float:
        """Total cooling water drawn over the day."""
        if not self.records:
            return 0.0
        return float(np.sum(self.water_draws_l()))

    def pue(
        self,
        delivery_overhead: float = constants.POWER_DELIVERY_PUE_OVERHEAD,
    ) -> float:
        it = self.it_energy_kwh()
        if it <= 0:
            raise SimulationError("PUE undefined with zero IT energy")
        return 1.0 + self.cooling_energy_kwh() / it + delivery_overhead

    def wue(self) -> float:
        """Water usage effectiveness: cooling water per IT energy, L/kWh."""
        it = self.it_energy_kwh()
        if it <= 0:
            raise SimulationError("WUE undefined with zero IT energy")
        return self.water_liters() / it

    def time_in_mode(self, mode: CoolingMode) -> float:
        """Fraction of the day spent in a cooling mode."""
        modes = self.modes()
        if not modes:
            return 0.0
        return sum(1 for m in modes if m is mode) / len(modes)

    def mech_regime_fraction(self, regime: str) -> float:
        """Fraction of the day a hybrid plant spent in a mechanical
        regime (``"tower"`` or ``"chiller"``); 0 for other plants."""
        if not self.records:
            return 0.0
        count = sum(1 for r in self.records if r.regime == regime)
        return count / len(self.records)

    def rh_violation_fraction(self, limit_pct: float = 80.0) -> float:
        """Fraction of steps with cold-aisle RH above the limit."""
        rh = self.inside_rh()
        if rh.size == 0:
            return 0.0
        return float(np.mean(rh > limit_pct))

    # -- degradation (docs/ROBUSTNESS.md) -------------------------------------

    def degraded_fraction(self) -> float:
        """Fraction of the day spent under safe-mode (degraded) control."""
        return degraded_fraction_from(
            np.array([r.degraded for r in self.records], dtype=float)
        )

    def degradation_intervals(self) -> List[Tuple[float, float]]:
        """Maximal [start, end] time spans of contiguous degraded steps."""
        intervals: List[Tuple[float, float]] = []
        start: float = 0.0
        last: float = 0.0
        open_interval = False
        for record in self.records:
            if record.degraded:
                if not open_interval:
                    start = record.time_s
                    open_interval = True
                last = record.time_s
            elif open_interval:
                intervals.append((start, last))
                open_interval = False
        if open_interval:
            intervals.append((start, last))
        return intervals
