"""The Cooling Optimizer's utility (penalty) function (Section 3.2).

Violations all carry the same penalty weight in the paper:

* each 0.5C above the maximum temperature threshold,
* each 1C of temperature variation beyond 20C/hour,
* each 0.5C outside the temperature band,
* each 5% of relative humidity outside the humidity band, and
* turning on the AC at full speed.

The overall value for a candidate regime is the sum of penalties across the
sensors of all active pods, plus (for energy-managing versions) a term
proportional to the predicted cooling energy.  Lower is better.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.core.band import TemperatureBand
from repro.core.config import CoolAirConfig
from repro.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class UtilityWeights:
    """Penalty weights; the paper sets all violation weights equal."""

    per_half_degree_over_max: float = 1.0
    per_degree_rate_over_limit: float = 1.0
    per_half_degree_outside_band: float = 1.0
    per_5pct_rh_outside_band: float = 1.0
    ac_full_speed: float = 1.0
    per_cooling_kwh: float = 3.0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if getattr(self, field.name) < 0:
                raise ConfigError(f"{field.name} must be non-negative")


@dataclasses.dataclass(frozen=True)
class RegimePrediction:
    """What the Cooling Predictor says a candidate regime would do.

    ``sensor_temps_c`` has shape (steps, sensors): the predicted inlet
    temperature trajectory for each active pod sensor over the horizon.
    ``rh_pct`` is the predicted cold-aisle relative humidity per step.
    """

    sensor_temps_c: np.ndarray
    rh_pct: np.ndarray
    cooling_energy_kwh: float
    ac_at_full_speed: bool

    def __post_init__(self) -> None:
        if self.sensor_temps_c.ndim != 2:
            raise ConfigError("sensor_temps_c must be (steps, sensors)")
        if self.rh_pct.shape[0] != self.sensor_temps_c.shape[0]:
            raise ConfigError("rh_pct must have one entry per step")


class UtilityFunction:
    """Scores regime predictions; lower scores are better."""

    def __init__(
        self,
        config: CoolAirConfig,
        weights: Optional[UtilityWeights] = None,
    ) -> None:
        self.config = config
        self.weights = weights or UtilityWeights()

    def score(
        self,
        prediction: RegimePrediction,
        band: TemperatureBand,
        current_sensor_temps_c: Sequence[float],
        horizon_s: float,
    ) -> float:
        """Total penalty for one candidate regime."""
        if horizon_s <= 0:
            raise ConfigError("horizon_s must be positive")
        cfg = self.config
        w = self.weights
        temps = prediction.sensor_temps_c
        current = np.asarray(current_sensor_temps_c, dtype=float)
        if temps.shape[1] != current.shape[0]:
            raise ConfigError(
                f"prediction covers {temps.shape[1]} sensors, current state has "
                f"{current.shape[0]}"
            )
        penalty = 0.0

        # 1. Absolute temperature: each 0.5C above the max threshold.
        max_temp = (
            cfg.max_temp_setpoint_c
            if cfg.band_mode.value == "max_only"
            else cfg.max_c
        )
        over = np.maximum(0.0, temps - max_temp)
        penalty += w.per_half_degree_over_max * float(over.sum()) / 0.5

        # 2. Temperature variation rate: each 1C/hour beyond the limit,
        #    using the steepest step-to-step slope per sensor.
        steps = temps.shape[0]
        step_s = horizon_s / steps
        trajectory = np.vstack([current[None, :], temps])
        slopes = np.abs(np.diff(trajectory, axis=0)) / (step_s / 3600.0)
        worst_rate = np.max(slopes, axis=0)
        if cfg.use_rate_term:
            over_rate = np.maximum(0.0, worst_rate - cfg.max_rate_c_per_hour)
            penalty += w.per_degree_rate_over_limit * float(over_rate.sum())

        # 3. Temperature band: each 0.5C outside, per sensor, averaged over
        #    the horizon.
        if cfg.use_band_term:
            below = np.maximum(0.0, band.low_c - temps)
            above = np.maximum(0.0, temps - band.high_c)
            outside = below + above
            penalty += (
                w.per_half_degree_outside_band * float(outside.sum()) / 0.5
            )

        # 4. Relative humidity: each 5% beyond the humidity band.
        rh_over = np.maximum(0.0, prediction.rh_pct - cfg.max_rh_pct)
        penalty += w.per_5pct_rh_outside_band * float(rh_over.sum()) / 5.0

        # 5. Turning on the AC at full speed (charged once per step so it
        #    stays commensurate with the per-step violation terms).
        if prediction.ac_at_full_speed:
            penalty += w.ac_full_speed * steps

        # 6. Cooling energy (only for energy-managing versions).
        if cfg.use_energy_term:
            penalty += w.per_cooling_kwh * prediction.cooling_energy_kwh

        return penalty

    def score_arrays(
        self,
        temps: np.ndarray,
        rh: np.ndarray,
        energies: np.ndarray,
        ac_full: np.ndarray,
        band: TemperatureBand,
        current_sensor_temps_c: Sequence[float],
        horizon_s: float,
    ) -> List[float]:
        """Penalties for a whole candidate set in a few tensor operations.

        ``temps`` is (candidates, steps, sensors), ``rh`` is (candidates,
        steps).  Equal to :meth:`score` per candidate, bit for bit, when
        each candidate's block of ``temps`` has the memory layout of the
        prediction :meth:`score` reads: every term is elementwise, and an
        axis reduction over such a block visits its floats in the order
        the standalone reduction does.
        """
        if horizon_s <= 0:
            raise ConfigError("horizon_s must be positive")
        cfg = self.config
        w = self.weights
        current = np.asarray(current_sensor_temps_c, dtype=float)
        if temps.shape[2] != current.shape[0]:
            raise ConfigError(
                f"prediction covers {temps.shape[2]} sensors, current state has "
                f"{current.shape[0]}"
            )
        num_cands, steps, num_sensors = temps.shape

        max_temp = (
            cfg.max_temp_setpoint_c
            if cfg.band_mode.value == "max_only"
            else cfg.max_c
        )
        over = np.maximum(0.0, temps - max_temp)
        penalty = w.per_half_degree_over_max * over.sum(axis=(1, 2)) / 0.5

        if cfg.use_rate_term:
            step_s = horizon_s / steps
            trajectory = np.concatenate(
                [np.broadcast_to(current, (num_cands, 1, num_sensors)), temps],
                axis=1,
            )
            slopes = np.abs(np.diff(trajectory, axis=1)) / (step_s / 3600.0)
            worst_rate = slopes.max(axis=1)
            over_rate = np.maximum(0.0, worst_rate - cfg.max_rate_c_per_hour)
            penalty += w.per_degree_rate_over_limit * over_rate.sum(axis=1)

        if cfg.use_band_term:
            below = np.maximum(0.0, band.low_c - temps)
            above = np.maximum(0.0, temps - band.high_c)
            outside = below + above
            penalty += (
                w.per_half_degree_outside_band * outside.sum(axis=(1, 2)) / 0.5
            )

        rh_over = np.maximum(0.0, rh - cfg.max_rh_pct)
        penalty += w.per_5pct_rh_outside_band * rh_over.sum(axis=1) / 5.0

        penalty += np.where(ac_full, w.ac_full_speed * float(steps), 0.0)

        if cfg.use_energy_term:
            penalty += w.per_cooling_kwh * energies

        return [float(p) for p in penalty]
