"""Synthetic typical-meteorological-year (TMY) series generation.

A :class:`TMYSeries` holds one year of hourly outside temperature and
humidity for a location and interpolates to arbitrary times.  The series is
a deterministic function of the :class:`~repro.weather.climate.Climate`, so
two simulations of the same location see identical weather.

Construction: seasonal cosine + diurnal cosine (peaking mid-afternoon) +
an AR(1) chain of daily synoptic anomalies.  Relative humidity is generated
in anti-phase with the diurnal temperature cycle (nights are more humid)
and converted to a mixing ratio at the concurrent temperature.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.errors import WeatherError
from repro.physics.psychrometrics import relative_to_absolute_humidity_array
from repro.weather.climate import (
    Climate,
    DAYS_PER_YEAR,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
)

HOURS_PER_YEAR = DAYS_PER_YEAR * 24


class TMYSeries:
    """One year of hourly weather for a single location."""

    def __init__(
        self,
        climate: Climate,
        temps_c: np.ndarray,
        mixing_ratios: np.ndarray,
        rh_pct: np.ndarray,
    ) -> None:
        if temps_c.shape != (HOURS_PER_YEAR,):
            raise WeatherError(
                f"expected {HOURS_PER_YEAR} hourly temperatures, got {temps_c.shape}"
            )
        self.climate = climate
        self._temps_c = temps_c
        self._mixing_ratios = mixing_ratios
        self._rh_pct = rh_pct
        self._sampled: dict = {}

    # -- point queries -------------------------------------------------------

    def _interp(self, series: np.ndarray, time_s: float) -> float:
        hour = (time_s % (DAYS_PER_YEAR * SECONDS_PER_DAY)) / SECONDS_PER_HOUR
        i0 = int(hour) % HOURS_PER_YEAR
        i1 = (i0 + 1) % HOURS_PER_YEAR
        frac = hour - int(hour)
        return float(series[i0] * (1.0 - frac) + series[i1] * frac)

    def temperature_c(self, time_s: float) -> float:
        """Outside air temperature at ``time_s`` seconds into the year."""
        return self._interp(self._temps_c, time_s)

    def mixing_ratio(self, time_s: float) -> float:
        """Outside absolute humidity (kg/kg) at ``time_s``."""
        return self._interp(self._mixing_ratios, time_s)

    def relative_humidity_pct(self, time_s: float) -> float:
        """Outside relative humidity (percent) at ``time_s``."""
        return self._interp(self._rh_pct, time_s)

    def sampled(self, step_s: float) -> "SampledWeather":
        """The year presampled on a fixed ``step_s`` grid (cached).

        Point queries on the returned object are array reads for on-grid
        times (the simulation engines' hot path) instead of per-step
        interpolation, and fall back to interpolation off-grid.  Values are
        bit-identical to :meth:`temperature_c` and friends.
        """
        key = float(step_s)
        grid = self._sampled.get(key)
        if grid is None:
            grid = SampledWeather(self, key)
            self._sampled[key] = grid
        return grid

    # -- day-level queries ---------------------------------------------------

    def hourly_temps_for_day(self, day_of_year: int) -> np.ndarray:
        """The 24 hourly temperatures of a given day (0-indexed)."""
        day = day_of_year % DAYS_PER_YEAR
        return self._temps_c[day * 24 : (day + 1) * 24].copy()

    def daily_mean_temp_c(self, day_of_year: int) -> float:
        return float(np.mean(self.hourly_temps_for_day(day_of_year)))

    def daily_range_c(self, day_of_year: int) -> float:
        """Max minus min outside temperature over one day."""
        temps = self.hourly_temps_for_day(day_of_year)
        return float(np.max(temps) - np.min(temps))

    @property
    def hourly_temps(self) -> np.ndarray:
        """The full year of hourly temperatures (read-only view)."""
        view = self._temps_c.view()
        view.flags.writeable = False
        return view

    def yearly_stats(self) -> Tuple[float, float, float]:
        """(mean, min, max) outside temperature over the year."""
        return (
            float(np.mean(self._temps_c)),
            float(np.min(self._temps_c)),
            float(np.max(self._temps_c)),
        )


class SampledWeather:
    """One year of weather precomputed on a fixed model-step grid.

    Sampling the hourly series once into contiguous arrays turns the
    per-step weather queries of a simulation into plain indexed reads.
    The grid is computed with exactly the interpolation arithmetic of
    :meth:`TMYSeries._interp`, element for element, so on-grid queries are
    bit-identical to the interpolated ones; off-grid times transparently
    fall back to interpolation.
    """

    def __init__(self, series: TMYSeries, step_s: float) -> None:
        if step_s <= 0:
            raise WeatherError(f"step_s must be positive, got {step_s}")
        year_s = DAYS_PER_YEAR * SECONDS_PER_DAY
        steps = int(round(year_s / step_s))
        if steps < 1 or steps * step_s != year_s:
            raise WeatherError(
                f"step_s {step_s} does not divide the {year_s}s year evenly"
            )
        self._series = series
        self.step_s = step_s
        self.num_steps = steps

        times = np.arange(steps, dtype=float) * step_s
        # Mirror _interp exactly: hour-of-year, truncated index, fraction.
        hours = (times % year_s) / SECONDS_PER_HOUR
        trunc = hours.astype(np.int64)
        frac = hours - trunc
        i0 = trunc % HOURS_PER_YEAR
        i1 = (i0 + 1) % HOURS_PER_YEAR
        weight0 = 1.0 - frac
        self.temps_c = series._temps_c[i0] * weight0 + series._temps_c[i1] * frac
        self.mixing_ratios = (
            series._mixing_ratios[i0] * weight0 + series._mixing_ratios[i1] * frac
        )
        self.rh_pct = series._rh_pct[i0] * weight0 + series._rh_pct[i1] * frac

    def _index(self, time_s: float) -> int:
        """Grid index for an on-grid time, or -1 when off-grid."""
        steps = time_s / self.step_s
        if steps.is_integer():
            return int(steps) % self.num_steps
        return -1

    def temperature_c(self, time_s: float) -> float:
        idx = self._index(time_s)
        if idx < 0:
            return self._series.temperature_c(time_s)
        return float(self.temps_c[idx])

    def mixing_ratio(self, time_s: float) -> float:
        idx = self._index(time_s)
        if idx < 0:
            return self._series.mixing_ratio(time_s)
        return float(self.mixing_ratios[idx])

    def relative_humidity_pct(self, time_s: float) -> float:
        idx = self._index(time_s)
        if idx < 0:
            return self._series.relative_humidity_pct(time_s)
        return float(self.rh_pct[idx])


class LaneWeather:
    """Per-climate TMY tables gathered into ``(lanes, steps)`` day grids.

    The lane-batched simulation engine advances every lane on the same
    absolute-time step grid, so one fancy-indexed gather per day yields the
    whole batch's boundary conditions.  Values are computed with exactly
    the :class:`SampledWeather` grid arithmetic (itself the mirror of
    :meth:`TMYSeries._interp`), element for element, so each lane's series
    is bit-identical to what a scalar :class:`DayRunner` reads for that
    climate.  Lanes may repeat a climate (several systems, plants or
    sampled days share weather): the tables hold one row per distinct
    series, and a lane-to-row index spreads them over the lanes.
    """

    def __init__(self, series_list: Sequence[TMYSeries], step_s: float) -> None:
        if not series_list:
            raise WeatherError("LaneWeather needs at least one lane")
        if step_s <= 0:
            raise WeatherError(f"step_s must be positive, got {step_s}")
        year_s = DAYS_PER_YEAR * SECONDS_PER_DAY
        steps = int(round(year_s / step_s))
        if steps < 1 or steps * step_s != year_s:
            raise WeatherError(
                f"step_s {step_s} does not divide the {year_s}s year evenly"
            )
        self.step_s = step_s
        self.num_steps = steps
        self.num_lanes = len(series_list)
        distinct = list({id(s): s for s in series_list}.values())
        row_of = {id(s): row for row, s in enumerate(distinct)}
        self._lane_rows = np.asarray(
            [row_of[id(s)] for s in series_list], dtype=np.intp
        )
        self._temps = np.stack([s._temps_c for s in distinct])
        self._mixing = np.stack([s._mixing_ratios for s in distinct])
        self._rh = np.stack([s._rh_pct for s in distinct])

    def day_grid(
        self, day_of_year, first_step: int, num_steps: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(temps, mixing ratios, RH) as ``(lanes, num_steps)`` arrays.

        Covers model steps ``first_step .. first_step + num_steps - 1`` of
        the given day (negative steps reach into warmup, wrapping around
        the year exactly like the scalar weather queries do).

        ``day_of_year`` is a single day shared by all lanes, or a per-lane
        sequence of ``num_lanes`` days (the day-unfolded mode, where each
        lane simulates a different day of the same year).  The shared-day
        path evaluates each distinct series once on a 1-D index and then
        spreads the rows over the lanes; the per-lane path runs the same
        elementwise arithmetic on a 2-D index grid through the lane-to-row
        index.  Either way each lane's row is bit-identical to the
        shared-day call for that lane's day.
        """
        year_s = DAYS_PER_YEAR * SECONDS_PER_DAY
        steps_per_day = int(round(SECONDS_PER_DAY / self.step_s))
        offsets = first_step + np.arange(num_steps)
        if np.ndim(day_of_year) == 0:
            idx = (int(day_of_year) * steps_per_day + offsets) % self.num_steps
            rows = slice(None)
        else:
            days = np.asarray(day_of_year, dtype=np.int64)
            if days.shape != (self.num_lanes,):
                raise WeatherError(
                    f"need one day per lane ({self.num_lanes}), got "
                    f"shape {days.shape}"
                )
            idx = (
                days[:, None] * steps_per_day + offsets[None, :]
            ) % self.num_steps
            rows = self._lane_rows[:, None]
        # Mirror SampledWeather's grid construction on just these indices:
        # times, hour-of-year, truncated index, fraction.
        times = idx.astype(float) * self.step_s
        hours = (times % year_s) / SECONDS_PER_HOUR
        trunc = hours.astype(np.int64)
        frac = hours - trunc
        i0 = trunc % HOURS_PER_YEAR
        i1 = (i0 + 1) % HOURS_PER_YEAR
        weight0 = 1.0 - frac
        temps = self._temps[rows, i0] * weight0 + self._temps[rows, i1] * frac
        mixing = self._mixing[rows, i0] * weight0 + self._mixing[rows, i1] * frac
        rh = self._rh[rows, i0] * weight0 + self._rh[rows, i1] * frac
        if idx.ndim == 1:
            # One row per distinct series so far; one per lane now.
            temps = temps[self._lane_rows]
            mixing = mixing[self._lane_rows]
            rh = rh[self._lane_rows]
        return temps, mixing, rh


def generate_tmy(climate: Climate) -> TMYSeries:
    """Build the deterministic synthetic TMY series for a climate."""
    rng = np.random.default_rng(climate.seed())

    # AR(1) daily synoptic anomalies: weather systems persist a few days.
    persistence = 0.72
    innovation_std = climate.synoptic_std_c * math.sqrt(1.0 - persistence**2)
    anomalies = np.empty(DAYS_PER_YEAR)
    anomalies[0] = rng.normal(0.0, climate.synoptic_std_c)
    shocks = rng.normal(0.0, innovation_std, DAYS_PER_YEAR)
    for day in range(1, DAYS_PER_YEAR):
        anomalies[day] = persistence * anomalies[day - 1] + shocks[day]

    hours = np.arange(HOURS_PER_YEAR, dtype=float)
    day_of_year = hours / 24.0
    hour_of_day = hours % 24.0

    seasonal = climate.seasonal_amplitude_c * np.cos(
        2.0 * math.pi * (day_of_year - climate.warmest_day_of_year) / DAYS_PER_YEAR
    )
    # Diurnal cycle peaks around 15:00 local time.
    diurnal = climate.diurnal_amplitude_c * np.cos(
        2.0 * math.pi * (hour_of_day - 15.0) / 24.0
    )
    synoptic = np.repeat(anomalies, 24)
    temps = climate.mean_temp_c + seasonal + diurnal + synoptic

    # Relative humidity: anti-phase with the diurnal cycle, plus noise, with
    # synoptically wet/dry days following the inverted temperature anomaly.
    rh = (
        climate.mean_rh_pct
        - climate.diurnal_rh_amplitude_pct
        * np.cos(2.0 * math.pi * (hour_of_day - 15.0) / 24.0)
        - 1.2 * synoptic
        + rng.normal(0.0, 2.0, HOURS_PER_YEAR)
    )
    rh = np.clip(rh, 5.0, 98.0)

    mixing = relative_to_absolute_humidity_array(rh, temps)
    return TMYSeries(climate, temps, mixing, rh)
