"""Year-long experiment runner.

The paper limits year-long Smooth-Sim runs by simulating the first day of
each week of the year and repeating the day-long workload on each of those
days (Section 5.1).  ``run_year`` does exactly that for either the
baseline or any CoolAir version, and aggregates the metrics the evaluation
reports: average temperature violations (Figure 8), daily worst-sensor
temperature ranges (Figure 9), and yearly PUE (Figure 10).
"""

from __future__ import annotations

import copy
import dataclasses
from typing import List, Optional, Union

import numpy as np

from repro import constants
from repro.core.coolair import CoolAir
from repro.core.config import CoolAirConfig
from repro.core.modeler import CoolingModel
from repro.errors import ConfigError, SimulationError
from repro.sim.campaign import model_log_gaps, trained_cooling_model
from repro.sim.engine import (
    BaselineAdapter,
    CoolAirAdapter,
    DayRunner,
    ProfileWorkload,
    make_realsim,
    make_smoothsim,
)
from repro.sim.trace import DayTrace
from repro.weather.climate import Climate, DAYS_PER_YEAR
from repro.workload.traces import Trace


@dataclasses.dataclass
class YearResult:
    """Aggregated metrics of one (system, location, workload) year run."""

    label: str
    climate_name: str
    sampled_days: List[int]
    daily_worst_range_c: List[float]
    daily_outside_range_c: List[float]
    daily_avg_violation_c: List[float]
    daily_max_rate_c_per_hour: List[float]
    cooling_kwh: float
    it_kwh: float
    delivery_overhead: float = constants.POWER_DELIVERY_PUE_OVERHEAD
    # Cooling water drawn over the sampled days, liters; 0 for the
    # air-cooled plants (parasol, chiller) and for pre-water cache entries.
    water_l: float = 0.0
    # Hybrid-plant regime occupancy over the sampled days: hours of
    # mechanical cooling served by the tower vs the chiller (24 h per
    # sampled day).  0 for single-regime plants and older cache entries.
    tower_mech_hours: float = 0.0
    chiller_mech_hours: float = 0.0
    # Per sampled day: fraction of steps under safe-mode (degraded)
    # control — all zeros unless the run injected faults
    # (docs/ROBUSTNESS.md).
    daily_degraded_fraction: List[float] = dataclasses.field(
        default_factory=list
    )
    # Per-day traces, populated only when the run asked for
    # ``keep_traces=True``; excluded from the result cache's JSON codec.
    traces: Optional[List[DayTrace]] = None

    # -- Figure 9 metrics ---------------------------------------------------

    @property
    def avg_range_c(self) -> float:
        """Average of daily worst-sensor ranges over the year."""
        return float(np.mean(self.daily_worst_range_c))

    @property
    def max_range_c(self) -> float:
        """The widest worst-sensor daily range of the year."""
        return float(np.max(self.daily_worst_range_c))

    @property
    def min_range_c(self) -> float:
        return float(np.min(self.daily_worst_range_c))

    @property
    def avg_outside_range_c(self) -> float:
        return float(np.mean(self.daily_outside_range_c))

    @property
    def max_outside_range_c(self) -> float:
        return float(np.max(self.daily_outside_range_c))

    # -- Figure 8 metric -----------------------------------------------------

    @property
    def avg_violation_c(self) -> float:
        """Mean over all readings of degrees above the 30C threshold."""
        return float(np.mean(self.daily_avg_violation_c))

    # -- Figure 10 metric ----------------------------------------------------

    @property
    def degraded_fraction(self) -> float:
        """Year-average fraction of time under safe-mode control."""
        if not self.daily_degraded_fraction:
            return 0.0
        return float(np.mean(self.daily_degraded_fraction))

    @property
    def pue(self) -> float:
        if self.it_kwh <= 0:
            raise SimulationError("PUE undefined with zero IT energy")
        return 1.0 + self.cooling_kwh / self.it_kwh + self.delivery_overhead

    @property
    def wue(self) -> float:
        """Water usage effectiveness: cooling water per IT energy, L/kWh."""
        if self.it_kwh <= 0:
            raise SimulationError("WUE undefined with zero IT energy")
        return self.water_l / self.it_kwh

    def summary_row(self) -> str:
        # The WUE column appears only for water-drawing plants, keeping
        # the default (parasol) row byte-identical to the pre-water form.
        wue = f"  WUE={self.wue:4.2f}L/kWh" if self.water_l > 0 else ""
        return (
            f"{self.label:<16} {self.climate_name:<10} "
            f"viol={self.avg_violation_c:5.2f}C  "
            f"range avg={self.avg_range_c:5.1f} max={self.max_range_c:5.1f}C  "
            f"PUE={self.pue:4.2f}  cooling={self.cooling_kwh:7.1f}kWh{wue}"
        )


def sampled_days(sample_every_days: int = 7) -> List[int]:
    """First day of each week (or each N-day stride) of the year."""
    if sample_every_days < 1:
        raise ConfigError(
            f"sample_every_days must be >= 1, got {sample_every_days}"
        )
    return list(range(0, DAYS_PER_YEAR, sample_every_days))


def run_year(
    system: Union[str, CoolAirConfig],
    climate: Climate,
    trace: Trace,
    model: Optional[CoolingModel] = None,
    smooth_hardware: bool = True,
    sample_every_days: int = 7,
    forecast_bias_c: float = 0.0,
    violation_threshold_c: float = 30.0,
    keep_traces: bool = False,
    plant: str = "parasol",
) -> YearResult:
    """Simulate a year of one management system at one location.

    ``system`` is the string ``"baseline"`` or a :class:`CoolAirConfig`
    (e.g. from :mod:`repro.core.versions`).  The baseline runs on the
    abrupt Parasol hardware it was designed for; CoolAir versions default
    to the smooth hardware of Smooth-Sim (Section 5.1).  ``plant``
    selects the cooling backend (:mod:`repro.cooling.backends`).  Traces
    are deep-copied because temporal scheduling mutates job start times.
    """
    trace = copy.deepcopy(trace)
    is_baseline = isinstance(system, str)
    if is_baseline and system != "baseline":
        raise SimulationError(f"unknown system {system!r}")

    if is_baseline:
        setup = make_realsim(climate, forecast_bias_c=forecast_bias_c, plant=plant)
        adapter = BaselineAdapter()
        label = "Baseline"
    else:
        faults = system.faults if system.faults else None
        maker = make_smoothsim if smooth_hardware else make_realsim
        setup = maker(
            climate, forecast_bias_c=forecast_bias_c, faults=faults, plant=plant
        )
        if model is None:
            model = trained_cooling_model(log_gaps=model_log_gaps(system))
        coolair = CoolAir(
            config=system,
            model=model,
            layout=setup.layout,
            forecast_service=setup.forecast,
            smooth_hardware=setup.smooth_hardware,
        )
        adapter = CoolAirAdapter(coolair)
        label = system.name

    workload = ProfileWorkload(trace, setup.layout, float(setup.control_period_s))
    runner = DayRunner(setup, workload, adapter)

    days = sampled_days(sample_every_days)
    result = YearResult(
        label=label,
        climate_name=climate.name,
        sampled_days=days,
        daily_worst_range_c=[],
        daily_outside_range_c=[],
        daily_avg_violation_c=[],
        daily_max_rate_c_per_hour=[],
        cooling_kwh=0.0,
        it_kwh=0.0,
        daily_degraded_fraction=[],
    )
    traces: List[DayTrace] = []
    for day in days:
        day_trace = runner.run_day(day)
        result.daily_worst_range_c.append(day_trace.worst_sensor_range_c())
        result.daily_outside_range_c.append(day_trace.outside_range_c())
        result.daily_avg_violation_c.append(
            day_trace.avg_violation_c(violation_threshold_c)
        )
        result.daily_max_rate_c_per_hour.append(day_trace.max_rate_c_per_hour())
        result.daily_degraded_fraction.append(day_trace.degraded_fraction())
        result.cooling_kwh += day_trace.cooling_energy_kwh()
        result.it_kwh += day_trace.it_energy_kwh()
        result.water_l += day_trace.water_liters()
        result.tower_mech_hours += (
            day_trace.mech_regime_fraction("tower") * 24.0
        )
        result.chiller_mech_hours += (
            day_trace.mech_regime_fraction("chiller") * 24.0
        )
        if keep_traces:
            traces.append(day_trace)
    if keep_traces:
        result.traces = traces
    return result
