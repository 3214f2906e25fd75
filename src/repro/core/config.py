"""CoolAir configuration.

The defaults are the paper's evaluation settings (Section 5.1): Offset=8C,
Width=5C, Min=10C, Max=30C, relative humidity below 80%, temperature change
rate below 20C/hour, 10-minute control periods over a 2-minute model step.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

from repro import constants
from repro.errors import ConfigError
from repro.faults import FaultSchedule


class PlacementStrategy(enum.Enum):
    """Spatial placement order across pods (Section 3.3, Figure 11)."""

    # CoolAir's choice: fill high-recirculation pods first.  They stay
    # consistently warm, so they vary less.
    HIGH_RECIRCULATION_FIRST = "high_recirculation_first"
    # Prior work's energy-aware choice: fill low-recirculation pods first.
    LOW_RECIRCULATION_FIRST = "low_recirculation_first"


class BandMode(enum.Enum):
    """How the utility function constrains temperatures."""

    # Adaptive daily band from the weather forecast (full CoolAir).
    ADAPTIVE = "adaptive"
    # A fixed band (used by Var-Low-Recirc / Var-High-Recirc: 25..30C).
    FIXED = "fixed"
    # No band: only the maximum-temperature cap (Temperature / Energy).
    MAX_ONLY = "max_only"


class TemporalPolicy(enum.Enum):
    """Temporal scheduling policy for deferrable jobs."""

    NONE = "none"
    # All-DEF: pack load into hours whose forecast falls inside the band.
    BAND_AWARE = "band_aware"
    # Energy-DEF: pack load into the coldest hours (prior art; widens
    # variation — Section 5.2, "Temporal scheduling").
    COLDEST_HOURS = "coldest_hours"


@dataclasses.dataclass
class CoolAirConfig:
    """Everything that distinguishes one CoolAir version from another."""

    name: str = "All-ND"
    # Band geometry.
    offset_c: float = constants.DEFAULT_OFFSET_C
    width_c: float = constants.DEFAULT_WIDTH_C
    min_c: float = constants.DEFAULT_MIN_C
    max_c: float = constants.DEFAULT_MAX_C
    band_mode: BandMode = BandMode.ADAPTIVE
    # Fixed-band bounds (only used with BandMode.FIXED).
    fixed_band_low_c: float = 25.0
    fixed_band_high_c: float = 30.0
    # Hard ceiling for the Temperature/Energy versions (BandMode.MAX_ONLY).
    max_temp_setpoint_c: float = constants.DEFAULT_MAX_C
    # Environmental limits.
    max_rh_pct: float = constants.DEFAULT_MAX_RH_PCT
    max_rate_c_per_hour: float = constants.DEFAULT_MAX_RATE_C_PER_HOUR
    # Utility components.
    use_energy_term: bool = True
    use_band_term: bool = True
    use_rate_term: bool = True
    # Workload management.
    placement: PlacementStrategy = PlacementStrategy.HIGH_RECIRCULATION_FIRST
    temporal: TemporalPolicy = TemporalPolicy.NONE
    use_weather_forecast: bool = True
    # Control cadence.
    control_period_s: int = constants.CONTROL_PERIOD_S
    model_step_s: int = constants.MODEL_STEP_S
    # Fault injection (docs/ROBUSTNESS.md).  None or an empty schedule
    # leaves every simulation path bit-identical to the fault-free build;
    # faulted cells ride the lane engine with per-lane fault channels, but
    # never unfold their days: fault state carries across days
    # (repro.sim.eligibility.decide_engine).
    faults: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if self.width_c <= 0:
            raise ConfigError("width_c must be positive")
        if self.min_c >= self.max_c:
            raise ConfigError(f"min_c {self.min_c} must be below max_c {self.max_c}")
        if self.offset_c < 0:
            raise ConfigError("offset_c must be non-negative")
        if not 0.0 < self.max_rh_pct <= 100.0:
            raise ConfigError(f"max_rh_pct {self.max_rh_pct} out of (0, 100]")
        if self.max_rate_c_per_hour <= 0:
            raise ConfigError("max_rate_c_per_hour must be positive")
        if self.control_period_s % self.model_step_s != 0:
            raise ConfigError(
                "control_period_s must be a multiple of model_step_s "
                f"({self.control_period_s} % {self.model_step_s} != 0)"
            )
        if self.band_mode is BandMode.FIXED:
            if self.fixed_band_low_c >= self.fixed_band_high_c:
                raise ConfigError("fixed band low must be below high")

    @property
    def steps_per_control_period(self) -> int:
        return self.control_period_s // self.model_step_s
