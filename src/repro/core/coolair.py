"""The CoolAir manager: daily band selection plus the 10-minute loop.

This class wires the Figure 2 architecture together:

* at the start of each day it queries the forecast service, selects the
  temperature band, and (for deferrable workloads) runs the temporal
  scheduler;
* every control period it plans the active server set and placement order
  (Compute Manager) and selects the best cooling regime (Cooling Manager).

The simulation engines own the plant and the clock; they call into this
class, which is also how a real deployment would drive it (Section 6,
"Practical considerations").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.cooling.baseline import BaselineController
from repro.cooling.regimes import CoolingCommand
from repro.core.band import TemperatureBand, select_band
from repro.core.compute import ComputeConfigurer, ComputeOptimizer, TemporalScheduler
from repro.core.config import BandMode, CoolAirConfig
from repro.core.modeler import CoolingModel
from repro.core.optimizer import CoolingOptimizer
from repro.core.predictor import CoolingPredictor, PredictorState
from repro.core.utility import UtilityFunction, UtilityWeights
from repro.datacenter.layout import DatacenterLayout
from repro.errors import ConfigError, ModelNotTrainedError, WeatherError
from repro.weather.forecast import DailyForecast, ForecastService
from repro.workload.job import Job


class CoolAir:
    """Workload and cooling manager for a free-cooled datacenter."""

    def __init__(
        self,
        config: CoolAirConfig,
        model: CoolingModel,
        layout: DatacenterLayout,
        forecast_service: ForecastService,
        smooth_hardware: bool = False,
        utility_weights: Optional[UtilityWeights] = None,
        predictor: Optional[CoolingPredictor] = None,
    ) -> None:
        if model.num_sensors != layout.num_pods:
            raise ConfigError(
                f"model has {model.num_sensors} sensors, layout has "
                f"{layout.num_pods} pods"
            )
        self.config = config
        self.model = model
        self.layout = layout
        self.forecast_service = forecast_service
        # ``predictor`` (built on ``model``) lets many managers of one
        # model share its plan caches; the lane engine shares one per model.
        self.predictor = predictor or CoolingPredictor(
            model, config.model_step_s
        )
        self.utility = UtilityFunction(config, utility_weights)
        self.optimizer = CoolingOptimizer(
            config, self.predictor, self.utility, smooth_hardware=smooth_hardware
        )
        self.compute_optimizer = ComputeOptimizer(config, layout)
        self.compute_configurer = ComputeConfigurer(layout)
        self.temporal_scheduler = TemporalScheduler(config)
        self.band: Optional[TemperatureBand] = None
        self.forecast: Optional[DailyForecast] = None
        # Safe mode (docs/ROBUSTNESS.md): when required sensors are dead
        # or the learned model has lost a regime, fall back to the same
        # TKS-style feedback law the baseline runs, with the setpoint at
        # the config's Max (plus its humidity override) — conservative
        # and model-free, so it works with no learned state at all.
        self._safe_controller = BaselineController(
            setpoint_c=config.max_c, max_rh_pct=config.max_rh_pct
        )
        self.last_decision_degraded = False
        self.last_degradation_reason: Optional[str] = None

    # -- daily --------------------------------------------------------------

    def reset_day_state(self) -> None:
        """Clear carry-over control state at a day boundary.

        The safe controller's TKS latches are the only CoolAir-side state
        that would otherwise leak between days; clearing them (together
        with the actuator/disk resets the day runners perform) makes every
        simulated day independent of which day ran before it — the
        invariant the day-unfolded lane scheduler relies on.
        """
        self._safe_controller.reset()

    def start_day(
        self, day_of_year: int, jobs: Sequence[Job] = ()
    ) -> TemperatureBand:
        """Select the day's band and temporally schedule deferrable jobs.

        If the Web forecast service is unreachable, CoolAir degrades
        gracefully: it keeps yesterday's band (bands for consecutive days
        almost always overlap — Section 3.2), or centers a first-day band
        inside [Min, Max].  Temporal scheduling is skipped without a
        forecast.
        """
        try:
            self.forecast = self.forecast_service.forecast_for_day(day_of_year)
        except WeatherError:
            self.forecast = None
            if self.band is None:
                center = (self.config.min_c + self.config.max_c) / 2.0
                self.band = TemperatureBand(
                    center - self.config.width_c / 2.0,
                    center + self.config.width_c / 2.0,
                )
            return self.band
        if self.config.use_weather_forecast or self.config.band_mode is not BandMode.ADAPTIVE:
            self.band = select_band(self.forecast, self.config)
        else:
            # No-forecast variants (Var-High/Low-Recirc) fall back to a
            # fixed band; reaching here with ADAPTIVE is a config error.
            raise ConfigError(
                "adaptive band selection requires use_weather_forecast=True"
            )
        if jobs:
            self.temporal_scheduler.schedule_day(jobs, self.forecast, self.band)
        return self.band

    # -- per control period ---------------------------------------------------

    def plan_compute(self, demanded_servers: int) -> Tuple[Set[int], List[int]]:
        """Activate servers for the demand; returns (active ids, active pods)."""
        active = self.compute_optimizer.plan_active_set(demanded_servers)
        self.compute_configurer.apply(active)
        return active, self.compute_optimizer.active_pod_indices(active)

    def decide_cooling(
        self, state: PredictorState, active_pods: Optional[Sequence[int]] = None
    ) -> CoolingCommand:
        """Select the best cooling regime for the next period.

        Degrades gracefully instead of raising: if a required sensor is
        dead (an inlet or the outside temperature) or the learned model
        cannot predict a candidate regime, the decision drops to the
        documented TKS-like safe mode and ``last_decision_degraded`` /
        ``last_degradation_reason`` record it for the trace.
        """
        candidates = self.cooling_candidates(state)
        if candidates is None:
            return self.safe_mode_command()
        return self.optimizer.decide(
            state, self.band, active_pods, candidates=candidates
        )

    def cooling_candidates(
        self, state: PredictorState
    ) -> Optional[List[CoolingCommand]]:
        """The branching half of :meth:`decide_cooling`.

        Returns the regimes the optimizer rolls out, or None when this
        decision runs in safe mode (:meth:`safe_mode_command`): a dead
        inlet or outside sensor, or a model that cannot predict a
        candidate (the predictor's plan build raises exactly when the
        rollout would).  Records the outcome in ``last_decision_degraded``
        / ``last_degradation_reason`` either way.  The lane engine calls
        this per lane and rolls out only its healthy lanes, in one stacked
        pass.
        """
        if self.band is None:
            raise ConfigError("call start_day before decide_cooling")
        reason = self._dead_sensor_reason()
        if reason is None:
            candidates = self.optimizer._candidates(state, self.band)
            try:
                self.predictor.check_candidates(state.mode, candidates)
            except ModelNotTrainedError as err:
                reason = f"model lost a regime: {err}"
            else:
                self.last_decision_degraded = False
                self.last_degradation_reason = None
                return candidates
        self.last_decision_degraded = True
        self.last_degradation_reason = reason
        return None

    # -- graceful degradation -------------------------------------------------

    def _dead_sensor_reason(self) -> Optional[str]:
        """Why the optimizer cannot be trusted, or None if sensors are fine.

        The optimizer needs every pod inlet sensor (its state vector) and
        the outside temperature (every rollout's boundary condition); the
        humidity inputs come from the plant model, not sensors, so dead
        humidity sensors do not force a fallback.
        """
        dead = [
            sensor.name
            for sensor in self.layout.inlet_sensors
            if not sensor.healthy
        ]
        if not self.layout.outside_temp.healthy:
            dead.append(self.layout.outside_temp.name)
        if dead:
            return "dead sensors: " + ", ".join(dead)
        return None

    # Nominal inlet rise over outside air, used only when every inlet
    # sensor is dead and safe mode must estimate a control temperature.
    SAFE_MODE_INLET_RISE_C = 6.0

    def safe_mode_command(self) -> CoolingCommand:
        """The TKS-like fallback decision (docs/ROBUSTNESS.md).

        Controls on the warmest *healthy* inlet reading; with every inlet
        dead it assumes a nominal rise over the outside reading.  Dead
        sensors hold their last value, so ``read()`` stays available.
        """
        layout = self.layout
        healthy = [
            sensor.read()
            for sensor in layout.inlet_sensors
            if sensor.healthy and sensor.has_reading
        ]
        if healthy:
            control_temp = max(healthy)
        else:
            control_temp = (
                layout.outside_temp.read() + self.SAFE_MODE_INLET_RISE_C
            )
        return self._safe_controller.decide(
            control_temp_c=control_temp,
            outside_temp_c=layout.outside_temp.read(),
            cold_aisle_rh_pct=layout.cold_aisle_humidity.read(),
            outside_rh_pct=layout.outside_humidity.read(),
        )

    def placement_order(self):
        """Spatial placement order for the workload scheduler."""
        return self.compute_optimizer.placement_order()
