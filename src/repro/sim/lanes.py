"""Lane-batched year simulation: many (system, climate) runs in lockstep.

A :class:`LaneRunner` advances N independent year scenarios — each the
exact (climate, management system, workload) combination a scalar
:class:`~repro.sim.engine.DayRunner` would simulate — as *lanes* of
structure-of-arrays state.  One vectorized call per model step advances
every lane's thermal plant, weather lookup, sensor quantization, and disk
model; per-lane branching (TKS mode latches, regime changes, band
differences, safe mode) is handled with boolean masks and per-lane
decision objects.

Bit-identity contract: ``run_year_lanes(scenarios)[i]`` equals
``run_year(scenarios[i]...)`` field for field.  The design splits work by
rate to keep that guarantee cheap to audit:

* **Per model step (720/day, vectorized):** :class:`LaneThermalPlant`
  stepping, :class:`LaneWeather` grid reads, sensor quantization
  (``np.floor(x/res + 0.5)`` is the elementwise mirror of the scalar
  sensors' half-up quantization), cold-aisle RH,
  :class:`LaneDiskModel`, and metric recording.
* **Per control period (144/day, per-lane scalars):** everything the
  scalar engine computes from quantities that the :class:`ProfileWorkload`
  holds constant between control epochs — pod IT powers, unit actuator
  state and power draw, disk utilization — plus the management decisions
  themselves.  Baseline lanes decide through the vectorized
  :class:`LaneBaselineController`.  CoolAir lanes branch through
  :meth:`CoolAir.cooling_candidates` (the scalar manager's own safe-mode
  branching); the healthy ones share one cross-lane
  :meth:`CoolingPredictor.predict_lanes_stacked` rollout per cooling
  model and then select through the scalar optimizer's
  :meth:`CoolingOptimizer.decide_from_stacked`, and the degraded ones
  take :meth:`CoolAir.safe_mode_command`.
* **Per-backend lane units (non-parasol plants):** the chiller, tower,
  and hybrid backends step as
  :class:`~repro.cooling.backends.LaneCoolingUnits` arrays — actuator
  state gathered per control period from the per-lane scalar units
  (whose ramp/latch/regime dynamics stay authoritative), weather-coupled
  power and water evaluated per model step.
* **Faulted lanes (a CoolAir config with a fault schedule):** each owns
  a :class:`~repro.faults.FaultInjector` attached to its own layout and
  units, exactly as a scalar run's.  Every step, after the vectorized
  quantization, the lane's true values go through its layout's sensors
  at the scalar engine's times and order, and the readings (faulted,
  held, or healthy) replace the lane's row; actuator faults act through
  the per-lane units.  The sensors and injector persist across
  :meth:`LaneRunner.run_day` calls, carrying fault state from day to day
  as the scalar engine does.  Fault-free lanes never touch this path.

See :mod:`repro.sim.eligibility` for which cells ride lanes.

Restrictions (asserted): no process noise, the standard 120 s model step /
600 s control period, and the profile (not task-level Hadoop) workload.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import constants
from repro.cooling.backends import (
    LANE_REGIME_CODES,
    LANE_REGIME_CHILLER,
    LANE_REGIME_TOWER,
    LaneCoolingUnits,
    get_backend,
)
from repro.cooling.baseline import LaneBaselineController
from repro.cooling.regimes import CoolingCommand
from repro.cooling.tks import (
    LANE_CMD_AC_FAN,
    LANE_CMD_AC_ON,
    LANE_CMD_CLOSED,
    LANE_CMD_FREE_COOLING,
)
from repro.cooling.units import SmoothCoolingUnits
from repro.core.coolair import CoolAir
from repro.core.config import CoolAirConfig, TemporalPolicy
from repro.core.modeler import CoolingModel
from repro.core.predictor import CoolingPredictor, PredictorState
from repro.datacenter.layout import DatacenterLayout, parasol_layout
from repro.datacenter.server import PowerState
from repro.errors import ConfigError, SimulationError
from repro.faults import FaultInjector
from repro.physics.psychrometrics import (
    absolute_to_relative_humidity_array,
    wet_bulb_c_array,
)
from repro.physics.thermal import LaneDiskModel, LaneThermalPlant
from repro.sim.campaign import model_log_gaps, trained_cooling_model
from repro.sim.engine import ProfileWorkload
from repro.workload.profile import DemandProfile
from repro.sim.trace import (
    DayTrace,
    StepRecord,
    avg_violation_from,
    degraded_fraction_from,
    energy_kwh_from,
    max_rate_from,
    outside_range_from,
    worst_sensor_range_from,
)
from repro.sim.yearsim import YearResult, sampled_days
from repro.weather.climate import Climate, SECONDS_PER_DAY
from repro.weather.forecast import ForecastService
from repro.artifacts import tmy_series
from repro.weather.tmy import LaneWeather, TMYSeries
from repro.workload.covering import covering_subset
from repro.workload.traces import Trace

# The scalar engine's grid (SimSetup defaults); the lane engine supports
# exactly this timing and asserts any CoolAir config agrees.
MODEL_STEP_S = 120
CONTROL_PERIOD_S = 600

_TEMP_RES = constants.SENSOR_ACCURACY_C
_RH_RES = 1.0


def _quantize_temp(true_c: np.ndarray) -> np.ndarray:
    """Elementwise mirror of ``TemperatureSensor.observe``.

    ``np.floor(x/res + 0.5) * res`` is the same half-up rule (and the
    same float64 operations) as the scalar sensor's
    :func:`~repro.datacenter.sensors.quantize_half_up`, so each element
    matches the scalar sensor bit for bit — including ties like 25.25C,
    which round up to 25.5C on both paths.
    """
    return np.floor(true_c / _TEMP_RES + 0.5) * _TEMP_RES


def _quantize_rh(true_pct: np.ndarray) -> np.ndarray:
    """Elementwise mirror of ``HumiditySensor.observe`` (half-up)."""
    clamped = np.maximum(0.0, np.minimum(100.0, true_pct))
    return np.floor(clamped / _RH_RES + 0.5) * _RH_RES


def _copy_trace(trace: Trace) -> Trace:
    """A private per-lane copy of a trace, cheaper than ``copy.deepcopy``.

    Job fields are immutable scalars, so shallow job copies give a
    rescheduling lane an independent trace (the temporal scheduler
    mutates ``scheduled_start_s`` per lane).
    """
    clone = copy.copy(trace)
    clone.jobs = [copy.copy(job) for job in trace.jobs]
    return clone


def _command_for_code(code: int, fc_speed: float) -> CoolingCommand:
    """A lane controller's integer decision as a scalar CoolingCommand."""
    if code == LANE_CMD_CLOSED:
        return CoolingCommand.closed()
    if code == LANE_CMD_FREE_COOLING:
        return CoolingCommand.free_cooling(fc_speed)
    if code == LANE_CMD_AC_FAN:
        return CoolingCommand.ac(compressor_duty=0.0)
    if code == LANE_CMD_AC_ON:
        return CoolingCommand.ac(compressor_duty=1.0)
    raise SimulationError(f"unknown lane command code {code}")


@dataclasses.dataclass
class LaneScenario:
    """One lane: a (system, climate, workload trace) year combination."""

    system: Union[str, CoolAirConfig]
    climate: Climate
    trace: Trace
    forecast_bias_c: float = 0.0
    # Cooling backend (repro.cooling.backends).  Parasol's power laws are
    # vectorized natively; the alternative plants step through their
    # backend's LaneCoolingUnits.
    plant: str = "parasol"


class _PlantGroup:
    """The lanes of one non-parasol backend inside a batch."""

    __slots__ = ("plant", "indices", "lunits", "needs_wet_bulb", "wb_grid")

    def __init__(
        self, plant: str, indices: np.ndarray, lunits: LaneCoolingUnits
    ) -> None:
        self.plant = plant
        self.indices = indices
        self.lunits = lunits
        # Duty-scaling backends (tower, hybrid) read the wet bulb every
        # step; run_day precomputes it over the whole day grid.
        self.needs_wet_bulb = lunits.scales_duty
        self.wb_grid: Optional[np.ndarray] = None


class _Lane:
    """Per-lane scalar objects: everything that is cheap per control period."""

    __slots__ = (
        "label",
        "layout",
        "units",
        "workload",
        "coolair",
        "climate_name",
        "injector",
        "reschedules",
    )

    def __init__(
        self,
        label: str,
        layout: DatacenterLayout,
        units,
        workload: ProfileWorkload,
        coolair: Optional[CoolAir],
        climate_name: str,
        injector: Optional[FaultInjector] = None,
        reschedules: bool = False,
    ) -> None:
        self.label = label
        self.layout = layout
        self.units = units
        self.workload = workload
        self.coolair = coolair
        self.climate_name = climate_name
        # Faulted lanes only: the scalar engine's injector, attached to
        # this lane's own layout and units.
        self.injector = injector
        # Whether this lane's temporal scheduler moves jobs; only such a
        # lane owns a private copy of its trace.
        self.reschedules = reschedules


class LaneRunner:
    """Steps a batch of independent year scenarios in lockstep.

    ``model`` is the cooling model of every CoolAir lane (like
    ``run_year``'s ``model=``); None gives each lane the model its fault
    schedule asks for (:func:`~repro.sim.campaign.model_log_gaps`).
    Lanes of one model share a predictor, so their rollouts stack into
    one pass per control period and distinct model: a runner chunk that
    mixes the default model with a fault log-gap schedule's makes one
    stacked rollout for each.

    Lanes share what they only read: one weather table row per distinct
    climate, and the source trace of every lane whose temporal scheduler
    never moves a job (baseline lanes and ``TemporalPolicy.NONE``).
    Only rescheduling lanes copy their trace.
    """

    def __init__(
        self,
        scenarios: Sequence[LaneScenario],
        model: Optional[CoolingModel] = None,
        smooth_hardware: bool = True,
    ) -> None:
        if not scenarios:
            raise ConfigError("LaneRunner needs at least one scenario")
        self.num_lanes = len(scenarios)
        self.model_step_s = MODEL_STEP_S
        self.control_period_s = CONTROL_PERIOD_S
        self._steps_per_control = CONTROL_PERIOD_S // MODEL_STEP_S

        # One shared predictor per distinct cooling model.
        predictors: Dict[CoolingModel, CoolingPredictor] = {}
        series_by_climate: Dict[Climate, TMYSeries] = {}
        shared_profiles: Dict[tuple, DemandProfile] = {}
        series_list: List[TMYSeries] = []
        self.lanes: List[_Lane] = []
        baseline_indices: List[int] = []
        coolair_indices: List[int] = []

        for index, scenario in enumerate(scenarios):
            system = scenario.system
            is_baseline = isinstance(system, str)
            if is_baseline and system != "baseline":
                raise SimulationError(f"unknown system {system!r}")
            tmy = series_by_climate.get(scenario.climate)
            if tmy is None:
                # Store-backed (and cached per process): successive chunks
                # in one worker share the series and its presampled grids
                # instead of regenerating per chunk.
                tmy = tmy_series(scenario.climate)
                series_by_climate[scenario.climate] = tmy
            series_list.append(tmy)

            layout = parasol_layout()
            covering_subset(layout.all_servers())
            # Only the temporal scheduler writes to a trace (its jobs'
            # ``scheduled_start_s``); every other lane reads the source.
            reschedules = (
                not is_baseline and system.temporal is not TemporalPolicy.NONE
            )
            trace = (
                _copy_trace(scenario.trace) if reschedules else scenario.trace
            )
            # Lanes sharing a source trace get equal initial profiles (the
            # fluid model is deterministic in the job values, which a copy
            # preserves) — build once per distinct trace.  Each lane keeps
            # its own workload; a per-lane ``rebuild()`` after temporal
            # scheduling replaces only that lane's profile.
            profile_key = (id(scenario.trace), layout.num_servers)
            profile = shared_profiles.get(profile_key)
            workload = ProfileWorkload(
                trace, layout, float(CONTROL_PERIOD_S), profile=profile
            )
            if profile is None:
                shared_profiles[profile_key] = workload.profile

            backend = get_backend(scenario.plant)
            injector = None
            if is_baseline:
                # make_realsim: the baseline runs on abrupt hardware (for
                # parasol; the alternative plants are smooth either way).
                units = backend.make_units(smooth=False)
                coolair = None
                label = "Baseline"
                baseline_indices.append(index)
            else:
                if (
                    system.model_step_s != MODEL_STEP_S
                    or system.control_period_s != CONTROL_PERIOD_S
                ):
                    raise ConfigError(
                        "lane engine requires the standard "
                        f"{MODEL_STEP_S}s/{CONTROL_PERIOD_S}s timing, got "
                        f"{system.model_step_s}s/{system.control_period_s}s"
                    )
                units = backend.make_units(smooth=smooth_hardware)
                forecast = ForecastService(
                    tmy, bias_c=scenario.forecast_bias_c
                )
                lane_model = (
                    model
                    if model is not None
                    else trained_cooling_model(
                        log_gaps=model_log_gaps(system)
                    )
                )
                predictor = predictors.get(lane_model)
                if predictor is None:
                    predictor = CoolingPredictor(lane_model, MODEL_STEP_S)
                    predictors[lane_model] = predictor
                coolair = CoolAir(
                    config=system,
                    model=lane_model,
                    layout=layout,
                    forecast_service=forecast,
                    smooth_hardware=isinstance(units, SmoothCoolingUnits),
                    predictor=predictor,
                )
                label = system.name
                coolair_indices.append(index)
                if system.faults:
                    # DayRunner.__init__: attach once per run.
                    injector = FaultInjector(system.faults)
                    injector.attach(layout, units)
            self.lanes.append(
                _Lane(label, layout, units, workload, coolair,
                      scenario.climate.name, injector, reschedules)
            )

        num = self.num_lanes
        pods = self.lanes[0].layout.num_pods
        self.num_pods = pods
        self._weather = LaneWeather(series_list, float(MODEL_STEP_S))
        self._plant = LaneThermalPlant(num)
        self._disks = LaneDiskModel(num, pods)

        # Non-parasol lanes grouped by backend: each group steps one
        # LaneCoolingUnits over its lanes' slices.
        by_plant: Dict[str, List[int]] = {}
        for index, scenario in enumerate(scenarios):
            if scenario.plant != "parasol":
                by_plant.setdefault(scenario.plant, []).append(index)
        self._plant_groups: List[_PlantGroup] = [
            _PlantGroup(
                plant,
                np.asarray(indices, dtype=int),
                get_backend(plant).make_lane_units(len(indices)),
            )
            for plant, indices in by_plant.items()
        ]
        self._is_plant_lane = np.zeros(num, dtype=bool)
        for group in self._plant_groups:
            self._is_plant_lane[group.indices] = True
        self._scaling_plants = any(
            group.lunits.scales_duty for group in self._plant_groups
        )

        self._baseline_idx = np.asarray(baseline_indices, dtype=int)
        self._coolair_idx = coolair_indices
        if baseline_indices:
            self._baseline_ctrl = LaneBaselineController(len(baseline_indices))
            # The TKS control sensor: the warmest (highest-recirculation)
            # pod inlet, per lane (BaselineAdapter.control).
            self._baseline_pods = np.asarray(
                [
                    max(
                        self.lanes[i].layout.pods,
                        key=lambda pod: pod.recirculation,
                    ).pod_id
                    for i in baseline_indices
                ],
                dtype=int,
            )
        else:
            self._baseline_ctrl = None
            self._baseline_pods = None
        self._faulted = [
            index
            for index, lane in enumerate(self.lanes)
            if lane.injector is not None
        ]

        # Sensor + history arrays (the scalar engine's sensors and
        # _prev_* attributes as lanes-first arrays).
        self._readings = np.zeros((num, pods))
        self._prev_readings = np.zeros((num, pods))
        self._outside_read = np.zeros(num)
        self._prev_outside = np.zeros(num)
        self._cold_rh = np.zeros(num)
        self._outside_rh_read = np.zeros(num)
        self._prev_fan = np.zeros(num)
        # Whether each lane's latest control decision ran in safe mode
        # (DayRunner.degraded_control, stamped on every step).
        self._degraded = np.zeros(num, dtype=bool)
        # Per-control-period caches (constant between control epochs).
        self._fc = np.zeros(num)
        self._ac_fan = np.zeros(num)
        self._duty = np.zeros(num)
        self._pod_powers = np.zeros((num, pods))
        self._it_power = np.zeros(num)
        self._cooling_power = np.zeros(num)
        self._fan = np.zeros(num)
        self._util = np.zeros(num)
        self._disk_util = np.zeros(num)
        self._modes: List = [None] * num
        # Per-step plant resources (non-parasol lanes) and the hybrid
        # regime, refreshed per control period from the scalar units.
        self._water_step = np.zeros(num)
        self._regime_code = np.zeros(num, dtype=np.int8)
        self._regime_str: List[str] = [""] * num
        # Active-server count / utilization, recomputed only when the
        # active set can change: every coolair plan_compute, and day start
        # for baseline lanes (whose set then stays all-active).
        self._active_count = [0] * num
        self._util_cache = [0.0] * num
        self._per_active_cache: Dict = {}
        # Per-day demand caches: DemandProfile.demanded_servers is a
        # property that recomputes its whole array on every access, and
        # the profile only changes at day start (temporal rescheduling).
        self._demanded_arr: List = [None] * num
        self._server_util_cache: List[Dict[int, float]] = [
            {} for _ in range(num)
        ]

    # -- per-epoch pieces ----------------------------------------------------

    def _control(
        self,
        step: int,
        grid_col: int,
        temps_grid: np.ndarray,
        rh_grid: np.ndarray,
        mix_grid: np.ndarray,
    ) -> None:
        """One control epoch: per-lane decisions, masked actuation."""
        interval = max(0, step) // self._steps_per_control

        # The scalar engine refreshes each unit's weather boundary every
        # model step, so at control time a unit sees the *previous* step's
        # raw weather (the warmup-start seed on the first step).  Only the
        # weather-coupled backends read it when applying a command (the
        # hybrid's tower-vs-chiller pick), so the lane engine defers the
        # refresh to here.
        if self._plant_groups:
            col = max(grid_col - 1, 0)
            for group in self._plant_groups:
                for lane_index in group.indices:
                    self.lanes[lane_index].units.observe_boundary(
                        float(temps_grid[lane_index, col]),
                        float(rh_grid[lane_index, col]),
                    )

        if self._baseline_ctrl is not None:
            bi = self._baseline_idx
            codes, speeds = self._baseline_ctrl.decide(
                self._readings[bi, self._baseline_pods],
                self._outside_read[bi],
                self._cold_rh[bi],
                self._outside_rh_read[bi],
            )
            for slot, lane_index in enumerate(bi):
                self.lanes[lane_index].units.apply(
                    _command_for_code(int(codes[slot]), float(speeds[slot]))
                )

        if self._coolair_idx:
            inside_w = self._plant.state.cold_aisle_mixing_ratio
            # Healthy lanes' candidate sets, batched per shared predictor
            # (one per cooling model) for one stacked rollout each.
            batches: Dict[CoolingPredictor, tuple] = {}
            for lane_index in self._coolair_idx:
                lane = self.lanes[lane_index]
                coolair = lane.coolair
                demanded_arr = self._demanded_arr[lane_index]
                demanded = int(
                    demanded_arr[interval % demanded_arr.shape[0]]
                )
                _active_ids, active_pods = coolair.plan_compute(demanded)
                # layout.utilization() unrolled so the active count is
                # also available to _refresh_period_caches (same int sum,
                # same division — bit-identical).
                count = 0
                for pod in lane.layout.pods:
                    count += pod.num_active()
                self._active_count[lane_index] = count
                util = count / lane.layout.num_servers
                self._util_cache[lane_index] = util
                state = PredictorState(
                    mode=lane.units.mode,
                    fan_speed=lane.units.fc_fan_speed,
                    sensor_temps_c=self._readings[lane_index].tolist(),
                    prev_sensor_temps_c=self._prev_readings[lane_index].tolist(),
                    outside_temp_c=float(self._outside_read[lane_index]),
                    prev_outside_temp_c=float(self._prev_outside[lane_index]),
                    prev_fan_speed=float(self._prev_fan[lane_index]),
                    utilization=util,
                    inside_mixing_ratio=float(inside_w[lane_index]),
                    outside_mixing_ratio=float(mix_grid[lane_index, grid_col]),
                )
                candidates = coolair.cooling_candidates(state)
                self._degraded[lane_index] = coolair.last_decision_degraded
                if candidates is None:
                    lane.units.apply(coolair.safe_mode_command())
                    continue
                states, cands, picked = batches.setdefault(
                    coolair.predictor, ([], [], [])
                )
                states.append(state)
                cands.append(candidates)
                picked.append((lane, active_pods))
            for predictor, (states, cands, picked) in batches.items():
                stacked = predictor.predict_lanes_stacked(
                    states, cands, self._steps_per_control
                )
                for (lane, active_pods), state, candidates, (
                    temps, rh, energies, ac_full
                ) in zip(picked, states, cands, stacked):
                    command = lane.coolair.optimizer.decide_from_stacked(
                        state, lane.coolair.band, candidates, temps, rh,
                        energies, ac_full, active_pods,
                    )
                    lane.units.apply(command)

    def _observe_faulted(
        self,
        day_start_s: Sequence[int],
        time_of_day_s: float,
        inlets: np.ndarray,
        inside_rh: np.ndarray,
        outside_c: np.ndarray,
        outside_rh: np.ndarray,
    ) -> None:
        """Faulted lanes' readings, through their fault-injected sensors.

        Mirrors ``DayRunner._seed_sensors`` / ``_advance_plant``: the
        injector's clock is set to the step's absolute time (the same
        float arithmetic), then the step's true values go through
        ``layout.observe`` — the scalar engine's sensors, channels, and
        RNG draws, in its order.  The readings it leaves (a faulted value,
        a dead sensor's held one, or the plain quantization) overwrite
        the lane's row of the freshly rotated buffers.
        """
        for lane_index in self._faulted:
            lane = self.lanes[lane_index]
            layout = lane.layout
            lane.injector.set_time(day_start_s[lane_index] + time_of_day_s)
            layout.observe(
                pod_inlet_temp_c=inlets[lane_index],
                cold_aisle_rh_pct=float(inside_rh[lane_index]),
                outside_temp_c=float(outside_c[lane_index]),
                outside_rh_pct=float(outside_rh[lane_index]),
            )
            self._readings[lane_index] = layout.inlet_readings()
            self._cold_rh[lane_index] = layout.cold_aisle_humidity.read()
            self._outside_read[lane_index] = layout.outside_temp.read()
            self._outside_rh_read[lane_index] = (
                layout.outside_humidity.read()
            )

    def _refresh_period_caches(self, step: int, dt: float) -> None:
        """Workload utilization + everything constant within the period.

        The scalar engine recomputes these every model step; with the
        profile workload they only change at control epochs (the demand
        interval equals the control period), so computing them here once
        per period is exactly equivalent.
        """
        tod = step * dt
        for lane_index, lane in enumerate(self.lanes):
            if step >= 0:
                lane.workload.step(dt, tod, None)
            else:
                lane.workload.warmup_step(dt, None)
            pod_powers = lane.layout.pod_it_power_w()
            self._pod_powers[lane_index, :] = pod_powers
            self._it_power[lane_index] = sum(pod_powers)
            # Raw actuator state (CoolingUnits.plant_inputs without the
            # object): duty-scaling backends apply their capacity factor
            # per step through their lane units, never here.
            units = lane.units
            self._fc[lane_index] = units.fc_fan_speed
            self._ac_fan[lane_index] = units.ac_fan_speed
            self._duty[lane_index] = units.ac_compressor_duty
            if self._is_plant_lane[lane_index]:
                # Weather-coupled power is stepped per model step by the
                # lane units; record the hybrid's regime pick (constant
                # within the period) for occupancy metrics and traces.
                regime = getattr(units, "active_regime", "")
                self._regime_str[lane_index] = regime
                self._regime_code[lane_index] = LANE_REGIME_CODES.get(
                    regime, 0
                )
            else:
                self._cooling_power[lane_index] = units.power_w()
            self._fan[lane_index] = units.fc_fan_speed
            self._util[lane_index] = self._util_cache[lane_index]
            self._modes[lane_index] = lane.units.mode
            # The scalar engine averages the utilizations of the active
            # servers; ProfileWorkload gives every active server the same
            # value, so the mean is a pure function of (value, count) —
            # cache it instead of walking 64 servers per lane per epoch.
            count = self._active_count[lane_index]
            if count:
                workload = lane.workload
                idx = (
                    int((tod if step >= 0 else 0.0) // workload.interval_s)
                    % workload.profile.num_intervals
                )
                util_cache = self._server_util_cache[lane_index]
                util_value = util_cache.get(idx)
                if util_value is None:
                    # DemandProfile.server_utilization recomputes the
                    # demanded-servers array on every call; the day-start
                    # snapshot holds exactly those values, so evaluate the
                    # same formula against it.
                    profile = workload.profile
                    demanded = int(self._demanded_arr[lane_index][idx])
                    if demanded == 0:
                        util_value = 0.0
                    else:
                        busy_slots = (
                            profile.busy_slot_seconds[idx] / profile.interval_s
                        )
                        util_value = float(
                            min(
                                1.0,
                                busy_slots
                                / (demanded * profile.slots_per_server),
                            )
                        )
                    util_cache[idx] = util_value
                cache_key = (util_value, count)
                per_active = self._per_active_cache.get(cache_key)
                if per_active is None:
                    per_active = float(np.mean(np.full(count, util_value)))
                    self._per_active_cache[cache_key] = per_active
            else:
                per_active = 0.0
            self._disk_util[lane_index] = min(1.0, 0.15 + 0.7 * per_active)
        # Actuators and pod powers only change here; precompute the plant's
        # per-period invariants once (validates the actuator ranges too).
        # Duty-scaling backends re-issue set_inputs per step with their
        # capacity-scaled duty, reusing this call's cached power fold.
        self._plant.set_inputs(
            self._fc, self._ac_fan, self._duty, self._pod_powers
        )
        for group in self._plant_groups:
            idx = group.indices
            group.lunits.set_actuators(
                self._fc[idx],
                self._ac_fan[idx],
                self._duty[idx],
                self._regime_code[idx],
            )

    # -- day/year execution --------------------------------------------------

    def run_day(
        self,
        day_of_year,
        warmup_hours: float = 2.0,
        keep_traces: bool = False,
    ):
        """Simulate one day for every lane; returns per-lane day metrics.

        ``day_of_year`` is a single day every lane simulates, or a per-lane
        sequence of days (the day-unfolded mode: sibling lanes replicate
        one scenario across different sampled days of its year).

        Returns ``(metrics, traces)`` where ``metrics`` is a list of dicts
        (one per lane) with the YearResult day quantities, and
        ``traces`` is a list of :class:`DayTrace` (or None without
        ``keep_traces``).
        """
        num = self.num_lanes
        dt = float(self.model_step_s)
        steps = int(SECONDS_PER_DAY // self.model_step_s)
        warmup_steps = int(warmup_hours * 3600 / dt)
        if np.ndim(day_of_year) == 0:
            lane_days = [int(day_of_year)] * num
            grid_days = int(day_of_year)
        else:
            lane_days = [int(d) for d in day_of_year]
            if len(lane_days) != num:
                raise ConfigError(
                    f"need one day per lane ({num}), got {len(lane_days)}"
                )
            grid_days = np.asarray(lane_days, dtype=np.int64)
        temps_grid, mix_grid, rh_grid = self._weather.day_grid(
            grid_days, -warmup_steps, warmup_steps + steps
        )
        for group in self._plant_groups:
            if group.needs_wet_bulb:
                # One bit-identical Stull evaluation over the whole day
                # grid instead of one per model step.
                group.wb_grid = wet_bulb_c_array(
                    temps_grid[group.indices], rh_grid[group.indices]
                )

        # Day entry is a clean slate (mirrors DayRunner.run_day): actuators
        # off, controller latches cleared, disks at their initial
        # temperature.  This keeps every simulated day independent of
        # which day the runner stepped before it, which is what lets one
        # runner be reused across day batches (and days be reordered into
        # lanes) while staying bit-identical to the scalar reference.
        self._disks.reset()
        if self._baseline_ctrl is not None:
            self._baseline_ctrl.reset()
        for lane_index, lane in enumerate(self.lanes):
            if lane.injector is not None:
                # Fault windows and actuator faults are day-granular;
                # installed before the reset, which leaves them alone.
                lane.injector.begin_day(lane_days[lane_index])
            lane.units.reset()
            if lane.coolair is not None:
                lane.coolair.reset_day_state()
        self._degraded[:] = False
        day_start_s = [day * SECONDS_PER_DAY for day in lane_days]

        self._plant.reset(
            temps_grid[:, warmup_steps] + 6.0, mix_grid[:, warmup_steps]
        )

        # Seed sensors at the warmup start (DayRunner._seed_sensors).
        state = self._plant.state
        inlets = state.pod_inlet_temp_c
        inside_rh = absolute_to_relative_humidity_array(
            state.cold_aisle_mixing_ratio, inlets.mean(axis=1)
        )
        self._readings[:] = _quantize_temp(inlets)
        self._cold_rh[:] = _quantize_rh(inside_rh)
        self._outside_read[:] = _quantize_temp(temps_grid[:, 0])
        self._outside_rh_read[:] = _quantize_rh(rh_grid[:, 0])
        if self._faulted:
            self._observe_faulted(
                day_start_s, -warmup_steps * dt, inlets, inside_rh,
                temps_grid[:, 0], rh_grid[:, 0],
            )
        self._prev_readings[:] = self._readings
        self._prev_outside[:] = self._outside_read
        for lane_index, lane in enumerate(self.lanes):
            self._prev_fan[lane_index] = lane.units.fc_fan_speed

        # Adapter start-of-day work.
        for lane_index, lane in enumerate(self.lanes):
            if lane.coolair is None:
                for server in lane.layout.all_servers():
                    if server.state is not PowerState.ACTIVE:
                        server.activate()
                # All-active until the next day start (the baseline never
                # sleeps servers); mirror layout.utilization()'s int sum.
                count = 0
                for pod in lane.layout.pods:
                    count += pod.num_active()
                self._active_count[lane_index] = count
                self._util_cache[lane_index] = count / lane.layout.num_servers
            else:
                # Only a rescheduling lane can have moved jobs: for
                # TemporalPolicy.NONE the scheduler returns at once, so
                # a shared source trace needs no reset and no rebuild.
                if lane.reschedules:
                    lane.workload.begin_day()
                lane.coolair.start_day(
                    lane_days[lane_index], lane.workload.jobs
                )
                if lane.reschedules and any(
                    job.scheduled_start_s is not None
                    for job in lane.workload.jobs
                ):
                    lane.workload.rebuild()
            # The demand profile is now fixed until the next day start;
            # snapshot the demanded-servers array and reset the per-interval
            # server-utilization cache.
            self._demanded_arr[lane_index] = (
                lane.workload.profile.demanded_servers
            )
            self._server_util_cache[lane_index].clear()

        rec_temps = np.empty((steps, num, self.num_pods))
        rec_outside = np.empty((steps, num))
        rec_cooling = np.empty((steps, num))
        rec_it = np.empty((steps, num))
        rec_degraded = np.empty((steps, num), dtype=bool)
        if self._plant_groups:
            rec_water = np.zeros((steps, num))
            rec_regime = np.zeros((steps, num), dtype=np.int8)
        if keep_traces:
            rec_rh = np.empty((steps, num))
            rec_orh = np.empty((steps, num))
            rec_fan = np.empty((steps, num))
            rec_duty = np.empty((steps, num))
            rec_util = np.empty((steps, num))
            rec_disks = np.empty((steps, num, self.num_pods))
            rec_modes: List[list] = [[] for _ in range(num)]
            rec_regimes: List[List[str]] = [[] for _ in range(num)]

        spc = self._steps_per_control
        for step in range(-warmup_steps, steps):
            grid_col = step + warmup_steps
            if step % spc == 0:
                self._control(step, grid_col, temps_grid, rh_grid, mix_grid)
                self._refresh_period_caches(step, dt)

            # Rotate predictor history (DayRunner._advance_plant prologue).
            self._prev_readings, self._readings = (
                self._readings,
                self._prev_readings,
            )
            self._prev_outside[:] = self._outside_read
            self._prev_fan[:] = self._fan

            if self._plant_groups:
                # Mirror of the scalar _advance_plant prologue: boundary
                # before plant_inputs, so the weather-coupled backends
                # shape this step's inputs from this step's raw weather.
                for group in self._plant_groups:
                    idx = group.indices
                    group.lunits.observe_boundary(
                        temps_grid[idx, grid_col],
                        rh_grid[idx, grid_col],
                        wet_bulb=(
                            group.wb_grid[:, grid_col]
                            if group.wb_grid is not None
                            else None
                        ),
                    )
                if self._scaling_plants:
                    eff_duty = self._duty.copy()
                    for group in self._plant_groups:
                        if group.lunits.scales_duty:
                            eff_duty[group.indices] = (
                                group.lunits.effective_duty()
                            )
                    self._plant.set_inputs(
                        self._fc,
                        self._ac_fan,
                        eff_duty,
                        self._pod_powers,
                        validate=False,
                        reuse_power=True,
                    )

            plant_state = self._plant.step_outside(
                temps_grid[:, grid_col], mix_grid[:, grid_col], dt
            )
            inlets = plant_state.pod_inlet_temp_c
            means = np.add.reduce(inlets, axis=1) / inlets.shape[1]
            inside_rh = absolute_to_relative_humidity_array(
                plant_state.cold_aisle_mixing_ratio, means
            )
            self._readings[:] = _quantize_temp(inlets)
            self._cold_rh[:] = _quantize_rh(inside_rh)
            self._outside_read[:] = _quantize_temp(temps_grid[:, grid_col])
            self._outside_rh_read[:] = _quantize_rh(rh_grid[:, grid_col])
            if self._faulted:
                self._observe_faulted(
                    day_start_s, step * dt, inlets, inside_rh,
                    temps_grid[:, grid_col], rh_grid[:, grid_col],
                )
            disk_temps = self._disks.step(inlets, self._disk_util, dt)

            # Weather-coupled backends draw power (chiller lift) and
            # water (tower evaporation) per step, after the plant step —
            # the scalar step_resources position.
            for group in self._plant_groups:
                idx = group.indices
                power, water = group.lunits.step_resources(
                    self._it_power[idx], dt
                )
                self._cooling_power[idx] = power
                self._water_step[idx] = water

            if step >= 0:
                rec_temps[step] = self._readings
                rec_outside[step] = self._outside_read
                rec_cooling[step] = self._cooling_power
                rec_it[step] = self._it_power
                rec_degraded[step] = self._degraded
                if self._plant_groups:
                    rec_water[step] = self._water_step
                    rec_regime[step] = self._regime_code
                if keep_traces:
                    rec_rh[step] = self._cold_rh
                    rec_orh[step] = self._outside_rh_read
                    rec_fan[step] = self._fan
                    rec_duty[step] = self._duty
                    rec_util[step] = self._util
                    rec_disks[step] = disk_temps
                    for lane_index in range(num):
                        rec_modes[lane_index].append(self._modes[lane_index])
                        rec_regimes[lane_index].append(
                            self._regime_str[lane_index]
                        )

        times = np.arange(steps, dtype=float) * dt
        metrics = []
        traces: List[Optional[DayTrace]] = []
        for lane_index, lane in enumerate(self.lanes):
            temps = np.ascontiguousarray(rec_temps[:, lane_index, :])
            outside = np.ascontiguousarray(rec_outside[:, lane_index])
            cooling = np.ascontiguousarray(rec_cooling[:, lane_index])
            it = np.ascontiguousarray(rec_it[:, lane_index])
            if self._is_plant_lane[lane_index]:
                # Same formulas as DayTrace.water_liters / the mech-regime
                # fractions, over the same 1-D per-step arrays.
                water = np.ascontiguousarray(rec_water[:, lane_index])
                water_l = float(np.sum(water))
                regimes = rec_regime[:, lane_index]
                tower_mech_hours = (
                    int(np.count_nonzero(regimes == LANE_REGIME_TOWER))
                    / steps
                ) * 24.0
                chiller_mech_hours = (
                    int(np.count_nonzero(regimes == LANE_REGIME_CHILLER))
                    / steps
                ) * 24.0
            else:
                water = None
                water_l = 0.0
                tower_mech_hours = 0.0
                chiller_mech_hours = 0.0
            metrics.append(
                {
                    "worst_range_c": worst_sensor_range_from(temps),
                    "outside_range_c": outside_range_from(outside),
                    "temps": temps,
                    "times": times,
                    "cooling_kwh": energy_kwh_from(cooling, times),
                    "it_kwh": energy_kwh_from(it, times),
                    "max_rate_c_per_hour": max_rate_from(temps, times),
                    "water_l": water_l,
                    "tower_mech_hours": tower_mech_hours,
                    "chiller_mech_hours": chiller_mech_hours,
                    "degraded_fraction": degraded_fraction_from(
                        rec_degraded[:, lane_index]
                    ),
                }
            )
            if keep_traces:
                trace = DayTrace(lane_days[lane_index], label=lane.label)
                for row in range(steps):
                    trace.append(
                        StepRecord(
                            time_s=float(times[row]),
                            outside_temp_c=float(outside[row]),
                            sensor_temps_c=tuple(temps[row].tolist()),
                            mode=rec_modes[lane_index][row],
                            fc_fan_speed=float(rec_fan[row, lane_index]),
                            ac_compressor_duty=float(
                                rec_duty[row, lane_index]
                            ),
                            cooling_power_w=float(cooling[row]),
                            it_power_w=float(it[row]),
                            inside_rh_pct=float(rec_rh[row, lane_index]),
                            outside_rh_pct=float(rec_orh[row, lane_index]),
                            utilization=float(rec_util[row, lane_index]),
                            disk_temps_c=tuple(
                                float(t)
                                for t in rec_disks[row, lane_index]
                            ),
                            degraded=bool(rec_degraded[row, lane_index]),
                            water_l=(
                                float(water[row])
                                if water is not None
                                else 0.0
                            ),
                            regime=rec_regimes[lane_index][row],
                        )
                    )
                traces.append(trace)
            else:
                traces.append(None)
        return metrics, traces

    def run_year(
        self,
        sample_every_days: int = 7,
        violation_threshold_c: float = 30.0,
        keep_traces: bool = False,
    ) -> List[YearResult]:
        """Year runs for every lane; one YearResult per lane, in order."""
        days = sampled_days(sample_every_days)
        results = [
            YearResult(
                label=lane.label,
                climate_name=lane.climate_name,
                sampled_days=days,
                daily_worst_range_c=[],
                daily_outside_range_c=[],
                daily_avg_violation_c=[],
                daily_max_rate_c_per_hour=[],
                cooling_kwh=0.0,
                it_kwh=0.0,
                daily_degraded_fraction=[],
            )
            for lane in self.lanes
        ]
        all_traces: List[List[DayTrace]] = [[] for _ in self.lanes]
        for day in days:
            metrics, traces = self.run_day(day, keep_traces=keep_traces)
            for lane_index, day_metrics in enumerate(metrics):
                result = results[lane_index]
                result.daily_worst_range_c.append(
                    day_metrics["worst_range_c"]
                )
                result.daily_outside_range_c.append(
                    day_metrics["outside_range_c"]
                )
                result.daily_avg_violation_c.append(
                    avg_violation_from(
                        day_metrics["temps"], violation_threshold_c
                    )
                )
                result.daily_max_rate_c_per_hour.append(
                    day_metrics["max_rate_c_per_hour"]
                )
                result.daily_degraded_fraction.append(
                    day_metrics["degraded_fraction"]
                )
                result.cooling_kwh += day_metrics["cooling_kwh"]
                result.it_kwh += day_metrics["it_kwh"]
                result.water_l += day_metrics["water_l"]
                result.tower_mech_hours += day_metrics["tower_mech_hours"]
                result.chiller_mech_hours += (
                    day_metrics["chiller_mech_hours"]
                )
                if keep_traces:
                    all_traces[lane_index].append(traces[lane_index])
        if keep_traces:
            for result, lane_traces in zip(results, all_traces):
                result.traces = lane_traces
        return results


def run_year_lanes(
    scenarios: Sequence[LaneScenario],
    model: Optional[CoolingModel] = None,
    smooth_hardware: bool = True,
    sample_every_days: int = 7,
    violation_threshold_c: float = 30.0,
    keep_traces: bool = False,
) -> List[YearResult]:
    """Lane-batched equivalent of ``[run_year(s...) for s in scenarios]``.

    Results are bit-identical per scenario to the scalar
    :func:`~repro.sim.yearsim.run_year` path (the pinned reference); see
    ``tests/test_lane_equivalence.py`` and ``docs/PERFORMANCE.md``.
    """
    runner = LaneRunner(scenarios, model=model, smooth_hardware=smooth_hardware)
    return runner.run_year(
        sample_every_days=sample_every_days,
        violation_threshold_c=violation_threshold_c,
        keep_traces=keep_traces,
    )


def run_year_unfolded(
    scenario: LaneScenario,
    day_lanes: int,
    model: Optional[CoolingModel] = None,
    smooth_hardware: bool = True,
    sample_every_days: int = 7,
    violation_threshold_c: float = 30.0,
    keep_traces: bool = False,
) -> YearResult:
    """One scenario's year with its sampled days unfolded into lanes.

    Replicates the scenario across ``day_lanes`` sibling lanes (each with a
    per-lane controller sharing the scenario's trained model, so the
    lane-combo plan cache hits across sibling days) and steps consecutive
    batches of sampled days in SoA lockstep.  Per-day metrics are folded
    back in day order, so energy accumulation visits the same additions in
    the same order as the scalar :func:`~repro.sim.yearsim.run_year` — the
    result is bit-identical to it field for field (pinned by
    ``tests/integration/test_day_unfold.py``).

    Only valid for scenarios whose days are independent: no faults (fault
    state carries across days, so a faulted scenario is refused) and no
    temporal scheduling (the scheduler mutates the trace across days).
    Callers gate on ``day_unfold`` from
    :func:`repro.sim.eligibility.decide_engine`.
    """
    if day_lanes < 1:
        raise ConfigError(f"day_lanes must be >= 1, got {day_lanes}")
    if getattr(scenario.system, "faults", None):
        raise ConfigError(
            "a faulted scenario cannot unfold: its fault state carries "
            "across days"
        )
    days = sampled_days(sample_every_days)
    width = min(int(day_lanes), len(days))

    def make_runner(lanes: int) -> LaneRunner:
        return LaneRunner(
            [scenario] * lanes, model=model, smooth_hardware=smooth_hardware
        )

    runner = make_runner(width)

    result = YearResult(
        label=runner.lanes[0].label,
        climate_name=scenario.climate.name,
        sampled_days=days,
        daily_worst_range_c=[],
        daily_outside_range_c=[],
        daily_avg_violation_c=[],
        daily_max_rate_c_per_hour=[],
        cooling_kwh=0.0,
        it_kwh=0.0,
        daily_degraded_fraction=[],
    )
    all_traces: List[DayTrace] = []
    for start in range(0, len(days), width):
        batch = days[start:start + width]
        if len(batch) != runner.num_lanes:
            # Remainder batch: a narrower runner, no padded lanes to
            # discard (per-lane results are independent of batch grouping,
            # so the narrower batch changes nothing — pinned by the lane
            # grouping-independence test).
            runner = make_runner(len(batch))
        metrics, traces = runner.run_day(batch, keep_traces=keep_traces)
        for day_metrics, trace in zip(metrics, traces):
            result.daily_worst_range_c.append(day_metrics["worst_range_c"])
            result.daily_outside_range_c.append(
                day_metrics["outside_range_c"]
            )
            result.daily_avg_violation_c.append(
                avg_violation_from(
                    day_metrics["temps"], violation_threshold_c
                )
            )
            result.daily_max_rate_c_per_hour.append(
                day_metrics["max_rate_c_per_hour"]
            )
            result.daily_degraded_fraction.append(
                day_metrics["degraded_fraction"]
            )
            result.cooling_kwh += day_metrics["cooling_kwh"]
            result.it_kwh += day_metrics["it_kwh"]
            result.water_l += day_metrics["water_l"]
            result.tower_mech_hours += day_metrics["tower_mech_hours"]
            result.chiller_mech_hours += day_metrics["chiller_mech_hours"]
            if keep_traces:
                all_traces.append(trace)
    if keep_traces:
        result.traces = all_traces
    return result
