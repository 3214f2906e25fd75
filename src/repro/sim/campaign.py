"""The model-learning campaign (Section 4.2).

The paper collects 1.5 months of temperature, humidity, and power data
from Parasol, intentionally generating extreme situations by changing the
cooling setup (e.g., the temperature setpoint) to enrich the dataset.
``run_learning_campaign`` reproduces that: it runs the plant under the TKS
controller across seasonally spread days while scripting aggressive
setpoint excursions and utilization swings, then fits the Cooling Model.

``probe_recirculation`` reproduces the Cooling Modeler's pod ranking
probe: schedule load on one pod at a time and observe the inlet
temperature response (Section 3.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cooling.tks import TKSController
from repro.core.modeler import (
    CoolingLearner,
    CoolingModel,
    MonitoringSample,
    rank_pods_by_recirculation,
)
from repro.datacenter.server import PowerState
from repro.physics.thermal import PlantInputs, ThermalPlant
from repro.sim.engine import DayRunner, SimSetup, make_realsim
from repro.weather.climate import Climate
from repro.weather.locations import NEWARK

# Days of year the default campaign samples: spread across seasons so the
# TKS visits every regime (closed on cold days, AC on hot days).
DEFAULT_CAMPAIGN_DAYS = (5, 40, 80, 120, 160, 200, 220, 250, 290, 330)

# Scripted setpoint excursions, cycled every 3 hours within each day.
SETPOINT_SCRIPT_C = (12.0, 18.0, 24.0, 30.0, 36.0, 15.0, 27.0, 21.0)

# Scripted active-server counts, cycled every 2 hours.
ACTIVE_SCRIPT = (64, 32, 48, 16, 64, 24, 56, 40, 64, 48, 32, 64)


class _ScriptedWorkload:
    """Drives utilization and active-server patterns for the campaign."""

    def __init__(self, layout) -> None:
        self.layout = layout

    @property
    def jobs(self) -> Sequence:
        return ()

    def begin_day(self) -> None:
        pass

    def rebuild(self) -> None:
        pass

    def demanded_servers(self, interval_index: int) -> int:
        return ACTIVE_SCRIPT[(interval_index // 12) % len(ACTIVE_SCRIPT)]

    def warmup_step(self, dt_s: float, placement_order) -> None:
        self.step(dt_s, 0.0, placement_order)

    def step(self, dt_s: float, time_of_day_s: float, placement_order) -> None:
        hours = time_of_day_s / 3600.0
        active_count = ACTIVE_SCRIPT[int(hours // 2) % len(ACTIVE_SCRIPT)]
        util = 0.25 + 0.6 * np.sin(np.pi * hours / 9.0) ** 2
        for i, server in enumerate(self.layout.all_servers()):
            if i < active_count:
                if server.state is not PowerState.ACTIVE:
                    server.activate()
                server.set_utilization(float(util))
            else:
                server.holds_job_data = False
                server.in_covering_subset = False
                if server.state is not PowerState.SLEEP:
                    server.sleep()
                server.set_utilization(0.0)


class _CampaignAdapter:
    """TKS control with scripted setpoint excursions."""

    name = "campaign"

    def __init__(self) -> None:
        self.tks = TKSController()

    def reset_day_state(self) -> None:
        self.tks.reset()

    def start_day(self, runner: DayRunner, day_of_year: int) -> None:
        pass

    def control(self, runner: DayRunner) -> None:
        hours = runner._time_of_day_s / 3600.0
        setpoint = SETPOINT_SCRIPT_C[int(hours // 3) % len(SETPOINT_SCRIPT_C)]
        self.tks.set_setpoint(setpoint)
        layout = runner.setup.layout
        control_pod = max(layout.pods, key=lambda pod: pod.recirculation)
        command = self.tks.decide(
            control_temp_c=layout.inlet_sensors[control_pod.pod_id].read(),
            outside_temp_c=layout.outside_temp.read(),
        )
        runner.setup.units.apply(command)

    def placement_order(self, runner: DayRunner):
        return None


def run_learning_campaign(
    climate: Climate = NEWARK,
    days: Sequence[int] = DEFAULT_CAMPAIGN_DAYS,
    setup: Optional[SimSetup] = None,
) -> List[MonitoringSample]:
    """Collect the monitoring log the Cooling Learner trains on."""
    if setup is None:
        setup = make_realsim(climate)
    runner = DayRunner(setup, _ScriptedWorkload(setup.layout), _CampaignAdapter())
    runner.collect_monitoring = True
    for day in days:
        runner.run_day(day)
    return runner.monitoring_log


_MODEL_CACHE: Dict[tuple, CoolingModel] = {}


def trained_cooling_model(
    climate: Climate = NEWARK,
    days: Sequence[int] = DEFAULT_CAMPAIGN_DAYS,
    use_cache: bool = True,
    log_gaps: Sequence = (),
) -> CoolingModel:
    """The learned Cooling Model, cached per (climate, days, log gaps).

    The paper learns one model from Parasol (sited near Newark) and uses
    the fan-speed/outside-temperature inputs to generalize; callers
    normally take the default.  ``log_gaps`` (a sequence of
    :class:`~repro.faults.LogGapFault`) punches holes in the monitoring
    log before learning — a gapped log may starve whole regimes below
    ``min_samples``, so core-regime enforcement is relaxed and the
    degraded model relies on CoolAir's safe-mode fallback at decide time.

    Beyond the per-process memory cache, models persist to the artifact
    store (:mod:`repro.artifacts`) keyed by (climate, days, gaps, code
    fingerprint): the learning campaign runs once ever per key on a
    machine, not once per worker process per session.  ``use_cache=False``
    bypasses both layers and always retrains.
    """
    from repro import artifacts

    gaps = tuple(log_gaps)
    key = (climate.name, tuple(days), gaps)
    if use_cache and key in _MODEL_CACHE:
        return _MODEL_CACHE[key]
    model = artifacts.load_model(climate, days, gaps) if use_cache else None
    if model is None:
        log = run_learning_campaign(climate, days)
        if gaps:
            from repro.faults import apply_log_gaps

            log = apply_log_gaps(log, gaps)
        learner = CoolingLearner(num_sensors=4, require_core_regimes=not gaps)
        model = learner.learn(log)
        if use_cache:
            artifacts.save_model(climate, days, gaps, model)
    if use_cache:
        _MODEL_CACHE[key] = model
    return model


def model_log_gaps(system) -> Tuple:
    """The monitoring-log gaps ``system``'s cooling model is learned from.

    A CoolAir config whose fault schedule punches log gaps learns the
    degraded model those gaps leave; every other system (a fault-free
    config, or the model-free ``"baseline"``) maps to the default,
    gap-free model.  Every engine and the campaign runner resolve a
    cell's model through this, so they always agree on it.
    """
    faults = getattr(system, "faults", None)
    return tuple(faults.log_gaps) if faults else ()


def probe_recirculation(
    plant: Optional[ThermalPlant] = None,
    pod_power_w: float = 480.0,
    probe_hours: float = 2.0,
    fan_speed: float = 0.5,
    outside_temp_c: float = 15.0,
) -> List[float]:
    """Observed inlet temperature rise when load runs on each pod alone.

    Returns one rise per pod; feed to
    :func:`repro.core.modeler.rank_pods_by_recirculation`.
    """
    plant = plant or ThermalPlant()
    num_pods = plant.config.num_pods
    idle = [40.0] * num_pods
    rises: List[float] = []
    for pod in range(num_pods):
        # Settle at the idle equilibrium first, then add the load and
        # measure the pod's inlet response relative to that equilibrium.
        plant.reset(temp_c=outside_temp_c + 5.0, mixing_ratio=0.006)
        settle = PlantInputs(
            fc_fan_speed=fan_speed,
            pod_it_power_w=list(idle),
            outside_temp_c=outside_temp_c,
            outside_mixing_ratio=0.006,
        )
        plant.step(settle, probe_hours * 3600.0)
        settled = float(plant.state.pod_inlet_temp_c[pod])
        powers = list(idle)
        powers[pod] = pod_power_w
        loaded = PlantInputs(
            fc_fan_speed=fan_speed,
            pod_it_power_w=powers,
            outside_temp_c=outside_temp_c,
            outside_mixing_ratio=0.006,
        )
        plant.step(loaded, probe_hours * 3600.0)
        rises.append(float(plant.state.pod_inlet_temp_c[pod]) - settled)
    return rises


def learned_recirculation_ranking(**kwargs) -> List[int]:
    """Pod ids ranked by recirculation potential, strongest first."""
    return rank_pods_by_recirculation(probe_recirculation(**kwargs))
