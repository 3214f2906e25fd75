"""The Cooling Optimizer (Section 3.2).

Every 10 minutes the Optimizer enumerates the cooling regimes the
infrastructure can reach, asks the Cooling Predictor what each would do
over the next period, scores the predictions with the utility function,
and selects the lowest-penalty regime.  Ties break toward the cheaper
regime, then toward staying put (regime changes are what cause variation).
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cooling.regimes import CoolingCommand, CoolingMode
from repro.core.band import TemperatureBand
from repro.core.config import CoolAirConfig
from repro.core.predictor import CoolingPredictor, PredictorState
from repro.core.utility import UtilityFunction

# Fan speeds closer than this are operationally indistinguishable; offering
# both wastes a predictor rollout (they arise from floating-point drift when
# current_fc_speed carries rounding from earlier ramp arithmetic).
SPEED_DEDUPE_TOLERANCE = 0.005


def _dedupe_speeds(speeds: Sequence[float]) -> List[float]:
    """Sorted speeds with near-duplicates collapsed to the lowest of each run."""
    kept: List[float] = []
    for speed in sorted(speeds):
        if not kept or speed - kept[-1] >= SPEED_DEDUPE_TOLERANCE:
            kept.append(speed)
    return kept


@functools.lru_cache(maxsize=None)
def _abrupt_candidates_cached() -> Tuple[CoolingCommand, ...]:
    commands = [CoolingCommand.closed()]
    for speed in (0.15, 0.3, 0.5, 0.75, 1.0):
        commands.append(CoolingCommand.free_cooling(speed))
    commands.append(CoolingCommand.ac(compressor_duty=0.0))
    commands.append(CoolingCommand.ac(compressor_duty=1.0))
    return tuple(commands)


def abrupt_candidates() -> List[CoolingCommand]:
    """Regimes reachable with Parasol's real hardware."""
    return list(_abrupt_candidates_cached())


@functools.lru_cache(maxsize=1024)
def _smooth_candidates_cached(
    current_fc_speed: float, ramp_per_step: float
) -> Tuple[CoolingCommand, ...]:
    commands = [CoolingCommand.closed()]
    speeds = {0.01, 0.05, 0.10, 0.20, 0.35, 0.5, 0.75, 1.0}
    if current_fc_speed > 0.0:
        ceiling = min(1.0, current_fc_speed + ramp_per_step)
        speeds.update(
            min(ceiling, max(0.01, current_fc_speed + delta))
            for delta in (-0.10, -0.05, -0.02, 0.02, 0.05, 0.10)
        )
    for speed in _dedupe_speeds(speeds):
        commands.append(CoolingCommand.free_cooling(speed))
    commands.append(CoolingCommand.ac(compressor_duty=0.0))
    for duty in (0.25, 0.5, 0.75, 1.0):
        commands.append(CoolingCommand.ac(compressor_duty=duty))
    return tuple(commands)


def smooth_candidates(
    current_fc_speed: float = 0.0, ramp_per_step: float = 0.20
) -> List[CoolingCommand]:
    """Regimes reachable with the fine-grained (Smooth-Sim) hardware.

    Fan speeds near the current speed are included so the optimizer can
    make small moves; the ramp limit keeps the far choices honest (the
    units clamp anyway, but offering unreachable speeds wastes predictions).
    The list is cached per (speed, ramp) — a simulation revisits the same
    handful of fan speeds every 10 minutes — and callers get a fresh list.
    """
    return list(_smooth_candidates_cached(current_fc_speed, ramp_per_step))


class CoolingOptimizer:
    """Selects the best cooling regime for the next control period."""

    def __init__(
        self,
        config: CoolAirConfig,
        predictor: CoolingPredictor,
        utility: UtilityFunction,
        smooth_hardware: bool = False,
        use_batched: bool = True,
    ) -> None:
        self.config = config
        self.predictor = predictor
        self.utility = utility
        self.smooth_hardware = smooth_hardware
        # Batched scoring is bit-identical to the sequential reference path
        # (see CoolingPredictor.predict_batch); the flag exists so tests can
        # assert that equivalence and so regressions can be bisected.
        self.use_batched = use_batched
        self.last_scores: List[Tuple[CoolingCommand, float]] = []

    def _candidates(
        self, state: PredictorState, band: TemperatureBand
    ) -> List[CoolingCommand]:
        if self.smooth_hardware:
            commands = smooth_candidates(
                current_fc_speed=state.fan_speed if state.mode is CoolingMode.FREE_COOLING else 0.0
            )
        else:
            commands = abrupt_candidates()
        # Backup cooling is for when outside air is too warm to free-cool
        # (Section 2).  Far below the band the AC can only act as a
        # recirculating heater, a condition its learned models never saw
        # in the campaign (the TKS engages the AC only in HOT mode), so
        # predictions there are pure extrapolation — exclude it.  Near the
        # band the AC stays available: the paper's CoolAir spends AC
        # energy at mild locations to limit variation (Figure 10,
        # Santiago), and the full-speed penalty prices that choice.
        if state.outside_temp_c < band.low_c - 10.0:
            commands = [
                c for c in commands
                if c.mode in (CoolingMode.CLOSED, CoolingMode.FREE_COOLING)
            ]
        return commands

    def decide(
        self,
        state: PredictorState,
        band: TemperatureBand,
        active_sensor_indices: Optional[Sequence[int]] = None,
        candidates: Optional[Sequence[CoolingCommand]] = None,
    ) -> CoolingCommand:
        """Pick the regime with the lowest predicted penalty.

        ``active_sensor_indices`` restricts the utility sum to "the sensors
        of all active pods" (Section 3.2); None scores every sensor.
        ``candidates`` passes this state's candidate regimes when the
        caller already generated them (CoolAir does, to check the model
        can predict them before rolling out).
        """
        steps = self.config.steps_per_control_period
        if candidates is None:
            candidates = self._candidates(state, band)
        if self.use_batched:
            predictions = self.predictor.predict_batch(state, candidates, steps)
        else:
            predictions = [
                self.predictor.predict(state, command, steps)
                for command in candidates
            ]
        return self.decide_from_predictions(
            state, band, candidates, predictions, active_sensor_indices
        )

    def decide_from_predictions(
        self,
        state: PredictorState,
        band: TemperatureBand,
        candidates: Sequence[CoolingCommand],
        predictions: Sequence,
        active_sensor_indices: Optional[Sequence[int]] = None,
    ) -> CoolingCommand:
        """Score precomputed candidate predictions and select the winner.

        Split out of :meth:`decide` so the lane-batched engine, which runs
        the predictor rollouts for many lanes at once, funnels each lane's
        predictions through exactly this scoring and tie-break code.
        """
        horizon_s = float(self.config.control_period_s)
        best_command: Optional[CoolingCommand] = None
        best_key: Optional[Tuple[float, float, int]] = None
        self.last_scores = []

        if active_sensor_indices is not None:
            indices = list(active_sensor_indices)
            predictions = [
                type(prediction)(
                    sensor_temps_c=prediction.sensor_temps_c[:, indices],
                    rh_pct=prediction.rh_pct,
                    cooling_energy_kwh=prediction.cooling_energy_kwh,
                    ac_at_full_speed=prediction.ac_at_full_speed,
                )
                for prediction in predictions
            ]
            current = [state.sensor_temps_c[i] for i in indices]
        else:
            current = list(state.sensor_temps_c)
        if self.use_batched:
            scores = self.utility.score_batch(
                predictions, band, current, horizon_s
            )
        else:
            scores = [
                self.utility.score(prediction, band, current, horizon_s)
                for prediction in predictions
            ]
        for command, prediction, score in zip(candidates, predictions, scores):
            self.last_scores.append((command, score))
            same_mode = 0 if command.mode is state.mode else 1
            key = (round(score, 6), prediction.cooling_energy_kwh, same_mode)
            if best_key is None or key < best_key:
                best_key = key
                best_command = command

        assert best_command is not None
        return best_command

    def decide_from_stacked(
        self,
        state: PredictorState,
        band: TemperatureBand,
        candidates: Sequence[CoolingCommand],
        temps: "np.ndarray",
        rh: "np.ndarray",
        energies: Sequence[float],
        ac_full: Sequence[bool],
        active_sensor_indices: Optional[Sequence[int]] = None,
    ) -> CoolingCommand:
        """:meth:`decide_from_predictions` on pre-stacked prediction arrays.

        ``temps`` is (candidates, steps, sensors) and ``rh`` (candidates,
        steps) — the lane engine's :meth:`CoolingPredictor
        .predict_lanes_stacked` output.  The active-sensor restriction is a
        single gather here (``temps[:, :, indices]`` holds exactly the
        values the per-candidate rebuild produces), and scoring goes
        through :meth:`UtilityFunction.score_arrays`, the same tensor code
        ``score_batch`` uses after stacking.  Selection and tie-breaking
        are the same key comparison as the reference path.
        """
        horizon_s = float(self.config.control_period_s)
        best_command: Optional[CoolingCommand] = None
        best_key: Optional[Tuple[float, float, int]] = None
        self.last_scores = []

        if active_sensor_indices is not None:
            indices = list(active_sensor_indices)
            temps = temps[:, :, indices]
            current = [state.sensor_temps_c[i] for i in indices]
        else:
            current = list(state.sensor_temps_c)
        scores = self.utility.score_arrays(
            temps,
            rh,
            np.asarray(energies),
            np.asarray(ac_full),
            band,
            current,
            horizon_s,
        )
        for command, energy, score in zip(candidates, energies, scores):
            self.last_scores.append((command, score))
            same_mode = 0 if command.mode is state.mode else 1
            key = (round(score, 6), energy, same_mode)
            if best_key is None or key < best_key:
                best_key = key
                best_command = command

        assert best_command is not None
        return best_command
