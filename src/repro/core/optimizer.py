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
    ) -> None:
        self.config = config
        self.predictor = predictor
        self.utility = utility
        self.smooth_hardware = smooth_hardware
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
        if candidates is None:
            candidates = self._candidates(state, band)
        temps, rh, energies, ac_full = self.predictor.predict_batch(
            state, candidates, self.config.steps_per_control_period
        )
        return self.decide_from_stacked(
            state, band, candidates, temps, rh, energies, ac_full,
            active_sensor_indices,
        )

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
        """Score one state's stacked candidate rollouts and select the winner.

        ``temps`` is (candidates, steps, sensors) and ``rh`` (candidates,
        steps), one lane of :meth:`CoolingPredictor.predict_lanes_stacked`.
        Each score equals :meth:`UtilityFunction.score` of that candidate's
        prediction, bit for bit; the lowest ``(score to 6 decimals,
        energy, regime change)`` key wins.
        """
        horizon_s = float(self.config.control_period_s)
        best_command: Optional[CoolingCommand] = None
        best_key: Optional[Tuple[float, float, int]] = None
        self.last_scores = []

        if active_sensor_indices is not None:
            indices = list(active_sensor_indices)
            # Sensor-major gather: each candidate's block then holds its
            # (steps, active) values in the memory order the reference's
            # per-candidate slice has, so score_arrays reduces them in the
            # same order (temps[:, :, indices] differs in the last ulp).
            temps = np.ascontiguousarray(
                temps.transpose(0, 2, 1)[:, indices, :]
            ).transpose(0, 2, 1)
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
