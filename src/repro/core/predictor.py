"""The Cooling Predictor (Section 3.2).

The Cooling Model predicts only one 2-minute step ahead, so the Predictor
applies it repeatedly — each application feeding on the previous one's
output — to produce the 10-minute trajectories the Cooling Optimizer
scores.  The first step of a regime change uses the learned *transition*
model when one exists.

Smooth-hardware support follows Section 5.1 exactly: free-cooling
predictions at low fan speeds extrapolate the learned models (fan speed is
a model input), and variable-speed AC predictions interpolate between the
compressor-on and compressor-off models, weighted by compressor duty.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.cooling.regimes import CoolingCommand, CoolingMode, regime_key
from repro.core.modeler import CoolingModel
from repro.core.utility import RegimePrediction
from repro.errors import ConfigError
from repro.physics.psychrometrics import (
    absolute_to_relative_humidity,
    absolute_to_relative_humidity_array,
)

# Plan combos whose assembled cross-lane rollout bookkeeping a predictor
# keeps, least recently used evicted first.  Every entry copies its
# lanes' plan arrays: unbounded, one 5-lane All-ND chunk held 9.7 MB of
# them and one 10-lane day chunk 14.5 MB, while 16 entries keep 91-92%
# of their hits (docs/PERFORMANCE.md).
LANE_COMBO_CACHE_SIZE = 16


class _Plan(NamedTuple):
    """One candidate set's rollout layout from one mode (see ``_get_plan``).

    A variable-duty AC candidate takes two model rows (compressor on,
    then off); every other candidate takes one.
    """

    duties: List[float]
    fans: np.ndarray
    row_index: np.ndarray
    fans_rows: np.ndarray
    keys_first: Tuple[str, ...]
    keys_steady: Tuple[str, ...]
    hum_b0_first: np.ndarray
    hum_coef_first: np.ndarray
    hum_b0_steady: np.ndarray
    hum_coef_steady: np.ndarray
    weights: np.ndarray
    starts: np.ndarray


@dataclasses.dataclass
class PredictorState:
    """Everything the Predictor needs to know about "now"."""

    mode: CoolingMode
    fan_speed: float
    sensor_temps_c: Sequence[float]
    prev_sensor_temps_c: Sequence[float]
    outside_temp_c: float
    prev_outside_temp_c: float
    prev_fan_speed: float
    utilization: float
    inside_mixing_ratio: float
    outside_mixing_ratio: float


class CoolingPredictor:
    """Iterates the learned 2-minute model out to the control horizon."""

    def __init__(self, model: CoolingModel, model_step_s: int = 120) -> None:
        if model_step_s <= 0:
            raise ConfigError("model_step_s must be positive")
        self.model = model
        self.model_step_s = model_step_s
        # Power depends only on the command (regime + duty + fan speed);
        # memoized because the optimizer re-prices the same candidates
        # every control period.  Batch plans likewise recur per
        # (mode, candidate set).
        self._power_cache: dict = {}
        self._batch_plans: dict = {}
        self._lane_combo_cache: OrderedDict = OrderedDict()

    def predict(
        self,
        state: PredictorState,
        command: CoolingCommand,
        steps: int,
    ) -> RegimePrediction:
        """Trajectory of temperatures and humidity under ``command``."""
        if steps < 1:
            raise ConfigError("steps must be >= 1")
        num_sensors = self.model.num_sensors
        if len(state.sensor_temps_c) != num_sensors:
            raise ConfigError(
                f"state has {len(state.sensor_temps_c)} sensors, model expects "
                f"{num_sensors}"
            )

        duty = command.ac_compressor_duty
        cmd_fan = command.fc_fan_speed

        temps = np.array(state.sensor_temps_c, dtype=float)
        prev_temps = np.array(state.prev_sensor_temps_c, dtype=float)
        w_in = state.inside_mixing_ratio
        fan_prev = state.prev_fan_speed
        fan_cur = state.fan_speed
        out_prev = state.prev_outside_temp_c

        temp_rows: List[np.ndarray] = []
        rh_rows: List[float] = []
        for step in range(steps):
            prev_mode = state.mode if step == 0 else command.mode
            features_matrix = np.empty((num_sensors, 9))
            features_matrix[:, 0] = temps
            features_matrix[:, 1] = prev_temps
            features_matrix[:, 2] = state.outside_temp_c
            features_matrix[:, 3] = out_prev
            features_matrix[:, 4] = cmd_fan
            features_matrix[:, 5] = fan_cur
            features_matrix[:, 6] = state.utilization
            features_matrix[:, 7] = cmd_fan * temps
            features_matrix[:, 8] = cmd_fan * state.outside_temp_c
            next_temps = self._predict_temps_vec(
                prev_mode, command, duty, features_matrix
            )
            hum_features = [
                w_in,
                state.outside_mixing_ratio,
                cmd_fan,
                cmd_fan * w_in,
                cmd_fan * state.outside_mixing_ratio,
            ]
            w_in = self._predict_humidity(prev_mode, command, duty, hum_features)

            prev_temps = temps
            temps = next_temps
            fan_prev, fan_cur = fan_cur, cmd_fan
            out_prev = state.outside_temp_c
            temp_rows.append(temps.copy())
            rh_rows.append(
                absolute_to_relative_humidity(w_in, float(np.mean(temps)))
            )

        power_w = self._predict_power(state.mode, command, duty)
        horizon_s = steps * self.model_step_s
        energy_kwh = power_w * horizon_s / 3.6e6
        # "Turning on the AC at full speed" (Section 3.2): the compressor
        # at full blast, or the fixed-speed AC fan running flat out.
        ac_full = (
            command.mode is CoolingMode.AC_ON and duty >= 1.0 - 1e-9
        ) or (
            command.mode in (CoolingMode.AC_ON, CoolingMode.AC_FAN)
            and command.ac_fan_speed >= 1.0 - 1e-9
        )
        return RegimePrediction(
            sensor_temps_c=np.vstack(temp_rows),
            rh_pct=np.asarray(rh_rows),
            cooling_energy_kwh=energy_kwh,
            ac_at_full_speed=ac_full,
        )

    def predict_batch(
        self,
        state: PredictorState,
        commands: Sequence[CoolingCommand],
        steps: int,
    ):
        """Every candidate regime of one state in one stacked rollout.

        One lane of :meth:`predict_lanes_stacked`: returns ``(temps, rh,
        energies, ac_full)`` with ``temps`` shaped (candidates, steps,
        sensors) and ``rh`` (candidates, steps), candidate ``i``'s rows
        equal to ``self.predict(state, commands[i], steps)``'s bit for
        bit.
        """
        return self.predict_lanes_stacked([state], [commands], steps)[0]

    def check_candidates(
        self, mode: CoolingMode, commands: Sequence[CoolingCommand]
    ) -> None:
        """Raise :class:`~repro.errors.ModelNotTrainedError` exactly when
        a rollout of ``commands`` from ``mode`` would.

        The stacked rollout resolves every learned model it uses while
        building the candidate set's plan, so this is that (cached) build.
        CoolAir calls it before rolling out, which lets the lane engine
        send a lane whose model lost a regime to safe mode without
        aborting the stacked rollout of its chunk-mates.
        """
        self._get_plan(mode, tuple(commands))

    def _get_plan(self, mode: CoolingMode, commands: Tuple[CoolingCommand, ...]):
        """Row layout / regime keys / humidity params for one candidate set.

        The expansion depends only on (current mode, candidate set) — both
        recur every control period, so the plan is built once and cached.
        """
        plan_key = (mode, commands)
        plan = self._batch_plans.get(plan_key)
        if plan is not None:
            return plan
        duties = [c.ac_compressor_duty for c in commands]
        fans = np.array([c.fc_fan_speed for c in commands])

        # Variable-duty AC candidates evaluate both the compressor-on
        # and compressor-off models each step; every other candidate is
        # one row.
        blended = [
            c.mode is CoolingMode.AC_ON and 0.0 < duties[i] < 1.0
            for i, c in enumerate(commands)
        ]
        row_cand: List[int] = []
        row_target: List[CoolingMode] = []
        for i, cmd in enumerate(commands):
            if blended[i]:
                row_cand.extend((i, i))
                row_target.extend((CoolingMode.AC_ON, CoolingMode.AC_FAN))
            else:
                row_cand.append(i)
                row_target.append(cmd.mode)
        row_index = np.asarray(row_cand)
        # Regime keys differ only between the first (transition) step
        # and the steady remainder, so two stacked-coefficient lookups.
        keys_first = tuple(regime_key(mode, t) for t in row_target)
        keys_steady = tuple(
            regime_key(commands[c].mode, t)
            for c, t in zip(row_cand, row_target)
        )
        hum_first = [self.model.resolved_humidity_model(k) for k in keys_first]
        hum_steady = [
            self.model.resolved_humidity_model(k) for k in keys_steady
        ]
        # Resolve the temperature stacks and every candidate's power too,
        # in the order a rollout first touches them (humidity, transition
        # step, steady steps, power), so a model that lost a regime fails
        # here, before any rollout arithmetic.
        self.model.batched_vectorized(keys_first)
        self.model.batched_vectorized(keys_steady)
        for command, duty in zip(commands, duties):
            self._predict_power(mode, command, duty)
        # Stacked forms of the humidity models and the duty-blend weights:
        # weights are duty / (1 - duty) on a blended pair's rows and 1.0
        # elsewhere (1.0 * x passes through exactly), and `starts` marks
        # each candidate's first row for reduceat.
        hum_b0_first = np.array([m.intercept for m in hum_first])
        hum_coef_first = np.stack([m.coefficients for m in hum_first])
        hum_b0_steady = np.array([m.intercept for m in hum_steady])
        hum_coef_steady = np.stack([m.coefficients for m in hum_steady])
        weights = np.ones(len(row_cand))
        starts = np.empty(len(commands), dtype=np.intp)
        row = 0
        for i in range(len(commands)):
            starts[i] = row
            if blended[i]:
                weights[row] = duties[i]
                weights[row + 1] = 1.0 - duties[i]
                row += 2
            else:
                row += 1
        plan = _Plan(
            duties,
            fans,
            row_index,
            fans[row_index],
            keys_first,
            keys_steady,
            hum_b0_first,
            hum_coef_first,
            hum_b0_steady,
            hum_coef_steady,
            weights,
            starts,
        )
        self._batch_plans[plan_key] = plan
        return plan

    def predict_lanes_stacked(
        self,
        states: Sequence[PredictorState],
        commands_per_lane: Sequence[Sequence[CoolingCommand]],
        steps: int,
    ):
        """Candidate rollouts for many independent lanes in one pass.

        Per lane, returns ``(temps, rh, energies, ac_full)`` with ``temps``
        shaped (candidates, steps, sensors) and ``rh`` (candidates, steps)
        — the reference :meth:`predict` of each candidate, stacked in
        candidate order, bit-identical element for element.
        Every lane's candidate rows are concatenated into one feature
        tensor so each rollout step costs a single einsum for the whole
        batch; the ``'rsf,rsf->rs'`` contraction is row-independent, so
        concatenating rows across lanes cannot perturb any lane's values.
        Duty blending and the humidity rollout are cross-lane vectorized
        with verified bit-stable kernels (weighted ``reduceat`` segments,
        batched matmul row-dots).
        """
        if steps < 1:
            raise ConfigError("steps must be >= 1")
        num_lanes = len(states)
        if num_lanes != len(commands_per_lane):
            raise ConfigError("one candidate list per lane required")
        num_sensors = self.model.num_sensors
        for state in states:
            if len(state.sensor_temps_c) != num_sensors:
                raise ConfigError(
                    f"state has {len(state.sensor_temps_c)} sensors, model "
                    f"expects {num_sensors}"
                )

        plans = [
            self._get_plan(state.mode, tuple(commands))
            for state, commands in zip(states, commands_per_lane)
        ]

        # Global (cross-lane) candidate and row bookkeeping.  Everything
        # below is either a gather of exact values or an elementwise /
        # row-wise operation, so stacking lanes never mixes their numerics.
        # It all derives from the per-lane plans alone (``_batch_plans``
        # keeps plan objects for the predictor's lifetime, so their ids
        # are stable keys), and lane batches revisit a handful of plan
        # combos every control period — cache the assembled bookkeeping
        # per combo, bounded to the most recent LANE_COMBO_CACHE_SIZE.
        cache = self._lane_combo_cache
        combo_key = (steps, *map(id, plans))
        entry = cache.get(combo_key)
        if entry is not None:
            cache.move_to_end(combo_key)
        else:
            cand_counts = np.array([len(c) for c in commands_per_lane])
            cand_offsets = np.concatenate(([0], np.cumsum(cand_counts)))
            total_cands = int(cand_offsets[-1])
            row_counts = np.array([len(plan.row_index) for plan in plans])
            row_offsets = np.concatenate(([0], np.cumsum(row_counts)))
            total_rows = int(row_offsets[-1])
            cand_slices = [
                slice(int(cand_offsets[i]), int(cand_offsets[i + 1]))
                for i in range(num_lanes)
            ]

            # Row -> global candidate index, per-row fan speeds, and the
            # duty blend weights (duty / 1-duty on a blended pair, 1.0
            # elsewhere; 1.0 * x is exact, so unblended rows pass through
            # untouched).
            global_row_index = np.concatenate(
                [
                    plans[lane].row_index + int(cand_offsets[lane])
                    for lane in range(num_lanes)
                ]
            )
            fans_rows_all = np.concatenate([plan.fans_rows for plan in plans])
            weights = np.concatenate([plan.weights for plan in plans])
            starts = np.concatenate(
                [
                    plans[lane].starts + int(row_offsets[lane])
                    for lane in range(num_lanes)
                ]
            )

            # Stacked humidity models (per row), per-candidate fan speeds,
            # and the transition/steady temperature model tensors for the
            # whole batch (each lane's stack is itself cached by key tuple).
            hum_b0_first = np.concatenate([plan.hum_b0_first for plan in plans])
            hum_coef_first = np.concatenate(
                [plan.hum_coef_first for plan in plans]
            )
            hum_b0_steady = np.concatenate(
                [plan.hum_b0_steady for plan in plans]
            )
            hum_coef_steady = np.concatenate(
                [plan.hum_coef_steady for plan in plans]
            )
            fan_cands = np.concatenate([plan.fans for plan in plans])
            model_first = [
                self.model.batched_vectorized(plan.keys_first) for plan in plans
            ]
            model_steady = [
                self.model.batched_vectorized(plan.keys_steady) for plan in plans
            ]
            intercepts_first = np.concatenate([m[0] for m in model_first])
            coefs_first = np.concatenate([m[1] for m in model_first])
            intercepts_steady = np.concatenate([m[0] for m in model_steady])
            coefs_steady = np.concatenate([m[1] for m in model_steady])

            # Candidate energies and AC-at-full-speed flags depend only on
            # (mode, command, duty, horizon) — all pinned by the combo key —
            # and are handed out as tuples, so no caller can edit the cache.
            horizon_s = steps * self.model_step_s
            energies_per_lane: List[Tuple[float, ...]] = []
            ac_full_per_lane: List[Tuple[bool, ...]] = []
            for lane, state in enumerate(states):
                duties = plans[lane].duties
                energies: List[float] = []
                ac_full_flags: List[bool] = []
                for i, cmd in enumerate(commands_per_lane[lane]):
                    duty = duties[i]
                    power_w = self._predict_power(state.mode, cmd, duty)
                    ac_full = (
                        cmd.mode is CoolingMode.AC_ON and duty >= 1.0 - 1e-9
                    ) or (
                        cmd.mode in (CoolingMode.AC_ON, CoolingMode.AC_FAN)
                        and cmd.ac_fan_speed >= 1.0 - 1e-9
                    )
                    energies.append(power_w * horizon_s / 3.6e6)
                    ac_full_flags.append(ac_full)
                energies_per_lane.append(tuple(energies))
                ac_full_per_lane.append(tuple(ac_full_flags))

            entry = (
                cand_counts,
                total_cands,
                row_counts,
                total_rows,
                cand_slices,
                global_row_index,
                fans_rows_all,
                weights,
                weights[:, None],
                starts,
                hum_b0_first,
                hum_coef_first,
                hum_b0_steady,
                hum_coef_steady,
                fan_cands,
                intercepts_first,
                coefs_first,
                intercepts_steady,
                coefs_steady,
                energies_per_lane,
                ac_full_per_lane,
            )
            cache[combo_key] = entry
            if len(cache) > LANE_COMBO_CACHE_SIZE:
                cache.popitem(last=False)
        (
            cand_counts,
            total_cands,
            row_counts,
            total_rows,
            cand_slices,
            global_row_index,
            fans_rows_all,
            weights,
            weights_col,
            starts,
            hum_b0_first,
            hum_coef_first,
            hum_b0_steady,
            hum_coef_steady,
            fan_cands,
            intercepts_first,
            coefs_first,
            intercepts_steady,
            coefs_steady,
            energies_per_lane,
            ac_full_per_lane,
        ) = entry
        out_w_cands = np.repeat(
            np.array([s.outside_mixing_ratio for s in states]), cand_counts
        )

        # Per-row broadcasts of per-lane scalars.
        def _per_row(values: List[float]) -> np.ndarray:
            return np.repeat(np.asarray(values, dtype=float), row_counts)

        outside_rows = _per_row([s.outside_temp_c for s in states])
        prev_outside_rows = _per_row([s.prev_outside_temp_c for s in states])
        fan_speed_rows = _per_row([s.fan_speed for s in states])
        util_rows = _per_row([s.utilization for s in states])

        # Lane-stacked evolving state: (total candidates, sensors).
        temps = np.concatenate(
            [
                np.tile(
                    np.array(state.sensor_temps_c, dtype=float),
                    (cand_counts[lane], 1),
                )
                for lane, state in enumerate(states)
            ]
        )
        prev_temps = np.concatenate(
            [
                np.tile(
                    np.array(state.prev_sensor_temps_c, dtype=float),
                    (cand_counts[lane], 1),
                )
                for lane, state in enumerate(states)
            ]
        )
        w_arr = np.repeat(
            np.array([s.inside_mixing_ratio for s in states]), cand_counts
        )

        traj = np.empty((steps, total_cands, num_sensors))
        rh_mat = np.empty((steps, total_cands))
        hum_f = np.empty((total_cands, 5))
        hum_f[:, 1] = out_w_cands
        hum_f[:, 2] = fan_cands
        hum_f[:, 4] = fan_cands * out_w_cands

        feats = np.empty((total_rows, num_sensors, 9))
        feats[:, :, 2] = outside_rows[:, None]
        feats[:, :, 4] = fans_rows_all[:, None]
        feats[:, :, 6] = util_rows[:, None]
        feats[:, :, 8] = (fans_rows_all * outside_rows)[:, None]

        for step in range(steps):
            first = step == 0
            temps_rows = temps[global_row_index]
            feats[:, :, 0] = temps_rows
            feats[:, :, 1] = prev_temps[global_row_index]
            feats[:, :, 3] = (
                prev_outside_rows if first else outside_rows
            )[:, None]
            feats[:, :, 5] = (
                fan_speed_rows[:, None] if first else fans_rows_all[:, None]
            )
            feats[:, :, 7] = fans_rows_all[:, None] * temps_rows

            intercepts = intercepts_first if first else intercepts_steady
            coefs = coefs_first if first else coefs_steady
            preds_all = intercepts + np.einsum("rsf,rsf->rs", coefs, feats)

            # Duty blending for every lane at once: a weighted segment sum
            # over each candidate's rows reproduces duty*on + (1-duty)*off
            # in the scalar evaluation order (on-row first).
            next_temps = np.add.reduceat(
                preds_all * weights_col, starts, axis=0
            )
            means = next_temps.mean(axis=1)

            # Humidity rollout, vectorized across all candidates: a batched
            # matmul of (rows, 1, 5) @ (rows, 5, 1) is bit-identical to the
            # scalar per-row np.dot, np.maximum mirrors the scalar max, and
            # the same weighted reduceat reproduces duty blending.
            hum_f[:, 0] = w_arr
            hum_f[:, 3] = fan_cands * w_arr
            hum_b0 = hum_b0_first if first else hum_b0_steady
            hum_coef = hum_coef_first if first else hum_coef_steady
            hum_rows = hum_f[global_row_index]
            dots = np.matmul(
                hum_coef[:, None, :], hum_rows[:, :, None]
            )[:, 0, 0]
            maxed = np.maximum(1e-6, hum_b0 + dots)
            w_arr = np.add.reduceat(maxed * weights, starts)
            rh_mat[step] = absolute_to_relative_humidity_array(w_arr, means)
            prev_temps = temps
            temps = next_temps
            traj[step] = next_temps

        results = []
        for lane in range(num_lanes):
            sl = cand_slices[lane]
            # Candidate-major contiguous copies: identical values (and the
            # same buffer layout) as np.stack over per-candidate arrays.
            temps_stack = np.ascontiguousarray(traj[:, sl, :].transpose(1, 0, 2))
            rh_stack = np.ascontiguousarray(rh_mat[:, sl].T)
            results.append(
                (
                    temps_stack,
                    rh_stack,
                    energies_per_lane[lane],
                    ac_full_per_lane[lane],
                )
            )
        return results

    # -- per-quantity dispatch ------------------------------------------------

    def _predict_temps_vec(
        self,
        prev_mode: CoolingMode,
        command: CoolingCommand,
        duty: float,
        features_matrix: np.ndarray,
    ) -> np.ndarray:
        """All-sensor temperature prediction (the optimizer's hot path)."""
        mode = command.mode
        if mode is CoolingMode.AC_ON and 0.0 < duty < 1.0:
            on = self.model.predict_temps_vector(
                regime_key(prev_mode, CoolingMode.AC_ON), features_matrix
            )
            off = self.model.predict_temps_vector(
                regime_key(prev_mode, CoolingMode.AC_FAN), features_matrix
            )
            return duty * on + (1.0 - duty) * off
        return self.model.predict_temps_vector(
            regime_key(prev_mode, mode), features_matrix
        )

    def _predict_humidity(
        self,
        prev_mode: CoolingMode,
        command: CoolingCommand,
        duty: float,
        features: Sequence[float],
    ) -> float:
        mode = command.mode
        if mode is CoolingMode.AC_ON and 0.0 < duty < 1.0:
            on = self.model.predict_humidity(
                regime_key(prev_mode, CoolingMode.AC_ON), features
            )
            off = self.model.predict_humidity(
                regime_key(prev_mode, CoolingMode.AC_FAN), features
            )
            return duty * on + (1.0 - duty) * off
        return self.model.predict_humidity(regime_key(prev_mode, mode), features)

    def _predict_power(
        self, prev_mode: CoolingMode, command: CoolingCommand, duty: float
    ) -> float:
        cached = self._power_cache.get(command)
        if cached is not None:
            return cached
        power = self._predict_power_uncached(command, duty)
        self._power_cache[command] = power
        return power

    def _predict_power_uncached(
        self, command: CoolingCommand, duty: float
    ) -> float:
        mode = command.mode
        steady = f"steady:{mode.value}"
        if mode is CoolingMode.AC_ON and 0.0 < duty < 1.0:
            # Smooth AC: fan is 1/4 of unit power, compressor linear in duty.
            on = self.model.predict_power_w(
                f"steady:{CoolingMode.AC_ON.value}", 0.0
            )
            off = self.model.predict_power_w(
                f"steady:{CoolingMode.AC_FAN.value}", 0.0
            )
            return off + duty * (on - off)
        if mode is CoolingMode.CLOSED:
            return 0.0
        return self.model.predict_power_w(steady, command.fc_fan_speed)
