"""The one control-decision path must equal the per-candidate reference,
bit for bit.

Every 10-minute decision rolls its candidates out in one stacked pass
(:meth:`CoolingPredictor.predict_lanes_stacked`; the scalar engine's
:meth:`CoolingPredictor.predict_batch` is its one-lane case), scores
them with :meth:`UtilityFunction.score_arrays` and selects in
:meth:`CoolingOptimizer.decide_from_stacked`.  The per-candidate
:meth:`CoolingPredictor.predict` and :meth:`UtilityFunction.score` are
the references: every test here pins the stacked path to them with exact
floating-point equality, across a deterministic spread of control-period
states covering both hardware candidate sets, blended AC duties, several
bands and active-sensor restriction.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.profiling import _decision_states
from repro.core.band import TemperatureBand
from repro.core.optimizer import (
    CoolingOptimizer,
    abrupt_candidates,
    smooth_candidates,
)
from repro.core.predictor import CoolingPredictor
from repro.core.utility import RegimePrediction, UtilityFunction
from repro.core.versions import all_nd

STEPS = 5
BAND = TemperatureBand(25.0, 30.0)
BANDS = (BAND, TemperatureBand(20.0, 25.0), TemperatureBand(28.0, 33.0))
ACTIVE_SETS = (None, [0, 2], [3, 1], [0, 1, 2, 3])


def reference_decide(
    optimizer, state, band, active_sensor_indices=None, candidates=None
):
    """The decision rebuilt from :meth:`CoolingPredictor.predict` and
    :meth:`UtilityFunction.score`, one candidate at a time.

    Returns ``(command, scores)``, ``scores`` shaped like the optimizer's
    ``last_scores``.  The winner has the lowest ``(round(score, 6),
    energy, same_mode)`` key, first candidate on ties.
    """
    config = optimizer.config
    steps = config.steps_per_control_period
    horizon_s = float(config.control_period_s)
    if active_sensor_indices is None:
        indices = None
        current = list(state.sensor_temps_c)
    else:
        indices = list(active_sensor_indices)
        current = [state.sensor_temps_c[i] for i in indices]
    if candidates is None:
        candidates = optimizer._candidates(state, band)
    best_command, best_key, scores = None, None, []
    for command in candidates:
        prediction = optimizer.predictor.predict(state, command, steps)
        if indices is not None:
            prediction = RegimePrediction(
                sensor_temps_c=prediction.sensor_temps_c[:, indices],
                rh_pct=prediction.rh_pct,
                cooling_energy_kwh=prediction.cooling_energy_kwh,
                ac_at_full_speed=prediction.ac_at_full_speed,
            )
        score = optimizer.utility.score(prediction, band, current, horizon_s)
        scores.append((command, score))
        same_mode = 0 if command.mode is state.mode else 1
        key = (round(score, 6), prediction.cooling_energy_kwh, same_mode)
        if best_key is None or key < best_key:
            best_command, best_key = command, key
    return best_command, scores


def assert_lane_matches_predict(predictor, state, commands, lane):
    """One lane's stacked rollout equals ``predict`` per candidate."""
    temps, rh, energies, ac_full = lane
    assert temps.shape[0] == rh.shape[0] == len(commands)
    assert len(energies) == len(ac_full) == len(commands)
    for i, command in enumerate(commands):
        want = predictor.predict(state, command, STEPS)
        assert np.array_equal(temps[i], want.sensor_temps_c)
        assert np.array_equal(rh[i], want.rh_pct)
        assert energies[i] == want.cooling_energy_kwh
        assert ac_full[i] == want.ac_at_full_speed


def candidate_sets(state):
    return (
        abrupt_candidates(),
        smooth_candidates(current_fc_speed=state.fan_speed),
    )


class TestPredictBatch:
    def test_matches_sequential_predict_both_candidate_sets(self, cooling_model):
        predictor = CoolingPredictor(cooling_model)
        for state in _decision_states(cooling_model, 12):
            for commands in candidate_sets(state):
                assert_lane_matches_predict(
                    predictor,
                    state,
                    commands,
                    predictor.predict_batch(state, commands, STEPS),
                )

    def test_batch_results_are_independent_copies(self, cooling_model):
        predictor = CoolingPredictor(cooling_model)
        state = _decision_states(cooling_model, 1)[0]
        commands = abrupt_candidates()
        temps, rh, energies, ac_full = predictor.predict_batch(
            state, commands, STEPS
        )
        # A caller scribbling on one result must not reach the next one:
        # the arrays are fresh per call, and the per-candidate energies
        # and flags (kept in the predictor's combo cache) are immutable.
        temps[:] = -99.0
        rh[:] = -99.0
        assert isinstance(energies, tuple) and isinstance(ac_full, tuple)
        again = predictor.predict_batch(state, commands, STEPS)
        assert not np.any(again[0] == -99.0)
        assert not np.any(again[1] == -99.0)
        assert_lane_matches_predict(predictor, state, commands, again)

    def test_multi_lane_rollout_matches_predict(self, cooling_model):
        """Lanes stacked into one rollout each equal ``predict``."""
        predictor = CoolingPredictor(cooling_model)
        states = _decision_states(cooling_model, 12)
        commands = [
            candidate_sets(state)[lane % 2]
            for lane, state in enumerate(states)
        ]
        lanes = predictor.predict_lanes_stacked(states, commands, STEPS)
        assert len(lanes) == len(states)
        for state, lane_commands, lane in zip(states, commands, lanes):
            assert_lane_matches_predict(predictor, state, lane_commands, lane)


class TestScoreBatch:
    def test_matches_sequential_score(self, cooling_model):
        predictor = CoolingPredictor(cooling_model)
        config = all_nd()
        utility = UtilityFunction(config)
        horizon_s = float(config.control_period_s)
        for state in _decision_states(cooling_model, 8):
            commands = smooth_candidates(current_fc_speed=state.fan_speed)
            temps, rh, energies, ac_full = predictor.predict_batch(
                state, commands, STEPS
            )
            current = list(state.sensor_temps_c)
            stacked = utility.score_arrays(
                temps, rh, np.asarray(energies), np.asarray(ac_full),
                BAND, current, horizon_s,
            )
            sequential = [
                utility.score(
                    predictor.predict(state, command, STEPS),
                    BAND,
                    current,
                    horizon_s,
                )
                for command in commands
            ]
            assert stacked == sequential


class TestOptimizerEquivalence:
    def make(self, cooling_model, smooth):
        config = all_nd()
        return CoolingOptimizer(
            config,
            CoolingPredictor(cooling_model),
            UtilityFunction(config),
            smooth_hardware=smooth,
        )

    def assert_same_decisions(self, cooling_model, smooth, active_sets):
        optimizer = self.make(cooling_model, smooth)
        for active in active_sets:
            for band in BANDS:
                for state in _decision_states(cooling_model, 10):
                    got = optimizer.decide(
                        state, band, active_sensor_indices=active
                    )
                    want, scores = reference_decide(
                        optimizer, state, band, active
                    )
                    assert got == want
                    assert optimizer.last_scores == scores

    def test_smooth_hardware(self, cooling_model):
        self.assert_same_decisions(cooling_model, True, ACTIVE_SETS)

    def test_abrupt_hardware(self, cooling_model):
        self.assert_same_decisions(cooling_model, False, ACTIVE_SETS)

    def test_active_sensor_restriction(self, cooling_model):
        """Restricting to the active pods' sensors must change the scores
        (else the restriction tests above would prove nothing)."""
        optimizer = self.make(cooling_model, True)
        state = _decision_states(cooling_model, 10)[4]
        optimizer.decide(state, BAND)
        every_sensor = list(optimizer.last_scores)
        optimizer.decide(state, BAND, active_sensor_indices=[0, 2])
        assert optimizer.last_scores != every_sensor
        assert optimizer.last_scores == reference_decide(
            optimizer, state, BAND, [0, 2]
        )[1]

    def test_lane_decisions_match_reference(self, cooling_model):
        """The lane engine's path: many states rolled out in one stacked
        pass, then one ``decide_from_stacked`` per lane."""
        for smooth in (True, False):
            optimizer = self.make(cooling_model, smooth)
            states = _decision_states(cooling_model, 10)
            for active in ACTIVE_SETS:
                for band in BANDS:
                    candidates = [
                        optimizer._candidates(state, band) for state in states
                    ]
                    lanes = optimizer.predictor.predict_lanes_stacked(
                        states,
                        candidates,
                        optimizer.config.steps_per_control_period,
                    )
                    for state, lane_candidates, (
                        temps, rh, energies, ac_full
                    ) in zip(states, candidates, lanes):
                        got = optimizer.decide_from_stacked(
                            state, band, lane_candidates, temps, rh,
                            energies, ac_full, active,
                        )
                        want, scores = reference_decide(
                            optimizer, state, band, active
                        )
                        assert got == want
                        assert optimizer.last_scores == scores
