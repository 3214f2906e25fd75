"""The engine-eligibility decision matrix (repro.sim.eligibility).

One test per row of the cell-shape table in docs/EXPERIMENTS.md:
``decide_engine`` is the single place the lane/scalar/day-unfold
routing lives.
"""

import dataclasses
import inspect

import pytest

from repro.analysis import experiments
from repro.core.config import TemporalPolicy
from repro.core.versions import ALL_VERSIONS
from repro.faults import BUILTIN_SCENARIOS, FaultSchedule
from repro.sim.eligibility import EngineDecision, decide_engine
from repro.weather.locations import NEWARK

PLANTS = ("parasol", "chiller", "cooling_tower", "hybrid")


def faulted_config():
    config = ALL_VERSIONS["All-ND"]()
    return dataclasses.replace(
        config, faults=next(iter(BUILTIN_SCENARIOS.values()))
    )


class TestDecisionMatrix:
    """Cell shape -> (engine, day_unfold), first matching rule wins."""

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown sim engine"):
            decide_engine("baseline", "gpu")

    def test_scalar_request_wins_over_everything(self):
        for system in ("baseline", ALL_VERSIONS["All-ND"]()):
            decision = decide_engine(system, "scalar")
            assert decision.engine == "scalar"
            assert decision.day_unfold is False

    def test_baseline_rides_lanes_and_unfolds(self):
        assert decide_engine("baseline") == EngineDecision("lanes", True)
        assert decide_engine("baseline", "lanes") == (
            EngineDecision("lanes", True)
        )

    def test_standard_coolair_config_rides_lanes_and_unfolds(self):
        decision = decide_engine(ALL_VERSIONS["All-ND"]())
        assert decision.engine == "lanes"
        assert decision.day_unfold is True
        assert decision.reason == ""

    def test_every_plant_rides_lanes(self):
        """The plant takes no part in the decision, so every plant's
        cache key records the lane engine."""
        assert "plant" not in inspect.signature(decide_engine).parameters
        for plant in PLANTS:
            for system in ("baseline", ALL_VERSIONS["All-ND"]()):
                assert "-elanes" in experiments.cache_key(
                    system, NEWARK, engine="lanes", plant=plant
                )

    def test_exotic_timing_falls_back_to_scalar(self):
        config = ALL_VERSIONS["All-ND"]()
        config.model_step_s = 60.0
        decision = decide_engine(config)
        assert decision.engine == "scalar"
        assert decision.day_unfold is False
        assert "timing" in decision.reason

        config = ALL_VERSIONS["All-ND"]()
        config.control_period_s = 300.0
        assert decide_engine(config).engine == "scalar"

    def test_faulted_config_rides_lanes_no_unfold(self):
        """Fault state carries across days, so faulted cells ride lanes
        day-sequentially (they went to the scalar engine before faults
        became per-lane state)."""
        decision = decide_engine(faulted_config())
        assert decision.engine == "lanes"
        assert decision.day_unfold is False
        assert "fault" in decision.reason

    def test_faulted_plant_cell_rides_lanes(self):
        decision = decide_engine(faulted_config())
        assert decision.engine == "lanes"
        assert decision.day_unfold is False
        for plant in ("chiller", "cooling_tower", "hybrid"):
            assert "-elanes" in experiments.cache_key(
                faulted_config(), NEWARK, engine="lanes", plant=plant
            )

    def test_empty_fault_schedule_is_fault_free(self):
        config = dataclasses.replace(
            ALL_VERSIONS["All-ND"](), faults=FaultSchedule()
        )
        assert decide_engine(config) == EngineDecision("lanes", True)

    def test_deferrable_rides_lanes_but_never_unfolds(self):
        decision = decide_engine("baseline", deferrable=True)
        assert decision.engine == "lanes"
        assert decision.day_unfold is False

    def test_temporal_scheduling_rides_lanes_but_never_unfolds(self):
        config = ALL_VERSIONS["All-DEF"]()
        assert config.temporal is not TemporalPolicy.NONE
        decision = decide_engine(config)
        assert decision.engine == "lanes"
        assert decision.day_unfold is False
