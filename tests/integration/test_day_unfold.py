"""Day-unfolded lane scheduling vs the scalar reference (repro.sim.lanes).

``run_year_unfolded`` steps one scenario's sampled year-days side by side
as lockstep lanes.  That is only valid because day boundaries reset all
carried state (actuator speeds, controller latches, disk temperatures),
making sampled days independent — and the contract, like the lane
engine's, is *bit identity* with the scalar :func:`run_year`: the fold
back into a :class:`YearResult` visits the days in sampled order, so
every float (including the energy accumulation order) matches.

The fast tests run in the default (non-slow) selection; the mixed-cells
test widens the check to full element-wise traces and runs under
``--slow``.  The gate tests pin which configurations are allowed to
unfold at all.
"""

import dataclasses

import pytest

from repro.analysis import experiments
from repro.analysis.runner import YearTask, run_year_tasks
from repro.core.config import TemporalPolicy
from repro.core.versions import ALL_VERSIONS
from repro.errors import ConfigError
from repro.faults import builtin_scenario
from repro.sim.lanes import LaneScenario, run_year_unfolded
from repro.sim.yearsim import run_year
from repro.weather.locations import CHAD, NEWARK

from tests.integration.test_lane_equivalence import assert_results_identical

# Three sampled days (0, 122, 244): one full 2-lane batch plus a
# remainder batch, so both runner shapes are covered.
FAST_STRIDE = 122


def test_unfolded_year_matches_scalar(cooling_model, facebook_trace):
    """Baseline and All-ND unfolded years == their scalar runs, bit for bit."""
    for system in ("baseline", ALL_VERSIONS["All-ND"]()):
        scenario = LaneScenario(
            system=system, climate=NEWARK, trace=facebook_trace
        )
        unfolded = run_year_unfolded(
            scenario, 2, model=cooling_model, sample_every_days=FAST_STRIDE
        )
        scalar = run_year(
            system,
            NEWARK,
            facebook_trace,
            model=cooling_model,
            sample_every_days=FAST_STRIDE,
        )
        assert_results_identical(unfolded, scalar)
        assert unfolded.daily_degraded_fraction == (
            scalar.daily_degraded_fraction
        )


def test_fold_independent_of_unfold_width(cooling_model, facebook_trace):
    """Any day_lanes width folds to the identical result.

    This is what lets the campaign runner slice (cell, day) items into
    arbitrary chunks — including chunks straddling cells — without
    changing any bit of any cell's result.
    """
    scenario = LaneScenario(
        system="baseline", climate=CHAD, trace=facebook_trace
    )
    reference = None
    for width in (1, 2, 3, 8):
        result = run_year_unfolded(
            scenario, width, model=cooling_model, sample_every_days=FAST_STRIDE
        )
        if reference is None:
            reference = result
        else:
            assert dataclasses.asdict(result) == dataclasses.asdict(reference)


def test_unfolded_rejects_non_positive_width(facebook_trace):
    scenario = LaneScenario(
        system="baseline", climate=NEWARK, trace=facebook_trace
    )
    with pytest.raises(ConfigError):
        run_year_unfolded(scenario, 0)


@pytest.mark.slow
def test_mixed_cells_unfolded_matches_scalar_elementwise(
    cooling_model, facebook_trace
):
    """Unfolded traces == scalar traces, step record by step record.

    Newark and Chad run different bands, so the unfolded sibling days mix
    free-cooling, closed, and AC decisions across lanes on the same
    epochs — every inlet temperature, regime, fan speed, duty, energy,
    and humidity must still match the scalar day-sequential run exactly.
    """
    for system, climate in (
        (ALL_VERSIONS["All-ND"](), NEWARK),
        ("baseline", CHAD),
    ):
        scenario = LaneScenario(
            system=system, climate=climate, trace=facebook_trace
        )
        unfolded = run_year_unfolded(
            scenario,
            3,
            model=cooling_model,
            sample_every_days=FAST_STRIDE,
            keep_traces=True,
        )
        scalar = run_year(
            system,
            climate,
            facebook_trace,
            model=cooling_model,
            sample_every_days=FAST_STRIDE,
            keep_traces=True,
        )
        assert_results_identical(unfolded, scalar)
        assert len(unfolded.traces) == len(scalar.traces)
        for lane_day, scalar_day in zip(unfolded.traces, scalar.traces):
            assert lane_day.day_of_year == scalar_day.day_of_year
            assert len(lane_day.records) == len(scalar_day.records)
            for lane_rec, scalar_rec in zip(
                lane_day.records, scalar_day.records
            ):
                assert lane_rec == scalar_rec, (
                    f"step record diverged at t={scalar_rec.time_s} on day "
                    f"{scalar_day.day_of_year} for {scalar.label} @ "
                    f"{scalar.climate_name}"
                )


class TestEligibilityGate:
    """Which cells may unfold; everything else stays day-sequential."""

    def test_plain_cells_are_eligible(self):
        assert experiments.day_unfold_eligible("baseline")
        assert experiments.day_unfold_eligible("All-ND")
        assert experiments.day_unfold_eligible(ALL_VERSIONS["Energy"]())

    def test_temporal_scheduling_is_not(self):
        config = ALL_VERSIONS["All-DEF"]()
        assert config.temporal is not TemporalPolicy.NONE
        assert not experiments.day_unfold_eligible(config)

    def test_deferrable_workloads_are_not(self):
        assert not experiments.day_unfold_eligible(
            "baseline", deferrable=True
        )

    def test_faulted_cells_are_not(self):
        config = dataclasses.replace(
            ALL_VERSIONS["All-ND"](),
            faults=builtin_scenario("fan-stuck"),
        )
        # Faulted cells ride lanes, but day-sequentially: fault state
        # carries across days.
        assert experiments.effective_engine(config, "lanes") == "lanes"
        assert not experiments.day_unfold_eligible(config)

    def test_scalar_engine_is_not(self):
        assert not experiments.day_unfold_eligible(
            "baseline", engine="scalar"
        )

    def test_ineligible_cell_falls_back_in_year_result(
        self, tmp_path, monkeypatch
    ):
        """``day_lanes`` on an ineligible cell routes day-sequentially."""
        monkeypatch.setattr(experiments, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(experiments, "_memory_cache", {})
        unfolded = experiments.year_result(
            "All-DEF",
            NEWARK,
            deferrable=True,
            sample_every_days=366,
            use_disk_cache=False,
            day_lanes=8,
        )
        monkeypatch.setattr(experiments, "_memory_cache", {})
        sequential = experiments.year_result(
            "All-DEF",
            NEWARK,
            deferrable=True,
            sample_every_days=366,
            use_disk_cache=False,
        )
        assert dataclasses.asdict(unfolded) == dataclasses.asdict(sequential)


class TestRunnerDayChunking:
    """The campaign runner's parent-side (cell, day) fan-out."""

    @pytest.fixture()
    def fresh_caches(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(experiments, "_memory_cache", {})
        return monkeypatch

    def _tasks(self):
        return [
            YearTask("baseline", NEWARK, sample_every_days=FAST_STRIDE),
            YearTask("baseline", CHAD, sample_every_days=FAST_STRIDE),
        ]

    def test_serial_day_unfold_equals_sequential(self, fresh_caches):
        sequential = run_year_tasks(
            self._tasks(), workers=1, day_lanes=1, use_disk_cache=False
        )
        fresh_caches.setattr(experiments, "_memory_cache", {})
        unfolded = run_year_tasks(
            self._tasks(), workers=1, day_lanes=3, use_disk_cache=False
        )
        for a, b in zip(sequential, unfolded):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="workers must inherit the monkeypatched cache directory",
    )
    def test_pooled_day_chunks_equal_sequential(self, fresh_caches):
        """2 workers x 3-day chunks straddling cells == the serial run."""
        sequential = run_year_tasks(
            self._tasks(), workers=1, day_lanes=1, use_disk_cache=False
        )
        fresh_caches.setattr(experiments, "_memory_cache", {})
        chunked = run_year_tasks(
            self._tasks(), workers=2, day_lanes=3, use_disk_cache=False
        )
        for a, b in zip(sequential, chunked):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
