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

import numpy as np
import pytest

from repro.analysis import experiments, runner
from repro.analysis.runner import YearTask, run_year_tasks
from repro.core.config import TemporalPolicy
from repro.core.versions import ALL_VERSIONS
from repro.errors import ConfigError
from repro.faults import builtin_scenario
from repro.sim.eligibility import decide_engine
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


def test_lane_combo_cache_is_bounded(
    cooling_model, facebook_trace, monkeypatch
):
    """A 4-day, 8-lane CoolAir chunk keeps at most
    ``LANE_COMBO_CACHE_SIZE`` plan combos per predictor, and evicting
    them changes no bit of any lane's day."""
    from repro.core import predictor
    from repro.sim.lanes import LaneRunner
    from repro.sim.yearsim import sampled_days

    days = sampled_days(92)
    scenarios = [
        LaneScenario(
            system=ALL_VERSIONS["All-ND"](),
            climate=climate,
            trace=facebook_trace,
        )
        for climate in (NEWARK, CHAD)
        for _ in days
    ]

    def run_chunk():
        lanes = LaneRunner(scenarios, model=cooling_model)
        metrics, _ = lanes.run_day(days * 2)
        caches = {
            id(lane.coolair.predictor): lane.coolair.predictor._lane_combo_cache
            for lane in lanes.lanes
        }
        return metrics, max(len(cache) for cache in caches.values())

    bound = predictor.LANE_COMBO_CACHE_SIZE
    bounded, held = run_chunk()
    assert len(bounded) == 8
    assert held <= bound
    monkeypatch.setattr(predictor, "LANE_COMBO_CACHE_SIZE", 10**9)
    unbounded, unbounded_held = run_chunk()
    # The chunk visits more combos than the bound, so entries were evicted.
    assert unbounded_held > bound
    for a, b in zip(bounded, unbounded):
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])


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
        assert decide_engine("baseline").day_unfold
        assert decide_engine(ALL_VERSIONS["All-ND"]()).day_unfold
        assert decide_engine(ALL_VERSIONS["Energy"]()).day_unfold

    def test_temporal_scheduling_is_not(self):
        config = ALL_VERSIONS["All-DEF"]()
        assert config.temporal is not TemporalPolicy.NONE
        assert not decide_engine(config).day_unfold

    def test_deferrable_workloads_are_not(self):
        assert not decide_engine("baseline", deferrable=True).day_unfold

    def test_faulted_cells_are_not(self):
        config = dataclasses.replace(
            ALL_VERSIONS["All-ND"](),
            faults=builtin_scenario("fan-stuck"),
        )
        # Faulted cells ride lanes, but day-sequentially: fault state
        # carries across days.
        decision = decide_engine(config, "lanes")
        assert decision.engine == "lanes"
        assert not decision.day_unfold

    def test_scalar_engine_is_not(self):
        assert not decide_engine("baseline", "scalar").day_unfold

    def test_ineligible_cell_falls_back_in_year_result(
        self, tmp_path, monkeypatch
    ):
        """An ineligible cell stays day-sequential at any lane width."""
        monkeypatch.setattr(experiments, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(experiments, "_memory_cache", {})
        unfolded = experiments.year_result(
            "All-DEF",
            NEWARK,
            deferrable=True,
            sample_every_days=366,
            use_disk_cache=False,
            lanes=8,
        )
        monkeypatch.setattr(experiments, "_memory_cache", {})
        sequential = experiments.year_result(
            "All-DEF",
            NEWARK,
            deferrable=True,
            sample_every_days=366,
            use_disk_cache=False,
            lanes=1,
        )
        assert dataclasses.asdict(unfolded) == dataclasses.asdict(sequential)


def test_lone_cell_unfolds_in_year_result(tmp_path, monkeypatch):
    """``year_result`` unfolds an eligible cell to the default lane width,
    bit-equal to the same cell stepped day by day (``lanes=1``)."""
    import repro.sim.lanes as lanes_module

    monkeypatch.setattr(experiments, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(experiments, "_memory_cache", {})
    widths = []
    real = lanes_module.run_year_unfolded

    def spy(scenario, day_lanes, **kwargs):
        widths.append(day_lanes)
        return real(scenario, day_lanes, **kwargs)

    monkeypatch.setattr(lanes_module, "run_year_unfolded", spy)
    unfolded = experiments.year_result(
        "baseline", NEWARK, sample_every_days=FAST_STRIDE, use_disk_cache=False
    )
    assert widths == [experiments.DEFAULT_LANES]
    monkeypatch.setattr(experiments, "_memory_cache", {})
    sequential = experiments.year_result(
        "baseline",
        NEWARK,
        sample_every_days=FAST_STRIDE,
        use_disk_cache=False,
        lanes=1,
    )
    assert widths == [experiments.DEFAULT_LANES]
    assert dataclasses.asdict(unfolded) == dataclasses.asdict(sequential)


class TestRunnerDayChunking:
    """The campaign runner's parent-side (cell, day) fan-out.

    Two cells of three days leave lanes empty at these widths, so the
    runner unfolds them; ``lanes=1`` is the day-sequential reference.
    """

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

    def _spy_day_chunks(self, monkeypatch):
        widths = []
        real = runner._run_day_chunk

        def spy(items, use_disk_cache):
            widths.append(len(items))
            return real(items, use_disk_cache)

        monkeypatch.setattr(runner, "_run_day_chunk", spy)
        return widths

    def test_serial_day_unfold_equals_sequential(self, fresh_caches):
        sequential = run_year_tasks(
            self._tasks(), workers=1, lanes=1, use_disk_cache=False
        )
        fresh_caches.setattr(experiments, "_memory_cache", {})
        widths = self._spy_day_chunks(fresh_caches)
        unfolded = run_year_tasks(
            self._tasks(), workers=1, lanes=3, use_disk_cache=False
        )
        # 6 (cell, day) items in two 3-lane passes, against 3 whole-cell
        # passes of a 2-lane chunk.
        assert widths == [3, 3]
        for a, b in zip(sequential, unfolded):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="workers must inherit the monkeypatched cache directory",
    )
    def test_pooled_day_chunks_equal_sequential(self, fresh_caches):
        """2 workers x 3-day chunks straddling cells == the serial run."""
        assert runner.unfold_pays(2, 3, workers=2, lanes=3)
        sequential = run_year_tasks(
            self._tasks(), workers=1, lanes=1, use_disk_cache=False
        )
        fresh_caches.setattr(experiments, "_memory_cache", {})
        chunked = run_year_tasks(
            self._tasks(), workers=2, lanes=3, use_disk_cache=False
        )
        for a, b in zip(sequential, chunked):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_in_process_plan_equals_scalar(self, fresh_caches):
        """workers=1 runs the pooled plan in-process, bit-equal to scalar.

        Three cells of two days unfold into one 6-lane day chunk (one
        pass) instead of one 3-lane chunk stepped twice.
        """
        tasks = [
            YearTask("baseline", NEWARK, sample_every_days=183),
            YearTask("All-ND", CHAD, sample_every_days=183),
            YearTask("Variation", NEWARK, sample_every_days=183),
        ]
        fresh_caches.setattr(experiments, "DEFAULT_SIM_ENGINE", "scalar")
        scalar = run_year_tasks(tasks, workers=1, use_disk_cache=False)
        fresh_caches.setattr(experiments, "DEFAULT_SIM_ENGINE", "lanes")
        fresh_caches.setattr(experiments, "_memory_cache", {})
        widths = self._spy_day_chunks(fresh_caches)
        fresh_caches.setattr(
            runner,
            "_run_lane_chunk",
            lambda *a, **k: pytest.fail("whole-cell chunk in the plan"),
        )
        unfolded = run_year_tasks(
            tasks, workers=1, lanes=8, use_disk_cache=False
        )
        assert widths == [6]
        for a, b in zip(scalar, unfolded):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
