"""Property-based weather-path equivalence (hypothesis).

The data plane serves TMY series as read-only mmaps and the simulation
engines read them through :class:`SampledWeather` grids and
:class:`LaneWeather` batches.  These properties pin the bit-identity
contract that makes all of that safe: every fast path must reproduce
``TMYSeries._interp`` exactly — on-grid, off-grid, negative (warmup)
times, and times wrapping past the end of the year alike — whether the
series came from :func:`generate_tmy` or from the artifact store.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import artifacts
from repro.weather.locations import NAMED_LOCATIONS
from repro.weather.tmy import LaneWeather, generate_tmy

YEAR_S = 365 * 24 * 3600.0
STEP_S = 120.0

# Arbitrary times, including negatives (warmup reaches before midnight)
# and times beyond one year (the series wraps).
times = st.floats(
    min_value=-2.0 * YEAR_S,
    max_value=2.0 * YEAR_S,
    allow_nan=False,
    allow_infinity=False,
)


@pytest.fixture(scope="module")
def series():
    return generate_tmy(NAMED_LOCATIONS["Newark"])


@pytest.fixture(scope="module")
def sampled(series):
    return series.sampled(STEP_S)


@pytest.fixture(scope="module")
def climates(series):
    return [
        series,
        generate_tmy(NAMED_LOCATIONS["Chad"]),
        generate_tmy(NAMED_LOCATIONS["Iceland"]),
    ]


class TestSampledWeather:
    @given(time_s=times)
    @settings(max_examples=200, deadline=None)
    def test_matches_interp_everywhere(self, series, sampled, time_s):
        assert sampled.temperature_c(time_s) == series.temperature_c(time_s)
        assert sampled.mixing_ratio(time_s) == series.mixing_ratio(time_s)
        assert sampled.relative_humidity_pct(
            time_s
        ) == series.relative_humidity_pct(time_s)

    @given(step=st.integers(min_value=-1000, max_value=2 * 262800))
    @settings(max_examples=200, deadline=None)
    def test_on_grid_times_bit_identical(self, series, sampled, step):
        time_s = step * STEP_S
        assert sampled.temperature_c(time_s) == series.temperature_c(time_s)


class TestLaneWeather:
    @given(
        day=st.integers(min_value=0, max_value=364),
        first_step=st.integers(min_value=-60, max_value=720),
    )
    @settings(max_examples=100, deadline=None)
    def test_day_grid_matches_scalar_queries(self, series, day, first_step):
        lanes = LaneWeather([series, series], STEP_S)
        temps, mixing, rh = lanes.day_grid(day, first_step, 8)
        for j in range(8):
            time_s = (day * 86400.0 + (first_step + j) * STEP_S) % YEAR_S
            assert temps[0, j] == series.temperature_c(time_s)
            assert mixing[1, j] == series.mixing_ratio(time_s)
            assert rh[0, j] == series.relative_humidity_pct(time_s)

    @given(
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=6),
        first_step=st.integers(min_value=-60, max_value=720),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_repeated_climates_match_scalar_queries(
        self, climates, picks, first_step, data
    ):
        """Lanes that repeat a climate read one table row through the
        lane-to-row index; every lane, on a shared day or on its own,
        still equals ``TMYSeries._interp`` for its climate and day."""
        lane_series = [climates[pick] for pick in picks]
        lanes = LaneWeather(lane_series, STEP_S)
        shared_day = data.draw(st.integers(0, 364), label="shared day")
        lane_days = data.draw(
            st.lists(
                st.integers(0, 364), min_size=len(picks), max_size=len(picks)
            ),
            label="per-lane days",
        )
        for day_arg, days in (
            (shared_day, [shared_day] * len(picks)),
            (lane_days, lane_days),
        ):
            temps, mixing, rh = lanes.day_grid(day_arg, first_step, 6)
            assert temps.shape == mixing.shape == rh.shape == (len(picks), 6)
            for lane, (tmy, day) in enumerate(zip(lane_series, days)):
                for j in range(6):
                    time_s = (
                        day * 86400.0 + (first_step + j) * STEP_S
                    ) % YEAR_S
                    assert temps[lane, j] == tmy._interp(tmy._temps_c, time_s)
                    assert mixing[lane, j] == tmy._interp(
                        tmy._mixing_ratios, time_s
                    )
                    assert rh[lane, j] == tmy._interp(tmy._rh_pct, time_s)

    def test_tables_hold_one_row_per_distinct_series(self, climates):
        newark, chad, _ = climates
        lanes = LaneWeather([chad, newark, chad, chad, newark], STEP_S)
        assert lanes._temps.shape == (2, 8760)
        assert lanes._lane_rows.tolist() == [0, 1, 0, 0, 1]


class TestStoreServedSeries:
    """The same properties hold for a series read back from the store."""

    @pytest.fixture()
    def stored(self, tmp_path, monkeypatch, series):
        monkeypatch.setenv("REPRO_ARTIFACTS_DIR", str(tmp_path / "store"))
        monkeypatch.delenv("REPRO_ARTIFACTS", raising=False)
        monkeypatch.setattr(artifacts, "_tmy_cache", {})
        monkeypatch.setattr(artifacts, "_swept_dirs", set())
        artifacts.tmy_series(NAMED_LOCATIONS["Newark"])  # materialize
        artifacts._tmy_cache.clear()
        served = artifacts.tmy_series(NAMED_LOCATIONS["Newark"])
        assert isinstance(served._temps_c.base, np.memmap)
        return served

    def test_interp_and_grids_bit_identical(self, series, stored):
        probe_times = np.linspace(-YEAR_S, 2 * YEAR_S, 997)
        for time_s in probe_times:
            assert stored.temperature_c(time_s) == series.temperature_c(time_s)
        grid = stored.sampled(STEP_S)
        reference = series.sampled(STEP_S)
        assert np.array_equal(grid.temps_c, reference.temps_c)
        assert np.array_equal(grid.mixing_ratios, reference.mixing_ratios)
        assert np.array_equal(grid.rh_pct, reference.rh_pct)
        lanes = LaneWeather([stored], STEP_S)
        ref_lanes = LaneWeather([series], STEP_S)
        got = lanes.day_grid(100, -30, 100)
        want = ref_lanes.day_grid(100, -30, 100)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
