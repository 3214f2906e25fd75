"""Full-day check of the control decision against its reference.

The benchmark day is simulated twice on the scalar engine: once with the
optimizer's one decision path (stacked rollout, ``score_arrays``,
``decide_from_stacked``) and once with every decision rebuilt from the
per-candidate references (``predict`` + ``score``).  The step records
must be identical: the stacked path is a pure speedup, not an
approximation.  The decision's latency is gated by ``repro bench``'s
tracked ``optimizer_decision`` metric, not here.
"""

from __future__ import annotations

from repro.analysis.profiling import BENCH_DAY, BENCH_LOCATION, BENCH_SYSTEM
from repro.core.coolair import CoolAir
from repro.core.versions import ALL_VERSIONS
from repro.sim.engine import CoolAirAdapter, DayRunner, ProfileWorkload, make_smoothsim
from repro.weather.locations import NAMED_LOCATIONS
from repro.workload.traces import FacebookTraceGenerator
from tests.unit.test_batched_equivalence import reference_decide


def run_day(cooling_model, trace, reference):
    """The benchmark day, and every decision its optimizer returned."""
    setup = make_smoothsim(NAMED_LOCATIONS[BENCH_LOCATION])
    config = ALL_VERSIONS[BENCH_SYSTEM]()
    coolair = CoolAir(
        config, cooling_model, setup.layout, setup.forecast, smooth_hardware=True
    )
    optimizer = coolair.optimizer
    fast_decide = optimizer.decide
    decisions = []

    def decide(state, band, active_sensor_indices=None, candidates=None):
        if reference:
            command, _ = reference_decide(
                optimizer, state, band, active_sensor_indices, candidates
            )
        else:
            command = fast_decide(
                state, band, active_sensor_indices, candidates
            )
        decisions.append(command)
        return command

    optimizer.decide = decide
    runner = DayRunner(
        setup, ProfileWorkload(trace, setup.layout, 600.0), CoolAirAdapter(coolair)
    )
    return runner.run_day(BENCH_DAY), decisions


def test_day_matches_reference_decisions(cooling_model):
    trace = FacebookTraceGenerator(num_jobs=400, seed=42).generate()
    day, decisions = run_day(cooling_model, trace, reference=False)
    reference_day, reference_decisions = run_day(
        cooling_model, trace, reference=True
    )

    assert decisions and decisions == reference_decisions
    assert len(day.records) == len(reference_day.records)
    for got, want in zip(day.records, reference_day.records):
        assert got.mode is want.mode
        assert got.fc_fan_speed == want.fc_fan_speed
        assert list(got.sensor_temps_c) == list(want.sensor_temps_c)
        assert got.cooling_power_w == want.cooling_power_w
        assert got.inside_rh_pct == want.inside_rh_pct
