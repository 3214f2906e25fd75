"""Microbenchmark harness for the simulation core (``python -m repro bench``).

Times the three hot layers of a CoolAir simulation:

* **plant step** — raw :class:`~repro.physics.thermal.ThermalPlant`
  integration throughput (model steps per second);
* **optimizer decision** — the 10-minute control decision: candidate
  enumeration, predictor rollouts, and utility scoring;
* **end to end** — one full simulated day, and a year-style sample of
  seasonally spread days, under the All-ND CoolAir version on smooth
  hardware at Newark (the configuration the paper's Figures 8-10 sweep
  runs thousands of times);
* **lane batches** — ``world_chunk``, ``plant_world_chunk``,
  ``fault_chunk``, and ``matrix``: worker-sized groups of year runs
  stepped in lockstep by the lane engine (:mod:`repro.sim.lanes`),
  measured against a recorded baseline that ran the identical scenarios
  through the scalar path one at a time (``plant_world_chunk`` cycles
  the non-parasol cooling backends across its lanes; ``fault_chunk``
  runs All-ND under each builtin fault scenario);
* **world_100k** — the screened planetary sweep
  (:mod:`repro.analysis.screening`): climate-cluster dedupe, surrogate
  screening, and cluster/surrogate serving over a dense ``world_grid``.
  The recorded baseline ran the *exhaustive* path over the identical
  quick grid, so ``speedup_vs_baseline`` reads as the screening win;
  full (non-quick) runs scale the same pipeline to a 100 000-point grid
  with the simulate budget pinned by policy.

Medians over repeated runs land in ``BENCH_sim_core.json`` next to the
recorded pre-PR baseline (``benchmarks/perf/baseline_sim_core.json``), so
speedups and regressions are visible across PRs; every run also appends a
line (git revision, label, medians) to ``benchmarks/perf/history.jsonl``.
``--profile`` wraps the day simulation in cProfile and prints the top
functions by cumulative time — the map for finding the next hot spot.

See ``docs/PERFORMANCE.md`` for the workflow.
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import pstats
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.coolair import CoolAir
from repro.core.modeler import CoolingModel
from repro.core.predictor import PredictorState
from repro.core.versions import ALL_VERSIONS
from repro.cooling.regimes import CoolingMode
from repro.physics.thermal import PlantInputs, ThermalPlant
from repro.sim.campaign import trained_cooling_model
from repro.sim.engine import CoolAirAdapter, DayRunner, ProfileWorkload, make_smoothsim
from repro.weather.locations import NAMED_LOCATIONS, world_grid
from repro.workload.traces import FacebookTraceGenerator

SCHEMA_VERSION = 1

# Repo-root artifacts: the tracked benchmark trajectory and the recorded
# pre-PR baseline it is compared against.
DEFAULT_OUTPUT = "BENCH_sim_core.json"
DEFAULT_BASELINE = Path("benchmarks") / "perf" / "baseline_sim_core.json"
DEFAULT_HISTORY = (
    Path(__file__).resolve().parents[3]
    / "benchmarks"
    / "perf"
    / "history.jsonl"
)

BENCH_LOCATION = "Newark"
BENCH_SYSTEM = "All-ND"
BENCH_DAY = 182
YEAR_SAMPLE_DAYS = (30, 120, 210, 300)

# Lane-engine benchmark scenarios (see bench_world_chunk / bench_matrix):
# sampled seasonally spread days of mixed (system, climate) year runs, the
# unit of work the campaign runner hands each worker.
CHUNK_SAMPLE_EVERY_DAYS = 180
CHUNK_TRACE_JOBS = 400
CHUNK_WORLD_GRID = 24
CHUNK_WORLD_STRIDE = 6
MATRIX_LOCATIONS = ("Newark", "Chad")

# plant_world_chunk: the world chunk again, but on the non-parasol
# cooling backends, cycling so every backend appears in the batch (see
# bench_plant_world_chunk).
PLANT_CHUNK_PLANTS = ("chiller", "cooling_tower", "hybrid")

# fault_chunk: All-ND at Newark under each builtin fault scenario, one
# lane per scenario (see bench_fault_chunk).
FAULT_CHUNK_LOCATION = "Newark"

# year_unfold: one All-ND year at Newark with its sampled days unfolded
# into lockstep lanes (see bench_year_unfold).  Stride 46 samples 8 days,
# filling the 8 lanes in a single batch.
UNFOLD_STRIDE_DAYS = 46
UNFOLD_DAY_LANES = 8
UNFOLD_TRACE_JOBS = 400

# world_sweep_stream: a cold-session world sweep through the campaign
# data plane (see bench_world_sweep_stream).
SWEEP_LOCATIONS = 24
SWEEP_STRIDE_DAYS = 365
SWEEP_WORKERS = 4
SWEEP_LANES = 8
SWEEP_TRACE_JOBS = 400

# world_100k: the screened planetary sweep (see bench_world_100k).  The
# quick grid is small enough for the CI smoke leg; the explicit policies
# pin the simulate budget so the benchmark's cost is a function of the
# screening pipeline, not of whatever the default fraction works out to
# at each grid size.
SCREEN_QUICK_GRID = 240
SCREEN_FULL_GRID = 100_000
SCREEN_STRIDE_DAYS = 365
SCREEN_TRACE_JOBS = 400
SCREEN_QUICK_POLICY = {
    "max_simulated_fraction": 0.05,
    "min_simulated_locations": 6,
}
SCREEN_FULL_POLICY = {
    "max_simulated_fraction": 0.0003,
    "min_simulated_locations": 24,
}


def _median_time(func: Callable[[], object], repeats: int) -> float:
    """Median wall-clock seconds of ``repeats`` calls to ``func``."""
    times: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- individual benchmarks ----------------------------------------------------


def bench_plant_step(steps: int = 2000, repeats: int = 3) -> Dict[str, float]:
    """Raw thermal-plant integration throughput."""
    inputs = PlantInputs(
        fc_fan_speed=0.5,
        pod_it_power_w=(400.0, 400.0, 400.0, 400.0),
        outside_temp_c=18.0,
        outside_mixing_ratio=0.008,
    )

    def run() -> None:
        plant = ThermalPlant()
        for _ in range(steps):
            plant.step(inputs, 120.0)

    median_s = _median_time(run, repeats)
    return {
        "median_s": median_s,
        "steps": steps,
        "steps_per_s": steps / median_s,
    }


def _decision_states(model: CoolingModel, count: int) -> List[PredictorState]:
    """A deterministic spread of control-period states to decide on."""
    states = []
    for i in range(count):
        outside = 4.0 + 28.0 * (i / max(1, count - 1))
        temps = [22.0 + 0.5 * s + 0.08 * i for s in range(model.num_sensors)]
        states.append(
            PredictorState(
                mode=CoolingMode.FREE_COOLING if i % 3 else CoolingMode.CLOSED,
                fan_speed=0.35 if i % 3 else 0.0,
                sensor_temps_c=temps,
                prev_sensor_temps_c=[t - 0.2 for t in temps],
                outside_temp_c=outside,
                prev_outside_temp_c=outside - 0.3,
                prev_fan_speed=0.3 if i % 3 else 0.0,
                utilization=0.25 + 0.5 * ((i % 7) / 6.0),
                inside_mixing_ratio=0.0075,
                outside_mixing_ratio=0.0085,
            )
        )
    return states


def bench_optimizer_decision(
    model: CoolingModel, decisions: int = 60, repeats: int = 3
) -> Dict[str, float]:
    """Latency of the 10-minute cooling decision (smooth hardware)."""
    setup = make_smoothsim(NAMED_LOCATIONS[BENCH_LOCATION])
    config = ALL_VERSIONS[BENCH_SYSTEM]()
    coolair = CoolAir(config, model, setup.layout, setup.forecast, smooth_hardware=True)
    coolair.start_day(BENCH_DAY)
    states = _decision_states(model, decisions)

    def run() -> None:
        for state in states:
            coolair.optimizer.decide(state, coolair.band)

    median_s = _median_time(run, repeats)
    return {
        "median_s": median_s,
        "decisions": decisions,
        "decision_latency_ms": 1000.0 * median_s / decisions,
    }


def _day_sim_factory(model: CoolingModel) -> Callable[[], object]:
    trace = FacebookTraceGenerator(num_jobs=400, seed=42).generate()

    def run() -> object:
        setup = make_smoothsim(NAMED_LOCATIONS[BENCH_LOCATION])
        config = ALL_VERSIONS[BENCH_SYSTEM]()
        coolair = CoolAir(
            config, model, setup.layout, setup.forecast, smooth_hardware=True
        )
        runner = DayRunner(
            setup, ProfileWorkload(trace, setup.layout, 600.0), CoolAirAdapter(coolair)
        )
        return runner.run_day(BENCH_DAY)

    return run


def bench_day_sim(model: CoolingModel, repeats: int = 3) -> Dict[str, float]:
    """One full simulated day, end to end."""
    run = _day_sim_factory(model)
    median_s = _median_time(run, repeats)
    return {"median_s": median_s, "days_per_s": 1.0 / median_s}


def bench_year_sample(model: CoolingModel, repeats: int = 2) -> Dict[str, float]:
    """A year-style sample: seasonally spread days on one shared setup."""
    trace = FacebookTraceGenerator(num_jobs=400, seed=42).generate()

    def run() -> None:
        setup = make_smoothsim(NAMED_LOCATIONS[BENCH_LOCATION])
        config = ALL_VERSIONS[BENCH_SYSTEM]()
        coolair = CoolAir(
            config, model, setup.layout, setup.forecast, smooth_hardware=True
        )
        runner = DayRunner(
            setup, ProfileWorkload(trace, setup.layout, 600.0), CoolAirAdapter(coolair)
        )
        for day in YEAR_SAMPLE_DAYS:
            runner.run_day(day)

    median_s = _median_time(run, repeats)
    return {
        "median_s": median_s,
        "days": len(YEAR_SAMPLE_DAYS),
        "s_per_day": median_s / len(YEAR_SAMPLE_DAYS),
    }


def _lane_chunk_factory(
    model: CoolingModel, climates, sample_every_days: int
) -> Callable[[], object]:
    """A runnable (climates x {baseline, All-ND}) lane batch."""
    from repro.sim.lanes import LaneScenario, run_year_lanes

    trace = FacebookTraceGenerator(num_jobs=CHUNK_TRACE_JOBS, seed=42).generate()
    scenarios = []
    for climate in climates:
        scenarios.append(
            LaneScenario(system="baseline", climate=climate, trace=trace)
        )
        scenarios.append(
            LaneScenario(
                system=ALL_VERSIONS[BENCH_SYSTEM](),
                climate=climate,
                trace=trace,
            )
        )

    def run() -> object:
        return run_year_lanes(
            scenarios, model=model, sample_every_days=sample_every_days
        )

    return run


def bench_year_unfold(
    model: CoolingModel, repeats: int = 2, unfold: bool = True
) -> Dict[str, float]:
    """One cell's year with its sampled days unfolded into lanes.

    Runs All-ND at Newark over the 8 days a 46-day stride samples, all
    stepped as one 8-lane lockstep batch (:func:`run_year_unfolded`) —
    the path ``experiments.year_result`` takes for a lone eligible cell
    at the default 8 lanes.  The recorded
    baseline ran the identical cell through the day-sequential lane path
    (``unfold=False``, also used once to record that entry), so
    ``speedup_vs_baseline`` reads as the unfold win at this shape.
    """
    from repro.sim.lanes import LaneScenario, run_year_lanes, run_year_unfolded
    from repro.sim.yearsim import sampled_days

    trace = FacebookTraceGenerator(
        num_jobs=UNFOLD_TRACE_JOBS, seed=42
    ).generate()
    scenario = LaneScenario(
        system=ALL_VERSIONS[BENCH_SYSTEM](),
        climate=NAMED_LOCATIONS[BENCH_LOCATION],
        trace=trace,
    )

    def run() -> object:
        if unfold:
            return run_year_unfolded(
                scenario,
                UNFOLD_DAY_LANES,
                model=model,
                sample_every_days=UNFOLD_STRIDE_DAYS,
            )
        (result,) = run_year_lanes(
            [scenario], model=model, sample_every_days=UNFOLD_STRIDE_DAYS
        )
        return result

    run()  # warm TMY/forecast caches so repeats time the simulation
    median_s = _median_time(run, repeats)
    days = len(sampled_days(UNFOLD_STRIDE_DAYS))
    return {
        "median_s": median_s,
        "days": days,
        "day_lanes": UNFOLD_DAY_LANES if unfold else 1,
        "sample_every_days": UNFOLD_STRIDE_DAYS,
        "trace_jobs": UNFOLD_TRACE_JOBS,
        "s_per_day": median_s / days,
        "days_per_s": days / median_s,
    }


def bench_world_chunk(
    model: CoolingModel, repeats: int = 3, quick: bool = False
) -> Dict[str, float]:
    """A worker-sized chunk of the Figures 12/13 world sweep, lane-batched.

    Eight (climate, system) year runs — a 6-stride sample of the 24-point
    world grid, baseline and All-ND each — stepped in lockstep over three
    seasonally spread days.  This is the headline lane-engine benchmark:
    the recorded baseline ran the same scenarios through the scalar
    reference path one at a time.
    """
    climates = world_grid(CHUNK_WORLD_GRID)[::CHUNK_WORLD_STRIDE]
    if quick:
        climates = climates[:1]
    run = _lane_chunk_factory(model, climates, CHUNK_SAMPLE_EVERY_DAYS)
    run()  # warm TMY/forecast caches so repeats time the simulation
    median_s = _median_time(run, repeats)
    lanes = 2 * len(climates)
    return {
        "median_s": median_s,
        "lanes": lanes,
        "s_per_lane": median_s / lanes,
    }


def bench_plant_world_chunk(
    model: CoolingModel,
    repeats: int = 3,
    quick: bool = False,
    scalar: bool = False,
) -> Dict[str, float]:
    """The world chunk on the non-parasol plants, lane-batched.

    The same worker-sized chunk as ``world_chunk`` — eight
    (climate, system) year runs over three seasonally spread days — but
    with the cooling plant cycling chiller / cooling_tower / hybrid
    across the lanes, so every lane-vectorized backend is in the batch.
    The recorded baseline ran the identical scenarios through the scalar
    reference path one cell at a time (``scalar=True``, also used once
    to record that entry) — the path plant campaigns were forced onto
    before the backends grew lane variants — so ``speedup_vs_baseline``
    reads as the lane-engine win for plant campaigns.
    """
    from repro.sim.lanes import LaneScenario, run_year_lanes
    from repro.sim.yearsim import run_year

    climates = world_grid(CHUNK_WORLD_GRID)[::CHUNK_WORLD_STRIDE]
    if quick:
        climates = climates[:1]
    trace = FacebookTraceGenerator(num_jobs=CHUNK_TRACE_JOBS, seed=42).generate()
    scenarios = []
    for climate in climates:
        for system in ("baseline", ALL_VERSIONS[BENCH_SYSTEM]()):
            scenarios.append(
                LaneScenario(
                    system=system,
                    climate=climate,
                    trace=trace,
                    plant=PLANT_CHUNK_PLANTS[
                        len(scenarios) % len(PLANT_CHUNK_PLANTS)
                    ],
                )
            )

    def run() -> object:
        if scalar:
            return [
                run_year(
                    s.system,
                    s.climate,
                    s.trace,
                    model=model,
                    sample_every_days=CHUNK_SAMPLE_EVERY_DAYS,
                    plant=s.plant,
                )
                for s in scenarios
            ]
        return run_year_lanes(
            scenarios, model=model, sample_every_days=CHUNK_SAMPLE_EVERY_DAYS
        )

    run()  # warm TMY/forecast caches so repeats time the simulation
    median_s = _median_time(run, repeats)
    lanes = len(scenarios)
    return {
        "median_s": median_s,
        "lanes": lanes,
        "s_per_lane": median_s / lanes,
    }


def bench_fault_chunk(
    repeats: int = 3, scalar: bool = False
) -> Dict[str, float]:
    """A fault campaign's chunk: All-ND under every builtin scenario.

    Eight lanes — All-ND at Newark under each builtin fault scenario
    (:data:`repro.faults.BUILTIN_SCENARIOS`), one per lane — over the
    world chunk's three seasonally spread days.  Each lane trains (or
    loads) the model its schedule asks for, so the ``model-gap`` lane
    runs on its degraded model and every lane spends its days in safe
    mode.  The recorded baseline ran the identical scenarios through the
    scalar reference path one cell at a time (``scalar=True``, also used
    once to record that entry) — where faulted cells ran before they
    rode lanes — so ``speedup_vs_baseline`` reads as the lane-engine win
    for fault campaigns.  Quick runs keep all eight lanes (fewer repeats)
    so the CI smoke gates the recorded shape.
    """
    import dataclasses

    from repro.faults import BUILTIN_SCENARIOS
    from repro.sim.lanes import LaneScenario, run_year_lanes
    from repro.sim.yearsim import run_year

    trace = FacebookTraceGenerator(num_jobs=CHUNK_TRACE_JOBS, seed=42).generate()
    climate = NAMED_LOCATIONS[FAULT_CHUNK_LOCATION]
    scenarios = [
        LaneScenario(
            system=dataclasses.replace(
                ALL_VERSIONS[BENCH_SYSTEM](), faults=BUILTIN_SCENARIOS[name]
            ),
            climate=climate,
            trace=trace,
        )
        for name in sorted(BUILTIN_SCENARIOS)
    ]

    def run() -> object:
        if scalar:
            return [
                run_year(
                    s.system,
                    s.climate,
                    s.trace,
                    sample_every_days=CHUNK_SAMPLE_EVERY_DAYS,
                )
                for s in scenarios
            ]
        return run_year_lanes(
            scenarios, sample_every_days=CHUNK_SAMPLE_EVERY_DAYS
        )

    run()  # warm TMY/forecast/model caches so repeats time the simulation
    median_s = _median_time(run, repeats)
    lanes = len(scenarios)
    return {
        "median_s": median_s,
        "lanes": lanes,
        "s_per_lane": median_s / lanes,
    }


def bench_matrix(
    model: CoolingModel, repeats: int = 3, quick: bool = False
) -> Dict[str, float]:
    """A matrix-style chunk: two named locations x {baseline, All-ND}."""
    locations = MATRIX_LOCATIONS[:1] if quick else MATRIX_LOCATIONS
    climates = [NAMED_LOCATIONS[name] for name in locations]
    run = _lane_chunk_factory(model, climates, CHUNK_SAMPLE_EVERY_DAYS)
    run()
    median_s = _median_time(run, repeats)
    lanes = 2 * len(climates)
    return {
        "median_s": median_s,
        "lanes": lanes,
        "s_per_lane": median_s / lanes,
    }


# Leg scripts for bench_world_sweep_stream: each runs in a fresh
# interpreter so import, trace, model, and weather costs are paid the way
# a real cold session pays them, and reports its own wall clock, parent
# peak RSS, and the full per-location summary for the equivalence check.
_SWEEP_LEG_CODE = """
import json, os, resource, sys, time


def peak_rss_mb():
    # VmHWM, not ru_maxrss: on Linux ru_maxrss survives exec (the
    # fork-time copy of a fat launching process becomes the child's
    # floor), while VmHWM lives in the mm struct and resets on exec,
    # so it reports this leg's own peak.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


start = time.perf_counter()
from repro.analysis import experiments
summary = experiments.world_sweep(
    num_locations=int(os.environ["BENCH_LOCATIONS"]),
    sample_every_days=int(os.environ["BENCH_STRIDE"]),
    workers=int(os.environ["BENCH_WORKERS"]),
    lanes=int(os.environ["BENCH_LANES"]),
)
total_s = time.perf_counter() - start
comparisons = [
    {
        "name": c.name,
        "latitude": c.latitude,
        "longitude": c.longitude,
        "baseline_max_range_c": c.baseline_max_range_c,
        "coolair_max_range_c": c.coolair_max_range_c,
        "baseline_pue": c.baseline_pue,
        "coolair_pue": c.coolair_pue,
    }
    for c in summary.comparisons
]
print(json.dumps({
    "total_s": total_s,
    "parent_peak_rss_mb": peak_rss_mb(),
    "comparisons": comparisons,
}))
"""

# What one spawned worker pays before it can run its first cell: import
# the harness, materialize the trace, and obtain the cooling model.
_SWEEP_SETUP_CODE = """
import json, time
start = time.perf_counter()
from repro.analysis import experiments
from repro.sim.campaign import trained_cooling_model
experiments.facebook_trace(False)
trained_cooling_model()
print(json.dumps({"setup_s": time.perf_counter() - start}))
"""

# One-time store build: materialize every weather grid the sweep reads
# plus the trace and model artifacts.
_SWEEP_BUILD_CODE = """
import json, os, time
start = time.perf_counter()
from repro import artifacts
from repro.analysis import experiments
from repro.sim.campaign import trained_cooling_model
from repro.weather.locations import world_grid
for climate in world_grid(int(os.environ["BENCH_LOCATIONS"])):
    artifacts.tmy_series(climate)
experiments.facebook_trace(False)
trained_cooling_model()
print(json.dumps({"build_s": time.perf_counter() - start}))
"""


def _run_bench_subprocess(
    code: str, env: Dict[str, str], timeout_s: float = 600.0
) -> Dict:
    """Run a leg script in a fresh interpreter; parse its JSON stdout."""
    src_root = Path(__file__).resolve().parents[2]
    merged = dict(os.environ)
    merged.update(env)
    merged["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + ([merged["PYTHONPATH"]] if merged.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=timeout_s,
        env=merged,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"benchmark leg failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Leg script for bench_world_100k: one cold-session screened (or, for
# baseline recording, exhaustive) world sweep.  A fresh interpreter pays
# trace/model/import costs the way a real session does; the cache dir is
# a throwaway so every promoted cell actually simulates.
_SCREEN_LEG_CODE = """
import json, os, time

start = time.perf_counter()
from repro.analysis import experiments
from repro.analysis.screening import ScreeningPolicy

policy = None
raw = os.environ.get("BENCH_SCREEN_POLICY")
if raw:
    policy = ScreeningPolicy.from_json(json.loads(raw))
stats = {}
summary = experiments.world_sweep(
    num_locations=int(os.environ["BENCH_GRID_POINTS"]),
    sample_every_days=int(os.environ["BENCH_STRIDE"]),
    screen=os.environ["BENCH_SCREEN"],
    screen_policy=policy,
    screen_stats=stats,
)
total_s = time.perf_counter() - start
print(json.dumps({
    "total_s": total_s,
    "locations": len(summary.comparisons),
    "stats": stats,
}))
"""


def bench_world_100k(quick: bool = False, screen: str = "on") -> Dict[str, float]:
    """The screened planetary world sweep, cold session, cold cache.

    Runs the full screening pipeline — climate-cluster dedupe, cluster
    representatives simulated, surrogate-uncertain cells promoted, the
    rest served with provenance tags — over ``SCREEN_QUICK_GRID`` points
    (quick) or ``SCREEN_FULL_GRID`` (full).  The provenance counters
    must sum to the grid size or this benchmark raises — that invariant
    check is what the CI smoke leg leans on.

    ``screen="off"`` runs the exhaustive path on the same grid instead
    (used once to record the pre-screening baseline entry).
    """
    grid = SCREEN_QUICK_GRID if quick else SCREEN_FULL_GRID
    policy = SCREEN_QUICK_POLICY if quick else SCREEN_FULL_POLICY
    env = {
        "BENCH_GRID_POINTS": str(grid),
        "BENCH_STRIDE": str(SCREEN_STRIDE_DAYS),
        "BENCH_SCREEN": screen,
        "BENCH_SCREEN_POLICY": json.dumps(policy),
        "REPRO_TRACE_JOBS": str(SCREEN_TRACE_JOBS),
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        env["REPRO_CACHE_DIR"] = str(Path(tmp) / "cache")
        leg = _run_bench_subprocess(
            _SCREEN_LEG_CODE, env, timeout_s=600.0 if quick else 3600.0
        )
    result = {
        "median_s": leg["total_s"],
        "grid_points": grid,
        "locations": leg["locations"],
        "s_per_grid_point": leg["total_s"] / grid,
        "sample_every_days": SCREEN_STRIDE_DAYS,
        "trace_jobs": SCREEN_TRACE_JOBS,
    }
    if screen == "off":
        return result
    stats = leg["stats"]
    counters = stats["counters"]
    if sum(counters.values()) != grid:
        raise RuntimeError(
            f"world_100k screening counters {counters} do not sum to the "
            f"grid size {grid}"
        )
    result.update(
        simulated=counters["simulated"],
        served_from_cluster=counters["served_from_cluster"],
        surrogate_only=counters["surrogate_only"],
        clusters=stats["clusters"],
        cells_simulated=stats["cells_simulated"],
    )
    return result


def bench_world_sweep_stream() -> Dict[str, float]:
    """A cold 24-location world sweep through the campaign data plane.

    Two legs, each a fresh interpreter fanning 48 uncached cells
    (24 grid climates x {baseline, All-ND}, one sampled day each) over
    ``spawn`` pool workers with a cold result cache:

    * **legacy** — the pre-data-plane path: artifact store disabled.
      The parent trains the cooling model and every spawned worker
      retrains it and regenerates traces/weather from scratch.
    * **plane** (the recorded ``median_s``) — artifact store prewarmed
      (the one-time build is timed separately as ``store_build_s``).
      Workers load the pickled model and mmap the weather grids instead
      of recomputing them.

    Both legs use ``spawn`` so per-worker setup cost is actually paid and
    measured rather than hidden by fork's copy-on-write inheritance —
    this is the session-cold cost the store exists to kill, and the
    regime portable to platforms where fork is unavailable.  The legs'
    per-location summaries must match exactly (bit-identical floats
    through JSON round-trip) or this benchmark raises.
    """
    common = {
        "BENCH_LOCATIONS": str(SWEEP_LOCATIONS),
        "BENCH_STRIDE": str(SWEEP_STRIDE_DAYS),
        "BENCH_WORKERS": str(SWEEP_WORKERS),
        "BENCH_LANES": str(SWEEP_LANES),
        "REPRO_TRACE_JOBS": str(SWEEP_TRACE_JOBS),
        "REPRO_MP_CONTEXT": "spawn",
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        tmp_path = Path(tmp)
        store_dir = str(tmp_path / "artifacts")
        legacy_env = dict(
            common,
            REPRO_ARTIFACTS="0",
            REPRO_CACHE_DIR=str(tmp_path / "cache-legacy"),
        )
        plane_env = dict(
            common,
            REPRO_ARTIFACTS_DIR=store_dir,
            REPRO_CACHE_DIR=str(tmp_path / "cache-plane"),
        )
        legacy_setup = _run_bench_subprocess(_SWEEP_SETUP_CODE, legacy_env)
        build = _run_bench_subprocess(_SWEEP_BUILD_CODE, plane_env)
        warm_setup = _run_bench_subprocess(_SWEEP_SETUP_CODE, plane_env)
        legacy = _run_bench_subprocess(_SWEEP_LEG_CODE, legacy_env)
        plane = _run_bench_subprocess(_SWEEP_LEG_CODE, plane_env)
    if legacy["comparisons"] != plane["comparisons"]:
        raise RuntimeError(
            "world_sweep_stream legs disagree: the data-plane sweep is "
            "not bit-identical to the artifact-store-off sweep"
        )
    if not plane["comparisons"]:
        raise RuntimeError("world_sweep_stream produced an empty summary")
    return {
        "median_s": plane["total_s"],
        "legacy_s": legacy["total_s"],
        "speedup_vs_legacy": legacy["total_s"] / plane["total_s"],
        "store_build_s": build["build_s"],
        "worker_setup_s": warm_setup["setup_s"],
        "legacy_worker_setup_s": legacy_setup["setup_s"],
        "parent_peak_rss_mb": plane["parent_peak_rss_mb"],
        "legacy_parent_peak_rss_mb": legacy["parent_peak_rss_mb"],
        "locations": SWEEP_LOCATIONS,
        "cells": 2 * SWEEP_LOCATIONS,
        "workers": SWEEP_WORKERS,
        "sample_every_days": SWEEP_STRIDE_DAYS,
        "trace_jobs": SWEEP_TRACE_JOBS,
    }


# -- the suite ----------------------------------------------------------------


def run_bench(
    quick: bool = False, model: Optional[CoolingModel] = None
) -> Dict[str, Dict[str, float]]:
    """Run the suite; ``quick`` shrinks iteration counts for CI smoke runs."""
    if model is None:
        model = trained_cooling_model()
    results: Dict[str, Dict[str, float]] = {}
    if quick:
        results["plant_step"] = bench_plant_step(steps=200, repeats=1)
        results["optimizer_decision"] = bench_optimizer_decision(
            model, decisions=10, repeats=1
        )
        results["day_sim"] = bench_day_sim(model, repeats=1)
        results["year_unfold"] = bench_year_unfold(model, repeats=1)
        results["world_chunk"] = bench_world_chunk(model, repeats=1, quick=True)
        results["plant_world_chunk"] = bench_plant_world_chunk(
            model, repeats=1, quick=True
        )
        results["fault_chunk"] = bench_fault_chunk(repeats=1)
        results["world_100k"] = bench_world_100k(quick=True)
    else:
        results["plant_step"] = bench_plant_step()
        results["optimizer_decision"] = bench_optimizer_decision(model)
        results["day_sim"] = bench_day_sim(model)
        results["year_sample"] = bench_year_sample(model)
        results["year_unfold"] = bench_year_unfold(model)
        results["world_chunk"] = bench_world_chunk(model)
        results["plant_world_chunk"] = bench_plant_world_chunk(model)
        results["fault_chunk"] = bench_fault_chunk()
        results["matrix"] = bench_matrix(model)
        results["world_sweep_stream"] = bench_world_sweep_stream()
        results["world_100k"] = bench_world_100k()
    return results


def profile_day_sim(model: Optional[CoolingModel] = None, top_n: int = 25) -> str:
    """cProfile one day simulation; returns the top-N cumulative table."""
    if model is None:
        model = trained_cooling_model()
    run = _day_sim_factory(model)
    run()  # warm any lazy caches outside the profile
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats("cumulative").print_stats(top_n)
    return out.getvalue()


# -- persistence and comparison -----------------------------------------------


def load_baseline(path: Path = DEFAULT_BASELINE) -> Optional[Dict]:
    """The recorded pre-PR baseline, or None if none has been recorded."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if payload.get("schema") != SCHEMA_VERSION:
        return None
    return payload


def speedups_vs_baseline(
    results: Dict[str, Dict[str, float]], baseline: Optional[Dict]
) -> Dict[str, float]:
    """Per-benchmark baseline_median / current_median (higher is faster).

    Benchmarks whose tracked workload shape differs from the recorded
    baseline (e.g. a full 100k ``world_100k`` run against the quick-shape
    baseline) are left out rather than reported as a meaningless ratio;
    ``bench --check`` skips them for the same reason.
    """
    if not baseline:
        return {}
    speedups = {}
    for name, current in results.items():
        base = baseline.get("results", {}).get(name)
        if not (base and base.get("median_s") and current.get("median_s")):
            continue
        shape = TRACKED_METRICS.get(name, {}).get("shape", ())
        if any(current.get(key) != base.get(key) for key in shape):
            continue
        speedups[name] = base["median_s"] / current["median_s"]
    return speedups


def write_report(
    results: Dict[str, Dict[str, float]],
    path: Path,
    quick: bool = False,
    baseline_path: Path = DEFAULT_BASELINE,
) -> Dict:
    """Assemble and write the machine-readable benchmark report."""
    baseline = load_baseline(baseline_path)
    payload = {
        "schema": SCHEMA_VERSION,
        "benchmark": "sim_core",
        "recorded_unix_s": int(time.time()),
        "quick": quick,
        "results": results,
        "baseline": (baseline or {}).get("results", {}),
        "baseline_label": (baseline or {}).get("label", ""),
        "speedup_vs_baseline": speedups_vs_baseline(results, baseline),
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def git_revision() -> str:
    """The current short git revision, or ``"unknown"`` outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parents[3],
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def append_history(
    payload: Dict, label: str = "", path: Path = DEFAULT_HISTORY
) -> Dict:
    """Append one benchmark run to the perf history (JSON Lines).

    Each ``python -m repro bench`` invocation lands here with the git
    revision it ran at, so the benchmark trajectory across PRs is a
    greppable, append-only log rather than a single overwritten file.
    """
    entry = {
        "recorded_unix_s": payload.get("recorded_unix_s"),
        "git_rev": git_revision(),
        "label": label,
        "quick": bool(payload.get("quick")),
        "medians_s": {
            name: result.get("median_s")
            for name, result in payload.get("results", {}).items()
        },
        "speedup_vs_baseline": payload.get("speedup_vs_baseline", {}),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Atomic append: rebuild the file beside itself and os.replace() it,
    # so a crashed or concurrent bench run can never leave a torn line
    # in the history (the same discipline as the result cache).
    try:
        existing = path.read_text()
    except OSError:
        existing = ""
    if existing and not existing.endswith("\n"):
        existing += "\n"
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text(existing + json.dumps(entry, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return entry


# -- regression gate (``python -m repro bench --check``) -----------------------

# One tracked metric per benchmark: the value ``--check`` compares against
# the recorded baseline, which direction is better, and which result keys
# describe the workload *shape*.  A shape mismatch between the current run
# and the baseline (e.g. a ``--quick`` run's 2-lane chunk vs the recorded
# 8-lane baseline) makes the pair incomparable, so that benchmark is
# skipped with a note instead of producing a bogus verdict.
TRACKED_METRICS: Dict[str, Dict] = {
    "plant_step": {
        "metric": "steps_per_s", "better": "higher", "shape": ("steps",),
    },
    "optimizer_decision": {
        "metric": "decision_latency_ms", "better": "lower", "shape": (),
    },
    "day_sim": {"metric": "median_s", "better": "lower", "shape": ()},
    "year_sample": {
        "metric": "s_per_day", "better": "lower", "shape": ("days",),
    },
    # The recorded baseline ran the identical cell day-sequentially, so
    # the shape deliberately excludes day_lanes: the comparison *is*
    # unfolded-vs-sequential at the same workload shape.
    "year_unfold": {
        "metric": "s_per_day",
        "better": "lower",
        "shape": ("days", "sample_every_days", "trace_jobs"),
    },
    "world_chunk": {
        "metric": "s_per_lane", "better": "lower", "shape": ("lanes",),
    },
    # The recorded baseline ran the identical plant scenarios through the
    # scalar reference path one cell at a time (the pre-lane fallback),
    # so the comparison is lanes-vs-scalar at the same workload shape.
    "plant_world_chunk": {
        "metric": "s_per_lane", "better": "lower", "shape": ("lanes",),
    },
    # Recorded like plant_world_chunk: the identical faulted scenarios on
    # the scalar reference path one cell at a time, where faulted cells
    # ran before they rode lanes.  Quick runs keep the 8-lane shape.
    "fault_chunk": {
        "metric": "s_per_lane", "better": "lower", "shape": ("lanes",),
    },
    "matrix": {
        "metric": "s_per_lane", "better": "lower", "shape": ("lanes",),
    },
    "world_sweep_stream": {
        "metric": "median_s",
        "better": "lower",
        "shape": (
            "locations", "workers", "sample_every_days", "trace_jobs",
        ),
    },
    # The recorded baseline is the exhaustive sweep on the quick grid, so
    # quick runs compare screened-vs-exhaustive at the same shape; full
    # (100k-point) runs differ in grid_points and are skipped with a note.
    "world_100k": {
        "metric": "median_s",
        "better": "lower",
        "shape": ("grid_points", "sample_every_days", "trace_jobs"),
    },
}


def check_regressions(
    results: Dict[str, Dict[str, float]],
    baseline: Optional[Dict],
    threshold: float = 0.25,
) -> Tuple[List[str], List[str]]:
    """Compare tracked metrics against the recorded baseline.

    Returns ``(regressions, notes)``: one line per tracked benchmark that
    regressed by more than ``threshold`` (fractional — 0.25 means 25%
    worse), and one informational note per benchmark that could not be
    compared (absent from either side, or a workload-shape mismatch).
    """
    regressions: List[str] = []
    notes: List[str] = []
    base_results = (baseline or {}).get("results", {})
    if not base_results:
        notes.append("no recorded baseline; nothing to check")
        return regressions, notes
    for name, spec in TRACKED_METRICS.items():
        current = results.get(name)
        base = base_results.get(name)
        if current is None or base is None:
            if current is not None:
                notes.append(f"{name}: not in baseline; skipped")
            continue
        mismatched = [
            key
            for key in spec["shape"]
            if current.get(key) != base.get(key)
        ]
        if mismatched:
            notes.append(
                f"{name}: workload shape differs from baseline "
                f"({', '.join(mismatched)}); skipped"
            )
            continue
        metric = spec["metric"]
        cur_value = current.get(metric)
        base_value = base.get(metric)
        if not cur_value or not base_value:
            notes.append(f"{name}: metric {metric} missing; skipped")
            continue
        if spec["better"] == "higher":
            worse_by = base_value / cur_value - 1.0
        else:
            worse_by = cur_value / base_value - 1.0
        if worse_by > threshold:
            regressions.append(
                f"{name}: {metric} {cur_value:.6g} vs baseline "
                f"{base_value:.6g} ({worse_by:+.0%} worse; "
                f"limit {threshold:.0%})"
            )
    return regressions, notes


def format_report(payload: Dict) -> str:
    """Human-readable summary of a benchmark report."""
    lines = ["sim-core benchmarks" + (" (quick)" if payload.get("quick") else "")]
    speedups = payload.get("speedup_vs_baseline", {})
    for name, result in sorted(payload.get("results", {}).items()):
        extra = ""
        if name in speedups:
            extra = f"  ({speedups[name]:.2f}x vs baseline)"
        detail = ", ".join(
            f"{key}={value:.6g}"
            for key, value in sorted(result.items())
            if key != "median_s"
        )
        lines.append(
            f"  {name:<20} median {result['median_s'] * 1000.0:9.1f} ms"
            f"{extra}  [{detail}]"
        )
    if not speedups:
        lines.append("  (no recorded baseline to compare against)")
    return "\n".join(lines)
