"""Command-line interface: ``python -m repro`` or the ``coolair`` script.

Subcommands mirror the workflows a datacenter operator would run.  The
catalogue below is ``COMMAND_SUMMARIES``, which also generates the
``--help`` epilog — add new subcommands there so the docs, the help
text, and the dispatch table cannot drift apart
(``scripts/check_doc_commands.py`` verifies the documented invocations
in CI):

* ``versions``  — print the Table 1 system matrix.
* ``band``      — show the temperature band CoolAir would pick for a day.
* ``campaign``  — run the model-learning campaign and report model quality.
* ``day``       — simulate one day of a system at a location.
* ``year``      — simulate (and cache) a year and print the headline metrics.
* ``matrix``    — the Figures 8-10 systems-by-locations year matrix.
* ``world``     — the Figures 12/13 worldwide sweep.
* ``locations`` — list the named evaluation locations.
* ``faults``    — list the built-in fault-injection scenarios.
* ``bench``     — time the simulation core and write ``BENCH_sim_core.json``.
* ``serve``     — run the campaign control-plane service (docs/SERVICE.md).
* ``submit``    — submit a campaign to the service and stream its progress.
* ``status``    — list service jobs, or show one job (``--result`` fetches it).
* ``cancel``    — cancel a submitted job.

``matrix`` and ``world`` fan out over worker processes (``--workers`` /
``REPRO_WORKERS``) with ``--lanes`` / ``REPRO_LANES`` scenarios stepped in
lockstep per worker by the lane-batched engine, unfolding eligible cells'
sampled year-days into lanes too when the cells alone cannot fill them
(see ``docs/EXPERIMENTS.md``), and reuse the on-disk result cache under
``.cache/``.  ``serve``/``submit``/``status``/``cancel`` are the service
mode: one persistent worker pool serving many concurrent campaign
requests with priorities, cancellation, and cross-request dedupe
(see ``docs/SERVICE.md``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.analysis.experiments import (
    DEFAULT_SAMPLE_DAYS,
    DEFAULT_WORLD_LOCATIONS,
    FIVE_LOCATION_SYSTEMS,
    five_location_matrix,
    world_sweep,
    year_result,
)
from repro.analysis.report import format_table
from repro.analysis.runner import TaskFailure, resolve_workers
from repro.cooling.backends import PLANTS, resolve_plant
from repro.core.band import select_band
from repro.core.coolair import CoolAir
from repro.core.versions import ALL_VERSIONS
from repro.errors import ReproError
from repro.faults import BUILTIN_SCENARIOS, builtin_scenario
from repro.sim.campaign import (
    model_log_gaps,
    run_learning_campaign,
    trained_cooling_model,
)
from repro.sim.engine import (
    BaselineAdapter,
    CoolAirAdapter,
    DayRunner,
    ProfileWorkload,
    make_realsim,
    make_smoothsim,
)
from repro.sim.validation import fraction_within, prediction_errors
from repro.weather.forecast import ForecastService
from repro.weather.locations import NAMED_LOCATIONS
from repro.weather.tmy import generate_tmy
from repro.workload.traces import FacebookTraceGenerator, NutchTraceGenerator

SYSTEM_CHOICES = ["baseline"] + list(ALL_VERSIONS)

# One line per subcommand; renders the --help epilog and anchors the
# README command table (scripts/check_doc_commands.py keeps them honest).
COMMAND_SUMMARIES = {
    "versions": "print the Table 1 system matrix",
    "band": "show the temperature band CoolAir picks for a day",
    "campaign": "run the model-learning campaign and report model quality",
    "day": "simulate one day of a system at a location",
    "year": "simulate (and cache) a year; print the headline metrics",
    "matrix": "the Figures 8-10 systems-by-locations year matrix",
    "world": "the Figures 12/13 worldwide sweep",
    "locations": "list the named evaluation locations",
    "faults": "list the built-in fault-injection scenarios",
    "bench": "time the simulation core (docs/PERFORMANCE.md)",
    "serve": "run the campaign control-plane service (docs/SERVICE.md)",
    "submit": "submit a campaign to the service and stream its progress",
    "status": "list service jobs, or show one job's progress",
    "cancel": "cancel a submitted service job",
}


def command_table() -> str:
    """The subcommand catalogue, one aligned line per command."""
    width = max(len(name) for name in COMMAND_SUMMARIES)
    return "\n".join(
        f"  {name:<{width}}  {summary}"
        for name, summary in COMMAND_SUMMARIES.items()
    )


def _climate(name: str):
    try:
        return NAMED_LOCATIONS[name]
    except KeyError:
        raise ReproError(
            f"unknown location {name!r}; choices: {', '.join(NAMED_LOCATIONS)}"
        )


def _trace(name: str, deferrable: bool):
    if name == "facebook":
        return FacebookTraceGenerator(num_jobs=1200).generate(deferrable=deferrable)
    if name == "nutch":
        return NutchTraceGenerator().generate(deferrable=deferrable)
    raise ReproError(f"unknown workload {name!r}; choices: facebook, nutch")


# -- subcommands --------------------------------------------------------------


def cmd_versions(args: argparse.Namespace) -> int:
    rows = []
    for name, factory in ALL_VERSIONS.items():
        config = factory()
        rows.append([
            name,
            config.band_mode.value,
            "yes" if config.use_energy_term else "no",
            config.placement.value.replace("_first", ""),
            config.temporal.value,
        ])
    print(format_table(
        ["version", "band mode", "energy term", "placement", "temporal"],
        rows, title="CoolAir versions (Table 1 + ablations)",
    ))
    return 0


def cmd_locations(args: argparse.Namespace) -> int:
    rows = [
        [c.name, c.latitude, c.longitude, c.mean_temp_c,
         c.seasonal_amplitude_c, c.mean_rh_pct]
        for c in NAMED_LOCATIONS.values()
    ]
    print(format_table(
        ["location", "lat", "lon", "mean C", "seasonal amp C", "mean RH %"],
        rows, title="Named evaluation locations",
    ))
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    rows = []
    for name, schedule in sorted(BUILTIN_SCENARIOS.items()):
        channels = []
        for fault in schedule.sensor_faults:
            channels.append(f"{fault.sensor}:{fault.kind}")
        for fault in schedule.actuator_faults:
            channels.append(fault.kind)
        for gap in schedule.log_gaps:
            channels.append(f"log-gap:{gap.drop_mode or 'positional'}")
        rows.append([name, ", ".join(channels)])
    print(format_table(
        ["scenario", "fault channels"],
        rows, title="Built-in fault scenarios (coolair day --faults NAME)",
    ))
    return 0


def cmd_band(args: argparse.Namespace) -> int:
    climate = _climate(args.location)
    forecast = ForecastService(generate_tmy(climate)).forecast_for_day(args.day)
    config = ALL_VERSIONS[args.system]() if args.system != "baseline" else None
    if config is None:
        raise ReproError("the baseline has no temperature band; pick a version")
    band = select_band(forecast, config)
    print(
        f"{climate.name} day {args.day}: forecast avg "
        f"{forecast.average_temp_c:.1f}C "
        f"({forecast.min_temp_c:.1f}..{forecast.max_temp_c:.1f})"
    )
    print(
        f"{config.name} band: [{band.low_c:.1f}, {band.high_c:.1f}]C"
        + ("  (slid against Min/Max)" if band.slid else "")
    )
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    print(f"Running the learning campaign ({args.days} days)...")
    days = tuple(
        int(round(d)) for d in
        [i * 365 / args.days + 5 for i in range(args.days)]
    )
    model = trained_cooling_model(days=days, use_cache=False)
    held_out = run_learning_campaign(days=(100, 270))
    errors2 = prediction_errors(model, held_out, 1)
    errors10 = prediction_errors(model, held_out, 5)
    print(f"learned regimes: {', '.join(model.learned_regimes)}")
    print(
        f"validation: {fraction_within(errors2, 1.0)*100:.0f}% of 2-min and "
        f"{fraction_within(errors10, 1.0)*100:.0f}% of 10-min predictions "
        "within 1C"
    )
    return 0


def cmd_day(args: argparse.Namespace) -> int:
    climate = _climate(args.location)
    plant = resolve_plant(args.plant)
    trace = _trace(args.workload, deferrable=args.system.endswith("DEF"))
    faults = builtin_scenario(args.faults) if args.faults else None
    if args.system == "baseline":
        if faults is not None:
            raise ReproError(
                "--faults requires a CoolAir system (the baseline has no "
                "graceful-degradation path); pick a version"
            )
        setup = make_realsim(climate, plant=plant)
        adapter = BaselineAdapter()
    else:
        config = ALL_VERSIONS[args.system]()
        if faults is not None:
            config = dataclasses.replace(config, faults=faults)
        maker = make_realsim if args.abrupt else make_smoothsim
        setup = maker(climate, faults=faults, plant=plant)
        model = trained_cooling_model(log_gaps=model_log_gaps(config))
        coolair = CoolAir(
            config, model, setup.layout, setup.forecast,
            smooth_hardware=setup.smooth_hardware,
        )
        adapter = CoolAirAdapter(coolair)
    runner = DayRunner(setup, ProfileWorkload(trace, setup.layout, 600.0), adapter)
    day = runner.run_day(args.day)
    print(
        f"{args.system} at {climate.name}, day {args.day}: "
        f"max {day.max_sensor_temp_c():.1f}C, "
        f"range {day.worst_sensor_range_c():.1f}C, "
        f"PUE {day.pue():.2f}, cooling {day.cooling_energy_kwh():.1f} kWh"
    )
    if day.water_liters() > 0:
        print(
            f"water ({plant}): {day.water_liters():.0f} L, "
            f"WUE {day.wue():.2f} L/kWh"
        )
    if plant == "hybrid":
        tower = day.mech_regime_fraction("tower")
        chiller = day.mech_regime_fraction("chiller")
        mech = tower + chiller
        split = (
            f" ({tower / mech * 100:.0f}% tower / "
            f"{chiller / mech * 100:.0f}% chiller)"
            if mech > 0
            else ""
        )
        print(
            f"regimes (hybrid): tower {tower * 24:.1f} h, "
            f"chiller {chiller * 24:.1f} h of mechanical cooling{split}"
        )
    if faults is not None:
        intervals = day.degradation_intervals()
        spans = ", ".join(f"{a/3600:.1f}h-{b/3600:.1f}h" for a, b in intervals)
        print(
            f"faults ({args.faults}): safe-mode control "
            f"{day.degraded_fraction()*100:.0f}% of the day"
            + (f" over {len(intervals)} interval(s): {spans}" if intervals else "")
        )
    return 0


def cmd_year(args: argparse.Namespace) -> int:
    climate = _climate(args.location)
    result = year_result(
        args.system,
        climate,
        workload=args.workload,
        deferrable=args.system.endswith("DEF"),
        sample_every_days=args.sample_days,
        use_disk_cache=not args.no_cache,
        plant=args.plant,
    )
    print(result.summary_row())
    return 0


def _progress(done: int, total: int, task) -> None:
    print(f"[{done}/{total}] {task.label()}", file=sys.stderr)


def _report_failures(failures: List[TaskFailure]) -> None:
    """Print the cells that exhausted their retries (docs/ROBUSTNESS.md)."""
    if not failures:
        return
    print(f"\n{len(failures)} cell(s) failed and were skipped:", file=sys.stderr)
    for failure in failures:
        print(
            f"  {failure.label()} after {failure.attempts} attempt(s): "
            f"{failure.error}",
            file=sys.stderr,
        )


def cmd_matrix(args: argparse.Namespace) -> int:
    systems = tuple(args.systems.split(","))
    for system in systems:
        if system not in SYSTEM_CHOICES:
            raise ReproError(
                f"unknown system {system!r}; choices: {', '.join(SYSTEM_CHOICES)}"
            )
    workers = resolve_workers(args.workers)
    failures: List[TaskFailure] = []
    matrix = five_location_matrix(
        systems=systems,
        workload=args.workload,
        sample_every_days=args.sample_days,
        workers=workers,
        lanes=args.lanes,
        progress=None if args.quiet else _progress,
        task_retries=args.task_retries,
        task_timeout_s=args.task_timeout,
        failures=failures,
        plant=args.plant,
    )
    wet = any(
        result.water_l > 0.0
        for by_location in matrix.values()
        for result in by_location.values()
    )
    rows = []
    for system, by_location in matrix.items():
        for name, result in by_location.items():
            row = [
                system, name,
                f"{result.avg_violation_c:.2f}",
                f"{result.avg_range_c:.1f}",
                f"{result.max_range_c:.1f}",
                f"{result.pue:.2f}",
            ]
            if wet:
                row.append(f"{result.wue:.2f}")
            rows.append(row)
    headers = ["system", "location", "viol C", "avg range C", "max range C", "PUE"]
    if wet:
        headers.append("WUE")
    print(format_table(
        headers,
        rows,
        title=f"Figures 8-10 matrix ({args.workload}, {workers} workers)",
    ))
    _report_failures(failures)
    return 1 if failures else 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis import profiling

    model = trained_cooling_model()
    results = profiling.run_bench(quick=args.quick, model=model)
    baseline_path = args.baseline or profiling.DEFAULT_BASELINE
    payload = profiling.write_report(
        results,
        path=args.output,
        quick=args.quick,
        baseline_path=baseline_path,
    )
    print(profiling.format_report(payload))
    print(f"wrote {args.output}")
    if not args.no_history:
        entry = profiling.append_history(payload, label=args.label)
        print(
            f"appended run @ {entry['git_rev']} to "
            f"{profiling.DEFAULT_HISTORY}"
        )
    if args.profile:
        print(profiling.profile_day_sim(model=model, top_n=args.profile_top))
    if args.check:
        regressions, notes = profiling.check_regressions(
            results,
            profiling.load_baseline(baseline_path),
            threshold=args.check_threshold,
        )
        for note in notes:
            print(f"check: {note}")
        if regressions:
            print(
                f"{len(regressions)} tracked metric(s) regressed more than "
                f"{args.check_threshold:.0%} vs the recorded baseline:",
                file=sys.stderr,
            )
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 3
        print("check: no tracked metric regressed beyond the threshold")
    return 0


def cmd_world(args: argparse.Namespace) -> int:
    workers = resolve_workers(args.workers)
    failures: List[TaskFailure] = []
    screen_stats: dict = {}
    summary = world_sweep(
        num_locations=args.grid_points or args.locations,
        workers=workers,
        lanes=args.lanes,
        progress=None if args.quiet else _progress,
        task_retries=args.task_retries,
        task_timeout_s=args.task_timeout,
        failures=failures,
        screen=args.screen,
        screen_stats=screen_stats,
        plant=args.plant,
    )
    print(format_table(
        ["bin C", "locations"],
        list(summary.range_bucket_counts().items()),
        title=f"Figure 12 — max-range reduction ({len(summary.comparisons)} locations)",
    ))
    print(format_table(
        ["bin", "locations"],
        list(summary.pue_bucket_counts().items()),
        title="Figure 13 — yearly PUE reduction",
    ))
    print(summary.headline())
    if screen_stats:
        counters = screen_stats["counters"]
        cost = screen_stats["cost_model"]
        print(
            "screening: "
            f"{counters['simulated']} simulated, "
            f"{counters['served_from_cluster']} served from cluster, "
            f"{counters['surrogate_only']} surrogate-only "
            f"of {screen_stats['grid_points']} grid points "
            f"({screen_stats['clusters']} clusters, "
            f"{screen_stats['cells_simulated']} cells simulated, "
            f"{cost['seconds_per_cell']:.2f}s/cell observed)"
        )
    if args.map:
        from repro.analysis.worldmap import render_world_map

        print(render_world_map(summary, metric=args.map_metric))
    _report_failures(failures)
    return 1 if failures else 0


# -- service mode --------------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    return serve(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        max_jobs=args.max_jobs,
        task_retries=args.task_retries,
        task_timeout_s=args.task_timeout,
    )


def _submit_spec(args: argparse.Namespace):
    """A CampaignSpec from the ``submit`` flags, by sweep kind."""
    from repro.service.spec import CampaignSpec

    plant = resolve_plant(args.plant)
    if args.kind == "matrix":
        return CampaignSpec(
            kind="matrix",
            systems=tuple(args.systems.split(",")),
            workload=args.workload,
            sample_every_days=args.sample_days,
            plant=plant,
        )
    if args.kind == "world":
        return CampaignSpec(
            kind="world",
            locations=args.locations,
            grid_points=args.grid_points,
            coolair_system=args.coolair_system,
            sample_every_days=args.sample_days,
            screen=args.screen or "off",
            plant=plant,
        )
    return CampaignSpec(
        kind="faults",
        system=args.system,
        location=args.location,
        scenarios=tuple(args.scenarios.split(",")) if args.scenarios else (),
        workload=args.workload,
        sample_every_days=args.sample_days,
        plant=plant,
    )


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import (
        ServiceClient,
        job_result_json,
        render_result,
    )

    spec = _submit_spec(args)
    with ServiceClient(
        socket_path=args.socket, host=args.host, port=args.port
    ) as client:
        if args.no_wait:
            reply = client.submit(spec, priority=args.priority, stream=False)
            print(reply["job_id"])
            return 0
        reply = client.submit(spec, priority=args.priority, stream=True)
        job_id = reply["job_id"]
        if not args.quiet:
            print(
                f"submitted {job_id}: {reply['job']['spec']} "
                f"({reply['job']['total']} cells)",
                file=sys.stderr,
            )
        final = None
        for event in client.events():
            kind = event.get("event")
            if kind == "cell" and not args.quiet:
                if event.get("ok", False):
                    status = event.get("source", "executed")
                else:
                    status = f"FAILED: {event.get('error')}"
                print(
                    f"[{event['done']}/{event['total']}] {event['label']} "
                    f"({status})",
                    file=sys.stderr,
                )
            elif kind in ("done", "cancelled"):
                final = event
        if final is None or final.get("event") == "cancelled":
            print(f"job {job_id} was cancelled", file=sys.stderr)
            return 1
        result = client.result(job_id)
        print(job_result_json(result) if args.json else render_result(result))
        return 1 if final.get("failed") else 0


def cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import (
        ServiceClient,
        format_jobs_table,
        job_result_json,
        render_result,
    )

    with ServiceClient(
        socket_path=args.socket, host=args.host, port=args.port
    ) as client:
        if args.job_id is None:
            reply = client.list_jobs()
            print(format_jobs_table(reply["jobs"], reply["service"]))
            return 0
        reply = client.status(args.job_id)
        print(format_jobs_table([reply["job"]], reply["service"]))
        if args.result:
            result = client.result(args.job_id)
            print(
                job_result_json(result) if args.json else render_result(result)
            )
        return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    with ServiceClient(
        socket_path=args.socket, host=args.host, port=args.port
    ) as client:
        reply = client.cancel(args.job_id)
        state = reply["job"]["state"]
        if reply["cancelled"]:
            print(f"cancelled {args.job_id}")
            return 0
        print(f"{args.job_id} already {state}; nothing to cancel")
        return 1


# -- entry point ----------------------------------------------------------------


def _add_plant_arg(parser: argparse.ArgumentParser) -> None:
    """The cooling-plant backend selector shared by the sim commands."""
    parser.add_argument("--plant", default=None, choices=list(PLANTS),
                        help="cooling plant backend (default REPRO_PLANT or "
                             "parasol; docs/EXPERIMENTS.md)")


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    """Where the service lives (client side); mirrors the serve flags."""
    parser.add_argument("--socket", default=None,
                        help="service unix-socket path "
                             "(default REPRO_SERVICE_SOCKET or .cache/service.sock)")
    parser.add_argument("--host", default=None,
                        help="service TCP host (default REPRO_SERVICE_HOST)")
    parser.add_argument("--port", type=int, default=None,
                        help="service TCP port (default REPRO_SERVICE_PORT)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coolair",
        description="CoolAir free-cooled datacenter management (ASPLOS'15 reproduction)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=f"commands:\n{command_table()}\n\n"
               "one-shot campaigns: `matrix`, `world` (docs/EXPERIMENTS.md); "
               "service mode: `serve` + `submit`/`status`/`cancel` "
               "(docs/SERVICE.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("versions", help="print the system matrix")
    sub.add_parser("locations", help="list named locations")
    sub.add_parser("faults", help="list built-in fault scenarios")

    band = sub.add_parser("band", help="show a day's temperature band")
    band.add_argument("--location", default="Newark")
    band.add_argument("--day", type=int, default=182)
    band.add_argument("--system", default="All-ND", choices=SYSTEM_CHOICES)

    campaign = sub.add_parser("campaign", help="run the learning campaign")
    campaign.add_argument("--days", type=int, default=10)

    day = sub.add_parser("day", help="simulate one day")
    day.add_argument("--location", default="Newark")
    day.add_argument("--day", type=int, default=182)
    day.add_argument("--system", default="All-ND", choices=SYSTEM_CHOICES)
    day.add_argument("--workload", default="facebook")
    day.add_argument("--abrupt", action="store_true",
                     help="use Parasol's abrupt hardware for CoolAir")
    day.add_argument("--faults", default=None,
                     choices=sorted(BUILTIN_SCENARIOS),
                     help="inject a built-in fault scenario "
                          "(see `coolair faults` and docs/ROBUSTNESS.md)")
    _add_plant_arg(day)

    year = sub.add_parser("year", help="simulate a year")
    year.add_argument("--location", default="Newark")
    year.add_argument("--system", default="All-ND", choices=SYSTEM_CHOICES)
    year.add_argument("--workload", default="facebook")
    year.add_argument("--sample-days", type=int, default=DEFAULT_SAMPLE_DAYS,
                      help="stride between simulated days (7 = paper)")
    year.add_argument("--no-cache", action="store_true",
                      help="bypass the on-disk result cache")
    _add_plant_arg(year)

    matrix = sub.add_parser(
        "matrix", help="the Figures 8-10 systems-by-locations year matrix")
    matrix.add_argument("--systems", default=",".join(FIVE_LOCATION_SYSTEMS),
                        help="comma-separated system names")
    matrix.add_argument("--workload", default="facebook")
    matrix.add_argument("--sample-days", type=int, default=None,
                        help="stride between simulated days (7 = paper)")
    matrix.add_argument("--workers", type=int, default=None,
                        help="worker processes (default REPRO_WORKERS or CPUs)")
    matrix.add_argument("--lanes", type=int, default=None,
                        help="most lanes (cells or cell-days) stepped in "
                             "one lockstep chunk (default REPRO_LANES or 32; "
                             "1 = per-cell runs)")
    matrix.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress on stderr")
    matrix.add_argument("--task-retries", type=int, default=None,
                        help="retries per failing cell "
                             "(default REPRO_TASK_RETRIES or 1)")
    matrix.add_argument("--task-timeout", type=float, default=None,
                        help="seconds to wait for any cell to finish before "
                             "recovering serially (default REPRO_TASK_TIMEOUT_S; "
                             "unset = no timeout)")
    _add_plant_arg(matrix)

    world = sub.add_parser(
        "world", help="the Figures 12/13 worldwide sweep")
    world.add_argument("--locations", type=int, default=DEFAULT_WORLD_LOCATIONS,
                       help="world-grid size (1520 = paper)")
    world.add_argument("--grid-points", type=int, default=None,
                       help="world-grid size for planetary-scale sweeps "
                            "(preferred spelling; overrides --locations, "
                            "100000+ supported with --screen=on)")
    world.add_argument("--screen", default=None, choices=["off", "on"],
                       help="screening pipeline: simulate only climate-"
                            "cluster representatives and surrogate-uncertain "
                            "cells, serve the rest with provenance tags "
                            "(default REPRO_SCREEN or off; "
                            "docs/PERFORMANCE.md)")
    world.add_argument("--map", action="store_true",
                       help="also print a terminal-sized ASCII world map "
                            "(dense grids downsample to the raster)")
    world.add_argument("--map-metric", default="range",
                       choices=["range", "pue", "wue"],
                       help="what the map glyphs encode (default range)")
    world.add_argument("--workers", type=int, default=None,
                       help="worker processes (default REPRO_WORKERS or CPUs)")
    world.add_argument("--lanes", type=int, default=None,
                       help="most lanes (cells or cell-days) stepped in "
                            "one lockstep chunk (default REPRO_LANES or 32; "
                            "1 = per-cell runs)")
    world.add_argument("--quiet", action="store_true",
                       help="suppress per-cell progress on stderr")
    world.add_argument("--task-retries", type=int, default=None,
                       help="retries per failing cell "
                            "(default REPRO_TASK_RETRIES or 1)")
    world.add_argument("--task-timeout", type=float, default=None,
                       help="seconds to wait for any cell to finish before "
                            "recovering serially (default REPRO_TASK_TIMEOUT_S; "
                            "unset = no timeout)")
    _add_plant_arg(world)

    bench = sub.add_parser(
        "bench", help="time the simulation core (see docs/PERFORMANCE.md)")
    bench.add_argument("--quick", action="store_true",
                       help="smoke mode: tiny iteration counts, no year sample")
    bench.add_argument("--profile", action="store_true",
                       help="also cProfile a day simulation and print the "
                            "top functions by cumulative time")
    bench.add_argument("--profile-top", type=int, default=25,
                       help="rows of the cProfile table to print")
    bench.add_argument("--output", default="BENCH_sim_core.json",
                       help="where to write the machine-readable report")
    bench.add_argument("--baseline", default=None,
                       help="recorded baseline JSON to compare against "
                            "(default benchmarks/perf/baseline_sim_core.json)")
    bench.add_argument("--label", default="",
                       help="free-form label recorded with this run in "
                            "benchmarks/perf/history.jsonl")
    bench.add_argument("--no-history", action="store_true",
                       help="skip appending this run to the perf history")
    bench.add_argument("--check", action="store_true",
                       help="exit 3 if any tracked metric regressed more "
                            "than --check-threshold vs the recorded baseline")
    bench.add_argument("--check-threshold", type=float, default=0.25,
                       help="fractional regression allowed before --check "
                            "fails (0.25 = 25%%)")

    serve = sub.add_parser(
        "serve", help="run the campaign control-plane service "
                      "(see docs/SERVICE.md)")
    serve.add_argument("--socket", default=None,
                       help="unix-socket path to listen on "
                            "(default REPRO_SERVICE_SOCKET or .cache/service.sock)")
    serve.add_argument("--host", default=None,
                       help="listen on TCP at this host instead of the "
                            "unix socket (default REPRO_SERVICE_HOST)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (default REPRO_SERVICE_PORT; 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker processes (default REPRO_WORKERS or CPUs)")
    serve.add_argument("--max-inflight", type=int, default=None,
                       help="cells occupying pool slots at once "
                            "(default REPRO_SERVICE_MAX_INFLIGHT or the "
                            "worker count)")
    serve.add_argument("--max-jobs", type=int, default=None,
                       help="queued+running jobs before submissions are "
                            "refused (default REPRO_SERVICE_MAX_JOBS or 64)")
    serve.add_argument("--task-retries", type=int, default=None,
                       help="retries per failing cell "
                            "(default REPRO_TASK_RETRIES or 1)")
    serve.add_argument("--task-timeout", type=float, default=None,
                       help="seconds to wait for any cell before the pool "
                            "is recycled (default REPRO_TASK_TIMEOUT_S; "
                            "unset = no timeout)")

    submit = sub.add_parser(
        "submit", help="submit a campaign to the service")
    submit.add_argument("kind", choices=["matrix", "world", "faults"],
                        help="sweep shape: the matrix/world one-shot "
                             "campaigns, or a fault-scenario sweep")
    submit.add_argument("--systems", default=",".join(FIVE_LOCATION_SYSTEMS),
                        help="matrix: comma-separated system names")
    submit.add_argument("--workload", default="facebook",
                        help="matrix/faults: facebook or nutch")
    submit.add_argument("--sample-days", type=int, default=None,
                        help="stride between simulated days (7 = paper)")
    submit.add_argument("--locations", type=int,
                        default=DEFAULT_WORLD_LOCATIONS,
                        help="world: grid size (1520 = paper)")
    submit.add_argument("--grid-points", type=int, default=None,
                        help="world: grid size (preferred spelling; "
                             "overrides --locations)")
    submit.add_argument("--screen", default=None, choices=["off", "on"],
                        help="world: run the screening pipeline instead of "
                             "the exhaustive sweep (docs/PERFORMANCE.md)")
    submit.add_argument("--coolair-system", default="All-ND",
                        choices=[s for s in SYSTEM_CHOICES if s != "baseline"],
                        help="world: the CoolAir system compared to the "
                             "baseline at every location")
    submit.add_argument("--system", default="All-ND",
                        choices=SYSTEM_CHOICES,
                        help="faults: the system to run under each scenario")
    submit.add_argument("--location", default="Newark",
                        help="faults: where to run the scenarios")
    submit.add_argument("--scenarios", default=None,
                        help="faults: comma-separated scenario names "
                             "(default: all built-ins; see `coolair faults`)")
    submit.add_argument("--priority", type=int, default=0,
                        help="scheduling priority; higher runs first "
                             "(default 0)")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and return instead of "
                             "streaming progress (poll with `status`)")
    submit.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress on stderr")
    submit.add_argument("--json", action="store_true",
                        help="print the raw result payload instead of tables")
    _add_plant_arg(submit)
    _add_endpoint_args(submit)

    status = sub.add_parser(
        "status", help="list service jobs, or show one job")
    status.add_argument("job_id", nargs="?", default=None,
                        help="a job id from `submit`; omit to list all jobs")
    status.add_argument("--result", action="store_true",
                        help="also fetch and render the job's result "
                             "(completed jobs only)")
    status.add_argument("--json", action="store_true",
                        help="print the raw result payload instead of tables")
    _add_endpoint_args(status)

    cancel = sub.add_parser("cancel", help="cancel a submitted job")
    cancel.add_argument("job_id", help="a job id from `submit`")
    _add_endpoint_args(cancel)
    return parser


COMMANDS = {
    "versions": cmd_versions,
    "locations": cmd_locations,
    "faults": cmd_faults,
    "band": cmd_band,
    "campaign": cmd_campaign,
    "day": cmd_day,
    "year": cmd_year,
    "matrix": cmd_matrix,
    "world": cmd_world,
    "bench": cmd_bench,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "cancel": cmd_cancel,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
