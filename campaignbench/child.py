"""One fresh interpreter of the campaign benchmark.

``run.py`` starts this script once per set-up and once per campaign
iteration, in a scrubbed environment that points ``REPRO_ARTIFACTS_DIR``
and ``REPRO_CACHE_DIR`` at throwaway directories::

    python3 campaignbench/child.py ROLE PLAN.json OUT.json [--trace DIR]

Roles:

* ``setup`` — imports the program and builds everything the plan's cells
  read into the (empty) artifact store: the workload trace, each distinct
  cooling model and every climate's weather grid.  ``setup_s`` runs from
  the first line of this script to the end of the build.
* ``campaign`` — issues the plan's queries through the campaign entry
  points on a warm store and a cold result cache, and reports wall and
  CPU seconds, peak RSS and every cell's result payload
  (``record_reference.py`` runs it on the scalar reference engine).

With ``--trace DIR`` the layer hooks of ``tracer.py`` are installed before
any work (so forked pool workers inherit them) and spans land in DIR.
Without it nothing beyond the campaign entry points is imported.
"""

import time

T_START = time.perf_counter()

import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def _climate(cell):
    from repro.weather.locations import NAMED_LOCATIONS, world_grid

    if cell["site"] is not None:
        return NAMED_LOCATIONS[cell["site"]]
    return world_grid(workloads.GRID_POINTS)[cell["grid"]]


def _fault_tasks(system, site, scenarios, stride):
    from repro.service.spec import CampaignSpec

    return CampaignSpec(
        kind="faults",
        system=system,
        location=site,
        scenarios=tuple(scenarios),
        sample_every_days=stride,
    ).expand()


def cell_task(cell):
    """The ``YearTask`` the campaign entry points build for ``cell``."""
    from repro.analysis.runner import YearTask

    if cell["fault"] is not None:
        (task,) = _fault_tasks(
            cell["system"], cell["site"], [cell["fault"]], cell["stride"]
        )
        return task
    return YearTask(
        system=cell["system"],
        climate=_climate(cell),
        sample_every_days=cell["stride"],
        plant=cell["plant"],
    )


def payload(result):
    """A result's comparable fields (everything but the optional traces)."""
    return {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if field.name != "traces"
    }


def run_query(query, failures):
    """Issue one query through its entry point; ``[(cell id, result)]``."""
    from repro.analysis import experiments
    from repro.analysis.runner import run_year_tasks

    cells = query["cells"]
    if query["entry"] == "matrix":
        matrix = experiments.five_location_matrix(
            systems=tuple(query["systems"]),
            sample_every_days=query["stride"],
            workers=workloads.WORKERS,
            failures=failures,
        )
        results = [
            matrix.get(cell["system"], {}).get(cell["site"]) for cell in cells
        ]
    elif query["entry"] == "faults":
        tasks = []
        for site in query["sites"]:
            tasks += _fault_tasks(
                query["system"], site, query["scenarios"], query["stride"]
            )
        results = run_year_tasks(
            tasks, workers=workloads.WORKERS, failures=failures
        )
    else:
        results = run_year_tasks(
            [cell_task(cell) for cell in cells],
            workers=workloads.WORKERS,
            failures=failures,
        )
    return [(cell["id"], result) for cell, result in zip(cells, results)]


def setup(plan):
    """Build the trace, each distinct model and every weather grid."""
    from repro import artifacts
    from repro.analysis import experiments
    from repro.sim.campaign import trained_cooling_model

    tasks = [cell_task(cell) for cell in workloads.plan_cells(plan)]
    experiments.facebook_trace()
    gap_sets = []
    for task in tasks:
        if task.system == "baseline":
            continue
        faults = getattr(task.system, "faults", None)
        gaps = tuple(faults.log_gaps) if faults is not None else ()
        if gaps not in gap_sets:
            gap_sets.append(gaps)
    for gaps in gap_sets:
        trained_cooling_model(log_gaps=gaps)
    climates = {}
    for task in tasks:
        climates.setdefault(task.climate.name, task.climate)
    for climate in climates.values():
        artifacts.tmy_series(climate)
    return {"models": len(gap_sets), "climates": len(climates)}


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    )


def _vm_hwm_mb():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv):
    role, plan_path, out_path = argv[:3]
    trace_dir = argv[4] if len(argv) > 4 and argv[3] == "--trace" else None
    with open(plan_path) as handle:
        plan = json.load(handle)

    # The entry points the plan uses, imported before timing starts (only
    # set-up times its imports).
    if role != "setup":
        import repro.analysis.experiments  # noqa: F401
        import repro.analysis.runner  # noqa: F401

        entries = {query["entry"] for query in plan["queries"]}
        if "faults" in entries:
            import repro.service.spec  # noqa: F401
        if "tasks" in entries:
            import repro.weather.locations  # noqa: F401
    tracer = None
    if trace_dir is not None:
        import tracer as tracing

        tracer = tracing.install(trace_dir)

    out = {"python": sys.version.split()[0]}
    if role == "setup":
        traced_from = time.perf_counter()
        out.update(setup(plan))
        end = time.perf_counter()
        out["setup_s"] = end - T_START
        wall = end - traced_from
    else:
        failures = []
        pairs = []
        cpu0 = _cpu_s()
        start = time.perf_counter()
        for query in plan["queries"]:
            pairs += run_query(query, failures)
        wall = time.perf_counter() - start
        out["cpu_s"] = _cpu_s() - cpu0
        out["wall_s"] = wall
        out["peak_rss_mb"] = _vm_hwm_mb()
        # ru_maxrss of reaped children: the largest pool worker's peak.
        out["worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        out["failures"] = [failure.label() for failure in failures]
        out["cells"] = [
            [cell_id, None if result is None else payload(result)]
            for cell_id, result in pairs
        ]
    import numpy

    out["numpy"] = numpy.__version__
    if tracer is not None:
        tracer.finish(role, wall)
    with open(out_path, "w") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
