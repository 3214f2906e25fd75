"""Outside-in layer tracing for the campaign benchmark's traced run.

:func:`install` wraps the public calls of each layer of the program (the
``HOOKS`` table) in spans recorded from this file; nothing under ``src/``
changes.  It must run before the campaign's process pool forks, so the
workers inherit the wrapped names.  A span records its name, start, end,
parent span and the cell it worked for; a layer's time is the self time
of its spans (duration minus the time their child spans cover).

Rules the hooks follow:

* A module-level function is replaced wherever a ``repro`` module binds
  it, because callers such as ``sim.lanes`` bind names like
  ``tmy_series`` or ``wet_bulb_c_array`` at import.  A method is replaced
  on its class and on every subclass that overrides it.
* A hooked name that no longer exists is listed in ``missing`` instead of
  raising, so the benchmark survives refactors that delete or fuse calls.
* While a model is being trained (an ``ml`` span is open) other layers'
  hooks pass through: the learning campaign's simulation is ``ml`` time.
* Pool workers leave through ``os._exit``, so each worker entry point
  flushes its spans to ``DIR/spans-<pid>.pkl`` when it returns.

:func:`summarize` folds one traced interpreter's span files (its pool
workers' included) into sums; :func:`layer_metrics` turns a traced
set-up plus a traced campaign into the per-layer metrics listed in
``BENCHMARK.json``.
"""

from __future__ import annotations

import fnmatch
import functools
import glob
import importlib
import inspect
import os
import pickle
import sys
from time import perf_counter

# (self-time metric, "module:target", counter).  A target is a function
# name, "Class.method", or a glob over a module's public functions.
HOOKS = (
    ("weather.load_s", "repro.artifacts:tmy_series", "weather.loads"),
    ("weather.load_s", "repro.weather.tmy:generate_tmy", "weather.built"),
    ("weather.grid_s", "repro.weather.tmy:TMYSeries.sampled", None),
    ("weather.grid_s", "repro.weather.tmy:LaneWeather.day_grid", None),
    ("weather.forecast_s",
     "repro.weather.forecast:ForecastService.forecast_for_day", None),
    ("workload.trace_s", "repro.analysis.experiments:facebook_trace", None),
    ("workload.profile_s", "repro.workload.profile:build_demand_profile",
     None),
    ("workload.step_s", "repro.sim.engine:ProfileWorkload.step",
     "workload.steps"),
    ("ml.model_s", "repro.sim.campaign:trained_cooling_model", None),
    ("ml.campaign_s", "repro.sim.campaign:run_learning_campaign", None),
    ("ml.learn_s", "repro.core.modeler:CoolingLearner.learn",
     "ml.models_built"),
    ("core.predict_s",
     "repro.core.predictor:CoolingPredictor.predict_lanes_stacked",
     "rollouts_stacked"),
    ("core.predict_s", "repro.core.predictor:CoolingPredictor.predict_batch",
     "rollouts_batch"),
    ("core.select_s",
     "repro.core.optimizer:CoolingOptimizer.decide_from_stacked",
     "core.decisions"),
    ("core.select_s", "repro.core.optimizer:CoolingOptimizer.decide",
     "core.decisions"),
    ("core.score_s", "repro.core.utility:UtilityFunction.score_arrays", None),
    ("core.placement_s", "repro.core.coolair:CoolAir.plan_compute", None),
    ("core.band_s", "repro.core.coolair:CoolAir.start_day", None),
    ("cooling.tks_s", "repro.cooling.baseline:LaneBaselineController.decide",
     "lane_tks"),
    ("cooling.tks_s", "repro.cooling.baseline:BaselineController.decide",
     "cooling.tks_decisions"),
    ("cooling.apply_s", "repro.cooling.units:CoolingUnits.apply", None),
    ("cooling.resources_s", "repro.cooling.units:CoolingUnits.step_resources",
     None),
    ("cooling.resources_s",
     "repro.cooling.backends:LaneCoolingUnits.step_resources", None),
    ("physics.step_s", "repro.physics.thermal:LaneThermalPlant.step_outside",
     "lane_steps"),
    ("physics.step_s", "repro.physics.thermal:ThermalPlant.step",
     "physics.lane_steps"),
    ("physics.inputs_s", "repro.physics.thermal:LaneThermalPlant.set_inputs",
     None),
    ("physics.psychro_s", "repro.physics.psychrometrics:*_array", None),
    ("sim.self_s", "repro.sim.lanes:LaneRunner.__init__", None),
    ("sim.self_s", "repro.sim.lanes:LaneRunner.run_day", "lane_days"),
    ("sim.self_s", "repro.sim.engine:DayRunner.run_day", "sim.scalar_days"),
    ("sim.self_s", "repro.sim.lanes:LaneRunner.run_year", None),
    ("sim.self_s", "repro.sim.yearsim:run_year", None),
    ("sim.fold_s", "repro.sim.trace:*_from", None),
    ("cache.get_s", "repro.analysis.experiments:load_cached", "cache_get"),
    ("cache.put_s", "repro.analysis.experiments:store_result", "cache_put"),
    ("runner.glue_s", "repro.analysis.runner:_execute_task_payload", "entry"),
    ("runner.glue_s", "repro.analysis.runner:_execute_lane_chunk_payload",
     "entry"),
    ("runner.glue_s", "repro.analysis.runner:_execute_day_chunk_payload",
     "entry"),
    ("runner.glue_s", "repro.analysis.experiments:year_result", "serial"),
    ("runner.glue_s", "repro.analysis.runner:_run_lane_chunk", "serial"),
    ("runner.wait_s", "repro.analysis.runner:wait", "local"),
    ("runner.pool_start_s", "repro.analysis.runner:ProcessPoolExecutor",
     "pool"),
)

# Spans whose whole duration (not self time) is also reported.
INCLUSIVE = {
    "LaneRunner.run_day": "sim.day_s",
    "DayRunner.run_day": "sim.day_s",
}
ENTRY_METRIC = "runner.worker_busy_s"
POOL_SPANS = {
    "ProcessPoolExecutor.__init__": "runner.pool_start_s",
    "ProcessPoolExecutor.submit.first": "runner.pool_start_s",
    "ProcessPoolExecutor.submit": "runner.dispatch_s",
    "ProcessPoolExecutor.shutdown": "runner.pool_stop_s",
}

# Every self-time metric: together with trace.unattributed_s they add up
# to trace.wall_s.
SELF_METRICS = tuple(
    dict.fromkeys(
        [metric for metric, _, _ in HOOKS if metric != "runner.pool_start_s"]
        + list(POOL_SPANS.values())
    )
)
COUNT_METRICS = (
    "weather.loads", "weather.built", "workload.steps", "ml.models_built",
    "core.decisions", "core.rollouts", "cooling.tks_decisions",
    "physics.lane_steps", "sim.lane_days", "sim.scalar_days",
    "cache.gets", "cache.hits", "cache.puts", "cache.put_bytes",
    "runner.submits", "runner.serial_cells",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _work_items(work):
    """Cells in one worker submission: a task, a chunk or (task, day) items."""
    return len(work) if isinstance(work, (list, tuple)) else 1


def _describe(work):
    items = work if isinstance(work, (list, tuple)) else [work]
    labels = []
    for item in items:
        if isinstance(item, tuple):
            task, day = item
            labels.append(f"{task.label()} day {day}")
        else:
            labels.append(item.label())
    return " | ".join(labels)


class Tracer:
    """Span buffer and counters of one process (forked workers adopt it)."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.counts = {}
        self.cell = None
        self.opaque = 0
        self.names = {}
        self.missing = []
        self.degraded = set()

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def adopt_process(self):
        """In a freshly forked worker, drop what the parent had buffered."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.stack = []
            self.counts = {}
            self.opaque = 0

    def flush(self, **extra):
        record = {
            "pid": self.pid,
            "spans": self.spans,
            "counts": self.counts,
            "missing": self.missing + sorted(self.degraded),
        }
        record.update(extra)
        path = os.path.join(self.out_dir, f"spans-{self.pid}.pkl")
        with open(path, "ab") as handle:
            pickle.dump(record, handle, protocol=pickle.HIGHEST_PROTOCOL)
        self.spans = []
        self.counts = {}

    def finish(self, role, wall_s):
        """Write the interpreter's remaining spans and its traced wall."""
        self.flush(role=role, wall_s=wall_s, names=self.names)

    def timed(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside one span named ``name``."""
        sid = self.next_id
        self.next_id = sid + 1
        stack = self.stack
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.cell))


# -- counters -------------------------------------------------------------------


def _counter(tr, kind):
    """The post-call hook that turns a span's call into counts."""
    if kind is None:
        return None
    if "." in kind:
        return lambda args, kwargs, result: tr.add(kind)
    if kind == "rollouts_stacked":
        return lambda args, kwargs, result: tr.add(
            "core.rollouts",
            sum(len(c) for c in _arg(args, kwargs, 2, "commands_per_lane")),
        )
    if kind == "rollouts_batch":
        return lambda args, kwargs, result: tr.add(
            "core.rollouts", len(_arg(args, kwargs, 2, "commands"))
        )
    if kind == "lane_tks":
        return lambda args, kwargs, result: tr.add(
            "cooling.tks_decisions", len(result[0])
        )
    if kind == "lane_steps":
        return lambda args, kwargs, result: tr.add(
            "physics.lane_steps", len(args[1])
        )
    if kind == "lane_days":

        def lane_days(args, kwargs, result):
            tr.add("sim.lane_days", args[0].num_lanes)
            tr.add("sim.lane_day_calls")

        return lane_days
    if kind == "cache_get":

        def cache_get(args, kwargs, result):
            tr.add("cache.gets")
            if result is not None:
                tr.add("cache.hits")

        return cache_get
    if kind == "cache_put":

        def cache_put(args, kwargs, result):
            if _arg(args, kwargs, 2, "use_disk_cache", True):
                experiments = sys.modules["repro.analysis.experiments"]
                tr.add("cache.puts")
                tr.add(
                    "cache.put_bytes",
                    os.path.getsize(experiments.cache_path(args[0])),
                )

        return cache_put
    if kind == "serial":

        def serial(args, kwargs, result):
            if os.getpid() == tr.root_pid:
                tr.add("runner.serial_cells", _work_items(args[0]))

        return serial
    raise ValueError(f"unknown counter {kind!r}")


# -- wrappers -------------------------------------------------------------------


def _span(tr, fn, name, layer, count):
    ml = layer == "ml"

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        if tr.opaque and not ml:
            return fn(*args, **kwargs)
        if ml:
            tr.opaque += 1
        try:
            result = tr.timed(name, fn, *args, **kwargs)
        finally:
            if ml:
                tr.opaque -= 1
        if count is not None:
            try:
                count(args, kwargs, result)
            except Exception:  # noqa: BLE001 - a changed signature degrades
                tr.degraded.add(name)
        return result

    return hooked


def _entry(tr, fn, name):
    """A pool worker entry point: adopts the process, flushes on return."""

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        tr.adopt_process()
        try:
            tr.cell = _describe(args[0])
        except Exception:  # noqa: BLE001 - the cell label is best effort
            tr.cell = "?"
        try:
            return tr.timed(name, fn, *args, **kwargs)
        finally:
            tr.cell = None
            tr.flush()

    return hooked


def _pool_class(tr, base):
    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            self._bench_started = False
            tr.timed(
                "ProcessPoolExecutor.__init__",
                super().__init__,
                *args,
                **kwargs,
            )

        def submit(self, fn, /, *args, **kwargs):
            # The first submit forks the workers: pool start, not dispatch.
            name = (
                "ProcessPoolExecutor.submit"
                if self._bench_started
                else "ProcessPoolExecutor.submit.first"
            )
            self._bench_started = True
            future = tr.timed(name, super().submit, fn, *args, **kwargs)
            tr.add("runner.submits")
            tr.add("runner.items", _work_items(args[0]) if args else 0)
            return future

        def shutdown(self, *args, **kwargs):
            return tr.timed(
                "ProcessPoolExecutor.shutdown",
                super().shutdown,
                *args,
                **kwargs,
            )

    TracedPool.__name__ = TracedPool.__qualname__ = base.__name__
    return TracedPool


# -- installation ---------------------------------------------------------------


def _subclasses_defining(cls, method):
    found, stack, seen = [], [cls], set()
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        if method in vars(current):
            found.append(current)
        stack.extend(current.__subclasses__())
    return found


def _rebind(replacements):
    """Swap each original for its wrapper in every repro module binding it."""
    by_id = {id(original): wrapper for original, wrapper in replacements}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def install(out_dir):
    """Wrap every hooked name; returns the process's :class:`Tracer`."""
    tr = Tracer(out_dir)
    replacements = []
    for metric, target, kind in HOOKS:
        module_name, _, attr = target.partition(":")
        layer = metric.split(".")[0]
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            tr.missing.append(target)
            continue
        if kind == "pool" or kind == "local":
            original = getattr(module, attr, None)
            if original is None:
                tr.missing.append(target)
            elif kind == "pool":
                setattr(module, attr, _pool_class(tr, original))
            else:
                setattr(module, attr, _span(tr, original, attr, layer, None))
                tr.names[attr] = metric
            continue
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            owners = (
                _subclasses_defining(cls, method)
                if inspect.isclass(cls)
                else []
            )
            owners = [
                owner
                for owner in owners
                if inspect.isfunction(vars(owner)[method])
            ]
            if not owners:
                tr.missing.append(target)
            for owner in owners:
                name = f"{owner.__name__}.{method}"
                setattr(
                    owner,
                    method,
                    _span(tr, vars(owner)[method], name, layer,
                          _counter(tr, kind)),
                )
                tr.names[name] = metric
            continue
        names = (
            [
                name
                for name, value in vars(module).items()
                if fnmatch.fnmatchcase(name, attr)
                and not name.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module_name
            ]
            if "*" in attr
            else [attr]
        )
        found = False
        for name in names:
            original = getattr(module, name, None)
            if not callable(original):
                continue
            found = True
            if kind == "entry":
                wrapper = _entry(tr, original, name)
            else:
                wrapper = _span(tr, original, name, layer,
                                _counter(tr, kind))
            replacements.append((original, wrapper))
            tr.names[name] = metric
        if not found:
            tr.missing.append(target)
    _rebind(replacements)
    return tr


# -- aggregation ----------------------------------------------------------------


def _records(directory):
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.pkl"))):
        with open(path, "rb") as handle:
            while True:
                try:
                    yield pickle.load(handle)
                except EOFError:
                    break


def summarize(directory):
    """Sums over one traced interpreter and its pool workers.

    ``trace.wall_s`` is the interpreter's traced wall plus each worker's
    busy time (the durations of its entry-point spans); the self-time
    metrics plus ``trace.unattributed_s`` add up to it.
    """
    names, missing, spans_by_pid, counts = {}, set(), {}, {}
    wall = 0.0
    for record in _records(directory):
        spans_by_pid.setdefault(record["pid"], []).extend(record["spans"])
        for key, value in record["counts"].items():
            counts[key] = counts.get(key, 0) + value
        missing.update(record["missing"])
        if "names" in record:
            names.update(record["names"])
            wall += record["wall_s"]
    entry_names = {
        name for name, metric in names.items() if metric == "runner.glue_s"
    } - {"year_result", "_run_lane_chunk"}
    sums = {metric: 0.0 for metric in SELF_METRICS}
    sums["sim.day_s"] = 0.0
    busy = 0.0
    spanned = 0.0
    for spans in spans_by_pid.values():
        covered = {}
        for sid, name, start, end, parent, cell in spans:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        for sid, name, start, end, parent, cell in spans:
            duration = end - start
            self_s = duration - covered.get(sid, 0.0)
            sums[POOL_SPANS.get(name) or names[name]] += self_s
            spanned += self_s
            if name in INCLUSIVE:
                sums[INCLUSIVE[name]] += duration
            if name in entry_names:
                busy += duration
    for key in COUNT_METRICS + ("sim.lane_day_calls", "runner.items"):
        sums[key] = counts.get(key, 0)
    sums[ENTRY_METRIC] = busy
    sums["parent_wall_s"] = wall
    sums["trace.wall_s"] = wall + busy
    sums["trace.unattributed_s"] = wall + busy - spanned
    return {"sums": sums, "missing": missing}


RATIO_METRICS = (
    "sim.lanes_per_batch",
    "runner.cells_per_submit",
    "runner.worker_util",
    "trace.overhead_frac",
)


def unit(metric):
    """The unit BENCHMARK.json lists for a per-layer metric."""
    if metric.endswith("_s"):
        return "s"
    if metric == "cache.put_bytes":
        return "bytes"
    return "ratio" if metric in RATIO_METRICS else "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setup, campaign, workers, overhead_frac):
    """The per-layer metrics of a traced set-up plus a traced campaign."""
    metrics = {
        key: setup["sums"][key] + campaign["sums"][key]
        for key in SELF_METRICS + COUNT_METRICS
        + ("sim.day_s", ENTRY_METRIC, "trace.wall_s", "trace.unattributed_s")
    }
    camp = campaign["sums"]
    metrics["sim.lanes_per_batch"] = _ratio(
        camp["sim.lane_days"], camp["sim.lane_day_calls"]
    )
    metrics["runner.cells_per_submit"] = _ratio(
        camp["runner.items"], camp["runner.submits"]
    )
    metrics["runner.worker_util"] = _ratio(
        camp[ENTRY_METRIC], workers * camp["parent_wall_s"]
    )
    metrics["trace.missing_hooks"] = len(setup["missing"] | campaign["missing"])
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics


def layer_shares(campaign):
    """Each layer's share of the campaign's busy process time.

    The parent's time blocked on its workers (``runner.wait_s``) is idle,
    not work, so it is left out of both the layers and the total.
    """
    sums = campaign["sums"]
    busy = sums["trace.wall_s"] - sums["runner.wait_s"]
    shares = {}
    for metric in SELF_METRICS:
        if metric != "runner.wait_s":
            layer = metric.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + _ratio(sums[metric], busy)
    shares["sim.self_s"] = _ratio(sums["sim.self_s"], busy)
    shares["unattributed"] = _ratio(sums["trace.unattributed_s"], busy)
    return shares
