"""Parallel campaign runner for the experiment harness.

The paper's evaluation is an embarrassingly-parallel sweep: a 5-locations
x N-systems x 2-workloads year matrix (Figures 8-10, Section 5.2) and a
1520-location worldwide grid (Figures 12/13).  Every cell is an
independent deterministic year simulation, so this module fans them out
over a :class:`concurrent.futures.ProcessPoolExecutor`:

* worker count comes from the ``workers`` argument, the ``REPRO_WORKERS``
  environment variable, or ``os.cpu_count()``, in that order;
* ``workers=1`` (or a plan of one unit: a single chunk or cell) runs the
  same plan in-process — no pool, no pickling;
* results come back in task order regardless of completion order, and the
  simulations are deterministic, so serial and parallel runs produce
  identical results;
* cells already present in the memory or disk cache are served in the
  parent without spawning anything, and workers persist fresh results
  through the same atomic, schema-versioned disk cache
  (:mod:`repro.analysis.experiments`), so a re-run is free.

Failure handling (docs/ROBUSTNESS.md):

* every worker exception is wrapped in
  :class:`~repro.errors.TaskExecutionError`, which carries the failing
  (system, climate, workload, bias) cell's label across the process
  boundary;
* failed cells are retried with exponential backoff — ``task_retries``
  / ``REPRO_TASK_RETRIES`` attempts (default 1 retry) — and a failed
  lane chunk is re-run cell by cell so one bad lane cannot poison its
  chunk-mates;
* a crashed worker (``BrokenProcessPool``) or a pool that makes no
  progress for ``task_timeout_s`` / ``REPRO_TASK_TIMEOUT_S`` seconds
  abandons the pool and re-runs only the unfinished cells serially in
  the parent, checking the cache first so a cell the dead worker already
  persisted is never recomputed or re-written;
* with a ``failures`` list the run completes and reports failed cells
  (:class:`TaskFailure`) instead of dying on the first one.

Workers return the JSON cache payload rather than the live
:class:`YearResult` so the parallel path goes through exactly the same
serialization as a disk-cache hit.

Public contract (the campaign service, :mod:`repro.service`, builds on
exactly these guarantees — keep them):

* **Pool-safe worker entry points.**  :func:`_execute_task_payload`,
  :func:`_execute_lane_chunk_payload`, and
  :func:`_execute_day_chunk_payload` are the only functions shipped to
  worker processes.  They take plain picklable data (:class:`YearTask`),
  return plain JSON payloads, read every ``REPRO_*`` artifact/cache knob
  from the environment per call, and persist results through the atomic
  disk cache — so any number of pools, in any number of parent
  processes, may run them concurrently against the same cache directory.
  (Day chunks are the one exception to worker-side persistence: they
  return per-day fragments, and the parent folding them into a whole
  cell is the writer.)  Each pool's initializer,
  :func:`_spread_worker`, only places its worker on a CPU.
* **Pool lifetime is the caller's.**  :class:`WorkerPool` owns a
  persistent ``ProcessPoolExecutor`` that survives across
  :func:`run_year_tasks` calls (pass it as ``pool=``); without one the
  function creates and tears down a private pool per call, as before.
  A broken shared pool is reset (old processes discarded, a fresh
  executor created lazily), never left poisoned.
* **Env knobs read per call** (safe to change between calls in one
  process): ``REPRO_WORKERS``, ``REPRO_TASK_RETRIES``,
  ``REPRO_TASK_TIMEOUT_S``, ``REPRO_MP_CONTEXT``, and — inside workers —
  the artifact-store knobs (``REPRO_ARTIFACTS``, ``REPRO_ARTIFACTS_DIR``,
  ``REPRO_CACHE_DIR``).  ``REPRO_LANES`` / ``REPRO_SIM_ENGINE`` /
  ``REPRO_SAMPLE_DAYS`` are read at import of
  :mod:`repro.analysis.experiments` and are fixed per process.
* **Warm state is optional.**  :func:`_warm_shared_state` only moves
  work earlier (train/generate once, persist to the artifact store);
  skipping it costs time in the first worker to need each artifact,
  never correctness.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import CoolAirConfig
from repro.errors import ReproError, TaskExecutionError
from repro.sim.yearsim import YearResult, sampled_days
from repro.weather.climate import Climate

logger = logging.getLogger("repro.analysis.runner")

# Called after each finished cell with (done_count, total, task).
ProgressCallback = Callable[[int, int, "YearTask"], None]

# Streaming consumer: called with (task_index, task, result) as each cell
# completes, before (and regardless of whether) the result is retained.
ConsumeCallback = Callable[[int, "YearTask", "YearResult"], None]

# First-retry backoff; doubles per subsequent retry of the same cell.
RETRY_BACKOFF_S = 0.5


@dataclasses.dataclass(frozen=True)
class YearTask:
    """One (system, location, workload) cell of a campaign.

    Mirrors :func:`repro.analysis.experiments.year_result`'s signature and
    must stay picklable (plain data only) so it can cross to workers.
    """

    system: Union[str, CoolAirConfig]
    climate: Climate
    workload: str = "facebook"
    deferrable: bool = False
    sample_every_days: Optional[int] = None
    forecast_bias_c: float = 0.0
    # Cooling plant backend (see repro.cooling.backends); non-parasol
    # plants carry their own cache keys and ride the lane engine through
    # their lane-vectorized units.
    plant: str = "parasol"

    def label(self) -> str:
        name = self.system if isinstance(self.system, str) else self.system.name
        return (
            f"{name} @ {self.climate.name} ({self.workload}"
            f"{', deferrable' if self.deferrable else ''}"
            f"{f', bias {self.forecast_bias_c:+.1f}C' if self.forecast_bias_c else ''}"
            f"{f', plant {self.plant}' if self.plant != 'parasol' else ''})"
        )


@dataclasses.dataclass
class TaskFailure:
    """One cell that exhausted its retries; collected via ``failures``."""

    task: YearTask
    error: str
    attempts: int

    def label(self) -> str:
        return self.task.label()


def resolve_workers(requested: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_WORKERS`` > CPU count."""
    if requested is None:
        env = os.environ.get("REPRO_WORKERS")
        if env is not None:
            try:
                requested = int(env)
            except ValueError:
                raise ReproError(
                    f"REPRO_WORKERS must be a positive integer, got {env!r}"
                )
        else:
            requested = os.cpu_count() or 1
    if requested < 1:
        raise ReproError(f"worker count must be >= 1, got {requested}")
    return requested


def resolve_lanes(requested: Optional[int] = None) -> int:
    """Lanes per lockstep batch: explicit argument > ``REPRO_LANES``."""
    from repro.analysis import experiments

    if requested is None:
        requested = experiments.DEFAULT_LANES
    if requested < 1:
        raise ReproError(f"lane count must be >= 1, got {requested}")
    return requested


def resolve_mp_context(requested: Optional[str] = None) -> Optional[str]:
    """Pool start method: argument > ``REPRO_MP_CONTEXT`` > platform default.

    ``fork`` workers inherit the parent's warmed traces/models as shared
    pages; ``spawn`` workers start from fresh interpreters and rebuild
    their state from the artifact store (:mod:`repro.artifacts`) instead
    — which is exactly what the data-plane benchmark measures.  ``None``
    keeps the platform default.
    """
    if requested is None:
        requested = os.environ.get("REPRO_MP_CONTEXT") or None
    if requested is None:
        return None
    valid = multiprocessing.get_all_start_methods()
    if requested not in valid:
        raise ReproError(
            f"mp context must be one of {valid}, got {requested!r}"
        )
    return requested


def resolve_task_retries(requested: Optional[int] = None) -> int:
    """Retries per failing cell: argument > ``REPRO_TASK_RETRIES`` > 1."""
    if requested is None:
        env = os.environ.get("REPRO_TASK_RETRIES")
        if env is not None:
            try:
                requested = int(env)
            except ValueError:
                raise ReproError(
                    f"REPRO_TASK_RETRIES must be an integer, got {env!r}"
                )
        else:
            requested = 1
    if requested < 0:
        raise ReproError(f"task retries must be >= 0, got {requested}")
    return requested


def resolve_task_timeout(requested: Optional[float] = None) -> Optional[float]:
    """Progress timeout in seconds: argument > ``REPRO_TASK_TIMEOUT_S``.

    ``None`` (the default) or a non-positive value disables the timeout.
    The timeout bounds the wait for *any* cell to complete, so a hung
    worker cannot stall a campaign forever.
    """
    if requested is None:
        env = os.environ.get("REPRO_TASK_TIMEOUT_S")
        if env is not None:
            try:
                requested = float(env)
            except ValueError:
                raise ReproError(
                    f"REPRO_TASK_TIMEOUT_S must be a number, got {env!r}"
                )
    if requested is not None and requested <= 0:
        return None
    return requested


def _spread_worker(started) -> None:
    """Pool initializer: start each worker on a CPU of its own.

    A forked worker starts on its parent's CPU, and the scheduler may
    leave fresh workers sharing it for a long while: on a 2-vCPU Linux VM
    two workers forked together ran on one CPU for up to ~1 s, each
    getting half of it, which is the whole of a short pooled campaign.
    Each worker takes the next slot of ``started`` (a shared counter),
    moves to that allowed CPU, and gets its full affinity back at once,
    so the scheduler stays free to balance from there.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    with started.get_lock():
        slot = started.value
        started.value += 1
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    try:
        os.sched_setaffinity(0, {cpus[slot % len(cpus)]})
    except OSError:
        return
    os.sched_setaffinity(0, allowed)


def _new_executor(workers: int, ctx_name: Optional[str]) -> ProcessPoolExecutor:
    """A process pool of ``workers`` spread over the usable CPUs."""
    context = multiprocessing.get_context(ctx_name)
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_spread_worker,
        initargs=(context.Value("i", 0),),
    )


class WorkerPool:
    """A process pool whose lifetime outlives a single campaign call.

    ``run_year_tasks`` historically created and destroyed one
    ``ProcessPoolExecutor`` per invocation — fine for a one-shot CLI
    command, wasteful for a long-running service that runs many
    campaigns against the same workers.  A ``WorkerPool`` decouples the
    two: create it once, pass it to any number of ``run_year_tasks``
    calls (``pool=``) or submit the module's worker entry points to it
    directly (the campaign service does), and shut it down when the
    owning process exits.

    The underlying executor is created lazily on first use and recreated
    lazily after :meth:`reset`, so a crashed or hung worker generation
    never poisons the pool object itself.  Thread-safety: creation and
    reset are lock-guarded; ``submit`` may be called from any thread
    (``ProcessPoolExecutor.submit`` is itself thread-safe).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self._ctx_name = resolve_mp_context(mp_context)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._generation = 0

    @property
    def generation(self) -> int:
        """Bumped on every :meth:`reset`; lets callers detect restarts."""
        return self._generation

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, created on demand."""
        with self._lock:
            if self._executor is None:
                self._executor = _new_executor(self.workers, self._ctx_name)
            return self._executor

    def submit(self, fn, /, *args, **kwargs):
        """Submit work; raises ``BrokenProcessPool`` if the pool just died."""
        return self.executor().submit(fn, *args, **kwargs)

    def reset(self) -> None:
        """Discard a broken/hung worker generation without waiting on it.

        Outstanding futures are cancelled where possible; already-running
        cells in dead workers surface ``BrokenProcessPool`` to their
        waiters, who re-check the cache and resubmit.  The next
        :meth:`submit` starts a fresh executor.
        """
        with self._lock:
            executor, self._executor = self._executor, None
            self._generation += 1
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _wrap_error(label: str, err: BaseException) -> TaskExecutionError:
    if isinstance(err, TaskExecutionError):
        return err
    return TaskExecutionError(label, f"{type(err).__name__}: {err}")


def _run_task(
    task: YearTask,
    use_disk_cache: bool = True,
    lanes: Optional[int] = None,
    cache_memory: bool = True,
) -> YearResult:
    from repro.analysis import experiments

    return experiments.year_result(
        task.system,
        task.climate,
        workload=task.workload,
        deferrable=task.deferrable,
        sample_every_days=task.sample_every_days,
        forecast_bias_c=task.forecast_bias_c,
        use_disk_cache=use_disk_cache,
        lanes=lanes,
        plant=task.plant,
        cache_memory=cache_memory,
    )


def _execute_task_payload(
    task: YearTask, use_disk_cache: bool, lanes: Optional[int] = None
) -> dict:
    """Worker entry point: run one cell, return its JSON payload.

    ``lanes`` is the run's lane width (default ``REPRO_LANES``), which
    ``experiments.year_result`` unfolds an eligible cell's days to.  Any
    exception is re-raised as a :class:`TaskExecutionError` carrying the
    cell's identity, so the parent never sees an anonymous traceback.
    """
    from repro.analysis import experiments

    try:
        result = _run_task(task, use_disk_cache, lanes)
    except Exception as err:
        raise _wrap_error(task.label(), err) from err
    return experiments._result_to_json(result)


def _run_lane_chunk(
    chunk: Sequence[YearTask], use_disk_cache: bool, cache_memory: bool = True
) -> List[YearResult]:
    """Run a chunk of cells as one lockstep lane batch.

    All tasks in a chunk must share the same day-sampling stride
    (:func:`run_year_tasks` groups cells by it).  Systems, climates,
    workloads, forecast biases, plants, fault schedules and cooling
    models mix freely across lanes: the lane engine loads each lane's
    model and makes one stacked rollout per distinct model and control
    period.  Each lane's result is bit-identical to its scalar run and is
    stored under its own cache key (in memory too unless
    ``cache_memory=False``).
    """
    from repro.analysis import experiments
    from repro.sim.lanes import LaneScenario, run_year_lanes

    sample = chunk[0].sample_every_days or experiments.DEFAULT_SAMPLE_DAYS
    scenarios = []
    for task in chunk:
        system, _ = experiments._resolve_system(task.system)
        trace = (
            experiments.facebook_trace(task.deferrable)
            if task.workload == "facebook"
            else experiments.nutch_trace(task.deferrable)
        )
        scenarios.append(
            LaneScenario(
                system=system,
                climate=task.climate,
                trace=trace,
                forecast_bias_c=task.forecast_bias_c,
                plant=task.plant,
            )
        )
    results = run_year_lanes(scenarios, sample_every_days=sample)
    for task, result in zip(chunk, results):
        key = experiments.cache_key(
            task.system,
            task.climate,
            task.workload,
            task.deferrable,
            task.sample_every_days,
            task.forecast_bias_c,
            "lanes",
            plant=task.plant,
        )
        experiments.store_result(key, result, use_disk_cache, cache_memory)
    return results


def _execute_lane_chunk_payload(
    chunk: Sequence[YearTask], use_disk_cache: bool
) -> List[dict]:
    """Worker entry point: run a lane chunk, return JSON payloads."""
    from repro.analysis import experiments

    try:
        results = _run_lane_chunk(chunk, use_disk_cache)
    except Exception as err:
        labels = "; ".join(task.label() for task in chunk)
        raise _wrap_error(f"lane chunk [{labels}]", err) from err
    return [experiments._result_to_json(result) for result in results]


# The scalar reference's violation threshold (``run_year``'s default);
# day-chunk workers compute per-day violations at it so temperature
# arrays never cross the process boundary.
_VIOLATION_THRESHOLD_C = 30.0


def _run_day_chunk(
    items: Sequence[Tuple[YearTask, int]], use_disk_cache: bool
) -> List[dict]:
    """Run a chunk of ``(cell, day)`` work items as one lockstep batch.

    Each item occupies one lane: its cell's scenario replicated at that
    item's sampled day.  Items may mix cells (and strides) freely — every
    lane carries its own day — and sibling items of one cell share the
    cell's trace and trained model, so the lane-combo plan cache hits
    across them.  Returns one compact per-day metrics dict per item; the
    parent folds them back into :class:`YearResult`s in day order
    (``use_disk_cache`` is unused here — only whole cells are cached, by
    the parent, after the fold).
    """
    from repro.analysis import experiments
    from repro.sim.lanes import LaneRunner, LaneScenario
    from repro.sim.trace import avg_violation_from

    scenarios = []
    days = []
    for task, day in items:
        system, _ = experiments._resolve_system(task.system)
        trace = (
            experiments.facebook_trace(task.deferrable)
            if task.workload == "facebook"
            else experiments.nutch_trace(task.deferrable)
        )
        scenarios.append(
            LaneScenario(
                system=system,
                climate=task.climate,
                trace=trace,
                forecast_bias_c=task.forecast_bias_c,
                plant=task.plant,
            )
        )
        days.append(int(day))
    runner = LaneRunner(scenarios)
    metrics, _ = runner.run_day(days)
    return [
        {
            "worst_range_c": day_metrics["worst_range_c"],
            "outside_range_c": day_metrics["outside_range_c"],
            "avg_violation_c": avg_violation_from(
                day_metrics["temps"], _VIOLATION_THRESHOLD_C
            ),
            "max_rate_c_per_hour": day_metrics["max_rate_c_per_hour"],
            "cooling_kwh": day_metrics["cooling_kwh"],
            "it_kwh": day_metrics["it_kwh"],
            "water_l": day_metrics["water_l"],
            "tower_mech_hours": day_metrics["tower_mech_hours"],
            "chiller_mech_hours": day_metrics["chiller_mech_hours"],
            "degraded_fraction": day_metrics["degraded_fraction"],
        }
        for day_metrics in metrics
    ]


def _execute_day_chunk_payload(
    items: Sequence[Tuple[YearTask, int]], use_disk_cache: bool
) -> List[dict]:
    """Worker entry point: run a ``(cell, day)`` chunk, return day dicts."""
    try:
        return _run_day_chunk(items, use_disk_cache)
    except Exception as err:
        labels = "; ".join(
            f"{task.label()} day {day}" for task, day in items
        )
        raise _wrap_error(f"day chunk [{labels}]", err) from err


def _fold_days(
    task: YearTask, days: Sequence[int], payloads: Sequence[dict]
) -> YearResult:
    """Fold one unfolded cell's per-day payloads, in day order.

    Appends and energy accumulation visit the days in sampled order —
    the same float additions in the same order as the scalar
    ``run_year`` — so the folded result is bit-identical to the
    day-sequential cell.
    """
    from repro.analysis import experiments

    system, _ = experiments._resolve_system(task.system)
    result = YearResult(
        label="Baseline" if isinstance(system, str) else system.name,
        climate_name=task.climate.name,
        sampled_days=list(days),
        daily_worst_range_c=[p["worst_range_c"] for p in payloads],
        daily_outside_range_c=[p["outside_range_c"] for p in payloads],
        daily_avg_violation_c=[p["avg_violation_c"] for p in payloads],
        daily_max_rate_c_per_hour=[
            p["max_rate_c_per_hour"] for p in payloads
        ],
        cooling_kwh=0.0,
        it_kwh=0.0,
        daily_degraded_fraction=[p["degraded_fraction"] for p in payloads],
    )
    for payload in payloads:
        result.cooling_kwh += payload["cooling_kwh"]
        result.it_kwh += payload["it_kwh"]
        result.water_l += payload.get("water_l", 0.0)
        result.tower_mech_hours += payload.get("tower_mech_hours", 0.0)
        result.chiller_mech_hours += payload.get("chiller_mech_hours", 0.0)
    return result


def _chunk_count(units: int, workers: int, lanes: int) -> int:
    """Chunks for ``units`` lanes of work: as few as fit ``lanes`` each,
    rounded up to a multiple of ``workers`` so every worker gets a chunk
    per pass, and never more chunks than units."""
    chunks = -(-units // lanes)
    return min(units, -(-chunks // workers) * workers)


def _chunked(units: list, workers: int, lanes: int) -> List[list]:
    """Contiguous chunks whose sizes differ by at most one.

    A plain ``lanes``-sized cut leaves a short tail (8, 8, 8, 1), which
    costs a whole pass for one lane; balanced chunks spread it instead.
    """
    count = _chunk_count(len(units), workers, lanes)
    size, extra = divmod(len(units), count)
    chunks, start = [], 0
    for position in range(count):
        stop = start + size + (position < extra)
        chunks.append(units[start:stop])
        start = stop
    return chunks


def _passes(units: int, workers: int, lanes: int) -> int:
    """Lockstep chunks per worker for ``units`` lanes of work."""
    return -(-_chunk_count(units, workers, lanes) // workers)


def unfold_pays(cells: int, days: int, workers: int, lanes: int) -> bool:
    """Whether a lane group's ``cells`` unfold-eligible cells, of ``days``
    sampled days each, should run as ``(cell, day)`` lanes.

    Whole cells take ``days`` passes per chunk, unfolded ones one.  They
    unfold exactly when the cells cannot fill the workers' lanes and
    unfolding leaves fewer lockstep passes per worker.  A tie keeps whole
    cells: every chunk pays a ``LaneRunner`` set-up, and unfolding makes
    more of them.  ``lanes=1`` never unfolds.
    """
    if lanes < 2 or cells >= workers * lanes:
        return False
    return _passes(cells * days, workers, lanes) < days * _passes(
        cells, workers, lanes
    )


def _warm_shared_state(tasks: Sequence[YearTask]) -> None:
    """Materialize traces and every needed cooling model before the pool.

    With the default ``fork`` start method workers inherit these as
    shared pages, so each expensive learning campaign runs once in the
    parent instead of once per worker.  Every *distinct* model
    requirement across the task list is warmed: a config whose fault
    schedule punches log gaps trains a different (degraded) model than
    the default, and such cells used to silently retrain it inside every
    worker that drew one.  Under ``spawn`` the warm pass still pays off —
    it persists each model to the artifact store, which freshly spawned
    workers load instead of retraining.
    """
    from repro.analysis import experiments
    from repro.sim.campaign import model_log_gaps, trained_cooling_model

    model_needs: Dict[tuple, None] = {}
    for task in tasks:
        if task.workload == "facebook":
            experiments.facebook_trace(task.deferrable)
        else:
            experiments.nutch_trace(task.deferrable)
        system, _ = experiments._resolve_system(task.system)
        if not isinstance(system, str):
            # The engines resolve each cell's model the same way, so
            # exactly the keys the workers will ask for get warmed.
            model_needs[model_log_gaps(system)] = None
    for gaps in model_needs:
        trained_cooling_model(log_gaps=gaps)


def _note_retry(
    retried: Optional[List[str]], task: YearTask, attempt: int, err: BaseException
) -> None:
    logger.warning(
        "retrying %s (attempt %d) after: %s", task.label(), attempt + 1, err
    )
    if retried is not None:
        retried.append(task.label())


def _run_task_with_retries(
    task: YearTask,
    use_disk_cache: bool,
    retries: int,
    backoff_s: float,
    retried: Optional[List[str]],
    attempts_used: int = 0,
    lanes: Optional[int] = None,
    cache_memory: bool = True,
) -> YearResult:
    """In-process execution with retry/backoff; raises TaskExecutionError."""
    attempt = attempts_used
    while True:
        try:
            return _run_task(task, use_disk_cache, lanes, cache_memory)
        except Exception as err:  # noqa: BLE001 - converted to typed error
            attempt += 1
            if attempt > retries:
                raise _wrap_error(task.label(), err) from err
            _note_retry(retried, task, attempt, err)
            if backoff_s > 0:
                time.sleep(backoff_s * (2 ** (attempt - 1)))


def run_year_tasks(
    tasks: Sequence[YearTask],
    workers: Optional[int] = None,
    use_disk_cache: bool = True,
    progress: Optional[ProgressCallback] = None,
    lanes: Optional[int] = None,
    task_retries: Optional[int] = None,
    task_timeout_s: Optional[float] = None,
    backoff_s: float = RETRY_BACKOFF_S,
    failures: Optional[List[TaskFailure]] = None,
    retried: Optional[List[str]] = None,
    consume: Optional[ConsumeCallback] = None,
    keep_results: bool = True,
    mp_context: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
    cost_model=None,
) -> List[Optional[YearResult]]:
    """Run a batch of campaign cells, in parallel where possible.

    Returns one :class:`YearResult` per task, in task order.  Cached
    cells never reach the pool; with ``workers=1`` everything runs
    in-process.  ``lanes`` (default ``REPRO_LANES``) batches uncached
    cells into lockstep lane groups for the lane-batched engine —
    composing with the process pool as workers x lanes — and ``lanes=1``
    (or ``REPRO_SIM_ENGINE=scalar``) restores strictly per-cell runs.
    Results are bit-identical however the work is split.

    When a lane group's cells cannot fill the workers' lanes, its
    day-unfold-eligible cells unfold into ``(cell, day)`` work items
    instead (:func:`unfold_pays` states the rule): up to ``lanes`` items
    — sibling days of one cell, or a mix of cells — become one lockstep
    batch per chunk, and the per-day metrics are folded back into each
    cell's :class:`YearResult` in day order, bit-identical to the
    day-sequential run.  Cells whose days are not provably independent
    (faulted, deferrable, temporal scheduling — see
    :func:`repro.sim.eligibility.decide_engine`) always run whole.  A
    cell that runs whole outside a lane chunk (a single resubmission,
    broken-pool recovery) goes through ``experiments.year_result`` with
    the run's ``lanes``, which unfolds an eligible cell by itself.

    Streaming: ``consume`` is called with ``(index, task, result)`` as
    each cell completes (cache hits included), in completion order, and
    ``keep_results=False`` then drops the full result instead of
    retaining it — the returned list holds ``None`` in every slot and
    the parent's memory cache is not seeded, so memory stays bounded for
    arbitrarily large sweeps.  Failed cells never reach ``consume``.

    ``mp_context`` (default ``REPRO_MP_CONTEXT``) picks the pool start
    method — ``fork`` shares the parent's warmed state by inheritance,
    ``spawn`` rebuilds workers from the artifact store.

    ``pool`` runs the fan-out on a caller-owned persistent
    :class:`WorkerPool` instead of a private per-call executor: worker
    processes survive across calls (the caller shuts the pool down), its
    ``workers`` count wins when ``workers`` is not given, and a broken
    pool is :meth:`WorkerPool.reset` rather than abandoned so the next
    call starts clean.

    ``task_retries`` retries each failing cell (with exponential
    ``backoff_s`` doubling), ``task_timeout_s`` bounds the wait for any
    cell to complete before the pool is declared stuck, and a crashed
    worker triggers serial in-parent recovery of only the unfinished
    cells (cache-checked first, so nothing is recomputed or re-written).
    Without a ``failures`` list the first exhausted cell raises
    :class:`~repro.errors.TaskExecutionError`; with one, failed cells are
    appended as :class:`TaskFailure` and their slots stay ``None``.

    ``cost_model`` (a :class:`repro.analysis.screening.CostModel`) closes
    the calibration loop: when ``lanes`` is not given explicitly and the
    model has already observed real cells, its suggested lane width is
    used, and after the run the model observes (executed cells, elapsed
    seconds) for this batch — cache hits excluded, so the estimate always
    reflects actual simulation cost.
    """
    from repro.analysis import experiments

    if pool is not None and workers is None:
        workers = pool.workers
    workers = resolve_workers(workers)
    if (
        lanes is None
        and cost_model is not None
        and getattr(cost_model, "calibrated", False)
    ):
        lanes = cost_model.suggested_lanes()
    lanes = resolve_lanes(lanes)
    retries = resolve_task_retries(task_retries)
    timeout_s = resolve_task_timeout(task_timeout_s)
    ctx_name = resolve_mp_context(mp_context)
    results: List[Optional[YearResult]] = [None] * len(tasks)
    # Completion is tracked separately from ``results`` slots: with
    # ``keep_results=False`` a finished cell's slot stays ``None``, so
    # recovery logic keys off these flags, never off the slots.
    completed = [False] * len(tasks)
    # Cells that exhausted retries (reported via ``failures``): recovery
    # must not resurrect them — unlike singles/lane chunks, a day-unfolded
    # cell's days span several futures, so a failed cell can still appear
    # in an outstanding future when the pool breaks.
    failed_perm: set = set()
    done = 0

    def tick(task: YearTask) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, len(tasks), task)

    def record(index: int, result: YearResult) -> None:
        """One cell finished: stream it, retain it if asked, tick."""
        completed[index] = True
        if keep_results:
            results[index] = result
        if consume is not None:
            consume(index, tasks[index], result)
        tick(tasks[index])

    def fail(index: int, err: BaseException, attempts: int) -> None:
        failed_perm.add(index)
        error = _wrap_error(tasks[index].label(), err)
        if failures is None:
            raise error
        logger.error("cell failed permanently: %s", error)
        failures.append(
            TaskFailure(task=tasks[index], error=str(error), attempts=attempts)
        )
        tick(tasks[index])

    def task_key(index: int) -> str:
        task = tasks[index]
        return experiments.cache_key(
            task.system,
            task.climate,
            task.workload,
            task.deferrable,
            task.sample_every_days,
            task.forecast_bias_c,
            plant=task.plant,
        )

    pending: List[int] = []
    for index, task in enumerate(tasks):
        cached = experiments.load_cached(
            task_key(index), use_disk_cache, cache_memory=keep_results
        )
        if cached is not None:
            record(index, cached)
        else:
            pending.append(index)

    exec_start = time.perf_counter()

    def observe_cost() -> None:
        """Feed (executed cells, elapsed s) to the calibrated cost model."""
        if cost_model is None:
            return
        executed = sum(1 for index in pending if completed[index])
        if executed:
            cost_model.observe(executed, time.perf_counter() - exec_start)

    def run_serial_cell(index: int, attempts_used: int = 0) -> None:
        """One cell in-process, with retries; records result or failure.

        ``attempts_used`` runs have already failed (the cell's lane or
        day chunk, or pool attempts before recovery) and count against
        ``retries``.
        """
        try:
            result = _run_task_with_retries(
                tasks[index],
                use_disk_cache,
                retries,
                backoff_s,
                retried,
                attempts_used=attempts_used,
                lanes=lanes,
                cache_memory=keep_results,
            )
            record(index, result)
        except TaskExecutionError as err:
            fail(index, err, attempts=retries + 1)

    def rerun_chunk_cells(cells: Sequence[int], err: BaseException) -> None:
        """A chunk failed in-process: the pool's rule, cell by cell.

        The chunk run was each cell's first attempt, so with no retries
        left its cells fail at once; otherwise they re-run whole, one at
        a time, so one bad lane cannot poison its chunk-mates.
        """
        if retries < 1:
            for index in cells:
                fail(index, err, attempts=1)
            return
        for index in cells:
            _note_retry(retried, tasks[index], 1, err)
        if backoff_s > 0:
            time.sleep(backoff_s)
        for index in cells:
            run_serial_cell(index, attempts_used=1)

    # The plan, shared by both executors.  Uncached lane-engine cells
    # group by sampling stride alone (a lane batch steps all lanes over
    # the same days); cooling models mix inside a chunk, since the lane
    # engine makes one stacked rollout per distinct model.  A group whose
    # eligible cells unfold (``unfold_pays``) turns them into (cell
    # index, day position, day) items, in cell-then-day order; chunks of
    # them may straddle cells, since every lane carries its own day, and
    # ``day_state`` reassembles each cell in day position regardless of
    # completion order.  The group's other cells chunk whole.  Everything
    # else — exotic-timing configs, the scalar engine, lanes=1 — runs
    # one cell at a time.
    singles: List[int] = []
    chunks: List[List[int]] = []
    day_chunks: List[List[Tuple[int, int, int]]] = []
    day_state: Dict[int, dict] = {}
    if lanes > 1:
        from repro.sim.eligibility import decide_engine

        groups: Dict[int, List[int]] = {}
        unfoldable: set = set()
        for index in pending:
            task = tasks[index]
            system, _ = experiments._resolve_system(task.system)
            decision = decide_engine(
                system,
                experiments.DEFAULT_SIM_ENGINE,
                deferrable=task.deferrable,
            )
            if decision.engine != "lanes":
                singles.append(index)
                continue
            if decision.day_unfold:
                unfoldable.add(index)
            sample = task.sample_every_days or experiments.DEFAULT_SAMPLE_DAYS
            groups.setdefault(sample, []).append(index)
        for sample, indices in groups.items():
            days = sampled_days(sample)
            eligible = [index for index in indices if index in unfoldable]
            if eligible and unfold_pays(
                len(eligible), len(days), workers, lanes
            ):
                items = []
                for index in eligible:
                    day_state[index] = {
                        "days": days,
                        "payloads": [None] * len(days),
                        "filled": 0,
                        "failed": False,
                    }
                    items.extend(
                        (index, pos, day) for pos, day in enumerate(days)
                    )
                day_chunks.extend(_chunked(items, workers, lanes))
                indices = [i for i in indices if i not in unfoldable]
            if indices:
                chunks.extend(_chunked(indices, workers, lanes))
    else:
        singles = list(pending)

    def deliver_days(
        items: Sequence[Tuple[int, int, int]], payloads: Sequence[dict]
    ) -> None:
        """Slot a day chunk's payloads; fold each cell once all are in.

        The parent writes unfolded cells to the cache (workers only ever
        see fragments of them).
        """
        for (index, pos, _day), payload in zip(items, payloads):
            state = day_state.get(index)
            if state is None or state["failed"]:
                continue
            state["payloads"][pos] = payload
            state["filled"] += 1
            if state["filled"] == len(state["payloads"]):
                del day_state[index]
                result = _fold_days(
                    tasks[index], state["days"], state["payloads"]
                )
                experiments.store_result(
                    task_key(index),
                    result,
                    use_disk_cache,
                    cache_memory=keep_results,
                )
                record(index, result)

    if workers == 1 or len(singles) + len(chunks) + len(day_chunks) <= 1:
        # The same plan, in-process: no pool, no pickling.
        for items in day_chunks:
            items = [
                item for item in items if not day_state[item[0]]["failed"]
            ]
            if not items:
                continue
            try:
                payloads = _run_day_chunk(
                    [(tasks[i], day) for i, _, day in items], use_disk_cache
                )
            except Exception as err:  # noqa: BLE001 - isolate per cell
                # Like a failed lane chunk: its cells re-run whole.
                cells = list(dict.fromkeys(i for i, _, _ in items))
                logger.warning("day chunk failed (%s)", err)
                for index in cells:
                    day_state[index]["failed"] = True
                rerun_chunk_cells(cells, err)
                continue
            deliver_days(items, payloads)
        for chunk in chunks:
            try:
                chunk_results = _run_lane_chunk(
                    [tasks[i] for i in chunk],
                    use_disk_cache,
                    cache_memory=keep_results,
                )
            except Exception as err:  # noqa: BLE001 - isolate per cell
                logger.warning("lane chunk failed (%s)", err)
                rerun_chunk_cells(chunk, err)
                continue
            for index, result in zip(chunk, chunk_results):
                record(index, result)
        for index in singles:
            run_serial_cell(index)
        observe_cost()
        return results

    _warm_shared_state([tasks[i] for i in pending])

    # index targets are ints (single cells), lists of ints (lane chunks),
    # or ("days", items) tuples (day-unfolded chunks).
    futures: dict = {}
    attempts: Dict[Tuple[int, ...], int] = {}
    lost: List[int] = []
    broken = False
    owned = pool is None
    if owned:
        executor = _new_executor(
            min(workers, len(singles) + len(chunks) + len(day_chunks)),
            ctx_name,
        )
    else:
        executor = pool.executor()

    not_done: set = set()

    def submit(target, cells: List[int], fn, *args) -> None:
        nonlocal broken
        try:
            future = executor.submit(fn, *args)
        except BrokenProcessPool:
            broken = True
            lost.extend(cells)
            return
        except RuntimeError:
            lost.extend(cells)
            return
        futures[future] = target
        not_done.add(future)

    def submit_chunk(chunk: List[int]) -> None:
        submit(
            chunk,
            chunk,
            _execute_lane_chunk_payload,
            [tasks[i] for i in chunk],
            use_disk_cache,
        )

    def submit_single(index: int) -> None:
        submit(
            index,
            [index],
            _execute_task_payload,
            tasks[index],
            use_disk_cache,
            lanes,
        )

    def submit_day_chunk(items: List[Tuple[int, int, int]]) -> None:
        submit(
            ("days", items),
            sorted({i for i, _, _ in items}),
            _execute_day_chunk_payload,
            [(tasks[i], day) for i, _, day in items],
            use_disk_cache,
        )

    def day_cell_failed(index: int, err: BaseException) -> None:
        """A chunk carrying one of this cell's days failed.

        The whole cell falls back to a single-cell resubmission (which
        ``experiments.year_result`` unfolds in-worker to the run's
        lanes), inheriting the attempt count; sibling day payloads still
        in flight are ignored once the cell is marked failed.
        """
        state = day_state.get(index)
        if state is None or state["failed"]:
            return
        state["failed"] = True
        key = (index,)
        attempts[key] = attempts.get(key, 0) + 1
        used = attempts[key]
        if used > retries:
            fail(index, err, attempts=used)
            return
        _note_retry(retried, tasks[index], used, err)
        if backoff_s > 0:
            time.sleep(backoff_s * (2 ** (used - 1)))
        submit_single(index)

    try:
        for items in day_chunks:
            submit_day_chunk(items)
        for chunk in chunks:
            submit_chunk(chunk)
        for index in singles:
            submit_single(index)
        while not_done and not broken:
            finished, _ = wait(
                not_done, timeout=timeout_s, return_when=FIRST_COMPLETED
            )
            not_done.difference_update(finished)
            if not finished:
                logger.warning(
                    "no cell completed within %.0fs; abandoning the pool "
                    "and recovering outstanding cells serially",
                    timeout_s,
                )
                broken = True
                break
            for future in finished:
                target = futures.pop(future)
                if isinstance(target, tuple):
                    items = target[1]
                    cells = sorted({i for i, _, _ in items})
                    try:
                        day_payloads = future.result()
                    except BrokenProcessPool:
                        broken = True
                        lost.extend(i for i in cells if not completed[i])
                        continue
                    except Exception as err:  # noqa: BLE001 - typed + retried
                        for index in cells:
                            day_cell_failed(index, err)
                        continue
                    deliver_days(items, day_payloads)
                    continue
                indices = target if isinstance(target, list) else [target]
                try:
                    payloads = future.result()
                    if not isinstance(target, list):
                        payloads = [payloads]
                except BrokenProcessPool:
                    broken = True
                    lost.extend(
                        i for i in indices if not completed[i]
                    )
                    continue
                except Exception as err:  # noqa: BLE001 - typed + retried
                    key = tuple(indices)
                    attempts[key] = attempts.get(key, 0) + 1
                    used = attempts[key]
                    if used > retries:
                        for index in indices:
                            fail(index, err, attempts=used)
                        continue
                    for index in indices:
                        _note_retry(retried, tasks[index], used, err)
                    if backoff_s > 0:
                        time.sleep(backoff_s * (2 ** (used - 1)))
                    # Resubmit — chunk failures come back as singles,
                    # inheriting the attempt count, so one bad lane
                    # cannot keep poisoning its chunk-mates.
                    for index in indices:
                        attempts[(index,)] = max(
                            attempts.get((index,), 0), used
                        )
                        submit_single(index)
                    continue
                for index, payload in zip(indices, payloads):
                    result = experiments._result_from_json(payload)
                    if keep_results:
                        # Workers already wrote the disk entry; seed this
                        # process's memory cache so later lookups hit.
                        experiments.store_result(
                            task_key(index), result, use_disk_cache=False
                        )
                    record(index, result)
    finally:
        if owned:
            if broken:
                # Dead or hung workers: do not wait for them.  (A hung
                # worker survives as an orphan until it finishes or is
                # killed.)
                executor.shutdown(wait=False, cancel_futures=True)
            else:
                # Normal exit has nothing queued; on an error exit (first
                # failure raising) this stops queued cells from running.
                executor.shutdown(cancel_futures=True)
        else:
            # A shared pool outlives this call: cancel whatever this call
            # still has queued, and swap in a fresh worker generation if
            # this one died so the next call starts clean.
            for future in list(futures):
                future.cancel()
            if broken:
                pool.reset()

    if broken or lost:
        for future, target in list(futures.items()):
            future.cancel()
            if isinstance(target, tuple):
                indices = sorted({i for i, _, _ in target[1]})
            else:
                indices = target if isinstance(target, list) else [target]
            lost.extend(i for i in indices if not completed[i])
        recover = sorted(
            set(i for i in lost if not completed[i] and i not in failed_perm)
        )
        if recover:
            logger.warning(
                "recovering %d unfinished cell(s) serially in the parent",
                len(recover),
            )
        for index in recover:
            # The dead worker may have persisted this cell before dying;
            # a cache hit here avoids recomputing (and re-writing) it.
            cached = experiments.load_cached(
                task_key(index), use_disk_cache, cache_memory=keep_results
            )
            if cached is not None:
                record(index, cached)
                continue
            run_serial_cell(
                index, attempts_used=attempts.get((index,), 0)
            )
    observe_cost()
    return results
