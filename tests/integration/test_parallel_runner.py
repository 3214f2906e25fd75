"""End-to-end parallel harness checks with real simulations.

Serial and parallel campaign runs must be bit-identical (the simulations
are deterministic and the pool only changes *where* each cell runs), and
with at least two usable CPUs a cold-cache parallel run of per-cell
(``lanes=1``) tasks must beat the serial one on wall-clock.

A campaign that fits in one lane batch is not timed: the lane engine
advances every lane in one pass over the model steps, so splitting that
batch across workers keeps each worker busy but leaves the critical path
at nearly the whole batch's cost (docs/PERFORMANCE.md, "Composition with
the process pool").
"""

import dataclasses
import multiprocessing
import os
import time

import pytest

from repro.analysis import experiments
from repro.analysis.runner import YearTask, run_year_tasks
from repro.weather.locations import NAMED_LOCATIONS

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the monkeypatched cache directory",
)

# Two sampled days per year keeps each cell ~0.5 s.
FAST_STRIDE = 183


def usable_cpus() -> int:
    """CPUs this process may use: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture()
def fresh_caches(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(experiments, "_memory_cache", {})
    return monkeypatch


@fork_only
def test_five_location_matrix_parallel_equals_serial(fresh_caches):
    serial = experiments.five_location_matrix(
        systems=("baseline",), sample_every_days=FAST_STRIDE, workers=1
    )
    fresh_caches.setattr(experiments, "_memory_cache", {})
    fresh_caches.setattr(
        experiments, "CACHE_DIR", experiments.CACHE_DIR.parent / "cache2"
    )
    parallel = experiments.five_location_matrix(
        systems=("baseline",), sample_every_days=FAST_STRIDE, workers=4
    )
    assert set(serial) == set(parallel) == {"baseline"}
    for name in NAMED_LOCATIONS:
        assert dataclasses.asdict(serial["baseline"][name]) == (
            dataclasses.asdict(parallel["baseline"][name])
        )


@pytest.mark.slow
@fork_only
@pytest.mark.skipif(
    usable_cpus() < 2, reason="speedup needs at least 2 usable CPUs"
)
def test_cold_cache_parallel_run_is_faster(fresh_caches):
    # Per-cell runs (lanes=1): five equal cells on two workers put three
    # on the critical path, ~0.6x serial.  With the default lane engine the
    # serial leg is one 5-lane batch and the pooled leg 3- and 2-lane
    # batches, which cost per pass rather than per lane: no gain to time.
    tasks = [
        YearTask("baseline", climate, sample_every_days=FAST_STRIDE)
        for climate in NAMED_LOCATIONS.values()
    ]
    start = time.perf_counter()
    run_year_tasks(tasks, workers=1, use_disk_cache=False, lanes=1)
    serial_s = time.perf_counter() - start

    fresh_caches.setattr(experiments, "_memory_cache", {})
    workers = min(4, usable_cpus())
    start = time.perf_counter()
    run_year_tasks(tasks, workers=workers, use_disk_cache=False, lanes=1)
    parallel_s = time.perf_counter() - start

    assert parallel_s < serial_s * 0.9, (
        f"parallel ({workers} workers) took {parallel_s:.2f}s vs "
        f"serial {serial_s:.2f}s"
    )
