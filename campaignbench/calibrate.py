"""Host-speed calibration for the campaign benchmark.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same fixed work can take three times as long a few minutes later.
To keep that drift out of the time metrics, ``run.py`` times
:func:`kernel` — a fixed mix of interpreter-bound scalar arithmetic,
small-array NumPy calls and reads from memory larger than a core's
cache, the kinds of work a simulated control step does — on each of
``workers`` cores at once (:func:`calibrate`) before the first and after
every set-up and campaign iteration, and divides each time metric by the
run's median slowdown: how much slower than :data:`REFERENCE_S` the
kernel ran.  The time metrics are therefore seconds on a host that runs
the kernel in ``REFERENCE_S``.

The kernel is this file's own code, so a change to the program cannot
change what it measures; only the host's speed does.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

REPS = 8000
# Sizes of the kernel's heap of float objects (~8 MB), its table (16 MB)
# and the window it sums per step: together larger than a core's L2.
HEAP = 1 << 18
TABLE = 1 << 21
WINDOW = 512
# A calibration is the median of ROUNDS back-to-back rounds, so one
# disturbed round (say, the operating system reclaiming a just-exited
# interpreter's memory) does not set it.
ROUNDS = 3
# Seconds one kernel of REPS takes on the reference host (a 2-vCPU Intel
# Xeon VM in its fast phase, Python 3.11, NumPy 2.4, one kernel on each
# core).  Only the scale of the time metrics depends on it.
REFERENCE_S = 0.072

_warm = False


def kernel(reps: int = REPS) -> float:
    """Fixed work: per step, scalar control arithmetic, a lane update and
    a few reads from a heap and a table larger than a core's cache."""
    heap = [float(i) for i in range(HEAP)]
    table = np.arange(TABLE, dtype=float)
    state = 12345
    lanes = np.linspace(18.0, 32.0, 16)
    memo = {}
    acc = 0.0
    for _ in range(reps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        x = state / 2147483648.0
        outside = 15.0 + 20.0 * x
        rh = min(max(100.0 * x, 5.0), 95.0)
        bucket = int(outside)
        memo[bucket] = 0.5 * memo.get(bucket, outside) + 0.5 * outside
        acc += (outside - 25.0) ** 2 + 0.01 * rh
        lanes = 0.98 * lanes + 0.02 * outside
        excess = np.where(lanes > 25.0, lanes - 25.0, 0.0)
        acc += float(excess.sum()) + float(np.maximum(lanes, memo[bucket]).max())
        acc += heap[state % HEAP] - heap[(state >> 7) % HEAP]
        start = state % (TABLE - WINDOW)
        acc += float(table[start:start + WINDOW].sum())
    return acc


def calibrate(workers: int):
    """(wall s, CPU s) of a kernel now: the median of ``ROUNDS`` rounds.

    The first call runs a short kernel here first, so every forked round
    starts from the same warmed-up interpreter.
    """
    global _warm
    if not _warm:
        kernel(200)
        _warm = True
    rounds = [measure(workers) for _ in range(ROUNDS)]
    return (
        statistics.median(wall for wall, _ in rounds),
        statistics.median(cpu for _, cpu in rounds),
    )


def measure(workers: int):
    """Run ``workers`` kernels at once; (mean wall s, mean CPU s) per kernel.

    Each kernel runs in a forked child pinned to its own core (when there
    are enough), reports its own timings through a pipe and leaves through
    ``os._exit``; every child is waited for before this returns.
    """
    cores = sorted(os.sched_getaffinity(0))
    children = []
    try:
        for index in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    if len(cores) >= workers:
                        os.sched_setaffinity(0, {cores[index]})
                    wall0, cpu0 = time.perf_counter(), time.process_time()
                    kernel()
                    wall = time.perf_counter() - wall0
                    cpu = time.process_time() - cpu0
                    os.write(write_fd, f"{wall!r} {cpu!r}".encode())
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, read_fd))
        timings = []
        for _, read_fd in children:
            chunks = []
            while True:
                chunk = os.read(read_fd, 256)
                if not chunk:
                    break
                chunks.append(chunk)
            fields = b"".join(chunks).split()
            if len(fields) != 2:
                raise RuntimeError("a calibration kernel reported nothing")
            timings.append((float(fields[0]), float(fields[1])))
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            os.waitpid(pid, 0)
    wall = sum(t[0] for t in timings) / len(timings)
    cpu = sum(t[1] for t in timings) / len(timings)
    return wall, cpu
