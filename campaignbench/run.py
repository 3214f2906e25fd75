"""Campaign benchmark: four CoolAir campaign workloads, measured end to end.

Run from the root of a checkout::

    python3 campaignbench/run.py --workload paper_matrix --seed 1 \\
        --seconds 10 --trace 0

Every number comes from fresh interpreters (``child.py``) with a scrubbed
``REPRO_*`` environment and throwaway artifact/result-cache directories
under ``.bench_run/``:

* a set-up: an empty artifact store, then import the program and build
  what the cells read; ``setup_s`` is the median of ``SETUPS`` of them;
* a campaign iteration on the store the last set-up built, with a cold
  result cache: one caller, a pool of ``workloads.WORKERS`` workers,
  lanes and day-unfolding at their defaults.  The other end-to-end
  metrics are medians over iterations.

Set-ups and iterations alternate until there have been ``SETUPS``
set-ups and ``--seconds`` of iterations, so both sample the whole run.
The host's speed drifts (the same work can take three times as long
minutes later), so ``calibrate.py`` times a fixed kernel on every core
before the first and after every set-up and iteration, and the time
metrics are divided by how much slower than its reference time the
kernel ran over the run (the median): they are seconds on the reference
host.  The info line keeps the measured samples and the slowdowns.

Every cell's result is compared bit for bit with ``reference.json``
(recorded on the scalar reference engine by ``record_reference.py``); an
error, a timeout or a mismatch counts the cell as failed.

``--trace 1`` instead runs one traced set-up, then alternates untraced and
traced campaign iterations, and reports the per-layer metrics of
``tracer.py``.  The last stdout line is the JSON result; the line before
it describes the run (machine, versions, input size, samples).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# calibrate.py imports NumPy here and forks: keep BLAS single-threaded.
for _knob in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_knob] = "1"

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SETUPS = 3
# Everything must finish well inside the 180 s a run may take.
BUDGET_S = 165.0

END_TO_END = {
    "cell_days_per_s": "1/s",
    "cpu_s_per_cell_day": "s",
    "peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
    "setup_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def child_env(store, cache):
    """A scrubbed environment: no REPRO_* knobs, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_ARTIFACTS_DIR=str(store),
        REPRO_CACHE_DIR=str(cache),
    )
    return env


def _stop_group(pgid):
    """Kill whatever is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(role, plan_path, out_path, env, timeout_s, trace_dir=None):
    """Run ``child.py`` in its own process group; returns its JSON output."""
    command = [sys.executable, str(HERE / "child.py"), role, str(plan_path),
               str(out_path)]
    if trace_dir is not None:
        command += ["--trace", str(trace_dir)]
    proc = subprocess.Popen(
        command,
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.communicate()
        raise ChildFailed(f"{role} timed out after {timeout_s:.0f}s")
    finally:
        _stop_group(proc.pid)
    if proc.returncode != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
        raise ChildFailed(f"{role} exited {proc.returncode}: {' | '.join(tail)}")
    with open(out_path) as handle:
        return json.load(handle)


def _canonical(value):
    return json.dumps(value, sort_keys=True)


def check_cells(pairs, reference):
    """Ids of returned cells that are missing or differ from the reference.

    A payload matches when every field the reference recorded has exactly
    the same JSON form (floats print their shortest round-trip repr, so
    this is bit for bit).
    """
    bad = []
    for cell_id, payload in pairs:
        expected = reference.get(cell_id)
        if (
            payload is None
            or expected is None
            or any(
                key not in payload
                or _canonical(payload[key]) != _canonical(value)
                for key, value in expected.items()
            )
        ):
            bad.append(cell_id)
    return bad


def load_reference():
    with open(HERE / "reference.json") as handle:
        return json.load(handle)["cells"]


# -- machine description ---------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_revision():
    """HEAD's commit, read from the checkout's own ``.git`` if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """SHA-1 over ``src/`` (names and bytes): the revision without git."""
    digest = hashlib.sha1()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine():
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_revision": _git_revision(),
        "src_sha1": _source_digest(),
    }


# -- the run ---------------------------------------------------------------------


class Run:
    """One benchmark invocation: its scratch directory, deadline, tallies."""

    def __init__(self, workload, seed, reference, scratch):
        self.plan = workloads.plan(workload, seed)
        self.cells = len(workloads.plan_cells(self.plan))
        self.cell_days = workloads.cell_days(self.plan)
        self.reference = reference
        self.scratch = scratch
        self.deadline = time.monotonic() + BUDGET_S
        self.plan_path = scratch / "plan.json"
        self.plan_path.write_text(json.dumps(self.plan))
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.versions = {}
        self.counter = 0

    def remaining(self):
        return self.deadline - time.monotonic()

    def fresh(self, name):
        self.counter += 1
        path = self.scratch / f"{name}{self.counter}"
        path.mkdir()
        return path

    def setup(self, trace_dir=None):
        """One set-up into a new empty store; returns (store, seconds)."""
        store = self.fresh("store")
        out = run_child(
            "setup",
            self.plan_path,
            self.scratch / f"setup{self.counter}.json",
            child_env(store, self.fresh("cache")),
            self.remaining(),
            trace_dir,
        )
        self.versions = {"python": out["python"], "numpy": out["numpy"]}
        return store, out["setup_s"]

    def campaign(self, store, trace_dir=None):
        """One campaign iteration on ``store``; None when it failed."""
        self.attempted += self.cells
        try:
            out = run_child(
                "campaign",
                self.plan_path,
                self.scratch / f"campaign{self.counter}.json",
                child_env(store, self.fresh("cache")),
                self.remaining(),
                trace_dir,
            )
        except ChildFailed as err:
            self.failed += self.cells
            self.errors.append(str(err))
            return None
        bad = check_cells(out["cells"], self.reference)
        self.failed += len(bad)
        self.errors += [f"mismatch: {cell_id}" for cell_id in bad[:5]]
        self.errors += out["failures"][:5]
        out["cell_days_per_s"] = self.cell_days / out["wall_s"]
        out["cpu_s_per_cell_day"] = out["cpu_s"] / self.cell_days
        return out

    def slowdown(self):
        """(wall, CPU) time of the calibration kernel over its reference."""
        wall, cpu = calibrate.calibrate(workloads.WORKERS)
        return wall / calibrate.REFERENCE_S, cpu / calibrate.REFERENCE_S

    def more(self, measured, seconds, last_s):
        """Whether another ``last_s`` iteration is due and fits the budget."""
        return measured < seconds and self.remaining() > 2.0 * last_s + 5.0


def measure(run, seconds):
    """The untraced run: end-to-end metrics and their measured samples.

    The calibration kernel runs before the first item and after every
    set-up and iteration.  The host's speed swings within seconds, so one
    calibration says little about the item next to it; their median over
    the run estimates the run's slowdown.  Each time metric is the median
    of its measured samples divided by that slowdown (the wall slowdown
    for wall times, the CPU slowdown for CPU time).
    """
    samples = {key: [] for key in END_TO_END}
    slowdowns = [run.slowdown()]
    store = None
    measured = 0.0
    last = 0.0
    while len(samples["setup_s"]) < SETUPS or run.more(measured, seconds, last):
        if len(samples["setup_s"]) < SETUPS:
            if store is not None:
                shutil.rmtree(store)
            store, setup_s = run.setup()
            samples["setup_s"].append(setup_s)
            slowdowns.append(run.slowdown())
        begin = time.monotonic()
        out = run.campaign(store)
        last = time.monotonic() - begin
        if out is None:
            break
        measured += last
        for key in END_TO_END:
            if key != "setup_s":
                samples[key].append(out[key])
        slowdowns.append(run.slowdown())
    if not samples["cell_days_per_s"]:
        raise ChildFailed("no campaign iteration completed")
    wall_slowdown = [wall for wall, _ in slowdowns]
    cpu_slowdown = [cpu for _, cpu in slowdowns]
    metrics = {key: statistics.median(values) for key, values in samples.items()}
    metrics["cell_days_per_s"] *= statistics.median(wall_slowdown)
    metrics["setup_s"] /= statistics.median(wall_slowdown)
    metrics["cpu_s_per_cell_day"] /= statistics.median(cpu_slowdown)
    return metrics, dict(
        samples, wall_slowdown=wall_slowdown, cpu_slowdown=cpu_slowdown
    )


def measure_traced(run, seconds):
    """The traced run: per-layer metrics, medians over traced iterations."""
    setup_dir = run.fresh("trace-setup")
    store, _ = run.setup(setup_dir)
    setup = tracer.summarize(setup_dir)
    plain, traced = [], []
    measured = 0.0
    last = 0.0
    while not traced or run.more(measured, seconds, last):
        begin = time.monotonic()
        out = run.campaign(store)
        if out is None:
            break
        plain.append(out["cell_days_per_s"])
        trace_dir = run.fresh("trace-campaign")
        out = run.campaign(store, trace_dir)
        if out is None:
            break
        traced.append((out, tracer.summarize(trace_dir)))
        pair = time.monotonic() - begin
        measured += pair
        last = pair / 2.0
    if not traced:
        raise ChildFailed("no traced campaign iteration completed")
    overhead = statistics.median(plain) / statistics.median(
        sample["cell_days_per_s"] for sample, _ in traced
    ) - 1.0
    per_iteration = [
        tracer.layer_metrics(setup, summary, workloads.WORKERS, overhead)
        for _, summary in traced
    ]
    metrics = {
        key: statistics.median(m[key] for m in per_iteration)
        for key in per_iteration[0]
    }
    counts_repeat = all(
        m[key] == per_iteration[0][key]
        for m in per_iteration
        for key in tracer.COUNT_METRICS
    )
    shares = [tracer.layer_shares(summary) for _, summary in traced]
    detail = {
        "layer_shares": {
            key: statistics.median(s[key] for s in shares) for key in shares[0]
        },
        "missing_hooks": sorted(
            setup["missing"].union(*(s["missing"] for _, s in traced))
        ),
        "counts_repeat": counts_repeat,
        "self_plus_unattributed_s": sum(
            metrics[key] for key in tracer.SELF_METRICS
        ) + metrics["trace.unattributed_s"],
        "untraced_cell_days_per_s": plain,
        "traced_cell_days_per_s": [
            sample["cell_days_per_s"] for sample, _ in traced
        ],
    }
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its children and removes its scratch.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        reference = load_reference()
    except (OSError, ValueError, KeyError) as err:
        print(f"error: cannot read reference.json: {err}", file=sys.stderr)
        return 2
    result, info = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), reference
    )
    if result is None:
        print(f"error: {info['error']}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def run_benchmark(workload, seed, seconds, trace, reference):
    """One benchmark run; returns (result line, info) or (None, info)."""
    base = ROOT / ".bench_run"
    base.mkdir(exist_ok=True)
    scratch = base / f"{workload}-s{seed}-{os.getpid()}"
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir()
    info = {"workload": workload, "seed": seed, "trace": trace}
    try:
        run = Run(workload, seed, reference, scratch)
        info.update(
            cells_per_iteration=run.cells,
            cell_days_per_iteration=run.cell_days,
        )
        if trace:
            metrics, detail = measure_traced(run, seconds)
            units = {key: tracer.unit(key) for key in metrics}
        else:
            metrics, detail = measure(run, seconds)
            units = END_TO_END
    except ChildFailed as err:
        info["error"] = str(err)
        return None, info
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    info.update(machine(), **run.versions)
    info.update(
        attempted=run.attempted,
        failed=run.failed,
        failed_frac=run.failed / run.attempted,
        errors=run.errors[:20],
        samples=detail,
    )
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }
    return result, info


if __name__ == "__main__":
    sys.exit(main())
