#!/usr/bin/env python3
"""CI smoke: a service-run campaign must equal the one-shot CLI run.

Starts ``python -m repro serve`` as a real subprocess, submits a tiny
matrix campaign through ``python -m repro submit``, polls ``status``,
and diffs the result rows against the same campaign run one-shot.  The
two runs use separate cache directories, so equality is computed twice
from scratch — never inherited through a shared cache.

Ends the server with SIGTERM and checks that it took its pool workers
down with it (none may outlive it as orphans).

Also the CI exercise path for the service env knobs: the server reads
``REPRO_SERVICE_SOCKET`` / ``REPRO_SERVICE_MAX_INFLIGHT`` /
``REPRO_SERVICE_MAX_JOBS`` and the client ``REPRO_SERVICE_SOCKET`` /
``REPRO_SERVICE_CONNECT_TIMEOUT_S`` from the environment below
(``REPRO_SERVICE_HOST``/``_PORT`` are covered by the integration suite).
"""

import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
STRIDE = "183"  # two sampled days per year: ~0.5 s per cell
CAMPAIGN = ["--systems", "baseline", "--sample-days", STRIDE, "--quiet"]


def run_cli(args, env, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def child_pids(pid):
    """Live (non-zombie) processes whose parent is ``pid``, from /proc."""
    children = set()
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[1]) == pid:
            children.add(int(stat.parent.name))
    return children


def alive(pid):
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def fail(step, proc):
    print(f"FAIL: {step} (exit {proc.returncode})", file=sys.stderr)
    print(proc.stdout, file=sys.stderr)
    print(proc.stderr, file=sys.stderr)
    return 1


def data_rows(table):
    """The per-cell rows of a matrix table, whitespace-normalized.

    The one-shot and service tables differ in title and row order (cells
    finish in completion order), never in content.
    """
    rows = [
        line.strip()
        for line in table.splitlines()
        if line.startswith("baseline")
    ]
    return sorted(re.sub(r"\s+\|\s+", " | ", row) for row in rows)


def main():
    base_env = dict(os.environ)
    base_env["PYTHONPATH"] = str(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        direct_env = {**base_env, "REPRO_CACHE_DIR": f"{tmp}/direct-cache"}
        direct = run_cli(
            ["matrix", *CAMPAIGN, "--workers", "2"], direct_env
        )
        if direct.returncode:
            return fail("one-shot matrix", direct)

        socket_path = f"{tmp}/service.sock"
        service_env = {
            **base_env,
            "REPRO_CACHE_DIR": f"{tmp}/service-cache",
            "REPRO_SERVICE_SOCKET": socket_path,
            "REPRO_SERVICE_MAX_INFLIGHT": "2",
            "REPRO_SERVICE_MAX_JOBS": "4",
            "REPRO_SERVICE_CONNECT_TIMEOUT_S": "30",
        }
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2"],
            env=service_env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(socket_path):
                if server.poll() is not None or time.monotonic() > deadline:
                    out = server.stdout.read() if server.stdout else ""
                    print(f"FAIL: server never bound\n{out}", file=sys.stderr)
                    return 1
                time.sleep(0.2)

            submit = run_cli(["submit", "matrix", *CAMPAIGN], service_env)
            if submit.returncode:
                return fail("service submit", submit)

            status = run_cli(["status"], service_env)
            if status.returncode:
                return fail("service status", status)
            if "completed" not in status.stdout:
                print(
                    f"FAIL: job not completed in status:\n{status.stdout}",
                    file=sys.stderr,
                )
                return 1
            workers = child_pids(server.pid)
        finally:
            server.terminate()
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
        deadline = time.monotonic() + 30
        while any(alive(pid) for pid in workers):
            if time.monotonic() > deadline:
                left = sorted(pid for pid in workers if alive(pid))
                for pid in left:
                    os.kill(pid, signal.SIGKILL)
                print(
                    f"FAIL: pool workers {left} outlived the terminated "
                    "server",
                    file=sys.stderr,
                )
                return 1
            time.sleep(0.1)

    expected = data_rows(direct.stdout)
    got = data_rows(submit.stdout)
    if not expected or expected != got:
        print("FAIL: service result differs from the one-shot run", file=sys.stderr)
        print(f"one-shot:\n{direct.stdout}", file=sys.stderr)
        print(f"service:\n{submit.stdout}", file=sys.stderr)
        return 1
    print(f"service smoke OK: {len(expected)} cells match the one-shot run")
    print(status.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
