"""End-to-end campaign service checks with real simulations.

The service must be a transparent front-end to the same computation the
one-shot CLI runs: a service-run campaign returns bit-identical results,
concurrent identical submissions share cells (one simulation per
distinct cache key), and cancelling one tenant never cancels a cell
another tenant is waiting on.  Clients here talk over the real socket
protocol — there is no in-process shortcut.
"""

import dataclasses
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis import experiments
from repro.errors import ReproError
from repro.service import CampaignService, CampaignSpec, ThreadedService
from repro.service.client import ServiceClient
from repro.service.spec import CellSpec

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the monkeypatched cache directory",
)

# Two sampled days per year keeps each cell ~0.5 s.
FAST_STRIDE = 183

MATRIX_SPEC = CampaignSpec(
    kind="matrix", systems=("baseline",), sample_every_days=FAST_STRIDE
)


@pytest.fixture()
def fresh_caches(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(experiments, "_memory_cache", {})
    return monkeypatch


def start_service(tmp_path, **service_kwargs):
    service = CampaignService(workers=2, **service_kwargs)
    threaded = ThreadedService(service)
    address = threaded.start(socket_path=str(tmp_path / "service.sock"))
    return service, threaded, address


@fork_only
def test_service_result_matches_direct_run(fresh_caches, tmp_path):
    # Expected values first, under their own cache, so the comparison
    # cannot be satisfied by the service reading the direct run's cache.
    expected = experiments.five_location_matrix(
        systems=("baseline",), sample_every_days=FAST_STRIDE, workers=2
    )
    fresh_caches.setattr(experiments, "CACHE_DIR", tmp_path / "cache2")
    fresh_caches.setattr(experiments, "_memory_cache", {})

    service, threaded, address = start_service(tmp_path)
    try:
        with ServiceClient(socket_path=address) as client:
            reply = client.submit(MATRIX_SPEC, stream=True)
            events = list(client.events())
            result = client.result(reply["job_id"])
            status = client.status(reply["job_id"])
    finally:
        threaded.stop()

    assert events[-1]["event"] == "done" and events[-1]["failed"] == 0
    assert len([e for e in events if e.get("event") == "cell"]) == 5
    by_location = {cell["location"]: cell for cell in result["cells"]}
    for name, year in expected["baseline"].items():
        got = experiments._result_from_json(by_location[name]["result"])
        assert dataclasses.asdict(got) == dataclasses.asdict(year)
    # Nothing was pre-cached, nothing deduped: five real executions.
    assert status["service"]["cells_executed"] == 5
    assert status["service"]["cells_cached"] == 0
    assert status["job"]["state"] == "completed"


@fork_only
def test_concurrent_identical_submissions_share_cells(fresh_caches, tmp_path):
    service, threaded, address = start_service(tmp_path)
    try:
        with ServiceClient(socket_path=address) as client:
            first = client.submit(MATRIX_SPEC)["job_id"]
            second = client.submit(MATRIX_SPEC)["job_id"]
            job1 = client.wait_for_job(first, poll_s=0.1, timeout_s=120)
            job2 = client.wait_for_job(second, poll_s=0.1, timeout_s=120)
            snapshot = client.list_jobs()["service"]
    finally:
        threaded.stop()

    assert job1["state"] == job2["state"] == "completed"
    assert job1["done"] == job2["done"] == 5
    # One simulation per distinct cache key, no matter how many tenants:
    # the second job's cells all rode along (in-flight dedupe) or were
    # served from the cache the first job had just filled.
    assert snapshot["cells_executed"] == 5
    assert job2["deduped"] + job2["cached"] == 5


@fork_only
def test_cancel_does_not_kill_shared_cells(fresh_caches, tmp_path):
    # max_inflight=1 serializes cells, so the second tenant's shared
    # cell (Singapore, last in matrix order) is still pending at cancel.
    service, threaded, address = start_service(tmp_path, max_inflight=1)
    singapore_only = CampaignSpec(
        kind="cells",
        cells=(
            CellSpec(
                system="baseline",
                location="Singapore",
                sample_every_days=FAST_STRIDE,
            ),
        ),
    )
    try:
        with ServiceClient(socket_path=address) as client:
            big = client.submit(MATRIX_SPEC)["job_id"]
            small = client.submit(singapore_only)["job_id"]
            cancel_reply = client.cancel(big)
            survivor = client.wait_for_job(small, poll_s=0.1, timeout_s=120)
            cancelled = client.status(big)["job"]
            result = client.result(small)
    finally:
        threaded.stop()

    assert cancel_reply["cancelled"] is True
    assert cancelled["state"] == "cancelled"
    assert survivor["state"] == "completed"
    assert survivor["done"] == 1 and survivor["failed"] == 0
    assert result["cells"][0]["result"] is not None


@fork_only
def test_tcp_endpoint_and_admission_control(fresh_caches, tmp_path, monkeypatch):
    service = CampaignService(workers=2, max_jobs=1)
    threaded = ThreadedService(service)
    address = threaded.start(host="127.0.0.1", port=0)
    host, port = address.split(":")
    # Clients resolve TCP endpoints from the env, like any deployment.
    monkeypatch.setenv("REPRO_SERVICE_HOST", host)
    monkeypatch.setenv("REPRO_SERVICE_PORT", port)
    spec = CampaignSpec(
        kind="cells",
        cells=(
            CellSpec(
                system="baseline",
                location="Newark",
                sample_every_days=FAST_STRIDE,
            ),
        ),
    )
    try:
        with ServiceClient() as client:
            assert client.ping() is True
            job_id = client.submit(spec)["job_id"]
            with pytest.raises(ReproError, match="capacity"):
                client.submit(spec)
            job = client.wait_for_job(job_id, poll_s=0.1, timeout_s=120)
            # The finished job frees its admission slot; the rerun is
            # served straight from the cache it just filled.
            rerun = client.submit(spec)["job_id"]
            rerun_job = client.wait_for_job(rerun, poll_s=0.1, timeout_s=120)
    finally:
        threaded.stop()

    assert job["state"] == "completed"
    assert rerun_job["state"] == "completed" and rerun_job["cached"] == 1


def _child_pids(pid):
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


def _alive(pid):
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    not pathlib.Path("/proc/self/stat").exists(), reason="needs /proc"
)
def test_sigterm_stops_the_server_and_its_pool(tmp_path):
    """``python -m repro serve`` shuts its worker pool down on SIGTERM:
    after ``terminate()`` neither the server nor any worker it had is
    left running."""
    root = pathlib.Path(__file__).resolve().parents[2]
    socket_path = tmp_path / "service.sock"
    env = {
        **os.environ,
        "PYTHONPATH": str(root / "src"),
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
    }
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "2",
         "--socket", str(socket_path)],
        env=env,
        cwd=root,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    workers = set()
    try:
        ServiceClient(socket_path=str(socket_path)).wait_until_ready(
            timeout_s=60
        )
        with ServiceClient(socket_path=str(socket_path)) as client:
            spec = CampaignSpec(
                kind="cells",
                cells=(
                    CellSpec(
                        system="baseline",
                        location="Newark",
                        sample_every_days=FAST_STRIDE,
                    ),
                ),
            )
            job = client.wait_for_job(
                client.submit(spec)["job_id"], poll_s=0.1, timeout_s=120
            )
        assert job["state"] == "completed"
        workers = _child_pids(server.pid)
        assert workers, "the cell ran without a pool worker"
        server.terminate()
        server.wait(timeout=30)
        deadline = time.monotonic() + 30
        while any(_alive(pid) for pid in workers):
            assert time.monotonic() < deadline, "pool workers outlived serve"
            time.sleep(0.1)
    finally:
        # Leave nothing behind, even when the assertions failed.
        if server.poll() is None:
            server.kill()
            server.wait()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
