"""The asyncio control-plane server: ``python -m repro serve``.

One process owns a persistent :class:`~repro.analysis.runner.WorkerPool`
and serves many concurrent campaign clients over a line-delimited JSON
protocol (:mod:`repro.service.protocol`) on a unix socket (default) or
localhost TCP.  Request handling is pure asyncio; simulation work
happens in the pool's worker processes, and the one CPU-heavy parent
step — warming traces and learned models into the artifact store before
a job's first cell runs — is pushed to a thread so the event loop keeps
answering status requests while it runs.

Operator knobs (full table in ``docs/SERVICE.md``):

* ``REPRO_SERVICE_SOCKET`` — unix-socket path
  (default ``<cache>/service.sock``);
* ``REPRO_SERVICE_HOST`` / ``REPRO_SERVICE_PORT`` — listen on TCP
  instead of the unix socket;
* ``REPRO_SERVICE_MAX_INFLIGHT`` — admission control: cells occupying
  pool slots at once (default: the worker count);
* ``REPRO_SERVICE_MAX_JOBS`` — queued+running jobs before submissions
  are refused (default 64);

plus the shared campaign knobs the service inherits from the runner:
``REPRO_WORKERS``, ``REPRO_TASK_RETRIES``, ``REPRO_TASK_TIMEOUT_S``,
``REPRO_MP_CONTEXT``, and the artifact/cache knobs read inside workers.
"""

from __future__ import annotations

import asyncio
import logging
import os
import pathlib
import signal
import threading
from typing import Optional

from repro.analysis.runner import WorkerPool, _warm_shared_state
from repro.errors import ReproError
from repro.service import protocol
from repro.service.jobs import JobRegistry
from repro.service.scheduler import Scheduler
from repro.service.spec import CampaignSpec

logger = logging.getLogger("repro.service.server")

DEFAULT_MAX_JOBS = 64
SOCKET_NAME = "service.sock"


def resolve_socket_path(requested: Optional[str] = None) -> pathlib.Path:
    """Unix-socket path: argument > ``REPRO_SERVICE_SOCKET`` > cache dir."""
    if requested is None:
        requested = os.environ.get("REPRO_SERVICE_SOCKET")
    if requested:
        return pathlib.Path(requested)
    from repro.analysis.experiments import CACHE_DIR

    return CACHE_DIR / SOCKET_NAME


def resolve_max_inflight(
    requested: Optional[int] = None, workers: int = 1
) -> int:
    """Cells in pool slots at once: argument > env > worker count."""
    if requested is None:
        env = os.environ.get("REPRO_SERVICE_MAX_INFLIGHT")
        if env is not None:
            try:
                requested = int(env)
            except ValueError:
                raise ReproError(
                    "REPRO_SERVICE_MAX_INFLIGHT must be a positive "
                    f"integer, got {env!r}"
                )
        else:
            requested = workers
    if requested < 1:
        raise ReproError(f"max inflight must be >= 1, got {requested}")
    return requested


def resolve_max_jobs(requested: Optional[int] = None) -> int:
    """Active-job admission limit: argument > env > 64."""
    if requested is None:
        env = os.environ.get("REPRO_SERVICE_MAX_JOBS")
        if env is not None:
            try:
                requested = int(env)
            except ValueError:
                raise ReproError(
                    "REPRO_SERVICE_MAX_JOBS must be a positive integer, "
                    f"got {env!r}"
                )
        else:
            requested = DEFAULT_MAX_JOBS
    if requested < 1:
        raise ReproError(f"max jobs must be >= 1, got {requested}")
    return requested


class CampaignService:
    """The control plane: job registry + scheduler + protocol endpoint."""

    def __init__(
        self,
        workers: Optional[int] = None,
        max_inflight: Optional[int] = None,
        max_jobs: Optional[int] = None,
        task_retries: Optional[int] = None,
        task_timeout_s: Optional[float] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        self.pool = WorkerPool(workers=workers, mp_context=mp_context)
        self.scheduler = Scheduler(
            self.pool,
            max_inflight=resolve_max_inflight(
                max_inflight, workers=self.pool.workers
            ),
            task_retries=task_retries,
            task_timeout_s=task_timeout_s,
        )
        self.registry = JobRegistry(max_jobs=resolve_max_jobs(max_jobs))
        self.address: Optional[str] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._socket_path: Optional[pathlib.Path] = None
        # Created inside start() so it binds to the serving loop (3.9's
        # asyncio primitives capture a loop at construction time).
        self._stop: Optional[asyncio.Event] = None
        self._warm_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    async def start(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ) -> str:
        """Bind and start accepting clients; returns the bound address.

        ``host``/``port`` (or ``REPRO_SERVICE_HOST``/``_PORT``) select
        TCP; otherwise a unix socket at ``socket_path`` (stale socket
        files from a dead server are replaced).
        """
        self._stop = asyncio.Event()
        host = host or os.environ.get("REPRO_SERVICE_HOST")
        if port is None:
            env_port = os.environ.get("REPRO_SERVICE_PORT")
            port = int(env_port) if env_port else None
        if host or port is not None:
            self._server = await asyncio.start_server(
                self._handle_client,
                host=host or "127.0.0.1",
                port=port or 0,
                limit=protocol.MAX_LINE_BYTES,
            )
            bound = self._server.sockets[0].getsockname()
            self.address = f"{bound[0]}:{bound[1]}"
        else:
            path = resolve_socket_path(socket_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle_client,
                path=str(path),
                limit=protocol.MAX_LINE_BYTES,
            )
            self._socket_path = path
            self.address = str(path)
        logger.info("campaign service listening on %s", self.address)
        return self.address

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`close`) arrives.

        The pool is shut down however serving ends: a stop, SIGINT, or
        cancellation of this coroutine.
        """
        assert self._stop is not None, "serve_forever before start"
        try:
            await self._stop.wait()
        finally:
            await self.close()

    async def close(self) -> None:
        if self._stop is not None:
            self._stop.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._socket_path is not None and self._socket_path.exists():
            self._socket_path.unlink()
        self.pool.shutdown(wait=False)

    # -- request handling ----------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    message = await protocol.read_message(reader)
                except protocol.ProtocolError as err:
                    writer.write(protocol.encode(protocol.error_reply(str(err))))
                    await writer.drain()
                    continue
                if message is None:
                    return
                op = None
                try:
                    op = protocol.validate_request(message)
                    await self._dispatch(op, message, writer)
                except ReproError as err:
                    writer.write(protocol.encode(protocol.error_reply(str(err))))
                    await writer.drain()
                if op == "shutdown":
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                # RuntimeError: the loop is already shutting down.
                pass

    async def _dispatch(
        self, op: str, message: dict, writer: asyncio.StreamWriter
    ) -> None:
        if op == "ping":
            await self._reply(writer, protocol.ok_reply(pong=True))
        elif op == "submit":
            await self._handle_submit(message, writer)
        elif op == "list":
            await self._reply(
                writer,
                protocol.ok_reply(
                    jobs=[
                        job.snapshot() for job in self.registry.jobs.values()
                    ],
                    service=self.scheduler.snapshot(),
                ),
            )
        elif op == "status":
            job = self.registry.get(message["job_id"])
            await self._reply(
                writer,
                protocol.ok_reply(
                    job=job.snapshot(), service=self.scheduler.snapshot()
                ),
            )
        elif op == "result":
            job = self.registry.get(message["job_id"])
            await self._reply(
                writer, protocol.ok_reply(result=job.result_payload())
            )
        elif op == "cancel":
            job = self.registry.get(message["job_id"])
            cancelled = self.scheduler.cancel_job(job)
            await self._reply(
                writer, protocol.ok_reply(cancelled=cancelled, job=job.snapshot())
            )
        elif op == "shutdown":
            await self._reply(writer, protocol.ok_reply(stopping=True))
            self._stop.set()

    async def _reply(self, writer: asyncio.StreamWriter, message: dict) -> None:
        writer.write(protocol.encode(message))
        await writer.drain()

    async def _handle_submit(
        self, message: dict, writer: asyncio.StreamWriter
    ) -> None:
        spec = CampaignSpec.from_json(message["spec"])
        priority = int(message.get("priority", 0))
        stream = bool(message.get("stream", False))
        job = self.registry.create(spec, priority)
        # Train/generate this job's shared artifacts once, off the event
        # loop: workers then load them from the artifact store instead of
        # re-deriving them per process.  Serialized across submissions so
        # two jobs needing the same model never train it twice.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._warm, job.tasks)
        events = job.subscribe() if stream else None
        self.scheduler.submit_job(job)
        await self._reply(
            writer,
            protocol.ok_reply(job_id=job.id, job=job.snapshot()),
        )
        if events is None:
            return
        try:
            while True:
                event = await events.get()
                await self._reply(writer, event)
                if event.get("event") in ("done", "cancelled"):
                    return
        finally:
            job.unsubscribe(events)

    def _warm(self, tasks) -> None:
        with self._warm_lock:
            _warm_shared_state(tasks)


async def _run_service(service: CampaignService, **bind_kwargs) -> None:
    address = await service.start(**bind_kwargs)
    # SIGTERM stops the service like a ``shutdown`` request, so the pool's
    # workers exit with it instead of outliving it as orphans.
    asyncio.get_running_loop().add_signal_handler(
        signal.SIGTERM, service._stop.set
    )
    print(f"campaign service listening on {address}", flush=True)
    await service.serve_forever()


def serve(
    socket_path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    **service_kwargs,
) -> int:
    """Blocking entry point behind ``python -m repro serve``."""
    service = CampaignService(**service_kwargs)
    try:
        asyncio.run(
            _run_service(
                service, socket_path=socket_path, host=host, port=port
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


class ThreadedService:
    """A service running on a background thread (tests, embedding).

    Starts the event loop in a daemon thread, binds, and exposes the
    bound address; :meth:`stop` shuts the loop down cleanly.  Clients
    talk to it over the normal socket protocol — there is no in-process
    shortcut, so tests exercise exactly what production clients do.
    """

    def __init__(self, service: CampaignService) -> None:
        self.service = service
        self.address: Optional[str] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout_s: float = 10.0,
    ) -> str:
        started = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                self.address = loop.run_until_complete(
                    self.service.start(
                        socket_path=socket_path, host=host, port=port
                    )
                )
                started.set()
                loop.run_until_complete(self.service.serve_forever())
                # Let open client handlers unwind before the loop dies.
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                started.set()
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout_s) or self.address is None:
            raise ReproError("service failed to start")
        return self.address

    def stop(self, timeout_s: float = 10.0) -> None:
        loop, stop = self._loop, self.service._stop
        if loop is not None and stop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout_s)
