"""The enumeration job server: ``repro serve``.

A thin network face over :class:`~repro.service.scheduler.
JobScheduler`: each connection is handled by a thread, each line is one
JSON request (see :mod:`repro.service.protocol`), and every operation
maps onto a scheduler call — the server holds no enumeration logic at
all, which is the point of the PR-1 engine layer.

Listens on TCP (default) or a unix socket (``socket_path=...``), the
latter being the deployment where path-referenced graph submissions
are always valid.

Operations
----------
``ping``       liveness, version, uptime, active job count
``submit``     queue a job (path or inline graph) → ``job_id``
``status``     one job's state
``wait``       block (server-side) until a job is terminal
``result``     job state plus collected cliques
``jobs``       all jobs
``cancel``     cancel by id
``stats``      queue depth, status counts, cache hit/miss
``metrics``    one Prometheus-text scrape (requires ``--metrics``)
``trace``      newest trace records (requires ``--trace``)
``shutdown``   stop the listener (the scheduler drains separately)
"""

from __future__ import annotations

import socket
import socketserver
import stat
import threading
import time
from pathlib import Path

from repro._version import __version__
from repro.errors import ParameterError, ReproError
from repro.obs.http import MetricsExporter
from repro.obs.metrics import CONTENT_TYPE
from repro.obs.runtime import Observability, set_observability
from repro.service.protocol import (
    MAX_REQUEST_BYTES,
    decode_line,
    encode_line,
    spec_from_payload,
)
from repro.service.jobs import JobStatus
from repro.service.scheduler import JobScheduler

__all__ = [
    "DEFAULT_PORT", "MAX_REQUEST_BYTES", "EnumerationServer", "serve",
]

#: default TCP port of the enumeration job service (the CLI shares it).
DEFAULT_PORT = 7531


class _Handler(socketserver.StreamRequestHandler):
    """One thread per connection; one JSON request per line."""

    def handle(self) -> None:
        server: EnumerationServer
        server = self.server.enumeration_server  # type: ignore[attr-defined]
        while True:
            raw = self.rfile.readline(MAX_REQUEST_BYTES + 1)
            if not raw:
                return
            if len(raw) > MAX_REQUEST_BYTES:
                # the rest of the line is never read: answer, then close
                self._reply({
                    "ok": False,
                    "error": "request line exceeds "
                    f"{MAX_REQUEST_BYTES} bytes",
                })
                return
            line = raw.strip()
            if not line:
                continue
            try:
                request = decode_line(line)
                response = server.dispatch(request)
            except ReproError as exc:
                response = {"ok": False, "error": str(exc)}
            except Exception as exc:  # noqa: BLE001 — connection must survive
                response = {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            if not self._reply(response):
                return

    def _reply(self, response: dict) -> bool:
        """Write one response line; False once the client is gone."""
        try:
            self.wfile.write(encode_line(response))
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return False
        return True


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


if hasattr(socketserver, "ThreadingUnixStreamServer"):

    class _ThreadingUnixServer(socketserver.ThreadingUnixStreamServer):
        daemon_threads = True

else:  # pragma: no cover — platforms without AF_UNIX
    _ThreadingUnixServer = None


class EnumerationServer:
    """JSON-lines job server over a :class:`JobScheduler`.

    Parameters
    ----------
    scheduler:
        The scheduler to expose (a default 2-worker one if unset; it is
        shut down with the server only when the server created it).
    host, port:
        TCP bind address; ``port=0`` picks a free port (read it back
        from :attr:`address`).
    socket_path:
        When given, listen on this unix socket instead of TCP.
    metrics_port:
        When given, additionally serve ``GET /metrics`` (Prometheus
        text) on this TCP port via
        :class:`~repro.obs.http.MetricsExporter`; ``0`` picks a free
        port (read it back from :attr:`metrics_address`).  Requires
        the scheduler's observability plane to have metrics enabled.

    Use :meth:`start` for a background listener (tests, embedding) or
    :meth:`serve_forever` to occupy the current thread (the CLI).
    """

    def __init__(
        self,
        scheduler: JobScheduler | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | Path | None = None,
        metrics_port: int | None = None,
    ):
        self._owns_scheduler = scheduler is None
        # the listener is bound *before* a default scheduler is
        # created, so a bind failure (EADDRINUSE, bad socket path)
        # cannot leak an owned scheduler's worker threads
        if socket_path is not None:
            if _ThreadingUnixServer is None:  # pragma: no cover
                raise ParameterError(
                    "unix sockets are not supported on this platform; "
                    "use host/port"
                )
            self._socket_path = Path(socket_path)
            if self._socket_path.exists():
                # only reclaim a *stale socket*: a regular file at a
                # mistyped path must never be unlinked, and a socket a
                # live server still accepts on must not be hijacked
                if not stat.S_ISSOCK(self._socket_path.stat().st_mode):
                    raise ParameterError(
                        f"{self._socket_path} exists and is not a "
                        "socket; refusing to replace it"
                    )
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.connect(str(self._socket_path))
                except OSError:
                    self._socket_path.unlink()
                else:
                    raise ParameterError(
                        f"socket {self._socket_path} is already served "
                        "by a live server"
                    )
                finally:
                    probe.close()
            self._server = _ThreadingUnixServer(
                str(self._socket_path), _Handler
            )
        else:
            self._socket_path = None
            self._server = _ThreadingTCPServer((host, port), _Handler)
        self.scheduler = scheduler if scheduler is not None else JobScheduler()
        self._server.enumeration_server = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._shutdown_lock = threading.Lock()
        self._stopped = False
        self._serving = False
        self.started_at = time.time()
        self._exporter: MetricsExporter | None = None
        if metrics_port is not None and not self.scheduler.obs.metrics_on:
            # fail before serving — and without leaking what __init__
            # already built (the bound listener, an owned scheduler)
            self._server.server_close()
            if self._socket_path is not None:
                self._socket_path.unlink(missing_ok=True)
            if self._owns_scheduler:
                self.scheduler.shutdown(wait=False)
            raise ParameterError(
                "metrics_port requires an observability plane with "
                "metrics enabled (repro serve --metrics, or "
                "configure(metrics=True))"
            )
        if metrics_port is not None:
            self._exporter = MetricsExporter(
                self.scheduler.render_metrics, host=host, port=metrics_port
            )

    @property
    def address(self) -> tuple[str, int] | str:
        """Where clients connect: ``(host, port)`` or the socket path."""
        if self._socket_path is not None:
            return str(self._socket_path)
        return self._server.server_address[:2]

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """The scrape endpoint's ``(host, port)``, or ``None``."""
        if self._exporter is None:
            return None
        return self._exporter.address

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "EnumerationServer":
        """Serve on a background thread; returns self for chaining."""
        self._serving = True
        if self._exporter is not None:
            self._exporter.start()
        thread = threading.Thread(
            target=self._server.serve_forever,
            name="enum-server",
            daemon=True,
        )
        # publish under the shutdown lock: a concurrent shutdown() swaps
        # _thread out under it, and a bare write here could resurrect
        # the handle after shutdown already consumed (and joined) it
        with self._shutdown_lock:
            self._thread = thread
        thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the current thread until :meth:`shutdown`."""
        self._serving = True
        if self._exporter is not None:
            self._exporter.start()
        self._server.serve_forever()

    def shutdown(self) -> None:
        """Stop the listener, join the thread, drain the owned scheduler.

        Idempotent and safe under concurrent invocation (the protocol
        ``shutdown`` op runs it from a helper thread while ``__exit__``
        or ``serve()``'s cleanup may run it from the main thread);
        later callers return immediately without waiting for the first
        to finish.
        """
        with self._shutdown_lock:
            if self._stopped:
                return
            self._stopped = True
            thread, self._thread = self._thread, None
        if self._exporter is not None:
            self._exporter.stop()
        if self._serving:
            # BaseServer.shutdown waits on an event only serve_forever
            # sets — calling it on a never-started server blocks forever
            self._server.shutdown()
        self._server.server_close()
        if thread is not None:
            thread.join()
        if self._socket_path is not None:
            self._socket_path.unlink(missing_ok=True)
        if self._owns_scheduler:
            self.scheduler.shutdown(wait=True)

    def __enter__(self) -> "EnumerationServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- request dispatch ----------------------------------------------------

    def dispatch(self, request: dict) -> dict:
        """Map one decoded request onto the scheduler; returns the reply."""
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(
            op, str
        ) and not op.startswith("_") else None
        if handler is None:
            raise ParameterError(f"unknown op {op!r}")
        return handler(request)

    def _op_ping(self, request: dict) -> dict:
        jobs = self.scheduler.jobs()
        active = sum(
            1 for job in jobs
            if job.status in (JobStatus.PENDING, JobStatus.RUNNING)
        )
        return {
            "ok": True,
            "pong": True,
            "version": __version__,
            "uptime_seconds": time.time() - self.started_at,
            "active_jobs": active,
            "workers": self.scheduler.n_workers,
        }

    def _op_submit(self, request: dict) -> dict:
        job = self.scheduler.submit(spec_from_payload(request))
        return {"ok": True, "job_id": job.id}

    def _op_status(self, request: dict) -> dict:
        job = self.scheduler.get(str(request.get("job_id")))
        return {"ok": True, "job": job.to_dict()}

    def _op_wait(self, request: dict) -> dict:
        job = self.scheduler.get(str(request.get("job_id")))
        timeout = request.get("timeout")
        # JSON's NaN and Infinity tokens decode to floats, which a
        # bare range check refuses too (NaN compares false)
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not 0 <= timeout <= threading.TIMEOUT_MAX
        ):
            raise ParameterError(
                "timeout must be null or a number of seconds in "
                f"[0, {threading.TIMEOUT_MAX:g}], got {timeout!r}"
            )
        try:
            job.wait(timeout)
        except TimeoutError as exc:
            return {"ok": False, "error": str(exc), "timeout": True}
        return {"ok": True, "job": job.to_dict()}

    def _op_result(self, request: dict) -> dict:
        job = self.scheduler.get(str(request.get("job_id")))
        if not job.done:
            return {
                "ok": False,
                "error": f"job {job.id} is still {job.status.value}",
            }
        return {"ok": True, "job": job.to_dict(include_cliques=True)}

    def _op_jobs(self, request: dict) -> dict:
        return {
            "ok": True,
            "jobs": [job.to_dict() for job in self.scheduler.jobs()],
        }

    def _op_cancel(self, request: dict) -> dict:
        cancelled = self.scheduler.cancel(str(request.get("job_id")))
        return {"ok": True, "cancelled": cancelled}

    def _op_stats(self, request: dict) -> dict:
        return {"ok": True, "stats": self.scheduler.stats()}

    def _op_metrics(self, request: dict) -> dict:
        # render_metrics raises ParameterError when the plane has
        # metrics off; the connection handler turns it into ok=False
        return {
            "ok": True,
            "content_type": CONTENT_TYPE,
            "metrics": self.scheduler.render_metrics(),
        }

    def _op_trace(self, request: dict) -> dict:
        tracer = self.scheduler.obs.tracer
        if not tracer.enabled:
            raise ParameterError(
                "tracing is disabled; start the service with --trace "
                "or configure(trace=True)"
            )
        limit = request.get("limit")
        return {
            "ok": True,
            "records": tracer.records(
                None if limit is None else int(limit)
            ),
        }

    def _op_shutdown(self, request: dict) -> dict:
        # ack first, then stop the listener from a helper thread so this
        # handler's connection gets its response before the socket dies
        threading.Thread(target=self.shutdown, daemon=True).start()
        return {"ok": True, "stopping": True}


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    socket_path: str | Path | None = None,
    workers: int = 2,
    cache_size: int = 128,
    memory_budget_bytes: int | None = None,
    metrics: bool = False,
    metrics_port: int | None = None,
    trace_path: str | Path | None = None,
) -> None:
    """Blocking entry point behind ``repro serve``.

    Builds the scheduler (with an LRU result cache of ``cache_size``
    entries; 0 disables caching) and serves until interrupted.
    ``memory_budget_bytes`` turns on admission control: workers only
    claim a job when its memory-model predicted peak fits next to the
    jobs already running (see :class:`~repro.service.scheduler.
    JobScheduler`).

    ``metrics`` (implied by ``metrics_port``) and ``trace_path``
    install an enabled observability plane for the server's lifetime —
    ``metrics_port`` additionally serves ``GET /metrics`` — and the
    previous (normally disabled) plane is restored on exit.
    """
    from repro.service.cache import ResultCache

    metrics = metrics or metrics_port is not None
    previous = None
    plane = None
    if metrics or trace_path is not None:
        plane = Observability(metrics=metrics, trace_path=trace_path)
        previous = set_observability(plane)
    try:
        cache = ResultCache(cache_size) if cache_size > 0 else None
        scheduler = JobScheduler(
            workers=workers,
            cache=cache,
            memory_budget_bytes=memory_budget_bytes,
        )
        try:
            server = EnumerationServer(
                scheduler,
                host=host,
                port=port,
                socket_path=socket_path,
                metrics_port=metrics_port,
            )
        except BaseException:
            # a failed bind must not leak the worker threads just started
            scheduler.shutdown(wait=False)
            raise
        where = server.address
        print(
            f"repro enumeration service listening on {where}", flush=True
        )
        if server.metrics_address is not None:
            mhost, mport = server.metrics_address
            print(
                f"metrics exposed at http://{mhost}:{mport}/metrics",
                flush=True,
            )
        if trace_path is not None:
            print(f"trace records appended to {trace_path}", flush=True)
        interrupted = False
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            interrupted = True
        finally:
            server.shutdown()
            # Ctrl-C means stop *now*: every unfinished job is cancelled
            # (in-flight ones abort at their next emission, leaving no
            # partial output).  A protocol-driven stop drains the queue.
            scheduler.shutdown(wait=not interrupted)
    finally:
        if previous is not None:
            set_observability(previous)
        if plane is not None:
            plane.close()
