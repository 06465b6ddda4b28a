"""Blocking client for the enumeration job service.

One :class:`ServiceClient` holds one socket (TCP or unix) for its whole
lifetime — a threshold sweep submits dozens of jobs over a single
connection, then waits on them.  Calls are serialized by a lock, so one
client instance may be shared across threads.

>>> with ServiceClient(("127.0.0.1", 7531)) as client:   # doctest: +SKIP
...     job_id = client.submit("ppi.json", k_min=3, sink="count")
...     job = client.wait(job_id)
...     print(job["sink_summary"]["cliques"])
"""

from __future__ import annotations

import socket
import threading
from pathlib import Path

from repro.errors import ServiceError
from repro.core.graph import Graph
from repro.engine.config import EnumerationConfig
from repro.service.jobs import JobSpec
from repro.service.protocol import decode_line, encode_line, spec_to_payload

__all__ = ["ServiceClient"]


class ServiceClient:
    """Synchronous JSON-lines client for :class:`~repro.service.server.
    EnumerationServer`.

    Parameters
    ----------
    address:
        ``(host, port)`` for TCP, or a path (str/``Path``) for a unix
        socket — the same value :attr:`EnumerationServer.address`
        reports.
    timeout:
        Socket timeout in seconds for individual calls (``None`` waits
        forever; server-side ``wait`` calls hold the line until the job
        finishes, so leave it ``None`` unless every job is budgeted).
    """

    def __init__(
        self,
        address: tuple[str, int] | str | Path,
        timeout: float | None = None,
    ):
        self.address = address
        try:
            if isinstance(address, (str, Path)):
                self._sock = socket.socket(
                    socket.AF_UNIX, socket.SOCK_STREAM
                )
                self._sock.connect(str(address))
            else:
                host, port = address
                self._sock = socket.create_connection((host, int(port)))
        except OSError as exc:
            # normalize every unreachable-service flavour (refused,
            # unroutable, timed out) to ConnectionError so callers and
            # the CLI handle one exception type
            raise ConnectionError(
                f"cannot connect to enumeration service at "
                f"{address!r}: {exc}"
            ) from exc
        self._sock.settimeout(timeout)
        self._rfile = self._sock.makefile("rb")
        self._lock = threading.Lock()
        self._broken = False

    # -- transport -----------------------------------------------------------

    def call(self, op: str, **fields) -> dict:
        """One request/response round trip; raises :class:`ServiceError`
        on a transport failure or an ``ok: false`` reply."""
        request = {"op": op, **fields}
        with self._lock:
            if self._broken:
                raise ServiceError(
                    "connection is broken (a previous call failed "
                    "mid-exchange); open a new ServiceClient"
                )
            try:
                self._sock.sendall(encode_line(request))
                line = self._rfile.readline()
            except OSError as exc:
                # the request/response stream is now desynchronized (a
                # late response may still arrive) — poison the client
                # so later calls fail loudly instead of confusingly
                self._broken = True
                self.close()
                raise ServiceError(
                    f"service connection failed during {op!r}: {exc}"
                ) from exc
        if not line:
            raise ServiceError(
                f"service closed the connection during {op!r}"
            )
        response = decode_line(line)
        if not response.get("ok"):
            if response.get("timeout"):
                # mirror the in-process Job.wait contract: a deadline
                # is a TimeoutError, not a job failure
                raise TimeoutError(
                    response.get("error", f"service {op!r} timed out")
                )
            raise ServiceError(
                response.get("error", f"service refused {op!r}")
            )
        return response

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._rfile.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- operations ----------------------------------------------------------

    def ping(self) -> dict:
        """Liveness check; returns the server's version payload."""
        return self.call("ping")

    def submit(
        self,
        graph: Graph | str | Path,
        config: EnumerationConfig | None = None,
        sink: str = "collect",
        priority: int = 0,
        use_cache: bool = True,
        label: str = "",
        **config_kwargs,
    ) -> str:
        """Queue one enumeration job; returns its job id.

        ``graph`` travels inline when it is an in-memory
        :class:`Graph`, or as a server-side path otherwise.  The config
        is either given whole or assembled from keyword shorthand
        (``k_min=3, level_store="disk"``) — not both.
        """
        if config is not None and config_kwargs:
            raise ServiceError(
                "pass either a config object or config keywords, not both"
            )
        if config is None:
            config = EnumerationConfig(**config_kwargs)
        spec = JobSpec(
            graph=graph,
            config=config,
            sink=sink,
            priority=priority,
            use_cache=use_cache,
            label=label,
        )
        return self.call("submit", **spec_to_payload(spec))["job_id"]

    def submit_sweep(
        self,
        graphs: list[Graph | str | Path],
        config: EnumerationConfig | None = None,
        sink: str = "count",
        labels: list[str] | None = None,
        **config_kwargs,
    ) -> list[str]:
        """Submit one job per graph (a threshold sweep); returns the ids."""
        if labels is not None and len(labels) != len(graphs):
            raise ServiceError("labels must match graphs one-to-one")
        return [
            self.submit(
                g,
                config=config,
                sink=sink,
                label=labels[i] if labels else "",
                **config_kwargs,
            )
            for i, g in enumerate(graphs)
        ]

    def status(self, job_id: str) -> dict:
        """Current job state (non-blocking)."""
        return self.call("status", job_id=job_id)["job"]

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until the job is terminal; returns its final state.

        The wait holds this client's single connection (and its lock)
        for its whole duration — other threads sharing the client
        block until it returns.  To cancel a job another thread is
        waiting on, use a second client (connections are cheap) or
        give the wait a ``timeout`` and poll.
        """
        return self.call("wait", job_id=job_id, timeout=timeout)["job"]

    def result(self, job_id: str) -> dict:
        """Terminal job state including collected cliques (when any)."""
        return self.call("result", job_id=job_id)["job"]

    def cliques(self, job_id: str) -> list[tuple[int, ...]]:
        """Collected cliques of a finished ``collect`` job, as tuples."""
        return [
            tuple(c) for c in self.result(job_id).get("cliques", [])
        ]

    def jobs(self) -> list[dict]:
        """Every job the server has seen, in submission order."""
        return self.call("jobs")["jobs"]

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; True when the cancellation took effect."""
        return bool(self.call("cancel", job_id=job_id)["cancelled"])

    def stats(self) -> dict:
        """Server stats: queue depth, status counts, cache hit/miss."""
        return self.call("stats")["stats"]

    def metrics(self) -> str:
        """One Prometheus-text scrape (requires ``--metrics``)."""
        return self.call("metrics")["metrics"]

    def trace(self, limit: int | None = None) -> list[dict]:
        """The newest ``limit`` trace records (requires ``--trace``)."""
        return self.call(
            "trace", **({} if limit is None else {"limit": limit})
        )["records"]

    def shutdown_server(self) -> None:
        """Ask the server to stop listening (in-flight jobs finish)."""
        self.call("shutdown")
