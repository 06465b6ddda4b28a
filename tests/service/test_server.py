"""End-to-end server/client round trips over the JSON-lines protocol.

Covers the PR acceptance criteria: submitted jobs reach DONE with
clique counts identical to a direct ``EnumerationEngine.run``, a
repeated identical job is served from cache (hit counter increments,
no re-enumeration), and ``jsonl`` sink output on disk matches the
``collect`` sink for the same graph.
"""

from __future__ import annotations

import json

import pytest

from repro.core import graph_io
from repro.core.generators import barbell_graph, erdos_renyi
from repro.engine import EnumerationConfig, EnumerationEngine
from repro.engine.config import MAX_JOBS
from repro.errors import ParameterError, ServiceError
from repro.parallel import thread_backend
from repro.service import (
    EnumerationServer,
    JobScheduler,
    JobSpec,
    ServiceClient,
)
from repro.service.protocol import (
    config_from_payload,
    config_to_payload,
    decode_line,
    encode_line,
    spec_from_payload,
    spec_to_payload,
)

ENGINE = EnumerationEngine()


def _submit(**fields):
    return encode_line({"op": "submit", "graph": "g.json", **fields})


def _inline(**graph):
    return _submit(graph_inline=graph)


#: (protocol line, the name its refusal must mention)
MALFORMED_SUBMITS = [
    pytest.param(b"\xff\xfe{", "malformed protocol line", id="not-utf8"),
    pytest.param(_submit(k_min=2.5), "k_min", id="k_min-float"),
    pytest.param(_submit(k_min=True), "k_min", id="k_min-bool"),
    pytest.param(_submit(k_min="3"), "k_min", id="k_min-str"),
    pytest.param(_submit(k_max="3"), "k_max", id="k_max-str"),
    pytest.param(_submit(max_cliques="9"), "max_cliques", id="max_cliques"),
    pytest.param(
        _submit(backend="threads", jobs="2"), "jobs", id="jobs-str"
    ),
    pytest.param(
        _submit(backend="threads", jobs=MAX_JOBS + 1), "jobs",
        id="jobs-over-bound",
    ),
    pytest.param(_submit(spill_dir="/tmp"), "spill_dir", id="spill_dir"),
    pytest.param(_submit(use_cache="false"), "use_cache", id="use_cache"),
    pytest.param(_submit(priority="hi"), "priority", id="priority"),
    pytest.param(_submit(label=7), "label", id="label"),
    pytest.param(_submit(graph=5), "graph", id="graph-int"),
    pytest.param(_inline(n="5", edges=[]), "graph_inline", id="n-str"),
    pytest.param(
        _inline(n=3, edges=[[0, 1, 2]]), "graph_inline", id="edge-triple"
    ),
    pytest.param(_inline(n=3, edges="ab"), "graph_inline", id="edges-str"),
    pytest.param(
        _inline(n=3, edges=[[0, "1"]]), "graph_inline", id="vertex-str"
    ),
    pytest.param(_inline(n=10**9, edges=[]), "graph_inline", id="n-huge"),
    pytest.param(
        _inline(n=30_000, edges=[]), "graph_inline", id="n-over-bound"
    ),
]


@pytest.fixture
def g():
    return erdos_renyi(30, 0.3, seed=1)


@pytest.fixture
def server():
    with EnumerationServer() as srv:
        yield srv


@pytest.fixture
def client(server):
    with ServiceClient(server.address) as c:
        yield c


class TestProtocolPayloads:
    def test_config_round_trip(self):
        cfg = EnumerationConfig(
            backend="bitscan", k_min=3, k_max=7, max_cliques=10,
            level_store="disk", spill_dir="/tmp/spill",
        )
        assert config_from_payload(config_to_payload(cfg)) == cfg

    def test_default_config_payload_is_empty(self):
        assert config_to_payload(EnumerationConfig()) == {}

    def test_level_store_travels_in_config_payload(self):
        cfg = EnumerationConfig(level_store="wah")
        payload = config_to_payload(cfg)
        assert payload == {"level_store": "wah"}
        assert config_from_payload(payload) == cfg

    def test_bad_level_store_rejected_at_payload_parse(self):
        with pytest.raises(ParameterError, match="level_store"):
            config_from_payload({"level_store": "zip"})

    def test_spec_round_trip_with_inline_graph(self):
        spec = JobSpec(
            graph=barbell_graph(3),
            config=EnumerationConfig(k_min=2),
            sink="count",
            priority=3,
            label="x",
        )
        rebuilt = spec_from_payload(spec_to_payload(spec))
        assert rebuilt.graph == spec.graph
        assert rebuilt.config == spec.config
        assert (rebuilt.sink, rebuilt.priority, rebuilt.label) == (
            "count", 3, "x"
        )

    def test_spec_payload_requires_a_graph(self):
        with pytest.raises(ParameterError, match="graph"):
            spec_from_payload({"sink": "count"})

    def test_spec_payload_rejects_unknown_fields(self):
        """Regression: a misspelled config key must fail the submit,
        not silently run the job with defaults — and so must a field
        the config does not have, such as the ``kernel`` or
        ``compute_domain`` older clients may still send."""
        for field in ("kmin", "kernel", "compute_domain", "options"):
            with pytest.raises(ParameterError, match=field):
                spec_from_payload({"graph": "g.json", field: 3})

    @pytest.mark.parametrize("line, name", MALFORMED_SUBMITS)
    def test_malformed_submit_refused(self, line, name):
        """Wrong types are refused with a ParameterError naming the
        field, never coerced or left to fail as a TypeError later."""
        with pytest.raises(ParameterError, match=name):
            spec_from_payload(decode_line(line))

    def test_unknown_submit_field_rejected_over_the_wire(self, client):
        for field in (
            {"max_clique": 100},
            {"kernel": "numpy"},
            {"compute_domain": "wah"},
            {"options": {"directory": "/tmp"}},
        ):
            with pytest.raises(ServiceError, match="unknown submit field"):
                client.call("submit", graph="g.json", **field)


class TestSubmitTimeResolution:
    """A policy the backend does not support — ``jobs`` on a
    sequential backend, the one shared check — is refused at submit
    time."""

    EXPECTED = (
        "backend 'incore' is sequential; jobs is only valid for "
        "parallel backends (see `repro engines`)"
    )

    def test_unsupported_store_refused_client_side(self, client, g):
        """ServiceClient.submit builds the JobSpec locally, so the
        ConfigError fires before a byte goes over the wire."""
        from repro.errors import ConfigError

        with pytest.raises(ConfigError) as exc:
            client.submit(
                g,
                config=EnumerationConfig(backend="incore", jobs=2),
            )
        assert str(exc.value) == self.EXPECTED

    def test_unsupported_store_refused_server_side_too(self, client):
        """A raw wire submit (no client-side JobSpec) is refused by the
        server with the identical message — no queue slot is burned on
        a job doomed to fail at dispatch."""
        from repro.errors import ServiceError

        with pytest.raises(ServiceError) as exc:
            client.call(
                "submit",
                graph_inline={"n": 3, "edges": [[0, 1], [1, 2]]},
                backend="incore",
                jobs=2,
            )
        assert self.EXPECTED in str(exc.value)
        assert client.jobs() == []  # nothing was queued

    def test_unknown_backend_refused_at_submit(self, client):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="unknown backend"):
            client.call(
                "submit",
                graph_inline={"n": 2, "edges": [[0, 1]]},
                backend="warpdrive",
            )

    def test_threads_job_round_trips_with_worker_stats(
        self, client, g, monkeypatch
    ):
        """A threads job travels the wire, runs, and reports its
        parallel substrate (worker count, stolen ranges)."""
        monkeypatch.setattr(thread_backend, "DEFAULT_STEAL_GRANULARITY", 1)
        job = client.wait(
            client.submit(
                g,
                config=EnumerationConfig(backend="threads", k_min=2, jobs=2),
            ),
            timeout=60,
        )
        assert job["status"] == "done"
        assert job["backend"] == "threads"
        assert job["n_workers"] == 2
        assert job["transfers"] >= 0
        ref = ENGINE.run(g, EnumerationConfig(backend="incore", k_min=2))
        assert job["n_cliques"] == len(ref.cliques)


class TestRoundTrip:
    def test_ping(self, client):
        assert client.ping()["pong"]

    def test_submitted_job_matches_direct_engine_run(self, client, g):
        """Acceptance: DONE with counts identical to EnumerationEngine."""
        reference = ENGINE.run(g, EnumerationConfig(k_min=2))
        job_id = client.submit(g, k_min=2)
        job = client.wait(job_id, timeout=60)
        assert job["status"] == "done"
        assert job["n_cliques"] == len(reference.cliques)
        assert sorted(client.cliques(job_id)) == sorted(reference.cliques)

    def test_repeated_job_served_from_cache(self, client, g):
        """Acceptance: hit counter increments, no re-enumeration."""
        first = client.wait(client.submit(g, k_min=2), timeout=60)
        assert not first["cache_hit"]
        before = client.stats()["cache"]
        second = client.wait(client.submit(g, k_min=2), timeout=60)
        after = client.stats()["cache"]
        assert second["cache_hit"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]  # no re-enumeration
        assert second["n_cliques"] == first["n_cliques"]

    def test_default_store_spelled_out_is_a_cache_hit(self, client, g):
        """No store and ``level_store="memory"`` are one config, so the
        service keeps one cache entry for them."""
        first = client.wait(client.submit(g, k_min=2), timeout=60)
        second = client.wait(
            client.submit(g, k_min=2, level_store="memory"), timeout=60
        )
        assert not first["cache_hit"]
        assert second["cache_hit"]
        assert second["level_store"] == first["level_store"] == "memory"

    def test_jsonl_sink_matches_collect_on_disk(self, client, g, tmp_path):
        """Acceptance: jsonl output on disk == collect sink output."""
        collect_id = client.submit(g, k_min=2, use_cache=False)
        collected = sorted(client.cliques(client.wait(collect_id)["id"]))
        path = tmp_path / "cliques.jsonl"
        jsonl_id = client.submit(
            g, k_min=2, sink=f"jsonl:{path}", use_cache=False
        )
        job = client.wait(jsonl_id, timeout=60)
        assert job["status"] == "done"
        on_disk = sorted(
            tuple(json.loads(line))
            for line in path.read_text().splitlines()
        )
        assert on_disk == collected

    def test_path_referenced_graph_submission(self, client, tmp_path):
        path = tmp_path / "g.json"
        graph_io.write_json(barbell_graph(3), path)
        job = client.wait(client.submit(str(path), k_min=1), timeout=60)
        assert job["status"] == "done"
        assert job["n_cliques"] == 3

    def test_sweep_submission(self, client):
        graphs = [erdos_renyi(20, 0.3, seed=s) for s in range(3)]
        ids = client.submit_sweep(
            graphs, k_min=2, labels=[f"t{s}" for s in range(3)]
        )
        jobs = [client.wait(i, timeout=60) for i in ids]
        assert [j["status"] for j in jobs] == ["done"] * 3
        assert [j["label"] for j in jobs] == ["t0", "t1", "t2"]

    def test_jobs_listing(self, client, g):
        client.wait(client.submit(g, k_min=2, label="a"), timeout=60)
        listing = client.jobs()
        assert len(listing) == 1
        assert listing[0]["label"] == "a"

    def test_cancel_unknown_job_is_service_error(self, client):
        with pytest.raises(ServiceError, match="unknown job"):
            client.cancel("job-999999")

    def test_failed_job_reports_error(self, client):
        job_id = client.submit("/nonexistent/g.json", k_min=2)
        job = client.wait(job_id, timeout=60)
        assert job["status"] == "failed"
        assert "nonexistent" in job["error"]

    def test_wait_deadline_raises_timeout_error(self, server):
        """A server-side wait deadline surfaces as TimeoutError on the
        client — matching the in-process Job.wait contract — not as a
        generic ServiceError."""
        import threading

        release = threading.Event()
        original = server.scheduler.engine.run

        def gated(graph, config=None, on_clique=None):
            release.wait(30)
            return original(graph, config, on_clique)

        server.scheduler.engine.run = gated
        try:
            with ServiceClient(server.address) as client:
                job_id = client.submit(barbell_graph(3))
                with pytest.raises(TimeoutError):
                    client.wait(job_id, timeout=0.05)
        finally:
            release.set()
            server.scheduler.engine.run = original

    def test_result_of_unfinished_job_refused(self, server):
        # a scheduler with a gated engine keeps the job running
        import threading

        release = threading.Event()
        original = server.scheduler.engine.run

        def gated(graph, config=None, on_clique=None):
            release.wait(30)
            return original(graph, config, on_clique)

        server.scheduler.engine.run = gated
        try:
            with ServiceClient(server.address) as client:
                job_id = client.submit(barbell_graph(3))
                with pytest.raises(ServiceError, match="still"):
                    client.result(job_id)
        finally:
            release.set()
            server.scheduler.engine.run = original

    def test_connection_survives_bad_request(self, client, g):
        with pytest.raises(ServiceError, match="unknown op"):
            client.call("warpdrive")
        assert client.ping()["pong"]  # same socket still works

    def test_submit_rejects_config_and_kwargs(self, client, g):
        with pytest.raises(ServiceError, match="not both"):
            client.submit(g, config=EnumerationConfig(), k_min=2)


#: ``wait`` timeouts the server must refuse; the client encodes the
#: floats as JSON's NaN / Infinity tokens, which decode back to floats
BAD_WAIT_TIMEOUTS = [
    pytest.param("inf", id="str-inf"),
    pytest.param("abc", id="str"),
    pytest.param([1], id="list"),
    pytest.param(True, id="bool"),
    pytest.param(float("nan"), id="nan"),
    pytest.param(float("inf"), id="infinity"),
    pytest.param(1e300, id="past-timeout-max"),
    pytest.param(-5, id="negative"),
]


class TestWaitTimeout:
    """A ``wait`` timeout is null or a finite number of seconds in
    ``[0, threading.TIMEOUT_MAX]``; anything else is a typed refusal
    naming ``timeout`` — not an OverflowError, ValueError or
    TypeError, and not a wait that times out at once."""

    @staticmethod
    def _refused(client, job_id, timeout):
        with pytest.raises(ServiceError, match="timeout") as info:
            client.call("wait", job_id=job_id, timeout=timeout)
        message = str(info.value)
        for name in ("OverflowError", "ValueError", "TypeError"):
            assert name not in message

    @pytest.mark.parametrize("timeout", BAD_WAIT_TIMEOUTS)
    def test_refused_on_a_pending_job(self, server, timeout):
        import threading

        release = threading.Event()
        original = server.scheduler.engine.run

        def gated(graph, config=None, on_clique=None):
            release.wait(30)
            return original(graph, config, on_clique)

        server.scheduler.engine.run = gated
        try:
            with ServiceClient(server.address) as client:
                job_id = client.submit(barbell_graph(3))
                self._refused(client, job_id, timeout)
                assert client.status(job_id)["status"] != "done"
        finally:
            release.set()
            server.scheduler.engine.run = original

    @pytest.mark.parametrize("timeout", BAD_WAIT_TIMEOUTS)
    def test_refused_on_a_finished_job(self, client, g, timeout):
        job_id = client.submit(g, k_min=2)
        assert client.wait(job_id, timeout=60)["status"] == "done"
        self._refused(client, job_id, timeout)
        assert client.ping()["pong"]  # the connection survives

    @pytest.mark.parametrize("timeout", [None, 0, 0.5, 60])
    def test_valid_timeouts_still_wait(self, client, g, timeout):
        job_id = client.submit(g, k_min=2)
        client.wait(job_id, timeout=60)
        job = client.call("wait", job_id=job_id, timeout=timeout)["job"]
        assert job["status"] == "done"


class TestRequestSizeBound:
    def test_overlong_line_refused_and_server_survives(
        self, server, monkeypatch
    ):
        """A line that never ends is cut off at MAX_REQUEST_BYTES with
        a typed refusal, its connection is closed, and the server keeps
        answering new connections."""
        import socket

        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "MAX_REQUEST_BYTES", 1024)
        with socket.create_connection(server.address, timeout=10) as raw:
            raw.sendall(b"x" * 4096)  # no newline, ever
            stream = raw.makefile("rb")
            reply = json.loads(stream.readline())
            assert reply == {
                "ok": False,
                "error": "request line exceeds 1024 bytes",
            }
            assert stream.readline() == b""  # the server hung up
        with ServiceClient(server.address, timeout=10) as fresh:
            assert fresh.ping()["pong"]

    def test_large_inline_graph_fits_the_default_bound(self, client):
        """A 10k-edge inline graph — a longer line than the genome
        graph's ~80 KB — is read whole and runs."""
        from repro.service.server import MAX_REQUEST_BYTES

        g = erdos_renyi(2000, 0.005, seed=1)
        line = encode_line(
            {"op": "submit", **spec_to_payload(JobSpec(graph=g))}
        )
        assert 100_000 < len(line) < MAX_REQUEST_BYTES
        job = client.wait(client.submit(g, sink="count"), timeout=60)
        assert job["status"] == "done"


class TestUnixSocket:
    def test_round_trip_over_unix_socket(self, tmp_path, g):
        sock = tmp_path / "repro.sock"
        with EnumerationServer(socket_path=sock) as server:
            assert server.address == str(sock)
            with ServiceClient(server.address) as client:
                job = client.wait(client.submit(g, k_min=2), timeout=60)
                assert job["status"] == "done"
        assert not sock.exists()  # cleaned up on shutdown

    def test_live_socket_is_not_hijacked(self, tmp_path):
        sock = tmp_path / "repro.sock"
        with EnumerationServer(socket_path=sock) as first:
            with pytest.raises(ParameterError, match="live server"):
                EnumerationServer(socket_path=sock)
            # the first server is untouched and still answering
            with ServiceClient(first.address) as client:
                assert client.ping()["pong"]

    def test_stale_socket_file_is_reclaimed(self, tmp_path, g):
        import socket as socketlib

        sock = tmp_path / "repro.sock"
        # leftover from a crashed server: a real socket file with
        # nothing listening on it
        leftover = socketlib.socket(
            socketlib.AF_UNIX, socketlib.SOCK_STREAM
        )
        leftover.bind(str(sock))
        leftover.close()
        assert sock.exists()
        with EnumerationServer(socket_path=sock) as server:
            with ServiceClient(server.address) as client:
                job = client.wait(client.submit(g, k_min=2), timeout=60)
                assert job["status"] == "done"

    def test_regular_file_at_socket_path_is_refused(self, tmp_path):
        """Regression: a mistyped --socket path pointing at a real file
        must be refused, never unlinked."""
        target = tmp_path / "important.dat"
        target.write_text("precious")
        with pytest.raises(ParameterError, match="not a socket"):
            EnumerationServer(socket_path=target)
        assert target.read_text() == "precious"


class TestBrokenConnection:
    def test_client_side_timeout_poisons_the_client(self, server):
        """Regression: a socket-level timeout desynchronizes the
        request/response stream; later calls must fail with a clear
        'broken' error instead of reading the stale late response."""
        import threading

        release = threading.Event()
        original = server.scheduler.engine.run

        def gated(graph, config=None, on_clique=None):
            release.wait(30)
            return original(graph, config, on_clique)

        server.scheduler.engine.run = gated
        try:
            client = ServiceClient(server.address, timeout=0.2)
            job_id = client.submit(barbell_graph(3))
            with pytest.raises(ServiceError, match="connection failed"):
                client.wait(job_id)  # server-side wait exceeds 0.2s
            with pytest.raises(ServiceError, match="broken"):
                client.ping()
        finally:
            release.set()
            server.scheduler.engine.run = original


class TestServerLifecycle:
    def test_external_scheduler_not_shut_down_with_server(self, g):
        with JobScheduler(workers=1) as sched:
            server = EnumerationServer(sched).start()
            with ServiceClient(server.address) as client:
                client.wait(client.submit(g, k_min=2), timeout=60)
            server.shutdown()
            # scheduler still accepts work after the server is gone
            job = sched.submit(JobSpec(graph=barbell_graph(3))).wait(30)
            assert job.result is not None

    def test_failed_bind_does_not_leak_worker_threads(self, server):
        """Regression: a bind failure in EnumerationServer must not
        leave an owned scheduler's freshly started workers running."""
        import threading

        host, port = server.address
        before = sum(
            1
            for t in threading.enumerate()
            if t.name.startswith("enum-worker")
        )
        with pytest.raises(OSError):
            EnumerationServer(host=host, port=port)
        after = sum(
            1
            for t in threading.enumerate()
            if t.name.startswith("enum-worker")
        )
        assert after == before

    def test_shutdown_without_start_returns_promptly(self):
        """Regression: BaseServer.shutdown() waits on an event only
        serve_forever sets — shutting down a never-started server must
        not block forever."""
        server = EnumerationServer()
        done = []
        import threading

        t = threading.Thread(
            target=lambda: (server.shutdown(), done.append(True))
        )
        t.start()
        t.join(timeout=10)
        assert done, "shutdown() hung on a never-started server"

    def test_shutdown_is_idempotent_and_concurrent_safe(self):
        import threading

        server = EnumerationServer().start()
        threads = [
            threading.Thread(target=server.shutdown) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        server.shutdown()  # and once more from this thread

    def test_shutdown_op_stops_listener(self, g):
        server = EnumerationServer().start()
        with ServiceClient(server.address) as client:
            client.shutdown_server()
        # listener is gone: a fresh connection must fail
        import socket as socketlib
        import time

        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                with socketlib.create_connection(
                    server.address, timeout=0.2
                ):
                    time.sleep(0.05)
            except OSError:
                return
        pytest.fail("server kept listening after shutdown op")
