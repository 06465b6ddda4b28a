"""Service-plane observability: wire ops, scrapes, and the round trip.

The acceptance pin: after a job finishes, a metrics scrape reports
job/level/kernel counters that match the job's
:class:`~repro.core.clique_enumerator.EnumerationResult` **exactly** —
the fold copies the result's numbers verbatim, so any drift is a bug.
"""

from __future__ import annotations

import threading
import urllib.request

import pytest

from repro.core.generators import planted_clique
from repro.errors import ParameterError, ServiceError
from repro.engine.config import EnumerationConfig
from repro.obs import Observability, set_observability
from repro.obs.bridge import METRICS
from repro.obs.http import MetricsExporter
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec
from repro.service.scheduler import JobScheduler
from repro.service.server import EnumerationServer


@pytest.fixture
def plane():
    obs = Observability(metrics=True, trace=True, ring_size=512)
    previous = set_observability(obs)
    yield obs
    set_observability(previous)
    obs.close()


@pytest.fixture
def graph():
    return planted_clique(30, 6, p=0.25, seed=5)[0]


def metric_value(text: str, name: str, labels: str = "") -> float:
    """One sample value out of an exposition text, 0.0 when absent."""
    needle = f"{name}{labels} "
    for line in text.splitlines():
        if line.startswith(needle):
            return float(line[len(needle):])
    return 0.0


class TestRoundTrip:
    def test_scrape_matches_result_counters_exactly(self, plane, graph):
        """The acceptance criterion: scrape == EnumerationResult."""
        config = EnumerationConfig(k_min=3, level_store="wah")
        with JobScheduler(workers=1) as sched:
            job = sched.submit(JobSpec(graph=graph, config=config))
            job.wait(timeout=30)
            assert job.status.value == "done"
            text = sched.render_metrics()
        result = job.result
        c = result.counters
        assert metric_value(
            text, "repro_cliques_emitted_total"
        ) == c.maximal_emitted
        assert metric_value(
            text, "repro_cliques_generated_total"
        ) == c.cliques_generated
        assert metric_value(
            text, "repro_sublists_created_total"
        ) == c.sublists_created
        assert metric_value(
            text, "repro_job_levels_total"
        ) == c.levels
        # the wah run's kernel/codec telemetry round-trips too
        assert metric_value(
            text, "repro_kernel_word_ops_total"
        ) == result.domain_stats["kernel_word_ops"]
        assert metric_value(
            text, "repro_kernel_ands_total"
        ) == result.domain_stats["kernel_ands"]
        assert metric_value(
            text, "repro_decompressed_bytes_avoided_total"
        ) == result.domain_stats["decompressed_bytes_avoided"]
        # per-level candidates, one labelled sample per level
        for stats in result.level_stats:
            assert metric_value(
                text,
                "repro_level_candidates_total",
                labels=f'{{k="{stats.k}"}}',
            ) == stats.n_candidates
        assert metric_value(
            text, "repro_jobs_finished_total", labels='{status="done"}'
        ) == 1
        # no series outside the declared table: every family the scrape
        # types is a METRICS row of that kind
        types = [
            line.split()[2:] for line in text.splitlines()
            if line.startswith("# TYPE ")
        ]
        assert types
        for name, kind in types:
            assert name in METRICS and METRICS[name][0] == kind, name

    def test_two_jobs_accumulate(self, plane, graph):
        config = EnumerationConfig(k_min=3)
        with JobScheduler(workers=1, cache=None) as sched:
            jobs = [
                sched.submit(JobSpec(graph=graph, config=config))
                for _ in range(2)
            ]
            for job in jobs:
                job.wait(timeout=30)
            text = sched.render_metrics()
        emitted = sum(j.result.counters.maximal_emitted for j in jobs)
        assert metric_value(
            text, "repro_cliques_emitted_total"
        ) == emitted

    def test_cache_replay_folds_as_replay_not_work(self, plane, graph):
        config = EnumerationConfig(k_min=3)
        with JobScheduler(workers=1) as sched:
            first = sched.submit(JobSpec(graph=graph, config=config))
            first.wait(timeout=30)
            second = sched.submit(JobSpec(graph=graph, config=config))
            second.wait(timeout=30)
            assert second.cache_hit
            text = sched.render_metrics()
        # the replay adds no operation counters — only the replay tally
        assert metric_value(
            text, "repro_cliques_emitted_total"
        ) == first.result.counters.maximal_emitted
        assert metric_value(
            text, "repro_cache_replayed_jobs_total"
        ) == 1
        assert metric_value(
            text, "repro_jobs_finished_total", labels='{status="done"}'
        ) == 2


class TestWireOps:
    def test_ping_reports_uptime_and_active_jobs(self, plane, graph):
        with JobScheduler(workers=1) as sched:
            with EnumerationServer(sched) as server:
                with ServiceClient(server.address) as client:
                    pong = client.ping()
                    assert pong["pong"] is True
                    assert pong["uptime_seconds"] >= 0
                    assert pong["active_jobs"] == 0
                    assert pong["workers"] == 1
                    job_id = client.submit(
                        graph, EnumerationConfig(k_min=3)
                    )
                    client.wait(job_id)
                    assert client.ping()["active_jobs"] == 0

    def test_metrics_and_stats_round_trip_over_the_wire(
        self, plane, graph
    ):
        with JobScheduler(workers=2) as sched:
            with EnumerationServer(sched) as server:
                with ServiceClient(server.address) as client:
                    job_id = client.submit(
                        graph, EnumerationConfig(k_min=3)
                    )
                    job = client.wait(job_id)
                    text = client.metrics()
                    stats = client.stats()
        assert metric_value(
            text, "repro_cliques_emitted_total"
        ) == job["counters"]["maximal_emitted"]
        assert metric_value(text, "repro_workers") == 2
        assert stats["jobs"]["done"] == 1
        assert stats["uptime_seconds"] > 0

    def test_concurrent_scrapes_while_jobs_run(self, plane, graph):
        """stats/metrics/trace ops stay consistent under churn."""
        config = EnumerationConfig(k_min=3)
        errors: list[Exception] = []

        def scrape_loop(address, stop):
            try:
                with ServiceClient(address) as client:
                    while not stop.is_set():
                        client.stats()
                        text = client.metrics()
                        assert "# TYPE repro_workers gauge" in text
                        client.trace(limit=10)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with JobScheduler(workers=2) as sched:
            with EnumerationServer(sched) as server:
                stop = threading.Event()
                scraper = threading.Thread(
                    target=scrape_loop, args=(server.address, stop)
                )
                scraper.start()
                with ServiceClient(server.address) as client:
                    ids = [
                        client.submit(graph, config, use_cache=False)
                        for _ in range(6)
                    ]
                    for job_id in ids:
                        client.wait(job_id)
                    final = client.metrics()
                stop.set()
                scraper.join()
        assert not errors
        assert metric_value(
            final, "repro_jobs_finished_total", labels='{status="done"}'
        ) == 6

    def test_trace_op_returns_job_spans(self, plane, graph):
        with JobScheduler(workers=1) as sched:
            with EnumerationServer(sched) as server:
                with ServiceClient(server.address) as client:
                    job_id = client.submit(
                        graph, EnumerationConfig(k_min=3)
                    )
                    client.wait(job_id)
                    records = client.trace()
        names = {r["name"] for r in records}
        assert "job" in names
        assert "level" in names

    def test_ops_refused_when_plane_disabled(self, graph):
        with JobScheduler(workers=1) as sched:
            with EnumerationServer(sched) as server:
                with ServiceClient(server.address) as client:
                    with pytest.raises(ServiceError):
                        client.metrics()
                    with pytest.raises(ServiceError):
                        client.trace()


class TestHttpExporter:
    def test_get_metrics_and_healthz(self, plane, graph):
        with JobScheduler(workers=1) as sched:
            job = sched.submit(
                JobSpec(graph=graph, config=EnumerationConfig(k_min=3))
            )
            job.wait(timeout=30)
            exporter = MetricsExporter(sched.render_metrics).start()
            try:
                host, port = exporter.address
                with urllib.request.urlopen(
                    f"http://{host}:{port}/metrics"
                ) as resp:
                    assert resp.status == 200
                    assert "version=0.0.4" in resp.headers["Content-Type"]
                    body = resp.read().decode()
                with urllib.request.urlopen(
                    f"http://{host}:{port}/healthz"
                ) as resp:
                    assert resp.read() == b"ok\n"
            finally:
                exporter.stop()
        assert metric_value(
            body, "repro_cliques_emitted_total"
        ) == job.result.counters.maximal_emitted

    def test_server_integrated_exporter(self, plane, graph):
        with JobScheduler(workers=1) as sched:
            with EnumerationServer(sched, metrics_port=0) as server:
                host, port = server.metrics_address
                body = urllib.request.urlopen(
                    f"http://{host}:{port}/metrics"
                ).read().decode()
                assert "repro_workers 1" in body

    def test_metrics_port_requires_enabled_plane(self):
        with JobScheduler(workers=1) as sched:
            with pytest.raises(ParameterError):
                EnumerationServer(sched, metrics_port=0)
        # the refused server must not have leaked a listener thread —
        # the scheduler context manager above still shuts down cleanly
