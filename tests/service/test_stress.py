"""Service-layer concurrency stress: the scheduler under the threads
backend, cancellation mid-run, and raising sinks.

Every test here is ``@pytest.mark.stress``: CI re-runs the marked set
under ``PYTHONFAULTHANDLER=1`` with a hard timeout, so a deadlock in
the scheduler/worker-pool interplay fails fast with stacks instead of
hanging the runner.  The regression this file pins forever: a sink that
raises mid-stream must *fail the job*, never hang or kill the worker
pool.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core import clique_enumerator, graph_io
from repro.core.generators import erdos_renyi, planted_partition
from repro.core.memory_model import predict_profile, seed_sublist_count
from repro.engine import EnumerationConfig, EnumerationEngine
from repro.parallel import thread_backend
from repro.service import scheduler as scheduler_module
from repro.service.jobs import JobSpec, JobStatus
from repro.service.scheduler import JobScheduler
from repro.service.sinks import CollectSink

pytestmark = pytest.mark.stress


@pytest.fixture(autouse=True)
def finest_stealing(monkeypatch):
    """Threads jobs steal one range at a time: maximum contention."""
    monkeypatch.setattr(thread_backend, "DEFAULT_STEAL_GRANULARITY", 1)


@pytest.fixture(autouse=True)
def range_per_sublist(monkeypatch):
    """A zero pair budget: every sub-list is a range of its own, so
    threads jobs on this small graph run their worker pools."""
    monkeypatch.setattr(clique_enumerator, "PAIR_BATCH_BYTES", 0)


@pytest.fixture
def graph():
    return planted_partition(
        70, [9, 8, 8, 7], p_in=0.9, p_out=0.04, seed=21
    )[0]


@pytest.fixture
def reference(graph):
    return EnumerationEngine().run(
        graph, EnumerationConfig(backend="incore", k_min=2)
    )


def _threads_spec(graph, jobs=2, priority=0, **kw):
    return JobSpec(
        graph=graph,
        config=EnumerationConfig(
            backend="threads",
            k_min=2,
            jobs=jobs,
        ),
        priority=priority,
        **kw,
    )


class _SlowCollectSink(CollectSink):
    """Collects but sleeps per clique, keeping a run cancellably long."""

    def __init__(self, delay: float, started: threading.Event):
        super().__init__()
        self._delay = delay
        self._started = started

    def _accept(self, clique):
        self._started.set()
        time.sleep(self._delay)
        super()._accept(clique)


class _ExplodingSink(CollectSink):
    """Raises mid-stream after accepting a few cliques."""

    def __init__(self, after: int):
        super().__init__()
        self._after = after

    def _accept(self, clique):
        if self.count > self._after:
            raise RuntimeError("sink exploded mid-stream")
        super()._accept(clique)


class TestSchedulerUnderThreadsBackend:
    def test_drain_completes_a_threads_burst(self, graph, reference):
        with JobScheduler(workers=3, cache=None) as sched:
            jobs = [
                sched.submit(_threads_spec(graph, jobs=2, priority=i % 3))
                for i in range(9)
            ]
            sched.drain(timeout=120)
            for job in jobs:
                assert job.status is JobStatus.DONE, job.error
                assert job.result.cliques == reference.cliques
                assert job.result.n_workers == 2

    def test_mixed_backend_burst_agrees(self, graph, reference):
        with JobScheduler(workers=3, cache=None) as sched:
            specs = [
                JobSpec(
                    graph=graph,
                    config=EnumerationConfig(
                        backend=backend,
                        k_min=2,
                        jobs=2 if backend == "threads" else None,
                        level_store=store,
                    ),
                )
                for backend, store in (
                    ("incore", "memory"),
                    ("threads", "memory"),
                    ("incore", "disk"),
                    ("threads", "wah"),
                )
            ]
            jobs = sched.submit_batch(specs)
            sched.drain(timeout=120)
            for job in jobs:
                assert job.status is JobStatus.DONE, job.error
                assert job.result.cliques == reference.cliques

    def test_shutdown_nowait_cancels_queued_threads_jobs(self, graph):
        sched = JobScheduler(workers=1, cache=None)
        jobs = [sched.submit(_threads_spec(graph)) for _ in range(6)]
        sched.shutdown(wait=False)
        for job in jobs:
            job.wait(timeout=60)
            assert job.status in (JobStatus.DONE, JobStatus.CANCELLED)


class TestCancellationMidLevel:
    def test_cancel_lands_while_threads_job_runs(self, graph, monkeypatch):
        """Cancel a RUNNING threads job: it must terminate CANCELLED
        (cooperatively, at an emission) without wedging the worker."""
        started = threading.Event()
        monkeypatch.setattr(
            scheduler_module,
            "make_sink",
            lambda spec: _SlowCollectSink(0.02, started),
        )
        with JobScheduler(workers=1, cache=None) as sched:
            job = sched.submit(_threads_spec(graph, jobs=2))
            assert started.wait(timeout=60), "job never started emitting"
            assert sched.cancel(job.id)
            job.wait(timeout=60)
            assert job.status is JobStatus.CANCELLED
            # the worker survived: a follow-up job runs to completion
            monkeypatch.setattr(scheduler_module, "make_sink",
                                lambda spec: CollectSink())
            follow_up = sched.submit(_threads_spec(graph, jobs=2))
            follow_up.wait(timeout=120)
            assert follow_up.status is JobStatus.DONE

    def test_cancel_pending_never_runs(self, graph):
        with JobScheduler(workers=1, cache=None) as sched:
            blocker = sched.submit(_threads_spec(graph))
            queued = [sched.submit(_threads_spec(graph)) for _ in range(3)]
            for job in queued:
                sched.cancel(job.id)
            sched.drain(timeout=120)
            assert blocker.status is JobStatus.DONE
            assert all(
                job.status is JobStatus.CANCELLED for job in queued
            )


class TestRaisingSinkRegression:
    def test_sink_raising_mid_stream_fails_job_not_pool(
        self, graph, reference, monkeypatch
    ):
        """THE regression: a mid-stream sink exception must surface as
        a FAILED job — with the error recorded — while the worker pool
        keeps serving subsequent jobs."""
        monkeypatch.setattr(
            scheduler_module, "make_sink", lambda spec: _ExplodingSink(3)
        )
        with JobScheduler(workers=2, cache=None) as sched:
            exploding = [
                sched.submit(_threads_spec(graph, jobs=2))
                for _ in range(4)
            ]
            sched.drain(timeout=120)
            for job in exploding:
                assert job.status is JobStatus.FAILED
                assert "exploded mid-stream" in (job.error or "")
            # pool is intact: a healthy job on the same scheduler runs
            monkeypatch.setattr(scheduler_module, "make_sink",
                                lambda spec: CollectSink())
            healthy = sched.submit(_threads_spec(graph, jobs=2))
            healthy.wait(timeout=120)
            assert healthy.status is JobStatus.DONE
            assert healthy.result.cliques == reference.cliques

    def test_sink_raising_on_sequential_backend_too(
        self, graph, monkeypatch
    ):
        """The guarantee is backend-independent (same emit path)."""
        monkeypatch.setattr(
            scheduler_module, "make_sink", lambda spec: _ExplodingSink(3)
        )
        with JobScheduler(workers=1, cache=None) as sched:
            job = sched.submit(
                JobSpec(
                    graph=graph,
                    config=EnumerationConfig(backend="incore", k_min=2),
                )
            )
            job.wait(timeout=120)
            assert job.status is JobStatus.FAILED
            assert "exploded mid-stream" in (job.error or "")


class TestPredictionMemoUnderConcurrentSubmits:
    def test_concurrent_submitters_share_a_churning_memo(
        self, tmp_path, monkeypatch
    ):
        """Eight submitters race on a three-entry prediction memo over
        more (graph, window) keys than it holds, with a tiny switch
        interval: every job is still charged its fresh prediction and
        the memo never outgrows its bound."""
        monkeypatch.setattr(scheduler_module, "PREDICTION_MEMO_SIZE", 3)
        graphs = [erdos_renyi(24, 0.3, seed=s) for s in range(3)]
        paths = [str(tmp_path / f"g{s}.json") for s in range(3)]
        for g, path in zip(graphs, paths):
            graph_io.write_json(g, path)
        windows = [(1, None), (3, None), (3, 4)]
        expected = {
            (gi, w): predict_profile(
                g.n, g.m, w[0],
                seed_sublist_count(g) if w[0] <= 2 else None,
                k_max=w[1],
            ).peak_bytes("memory")
            for gi, g in enumerate(graphs)
            for w in windows
        }
        keys = list(expected)
        submitted = []
        lock = threading.Lock()

        def submitter(sched, offset):
            for i in range(12):
                key = keys[(offset + i) % len(keys)]
                gi, (k_min, k_max) = key
                job = sched.submit(JobSpec(
                    graph=paths[gi], sink="count",
                    config=EnumerationConfig(k_min=k_min, k_max=k_max),
                ))
                with lock:
                    submitted.append((key, job))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with JobScheduler(workers=2) as sched:
                threads = [
                    threading.Thread(target=submitter, args=(sched, t))
                    for t in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                sched.drain(timeout=120)
                assert len(sched._profiles) <= 3
        finally:
            sys.setswitchinterval(interval)
        assert len(submitted) == 8 * 12
        for key, job in submitted:
            assert job.status is JobStatus.DONE, job.error
            assert job.predicted_peak_bytes == expected[key], key
