"""Scheduler behaviour: dispatch, caching, budgets, cancellation, drain."""

from __future__ import annotations

import threading

import pytest

from repro.core import graph_io
from repro.core.generators import barbell_graph, complete_graph, erdos_renyi
from repro.engine import EnumerationConfig, EnumerationEngine
from repro.errors import ParameterError
from repro.service import JobScheduler, JobSpec, JobStatus, ResultCache

ENGINE = EnumerationEngine()


@pytest.fixture
def g():
    return erdos_renyi(30, 0.3, seed=1)


@pytest.fixture
def sched():
    with JobScheduler(workers=2) as s:
        yield s


class TestDispatch:
    def test_job_reaches_done_with_reference_cliques(self, sched, g):
        cfg = EnumerationConfig(k_min=2)
        job = sched.submit(JobSpec(graph=g, config=cfg)).wait(30)
        assert job.status is JobStatus.DONE
        assert sorted(job.result.cliques) == sorted(
            ENGINE.run(g, cfg).cliques
        )
        assert job.sink_summary["cliques"] == len(job.result.cliques)

    def test_batch_submission(self, sched):
        specs = [
            JobSpec(graph=complete_graph(n), config=EnumerationConfig())
            for n in (3, 4, 5)
        ]
        jobs = sched.submit_batch(specs)
        sched.drain(30)
        assert [j.wait().result.cliques for j in jobs] == [
            [(0, 1, 2)], [(0, 1, 2, 3)], [(0, 1, 2, 3, 4)]
        ]

    def test_path_referenced_graph(self, sched, tmp_path):
        path = tmp_path / "g.json"
        graph_io.write_json(barbell_graph(3), path)
        job = sched.submit(JobSpec(graph=str(path))).wait(30)
        assert job.status is JobStatus.DONE
        assert sorted(job.result.cliques) == [(0, 1, 2), (2, 3), (3, 4, 5)]

    def test_missing_graph_file_fails_job_not_worker(self, sched):
        job = sched.submit(JobSpec(graph="/nonexistent/g.json")).wait(30)
        assert job.status is JobStatus.FAILED
        assert "nonexistent" in job.error
        # the worker survived: a follow-up job still runs
        ok = sched.submit(JobSpec(graph=complete_graph(3))).wait(30)
        assert ok.status is JobStatus.DONE

    def test_streaming_sink_job(self, sched, g, tmp_path):
        path = tmp_path / "out.jsonl"
        job = sched.submit(
            JobSpec(
                graph=g,
                config=EnumerationConfig(k_min=2),
                sink=f"jsonl:{path}",
                use_cache=False,
            )
        ).wait(30)
        assert job.status is JobStatus.DONE
        assert job.result.cliques == []  # streamed, never materialized
        assert path.exists()
        assert job.sink_summary["cliques"] > 0

    def test_unknown_job_id(self, sched):
        with pytest.raises(ParameterError, match="unknown job"):
            sched.get("job-999999")


class TestCaching:
    def test_repeat_job_is_cache_hit_without_reenumeration(self, g):
        cfg = EnumerationConfig(k_min=2)
        with JobScheduler(workers=1) as sched:
            first = sched.submit(JobSpec(graph=g, config=cfg)).wait(30)
            second = sched.submit(JobSpec(graph=g, config=cfg)).wait(30)
            assert not first.cache_hit
            assert second.cache_hit
            assert second.result is first.result
            assert sched.cache.stats()["hits"] == 1
            # aggregate counters count the work once, plus the tallies
            agg = sched.counters()
            assert agg.pair_checks == first.result.counters.pair_checks
            assert agg.extra["cache_hits"] == 1

    def test_cache_hit_replays_into_streaming_sink(self, g, tmp_path):
        cfg = EnumerationConfig(k_min=2)
        path = tmp_path / "replay.jsonl"
        with JobScheduler(workers=1) as sched:
            sched.submit(JobSpec(graph=g, config=cfg)).wait(30)
            job = sched.submit(
                JobSpec(graph=g, config=cfg, sink=f"jsonl:{path}")
            ).wait(30)
            assert job.cache_hit
            assert (
                len(path.read_text().splitlines())
                == job.sink_summary["cliques"]
                > 0
            )
            # a streaming-sink hit must not expose the cached clique
            # list — hit and miss produce the same clique-less result
            assert job.result.cliques == []

    def test_use_cache_false_bypasses(self, g):
        cfg = EnumerationConfig(k_min=2)
        with JobScheduler(workers=1) as sched:
            sched.submit(JobSpec(graph=g, config=cfg)).wait(30)
            job = sched.submit(
                JobSpec(graph=g, config=cfg, use_cache=False)
            ).wait(30)
            assert not job.cache_hit

    def test_disabled_cache(self, g):
        cfg = EnumerationConfig(k_min=2)
        with JobScheduler(workers=1, cache=None) as sched:
            sched.submit(JobSpec(graph=g, config=cfg)).wait(30)
            job = sched.submit(JobSpec(graph=g, config=cfg)).wait(30)
            assert not job.cache_hit
            assert sched.stats()["cache"] is None

    def test_shared_cache_across_schedulers(self, g):
        cache = ResultCache()
        cfg = EnumerationConfig(k_min=2)
        with JobScheduler(workers=1, cache=cache) as one:
            one.submit(JobSpec(graph=g, config=cfg)).wait(30)
        with JobScheduler(workers=1, cache=cache) as two:
            job = two.submit(JobSpec(graph=g, config=cfg)).wait(30)
            assert job.cache_hit


class TestBudgetsAndFailure:
    def test_budget_exceeded_fails_job(self, sched):
        g = erdos_renyi(30, 0.5, seed=2)
        job = sched.submit(
            JobSpec(
                graph=g,
                config=EnumerationConfig(k_min=2, max_cliques=3),
            )
        ).wait(30)
        assert job.status is JobStatus.FAILED
        assert "budget" in job.error
        assert "emitted=3" in job.error

    def test_bad_backend_option_fails_job(self, sched, tmp_path):
        """A spill directory that does not exist fails the job with
        its error, and the pool keeps serving."""
        missing = tmp_path / "missing"
        job = sched.submit(
            JobSpec(
                graph=complete_graph(4),
                config=EnumerationConfig(
                    level_store="disk", spill_dir=str(missing)
                ),
            )
        ).wait(30)
        assert job.status is JobStatus.FAILED
        assert str(missing) in job.error
        after = sched.submit(JobSpec(graph=complete_graph(4))).wait(30)
        assert after.status is JobStatus.DONE

    def test_failed_jsonl_job_preserves_previous_output(
        self, sched, tmp_path
    ):
        """Regression: a job that fails before emitting must not
        truncate the jsonl file a previous job wrote."""
        path = tmp_path / "out.jsonl"
        g = complete_graph(4)
        first = sched.submit(
            JobSpec(graph=g, sink=f"jsonl:{path}", use_cache=False)
        ).wait(30)
        assert first.status is JobStatus.DONE
        good = path.read_text()
        assert good
        failed = sched.submit(
            JobSpec(
                graph=g,
                config=EnumerationConfig(max_cliques=0),
                sink=f"jsonl:{path}",
                use_cache=False,
            )
        ).wait(30)
        assert failed.status is JobStatus.FAILED
        assert path.read_text() == good


class TestPriorityAndCancellation:
    def test_priority_orders_pending_queue(self):
        with JobScheduler(workers=1) as sched:
            release = threading.Event()
            started = threading.Event()
            original = sched.engine.run

            def gated(graph, config=None, on_clique=None):
                started.set()
                release.wait(30)
                return original(graph, config, on_clique)

            sched.engine.run = gated
            blocker = sched.submit(JobSpec(graph=complete_graph(3)))
            assert started.wait(30)
            sched.engine.run = original
            low = sched.submit(
                JobSpec(graph=complete_graph(4), priority=0)
            )
            high = sched.submit(
                JobSpec(graph=complete_graph(5), priority=5)
            )
            release.set()
            sched.drain(30)
            assert blocker.status is JobStatus.DONE
            assert high.finished_at < low.finished_at

    def test_cancel_pending_job(self):
        with JobScheduler(workers=1) as sched:
            release = threading.Event()
            started = threading.Event()
            original = sched.engine.run

            def gated(graph, config=None, on_clique=None):
                started.set()
                release.wait(30)
                return original(graph, config, on_clique)

            sched.engine.run = gated
            blocker = sched.submit(JobSpec(graph=complete_graph(3)))
            assert started.wait(30)
            sched.engine.run = original
            victim = sched.submit(JobSpec(graph=complete_graph(4)))
            assert sched.cancel(victim.id)
            release.set()
            sched.drain(30)
            assert victim.status is JobStatus.CANCELLED
            assert victim.result is None
            assert blocker.status is JobStatus.DONE

    def test_cancel_running_job_with_no_emissions_still_cancels(self):
        """Regression: a run that emits nothing never reaches emit()'s
        cancel check; an acknowledged cancellation must still win over
        DONE after engine.run returns."""
        from repro.core.graph import Graph

        with JobScheduler(workers=1) as sched:
            release = threading.Event()
            started = threading.Event()
            original = sched.engine.run

            def gated(graph, config=None, on_clique=None):
                started.set()
                release.wait(30)
                return original(graph, config, on_clique)

            sched.engine.run = gated
            # edgeless graph at k_min=2: the run emits zero cliques
            job = sched.submit(
                JobSpec(graph=Graph(5), config=EnumerationConfig(k_min=2))
            )
            assert started.wait(30)
            assert sched.cancel(job.id)
            release.set()
            job.wait(30)
            sched.engine.run = original
            assert job.status is JobStatus.CANCELLED
            assert job.result is None

    def test_cancel_terminal_job_returns_false(self, sched):
        job = sched.submit(JobSpec(graph=complete_graph(3))).wait(30)
        assert not sched.cancel(job.id)

    def test_cancel_running_check_holds_scheduler_lock(self):
        """Regression: cancel() once checked ``status is RUNNING``
        *outside* the lock, so a worker finishing concurrently could
        turn the acknowledged cancellation into a claim against an
        already-terminal job.  Now the check and the flag-set happen
        under the same lock every terminal transition takes."""
        with JobScheduler(workers=1) as sched:
            release = threading.Event()
            started = threading.Event()
            original = sched.engine.run

            def gated(graph, config=None, on_clique=None):
                started.set()
                release.wait(30)
                return original(graph, config, on_clique)

            sched.engine.run = gated
            job = sched.submit(JobSpec(graph=complete_graph(3)))
            assert started.wait(30)
            held_at_set: list[bool] = []
            real_set = job._cancel.set

            def recording_set():
                held_at_set.append(sched._lock._is_owned())
                real_set()

            job._cancel.set = recording_set
            assert sched.cancel(job.id)
            job._cancel.set = real_set
            sched.engine.run = original
            release.set()
            job.wait(30)
            assert held_at_set == [True]
            assert job.status is JobStatus.CANCELLED


class TestShutdown:
    def test_shutdown_rejects_new_submissions(self):
        sched = JobScheduler(workers=1)
        sched.submit(JobSpec(graph=complete_graph(3)))
        sched.shutdown(wait=True)
        with pytest.raises(ParameterError, match="shut down"):
            sched.submit(JobSpec(graph=complete_graph(3)))

    def test_graceful_shutdown_finishes_queue(self):
        sched = JobScheduler(workers=1)
        jobs = [
            sched.submit(JobSpec(graph=complete_graph(n)))
            for n in (3, 4, 5, 6)
        ]
        sched.shutdown(wait=True)
        assert all(j.status is JobStatus.DONE for j in jobs)

    def test_drain_timeout(self):
        with JobScheduler(workers=1) as sched:
            release = threading.Event()
            original = sched.engine.run

            def gated(graph, config=None, on_clique=None):
                release.wait(30)
                return original(graph, config, on_clique)

            sched.engine.run = gated
            sched.submit(JobSpec(graph=complete_graph(3)))
            with pytest.raises(TimeoutError):
                sched.drain(timeout=0.05)
            release.set()
            sched.drain(30)

    def test_invalid_worker_count(self):
        with pytest.raises(ParameterError):
            JobScheduler(workers=0)

    def test_invalid_retention_bounds(self):
        with pytest.raises(ParameterError):
            JobScheduler(retain_jobs=0)
        with pytest.raises(ParameterError):
            JobScheduler(graph_cache_size=0)


class TestRetention:
    def test_oldest_terminal_jobs_pruned_past_bound(self):
        with JobScheduler(workers=1, retain_jobs=3) as sched:
            jobs = []
            for _ in range(6):
                jobs.append(
                    sched.submit(JobSpec(graph=complete_graph(3)))
                )
                jobs[-1].wait(30)
            ids = [j.id for j in sched.jobs()]
            assert len(ids) == 3
            assert jobs[-1].id in ids  # newest survives
            assert jobs[0].id not in ids  # oldest terminal pruned
            with pytest.raises(ParameterError, match="unknown job"):
                sched.get(jobs[0].id)

    def test_in_flight_jobs_never_pruned(self):
        with JobScheduler(workers=1, retain_jobs=1) as sched:
            release = threading.Event()
            started = threading.Event()
            original = sched.engine.run

            def gated(graph, config=None, on_clique=None):
                started.set()
                release.wait(30)
                return original(graph, config, on_clique)

            sched.engine.run = gated
            running = sched.submit(JobSpec(graph=complete_graph(3)))
            assert started.wait(30)
            sched.engine.run = original
            pending = [
                sched.submit(JobSpec(graph=complete_graph(4)))
                for _ in range(3)
            ]
            # nothing terminal yet → nothing pruned despite the bound
            assert len(sched.jobs()) == 4
            release.set()
            sched.drain(30)
            assert running.status is JobStatus.DONE
            assert all(p.status is JobStatus.DONE for p in pending)

    def test_pruning_and_listing_use_submission_order_not_id_sort(self):
        """Regression: ordering by zero-padded id strings breaks past
        job-999999; insertion order must drive listing and pruning."""
        with JobScheduler(workers=1, retain_jobs=2) as sched:
            # simulate a service that has crossed the 6-digit id width
            import itertools

            sched._seq = itertools.count(999999)
            jobs = []
            for _ in range(3):
                jobs.append(
                    sched.submit(JobSpec(graph=complete_graph(3)))
                )
                jobs[-1].wait(30)
            ids = [j.id for j in sched.jobs()]
            # newest two retained, in submission order
            assert ids == [jobs[1].id, jobs[2].id]

    def test_graph_memo_is_lru_bounded(self, tmp_path):
        with JobScheduler(
            workers=1, graph_cache_size=2, cache=None
        ) as sched:
            for i in range(4):
                path = tmp_path / f"g{i}.json"
                graph_io.write_json(complete_graph(3), path)
                sched.submit(JobSpec(graph=str(path))).wait(30)
            assert len(sched._graphs) == 2


class TestStats:
    def test_stats_shape(self, sched):
        sched.submit(JobSpec(graph=complete_graph(3))).wait(30)
        stats = sched.stats()
        assert stats["workers"] == 2
        assert stats["jobs"]["done"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["admission"]["budget_bytes"] is None

    def test_stats_queued_counts_pending_jobs_not_queue_entries(self):
        """Regression: ``stats()["queued"]`` used to report the raw
        ``Queue.qsize()``, which counts stale entries for jobs already
        cancelled while pending (and, post-shutdown, the worker
        sentinels).  It must report jobs actually waiting to run."""
        with JobScheduler(workers=1) as sched:
            release = threading.Event()
            started = threading.Event()
            original = sched.engine.run

            def gated(graph, config=None, on_clique=None):
                started.set()
                release.wait(30)
                return original(graph, config, on_clique)

            sched.engine.run = gated
            blocker = sched.submit(JobSpec(graph=complete_graph(3)))
            assert started.wait(30)
            sched.engine.run = original
            victim = sched.submit(JobSpec(graph=complete_graph(4)))
            assert sched.stats()["queued"] == 1
            assert sched.cancel(victim.id)
            # the cancelled job's queue entry is still enqueued, but it
            # is no longer *queued work*
            assert sched.stats()["queued"] == 0
            release.set()
            sched.drain(30)
            assert blocker.status is JobStatus.DONE
            assert sched.stats()["queued"] == 0
