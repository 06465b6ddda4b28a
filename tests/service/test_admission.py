"""Memory-budget admission control: prediction, deferral, auto stores.

The invariants pinned here are the scheduler's two admission promises:
jobs never run concurrently over the budget, and an over-budget
singleton still runs alone (serialisation, never deadlock) — plus the
``level_store="auto"`` resolution that rides the same prediction.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.core import graph_io
from repro.core.generators import complete_graph, erdos_renyi
from repro.core.memory_model import predict_profile, seed_sublist_count
from repro.engine import LEVEL_STORES, EnumerationConfig, EnumerationEngine
from repro.errors import ParameterError
from repro.service import JobScheduler, JobSpec, JobStatus
from repro.service import scheduler as scheduler_module

ENGINE = EnumerationEngine()


def _graph(seed: int = 2):
    return erdos_renyi(30, 0.3, seed=seed)


def _predicted_cost(g, config=None) -> int:
    """The admission charge a submission of (g, config) gets."""
    config = config or EnumerationConfig()
    seeds = seed_sublist_count(g) if config.k_min <= 2 else None
    profile = predict_profile(g.n, g.m, config.k_min, seeds,
                              k_max=config.k_max)
    return profile.peak_bytes(config.level_store or "memory")


class _ConcurrencyProbe:
    """Wraps an engine's run() to record the max concurrent runs."""

    def __init__(self, engine):
        self._original = engine.run
        self._lock = threading.Lock()
        self.active = 0
        self.max_active = 0

    def __call__(self, graph, config=None, on_clique=None):
        with self._lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        try:
            time.sleep(0.01)  # widen the overlap window
            return self._original(graph, config, on_clique)
        finally:
            with self._lock:
                self.active -= 1


class TestPrediction:
    def test_predicted_peak_recorded_and_bounds_measured(self):
        g = _graph()
        with JobScheduler(workers=1) as sched:
            job = sched.submit(JobSpec(graph=g)).wait(30)
        assert job.status is JobStatus.DONE
        assert job.predicted_peak_bytes is not None
        assert job.predicted_peak_bytes > 0
        payload = job.to_dict()
        assert payload["predicted_peak_bytes"] == job.predicted_peak_bytes
        assert payload["measured_peak_bytes"] <= job.predicted_peak_bytes

    def test_unloadable_graph_predicts_none_and_fails_at_dispatch(self):
        with JobScheduler(workers=1) as sched:
            job = sched.submit(
                JobSpec(graph="/nonexistent/g.json")
            ).wait(30)
        assert job.predicted_peak_bytes is None
        assert job.status is JobStatus.FAILED
        assert "nonexistent" in job.error

    def test_negative_budget_rejected(self):
        with pytest.raises(ParameterError, match="memory_budget_bytes"):
            JobScheduler(workers=1, memory_budget_bytes=-1)


class TestAdmission:
    def test_budget_below_two_jobs_serialises_execution(self):
        g = _graph()
        cost = _predicted_cost(g)
        # one job fits, two do not: execution must serialise
        with JobScheduler(
            workers=4, memory_budget_bytes=cost + cost // 2
        ) as sched:
            probe = _ConcurrencyProbe(sched.engine)
            sched.engine.run = probe
            jobs = [
                sched.submit(JobSpec(graph=g, use_cache=False))
                for _ in range(6)
            ]
            sched.drain(60)
        assert all(j.status is JobStatus.DONE for j in jobs)
        assert probe.max_active == 1
        stats = sched.stats()
        assert stats["admission"]["admitted_total"] == 6
        assert stats["admission"]["deferred_total"] >= 1
        assert stats["admission"]["admitted_bytes"] == 0

    def test_over_budget_singleton_runs_alone_not_deadlock(self):
        g = _graph()
        # every job is bigger than the whole budget; each must still
        # run (alone) instead of starving the queue
        with JobScheduler(workers=2, memory_budget_bytes=1) as sched:
            probe = _ConcurrencyProbe(sched.engine)
            sched.engine.run = probe
            jobs = [
                sched.submit(JobSpec(graph=g, use_cache=False))
                for _ in range(3)
            ]
            sched.drain(60)
        assert all(j.status is JobStatus.DONE for j in jobs)
        assert probe.max_active == 1

    def test_zero_budget_is_legal_and_serialises(self):
        g = _graph()
        with JobScheduler(workers=2, memory_budget_bytes=0) as sched:
            jobs = [
                sched.submit(JobSpec(graph=g, use_cache=False))
                for _ in range(2)
            ]
            sched.drain(60)
        assert all(j.status is JobStatus.DONE for j in jobs)

    def test_no_budget_never_defers(self):
        g = _graph()
        with JobScheduler(workers=2) as sched:
            for _ in range(4):
                sched.submit(JobSpec(graph=g, use_cache=False))
            sched.drain(60)
            stats = sched.stats()
        assert stats["admission"]["budget_bytes"] is None
        assert stats["admission"]["admitted_total"] == 4
        assert stats["admission"]["deferred_total"] == 0

    def test_deferred_job_counts_as_queued_in_stats(self):
        g = _graph()
        cost = _predicted_cost(g)
        with JobScheduler(
            workers=2, memory_budget_bytes=cost
        ) as sched:
            release = threading.Event()
            started = threading.Event()
            original = sched.engine.run

            def gated(graph, config=None, on_clique=None):
                started.set()
                release.wait(30)
                return original(graph, config, on_clique)

            sched.engine.run = gated
            blocker = sched.submit(JobSpec(graph=g, use_cache=False))
            assert started.wait(30)
            deferred = sched.submit(JobSpec(graph=g, use_cache=False))
            # wait for the idle worker to pull and defer the second job
            deadline = time.monotonic() + 10
            while (
                sched.stats()["admission"]["deferred_total"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            stats = sched.stats()
            assert stats["admission"]["deferred_total"] >= 1
            assert stats["queued"] == 1  # the deferred job is pending
            assert stats["jobs"]["running"] == 1
            sched.engine.run = original
            release.set()
            sched.drain(30)
        assert blocker.status is JobStatus.DONE
        assert deferred.status is JobStatus.DONE

    def test_cancel_while_admitted_releases_budget(self):
        g = _graph()
        cost = _predicted_cost(g)
        with JobScheduler(
            workers=2, memory_budget_bytes=cost
        ) as sched:
            release = threading.Event()
            started = threading.Event()
            original = sched.engine.run

            def gated(graph, config=None, on_clique=None):
                started.set()
                release.wait(30)
                return original(graph, config, on_clique)

            sched.engine.run = gated
            victim = sched.submit(JobSpec(graph=g, use_cache=False))
            assert started.wait(30)
            assert (
                sched.stats()["admission"]["admitted_bytes"] == cost
            )
            sched.engine.run = original
            follower = sched.submit(JobSpec(graph=g, use_cache=False))
            assert sched.cancel(victim.id)  # cooperative: flag only
            release.set()
            sched.drain(30)
            stats = sched.stats()
        assert victim.status is JobStatus.CANCELLED
        assert follower.status is JobStatus.DONE
        assert stats["admission"]["admitted_bytes"] == 0

    def test_deferred_jobs_complete_on_draining_shutdown(self):
        g = _graph()
        cost = _predicted_cost(g)
        sched = JobScheduler(workers=2, memory_budget_bytes=cost)
        jobs = [
            sched.submit(JobSpec(graph=g, use_cache=False))
            for _ in range(4)
        ]
        # deferred entries sort ahead of the shutdown sentinels, so a
        # draining shutdown must finish them, never strand them
        sched.shutdown(wait=True)
        assert all(j.status is JobStatus.DONE for j in jobs)


class TestAutoStore:
    def test_auto_resolves_to_wah_under_wah_sized_budget(self):
        g = _graph()
        config = EnumerationConfig(level_store="auto")
        seeds = seed_sublist_count(g)
        profile = predict_profile(g.n, g.m, config.k_min, seeds,
                                  k_max=config.k_max)
        budget = profile.peak_bytes("wah")
        assert budget < profile.peak_bytes("memory")
        with JobScheduler(
            workers=1, memory_budget_bytes=budget
        ) as sched:
            job = sched.submit(JobSpec(graph=g, config=config)).wait(30)
        assert job.status is JobStatus.DONE
        assert job.resolved_config.level_store == "wah"
        assert job.to_dict()["level_store"] == "wah"
        # the admission charge is the *resolved* substrate's estimate
        assert job.predicted_peak_bytes == budget
        # byte-identical cliques against the uncompressed substrate
        reference = ENGINE.run(
            g, EnumerationConfig(level_store="memory")
        )
        assert sorted(job.result.cliques) == sorted(reference.cliques)

    def test_auto_resolves_to_disk_when_nothing_fits(self):
        g = _graph()
        config = EnumerationConfig(level_store="auto")
        with JobScheduler(workers=1, memory_budget_bytes=1) as sched:
            job = sched.submit(JobSpec(graph=g, config=config)).wait(30)
        assert job.status is JobStatus.DONE
        assert job.resolved_config.level_store == "disk"
        reference = ENGINE.run(
            g, EnumerationConfig(level_store="memory")
        )
        assert sorted(job.result.cliques) == sorted(reference.cliques)

    def test_auto_without_budget_resolves_to_some_concrete_store(self):
        # no scheduler budget: resolution falls back to the machine's
        # available memory — whatever it picks must be concrete
        g = complete_graph(6)
        config = EnumerationConfig(level_store="auto")
        with JobScheduler(workers=1) as sched:
            job = sched.submit(JobSpec(graph=g, config=config)).wait(30)
        assert job.status is JobStatus.DONE
        assert job.resolved_config.level_store in LEVEL_STORES
        assert job.result.cliques == [(0, 1, 2, 3, 4, 5)]

    def test_auto_jobs_cache_on_resolved_substrate(self):
        # two identical auto submissions: the second must hit the
        # cache entry keyed by the *resolved* config
        g = _graph()
        config = EnumerationConfig(level_store="auto")
        with JobScheduler(workers=1) as sched:
            first = sched.submit(JobSpec(graph=g, config=config)).wait(30)
            second = sched.submit(JobSpec(graph=g, config=config)).wait(30)
        assert first.status is JobStatus.DONE
        assert not first.cache_hit
        assert second.cache_hit
        assert sorted(second.result.cliques) == sorted(
            first.result.cliques
        )


class _Spy:
    """Counts calls to a module-level name the scheduler looks up."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def _write_graphs(tmp_path, graphs) -> list[str]:
    """Each graph written to its own JSON file; returns the paths."""
    paths = []
    for i, g in enumerate(graphs):
        paths.append(str(tmp_path / f"g{i}.json"))
        graph_io.write_json(g, paths[-1])
    return paths


class TestPredictionMemo:
    """A path graph's admission prediction runs once per (graph
    content, k_min, k_max) window, whatever the number of submits — and
    every job is charged exactly what a fresh prediction would charge.
    An in-memory graph is mutable, so it predicts afresh."""

    @pytest.fixture
    def predicts(self, monkeypatch):
        return _Spy(monkeypatch, scheduler_module, "predict_profile")

    def test_sweep_requeries_predict_once_per_graph(
        self, tmp_path, predicts
    ):
        graphs = [_graph(seed) for seed in range(3)]
        paths = _write_graphs(tmp_path, graphs)
        requeries = 3
        config = EnumerationConfig(k_min=3)
        with JobScheduler(
            workers=1, memory_budget_bytes=10**12
        ) as sched:
            jobs = [
                sched.submit(JobSpec(graph=path, config=config)).wait(30)
                for _ in range(requeries + 1)
                for path in paths
            ]
            stats = sched.stats()["cache"]
        assert predicts.calls == len(graphs)
        assert all(job.status is JobStatus.DONE for job in jobs)
        for job, g in zip(jobs, graphs * (requeries + 1)):
            assert job.predicted_peak_bytes == _predicted_cost(g, config)
        # the memo leaves the result cache's tallies alone: one miss
        # per graph, one hit per re-query
        assert stats["misses"] == len(graphs)
        assert stats["hits"] == len(graphs) * requeries
        assert [job.cache_hit for job in jobs] == (
            [False] * len(graphs) + [True] * len(graphs) * requeries
        )

    def test_rewritten_file_predicts_again_only_on_new_content(
        self, tmp_path, predicts
    ):
        path = tmp_path / "g.json"
        first, second = _graph(1), _graph(2)

        def write(g, tick):
            # a distinct mtime per write, whatever the clock resolution
            graph_io.write_json(g, path)
            os.utime(path, ns=(tick * 10**9, tick * 10**9))

        with JobScheduler(workers=1, cache=None) as sched:
            def charge():
                job = sched.submit(JobSpec(graph=str(path))).wait(30)
                assert job.status is JobStatus.DONE
                return job.predicted_peak_bytes

            write(first, 1)
            assert charge() == _predicted_cost(first)
            write(first, 2)  # identical content: same fingerprint
            assert charge() == _predicted_cost(first)
            assert predicts.calls == 1
            write(second, 3)
            assert charge() == _predicted_cost(second)
            assert predicts.calls == 2

    def test_each_window_gets_its_own_entry(self, tmp_path, predicts):
        g = _graph()
        (path,) = _write_graphs(tmp_path, [g])
        windows = [
            EnumerationConfig(k_min=1),
            EnumerationConfig(k_min=3),
            EnumerationConfig(k_min=3, k_max=4),
            EnumerationConfig(k_min=3, k_max=5),
        ]
        with JobScheduler(workers=1) as sched:
            for _ in range(2):
                for config in windows:
                    job = sched.submit(
                        JobSpec(graph=path, config=config)
                    ).wait(30)
                    assert job.predicted_peak_bytes == _predicted_cost(
                        g, config
                    )
            assert len(sched._profiles) == len(windows)
        assert predicts.calls == len(windows)

    def test_seed_count_runs_once_per_graph_content(
        self, tmp_path, monkeypatch
    ):
        seeds = _Spy(monkeypatch, scheduler_module, "seed_sublist_count")
        # three files, two contents
        paths = _write_graphs(tmp_path, [_graph(1), _graph(1), _graph(2)])
        with JobScheduler(workers=1) as sched:
            for path in paths * 2:
                sched.submit(JobSpec(graph=path)).wait(30)
        assert seeds.calls == 2

    def test_memo_stays_at_its_bound_and_correct(
        self, tmp_path, monkeypatch, predicts
    ):
        monkeypatch.setattr(scheduler_module, "PREDICTION_MEMO_SIZE", 3)
        g = _graph()
        (path,) = _write_graphs(tmp_path, [g])
        windows = [EnumerationConfig(k_min=3, k_max=k) for k in range(3, 9)]
        with JobScheduler(workers=1) as sched:
            for config in windows + windows[:1]:
                job = sched.submit(
                    JobSpec(graph=path, config=config)
                ).wait(30)
                assert job.predicted_peak_bytes == _predicted_cost(
                    g, config
                )
                assert len(sched._profiles) <= 3
            assert len(sched._profiles) == 3
        # the first window was evicted, so its re-query predicts again
        assert predicts.calls == len(windows) + 1

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_in_memory_graph_predicts_every_submit(
        self, monkeypatch, predicts, use_cache
    ):
        hashes = _Spy(monkeypatch, scheduler_module, "graph_fingerprint")
        g = _graph()
        repeats = 3
        with JobScheduler(workers=1) as sched:
            jobs = [
                sched.submit(JobSpec(graph=g, use_cache=use_cache)).wait(30)
                for _ in range(repeats)
            ]
            assert len(sched._profiles) == 0
            stats = sched.stats()["cache"]
        assert predicts.calls == repeats
        assert {job.predicted_peak_bytes for job in jobs} == {
            _predicted_cost(g)
        }
        # hashed at dispatch, once per cacheable job
        assert hashes.calls == (repeats if use_cache else 0)
        hits = [job.cache_hit for job in jobs]
        if use_cache:
            assert hits == [False] + [True] * (repeats - 1)
            assert (stats["hits"], stats["misses"]) == (repeats - 1, 1)
        else:
            assert not any(hits)

    def test_graph_mutated_while_queued_caches_what_ran(self):
        """An in-memory graph changed between submit and dispatch is
        cached under the content that ran, so a later submit of its
        original content never replays the changed graph's cliques."""
        g = _graph()
        original = graph_io.graph_fingerprint(g)
        expected = sorted(ENGINE.run(_graph()).cliques)
        started, release = threading.Event(), threading.Event()
        with JobScheduler(workers=1) as sched:
            run = sched.engine.run

            def gated(graph, config=None, on_clique=None):
                if not release.is_set():
                    started.set()
                    release.wait(30)
                return run(graph, config, on_clique)

            sched.engine.run = gated
            # the worker holds a blocker, so g's job stays queued
            blocker = sched.submit(JobSpec(graph=complete_graph(4)))
            assert started.wait(30)
            job = sched.submit(JobSpec(graph=g))
            assert job.status is JobStatus.PENDING
            u, v = next(
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            )
            g.add_edge(u, v)
            assert graph_io.graph_fingerprint(g) != original
            release.set()
            assert blocker.wait(30).status is JobStatus.DONE
            assert job.wait(30).status is JobStatus.DONE
            assert sorted(job.result.cliques) == sorted(
                ENGINE.run(g).cliques
            )
            fresh = sched.submit(JobSpec(graph=_graph())).wait(30)
        assert fresh.status is JobStatus.DONE
        assert not fresh.cache_hit
        assert sorted(fresh.result.cliques) == expected
