"""Thread-pool job scheduler: the service's dispatch loop.

Workers pull :class:`~repro.service.jobs.Job` records off a priority
queue and dispatch them through one shared
:class:`~repro.engine.api.EnumerationEngine` — the scheduler is a thin
orchestration layer, exactly what the PR-1 engine refactor was built
for.  Per-job resource budgets ride on the existing
:class:`~repro.errors.BudgetExceeded` path (a tripped budget fails the
job, never the worker), cancellation is cooperative through the sink
callback, and :meth:`JobScheduler.drain` provides a graceful
stop-accepting-then-finish shutdown.

Caching: jobs run with ``use_cache=True`` consult the scheduler's
:class:`~repro.service.cache.ResultCache`.  A hit replays the cached
cliques through the job's sink — so even a ``jsonl`` job is served
from cache with its file fully written — and skips enumeration
entirely.  Only ``collect`` jobs *populate* the cache (their results
carry the cliques a replay needs); streaming-sink jobs exist to avoid
materializing output, so they are never forced to collect just to warm
the cache.

Admission control: with a ``memory_budget_bytes``, every submission
gets a predicted candidate-storage peak from the memory model's
forward recurrences (:func:`~repro.core.memory_model.predict_profile`)
and a worker only claims a job when that prediction fits the budget
remaining after the jobs already in flight — otherwise the job is
*deferred* and re-queued when any in-flight job reaches a terminal
state (which is when budget frees).  A job predicted over the whole
budget still runs once nothing else is admitted, so a single oversized
job degrades to serial execution instead of deadlocking the queue.  A
``level_store="auto"`` submission is resolved here, against the same
budget, to the cheapest substrate whose prediction fits.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

from repro.errors import BudgetExceeded, ParameterError, ReproError
from repro.core.counters import OpCounters
from repro.core.graph import Graph
from repro.core.graph_io import graph_fingerprint, load as load_graph
from repro.core.memory_model import (
    PredictedProfile,
    predict_profile,
    seed_sublist_count,
)
from repro.engine.api import EnumerationEngine
from repro.engine.config import LEVEL_STORE_AUTO, resolve_level_store
from repro.obs.bridge import fold_job, sample_service
from repro.obs.runtime import Observability, get_observability
from repro.service.cache import ResultCache
from repro.service.jobs import Job, JobSpec, JobStatus
from repro.service.sinks import CollectSink, make_sink

__all__ = ["JobScheduler"]


class _Cancelled(Exception):
    """Internal: raised inside the emit path to abort a running job."""


#: queue sentinel that tells a worker to exit; sorts after every job
#: entry so queued work drains before workers stop.
_SHUTDOWN_PRIORITY = (1, 0)

#: LRU bound on the admission-prediction memo (one entry per graph
#: content and ``(k_min, k_max)`` window) — the default result-cache
#: size, so a full cache's re-queries all find their prediction.
PREDICTION_MEMO_SIZE = 128


class JobScheduler:
    """Priority-queued thread pool running enumeration jobs.

    Parameters
    ----------
    workers:
        Worker-thread count.  Enumeration is numpy-heavy, so threads
        overlap usefully despite the GIL; a job needing parallelism
        *within* one enumeration uses the ``"threads"`` backend inside
        its config, which streams cliques through the sink at every
        level barrier, so budgets and cooperative cancellation fire at
        most one level late.
    cache:
        A :class:`ResultCache` to share, ``None`` to disable caching
        entirely, or leave unset for a fresh default cache.
    engine:
        The engine facade to dispatch through (a default one if unset).
    retain_jobs:
        Bound on retained job records: once exceeded, the *oldest
        terminal* jobs (and their attached results) are pruned so a
        long-lived service cannot grow without bound.  Pruned ids
        disappear from :meth:`jobs` and :meth:`get`.  In-flight jobs
        are never pruned.
    graph_cache_size:
        LRU bound on the (path, mtime)-keyed memo of loaded graphs.
    memory_budget_bytes:
        Machine memory budget for admission control, or ``None`` (the
        default) to admit every job immediately.  With a budget,
        workers claim a job only when its predicted candidate-storage
        peak fits next to the jobs already running; ``0`` is legal and
        serialises every predicted-nonzero job.  The budget also feeds
        ``level_store="auto"`` resolution (without one, the machine's
        currently available memory is used for that resolution
        instead).  Either way every job gets a prediction; a path
        graph's is memoized (LRU, :data:`PREDICTION_MEMO_SIZE` entries)
        by its content fingerprint and the job's ``(k_min, k_max)``
        window.
    obs:
        An explicit :class:`~repro.obs.runtime.Observability` plane to
        report into; unset, the process-wide ambient plane is resolved
        at each use (disabled by default, so an unconfigured scheduler
        pays only a flag check per job).

    Use as a context manager for deterministic shutdown::

        with JobScheduler(workers=4) as sched:
            jobs = [sched.submit(spec) for spec in specs]
            sched.drain()
    """

    _DEFAULT_CACHE = object()

    def __init__(
        self,
        workers: int = 2,
        cache: ResultCache | None = _DEFAULT_CACHE,  # type: ignore[assignment]
        engine: EnumerationEngine | None = None,
        retain_jobs: int = 1024,
        graph_cache_size: int = 16,
        memory_budget_bytes: int | None = None,
        obs: Observability | None = None,
    ):
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if retain_jobs < 1:
            raise ParameterError(
                f"retain_jobs must be >= 1, got {retain_jobs}"
            )
        if graph_cache_size < 1:
            raise ParameterError(
                f"graph_cache_size must be >= 1, got {graph_cache_size}"
            )
        if memory_budget_bytes is not None and memory_budget_bytes < 0:
            raise ParameterError(
                "memory_budget_bytes must be >= 0, got "
                f"{memory_budget_bytes}"
            )
        self.engine = engine if engine is not None else EnumerationEngine()
        self.cache = (
            ResultCache() if cache is self._DEFAULT_CACHE else cache
        )
        self.n_workers = workers
        self.retain_jobs = retain_jobs
        self.graph_cache_size = graph_cache_size
        self.memory_budget_bytes = memory_budget_bytes
        self.started_at = time.time()
        # pinned plane, or the ambient one resolved per use (so a test
        # configuring observability after construction is still seen)
        self._obs = obs
        self._queue: queue.PriorityQueue = queue.PriorityQueue()
        self._jobs: dict[str, Job] = {}
        # (path, mtime) -> (Graph, fingerprint): the fingerprint is
        # memoized with the graph so a sweep of jobs against one file
        # hashes its adjacency bitmap once, not once per job
        self._graphs: OrderedDict[
            tuple[str, int], tuple[Graph, str]
        ] = OrderedDict()
        # (fingerprint, k_min, k_max) -> PredictedProfile: the model's
        # output depends on nothing else, so re-queries of one graph
        # content reuse it.  Entries are shared: read, never mutate.
        self._profiles: OrderedDict[
            tuple[str, int, int | None], PredictedProfile
        ] = OrderedDict()
        # re-entrant: the terminal hook releases admission budget (and
        # cancel() reaches it while already holding the lock)
        self._lock = threading.RLock()
        self._seq = itertools.count(1)
        self._accepting = True
        # admission state, all guarded by _lock: bytes charged by the
        # jobs currently admitted, cumulative admit/defer tallies, and
        # the deferred (queue key, job) entries waiting for budget
        self._admitted_bytes = 0
        self._admitted_total = 0
        self._deferred_total = 0
        self._deferred: list[tuple[tuple, Job]] = []
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"enum-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # -- submission ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Queue one job; returns its :class:`Job` record immediately.

        Submission is where the memory model runs: the job's predicted
        candidate-storage peak is computed here (and charged against
        the budget when a worker claims it), and a
        ``level_store="auto"`` spec is resolved to the concrete
        substrate the prediction says fits.  Both ride on the job
        record — :meth:`Job.to_dict` reports predicted vs measured.
        A path graph's profile is memoized by its content fingerprint
        and the ``(k_min, k_max)`` window, so a re-query of the same
        content and window (a cache hit, say) does not re-run the
        model.
        """
        # predict outside the lock: a path-referenced graph loads (and
        # memoizes) here, which must not stall concurrent submitters
        predicted, resolved = self._predict_spec(spec)
        with self._lock:
            if not self._accepting:
                raise ParameterError(
                    "scheduler is shut down; no new jobs accepted"
                )
            seq = next(self._seq)
            job = Job(f"job-{seq:06d}", spec)
            job.predicted_peak_bytes = predicted
            job.resolved_config = resolved
            job._on_terminal = self._fold_terminal
            self._jobs[job.id] = job
            self._prune_jobs_locked()
            # enqueue under the lock: a concurrent shutdown(wait=True)
            # must not queue its sentinels (and join the workers)
            # between the _accepting check and this put, or the job
            # would sit PENDING forever behind exited workers.
            # sort key: shutdown sentinels last, then higher priority
            # first, then submission order
            self._queue.put(((0, -spec.priority, seq), job))
        return job

    def _prune_jobs_locked(self) -> None:
        excess = len(self._jobs) - self.retain_jobs
        if excess <= 0:
            return
        # _jobs is insertion-ordered (submissions append under the
        # lock), so iterating it walks oldest-first — unlike sorting
        # the zero-padded ids, this stays correct past job-999999
        for job_id in list(self._jobs):
            if excess <= 0:
                break
            if self._jobs[job_id].done:
                del self._jobs[job_id]
                excess -= 1

    def submit_batch(self, specs: list[JobSpec]) -> list[Job]:
        """Queue many jobs at once (a sweep); returns their records."""
        return [self.submit(spec) for spec in specs]

    def _predict_spec(self, spec: JobSpec):
        """``(predicted peak bytes | None, resolved config)`` for a spec.

        Takes the memory-model profile of the spec's graph (see
        :meth:`_profile`) and resolves a ``level_store="auto"`` against
        the scheduler's budget (falling back to the machine's available
        memory when no budget is configured).  A graph that fails to
        load predicts ``None`` — the job is admitted uncharged and
        fails at dispatch with the real load error, exactly as it did
        before admission control existed.
        """
        config = spec.config
        try:
            g, fingerprint = self._resolve_graph(spec.graph)
        except (ReproError, OSError):
            return None, config
        predicted = self._profile(g, fingerprint, config.k_min, config.k_max)
        if config.level_store == LEVEL_STORE_AUTO:
            store = resolve_level_store(
                config,
                g,
                self.memory_budget_bytes,
                predicted=predicted,
            )
            config = replace(config, level_store=store)
        return predicted.peak_bytes(config.level_store), config

    def _profile(
        self,
        g: Graph,
        fingerprint: str | None,
        k_min: int,
        k_max: int | None,
    ) -> PredictedProfile:
        """The memory-model profile of ``g`` in one size window.

        Memoized (LRU, :data:`PREDICTION_MEMO_SIZE` entries) by
        ``(fingerprint, k_min, k_max)`` — the forward run, and the
        exact seed count of a ``k_min <= 2`` window, depend on nothing
        else.  Only a path graph comes with a fingerprint (from the
        graph memo); an in-memory graph is mutable and unhashed at
        submit, so it is predicted afresh.
        """
        key = (fingerprint, k_min, k_max)
        if fingerprint is not None:
            with self._lock:
                profile = self._profiles.get(key)
                if profile is not None:
                    self._profiles.move_to_end(key)
                    return profile
        seeds = seed_sublist_count(g) if k_min <= 2 else None
        profile = predict_profile(g.n, g.m, k_min, seeds, k_max=k_max)
        if fingerprint is not None:
            with self._lock:
                self._profiles[key] = profile
                while len(self._profiles) > PREDICTION_MEMO_SIZE:
                    self._profiles.popitem(last=False)
        return profile

    def _admit_locked(self, key: tuple, job: Job) -> bool:
        """Claim-time admission check; caller holds ``_lock``.

        Charges the job's predicted peak against the budget and admits
        it, or defers it (recording its queue key for the re-queue on
        the next terminal transition).  Admission never defers when
        nothing is currently admitted: an over-budget singleton runs
        alone rather than deadlocking — the budget then degrades to
        one-job-at-a-time serialisation.
        """
        cost = job.predicted_peak_bytes or 0
        budget = self.memory_budget_bytes
        if (
            budget is not None
            and cost > 0
            and self._admitted_bytes > 0
            and self._admitted_bytes + cost > budget
        ):
            self._deferred.append((key, job))
            self._deferred_total += 1
            return False
        job._admitted_bytes = cost
        self._admitted_bytes += cost
        self._admitted_total += 1
        return True

    def _release_admission(self, job: Job) -> None:
        """Return a terminal job's budget charge and wake deferred work.

        Every deferred entry is re-queued (their keys still sort ahead
        of shutdown sentinels, so a draining shutdown completes them);
        a worker re-defers whatever still does not fit.  Deferral only
        ever happens while something is admitted, so there is always a
        coming terminal transition to re-queue against — no lost
        wake-ups.
        """
        with self._lock:
            released = job._admitted_bytes
            job._admitted_bytes = 0
            if not released:
                # nothing charged, nothing freed: an uncharged terminal
                # cannot unblock deferred work, and deferral only ever
                # happens while some *charged* job is in flight — its
                # own release re-queues, so no wake-up is lost
                return
            self._admitted_bytes = max(0, self._admitted_bytes - released)
            if self._deferred:
                requeue, self._deferred = self._deferred, []
                for key, deferred in requeue:
                    if not deferred.done:
                        self._queue.put((key, deferred))

    # -- observation ---------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """Look up a job by id; raises on unknown ids."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ParameterError(f"unknown job id {job_id!r}") from None

    def jobs(self) -> list[Job]:
        """Every retained job, in submission (insertion) order."""
        with self._lock:
            return list(self._jobs.values())

    def counters(self) -> OpCounters:
        """Aggregate operation counters over finished jobs + cache tallies.

        Cache-hit jobs contribute nothing here (their work was done by
        the original run); the hit itself shows up in the folded
        ``cache_hits`` tally.
        """
        agg = OpCounters()
        for job in self.jobs():
            if job.status is JobStatus.DONE and not job.cache_hit:
                agg.merge(job.result.counters)
        if self.cache is not None:
            self.cache.fold_into(agg)
        return agg

    def stats(self) -> dict:
        """Queue depth, per-status counts, admission, and cache stats."""
        with self._lock:
            jobs = list(self._jobs.values())
            admission = {
                "budget_bytes": self.memory_budget_bytes,
                "admitted_bytes": self._admitted_bytes,
                "admitted_total": self._admitted_total,
                "deferred_total": self._deferred_total,
            }
        by_status: dict[str, int] = {s.value: 0 for s in JobStatus}
        for job in jobs:
            by_status[job.status.value] += 1
        return {
            "workers": self.n_workers,
            # jobs actually waiting to run (deferred ones included) —
            # the raw queue size also counts shutdown sentinels and
            # stale entries for already-cancelled jobs
            "queued": by_status[JobStatus.PENDING.value],
            "jobs": by_status,
            "admission": admission,
            "uptime_seconds": time.time() - self.started_at,
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    @property
    def obs(self) -> Observability:
        """The observability plane this scheduler reports into."""
        return self._obs if self._obs is not None else get_observability()

    def render_metrics(self) -> str:
        """One Prometheus-text scrape: refresh gauges, then render.

        Raises :class:`~repro.errors.ParameterError` when the plane has
        metrics disabled — the wire op and the HTTP exporter both want
        a hard error over silently empty output.
        """
        obs = self.obs
        if not obs.metrics_on:
            raise ParameterError(
                "metrics are disabled; start the service with --metrics "
                "or configure(metrics=True)"
            )
        sample_service(obs.registry, self)
        return obs.registry.render()

    # -- control -------------------------------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a job: immediately when pending, cooperatively when
        running (the next emission aborts it).  Returns False when the
        job is already terminal."""
        job = self.get(job_id)
        # both branches under the lock: every terminal transition also
        # happens under it (workers finish through _finish_job), so a
        # RUNNING observed here is still RUNNING when the flag is set —
        # checked outside, the job could finish DONE in between and
        # cancel would claim success against a terminal job
        with self._lock:
            if job.status is JobStatus.PENDING:
                job._cancel.set()
                job._finish(JobStatus.CANCELLED)
                return True
            if job.status is JobStatus.RUNNING:
                job._cancel.set()
                return True
        return False

    def drain(self, timeout: float | None = None) -> None:
        """Block until every submitted job is terminal.

        Raises ``TimeoutError`` when the deadline passes with work
        still in flight.  New submissions stay allowed — call
        :meth:`shutdown` for a terminal drain.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for job in self.jobs():
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                raise TimeoutError("drain timed out with jobs in flight")
            job.wait(remaining)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs; optionally finish the queue and join.

        With ``wait=True`` queued work completes first (the shutdown
        sentinels sort after every job).  With ``wait=False`` every
        unfinished job is cancelled — pending ones immediately, running
        ones at their next emission (their sinks are aborted, so no
        partial output is finalized) — and workers exit right after.
        """
        with self._lock:
            if not self._accepting:
                return
            self._accepting = False
        if not wait:
            for job in self.jobs():
                if not job.done:
                    self.cancel(job.id)
        for _ in self._threads:
            # unique seq keeps heap entries totally ordered by key, so
            # the (unorderable) None payloads are never compared
            self._queue.put((_SHUTDOWN_PRIORITY + (next(self._seq),), None))
        for t in self._threads:
            t.join()

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)

    # -- worker loop ---------------------------------------------------------

    def _worker(self) -> None:
        while True:
            key, job = self._queue.get()
            if job is None:
                return
            # claim PENDING -> RUNNING under the same lock cancel()
            # holds, so a pending cancellation and a worker pickup can
            # never both win the job; the admission check rides the
            # same critical section, so two workers can never both
            # charge the last of the budget
            with self._lock:
                if job.done:  # cancelled while pending
                    continue
                if not self._admit_locked(key, job):
                    continue  # deferred; re-queued when budget frees
                job._mark_running()
            self._run_job(job)

    def _resolve_graph(
        self, ref: Graph | str | Path
    ) -> tuple[Graph, str | None]:
        """Resolve a graph ref to ``(graph, fingerprint-or-None)``.

        Path references are loaded and LRU-memoized by (path, mtime)
        together with their content fingerprint; in-memory graphs
        return no fingerprint (the caller computes one only when the
        job is actually cacheable).
        """
        if isinstance(ref, Graph):
            return ref, None
        path = str(ref)
        key = (path, os.stat(path).st_mtime_ns)
        with self._lock:
            entry = self._graphs.get(key)
            if entry is not None:
                self._graphs.move_to_end(key)
                return entry
        g = load_graph(path)
        entry = (g, graph_fingerprint(g))
        with self._lock:
            self._graphs[key] = entry
            while len(self._graphs) > self.graph_cache_size:
                self._graphs.popitem(last=False)
        return entry

    def _fold_terminal(self, job: Job) -> None:
        """Job terminal-transition hook: free budget, fold metrics.

        Runs inside :meth:`Job._finish` *before* waiters wake, so a
        client returning from ``wait()`` and scraping immediately
        always sees the finished job's counters — the round trip the
        acceptance test pins.  Budget release comes first: a waiter
        unblocked by this job may immediately submit a successor that
        should see the freed headroom.
        """
        self._release_admission(job)
        obs = self.obs
        if obs.metrics_on:
            fold_job(obs.registry, job)

    def _run_job(self, job: Job) -> None:
        """Run one claimed job under the observability plane.

        The job span covers the whole dispatch; the metrics fold runs
        via the terminal hook inside ``_finish``, so a scrape either
        sees the job still running (gauges) or fully folded (counters)
        — never half.
        """
        tracer = self.obs.tracer
        if tracer.enabled:
            with tracer.span(
                "job",
                id=job.id,
                backend=job.spec.config.backend,
                sink=job.spec.sink,
                label=job.spec.label,
            ) as span:
                self._dispatch_job(job)
                span.set(
                    status=job.status.value, cache_hit=job.cache_hit
                )
        else:
            self._dispatch_job(job)

    def _finish_job(
        self, job: Job, status: JobStatus, error: str | None = None
    ) -> None:
        """Move a claimed job to a terminal state, under the lock.

        Every worker-side terminal transition routes through here so it
        is serialized against :meth:`cancel`'s status check — without
        the lock, cancel could observe RUNNING an instant before the
        worker finishes and claim a cancellation the job never saw.
        """
        with self._lock:
            if job.done:
                return
            job._finish(status, error)

    def _dispatch_job(self, job: Job) -> None:
        # the worker loop already claimed the job (status RUNNING).
        # cache keying and the engine dispatch both use the *resolved*
        # config: an "auto" submission must hit/populate the entry of
        # the concrete substrate it runs on
        config = job.resolved_config
        sink = None
        try:
            g, fingerprint = self._resolve_graph(job.spec.graph)
            sink = make_sink(job.spec.sink)

            def emit(clique: tuple[int, ...]) -> None:
                if job._cancel.is_set():
                    raise _Cancelled
                sink(clique)

            cacheable = job.spec.use_cache and self.cache is not None
            if cacheable and fingerprint is None:
                fingerprint = graph_fingerprint(g)
            if cacheable:
                cached = self.cache.get(fingerprint, config)
                if cached is not None:
                    for clique in cached.cliques:
                        emit(clique)
                    if job._cancel.is_set():
                        raise _Cancelled
                    sink.close()
                    # publish sink_summary before result: to_dict keys
                    # off `result is not None`, so a concurrent status
                    # poll must never see the result without the
                    # summary (it would report n_cliques=0).  And a
                    # streaming-sink job must not expose the cached
                    # clique list through the `result` op — hit and
                    # miss have to produce the same (clique-less)
                    # payload, since the sink was chosen to avoid
                    # materializing exactly that list.
                    job.cache_hit = True
                    job.sink_summary = sink.summary()
                    job.result = (
                        cached
                        if isinstance(sink, CollectSink)
                        else replace(cached, cliques=[])
                    )
                    self._finish_job(job, JobStatus.DONE)
                    return

            result = self.engine.run(g, config, on_clique=emit)
            # emit() only sees the cancel flag when cliques flow; a
            # run with no (further) emissions must still honour a
            # cancellation acknowledged while it was RUNNING — and
            # must not finalize its sink
            if job._cancel.is_set():
                raise _Cancelled
            if isinstance(sink, CollectSink):
                # the collected cliques *are* the canonical result —
                # and what a future cache hit replays
                result.cliques = sink.cliques
                if cacheable:
                    self.cache.put(fingerprint, config, result)
            sink.close()
            # summary before result — see the cache-hit branch above
            job.sink_summary = sink.summary()
            job.result = result
            self._finish_job(job, JobStatus.DONE)
        except _Cancelled:
            self._finish_job(job, JobStatus.CANCELLED)
        except BudgetExceeded as exc:
            self._finish_job(
                job,
                JobStatus.FAILED,
                f"budget exceeded: {exc} "
                f"(emitted={exc.emitted}, level={exc.level})",
            )
        except (ReproError, OSError) as exc:
            self._finish_job(job, JobStatus.FAILED, str(exc))
        except Exception as exc:  # noqa: BLE001 — a worker must survive
            self._finish_job(
                job, JobStatus.FAILED, f"{type(exc).__name__}: {exc}"
            )
        finally:
            # a sink still open here belongs to a failed/cancelled run:
            # abort, never finalize (a close would e.g. truncate a
            # previous good jsonl output on a zero-emission failure)
            if sink is not None and not sink.closed:
                try:
                    sink.abort()
                except OSError:
                    pass
