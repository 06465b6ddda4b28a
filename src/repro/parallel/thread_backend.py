"""Shared-memory threaded level expansion with intra-level work stealing.

The closest analogue in this repo to the paper's 256-processor SGI Altix
run: worker *threads* expand disjoint ranges of one candidate level
against the **shared** adjacency bitmap and sub-list arrays — no
pickling, no per-level scatter/gather of candidate data.

The work unit is a sub-list range: a store chunk is split into
contiguous ranges by its own step's batch rule, and a worker expands a
range with the unchanged sequential step on a zero-copy row slice of
the chunk (``rows(start, end)``).  A raw-word
:class:`~repro.core.sublist.LevelArrays` chunk is cut by the bitset
step's rule, :func:`~repro.core.clique_enumerator.pair_batches`; a
:class:`~repro.core.sublist.CompressedLevelBatch` on the ``wah`` store
by the WAH step's rule,
:func:`~repro.core.clique_enumerator.gathered_batches`, at a
``n_workers``-th of the pair budget.  Either way a range is one pair
batch of its step, and on the ``wah`` store the workers' in-flight
batches together hold one sequential batch's budget.  The calling
thread is worker 0, so the pool holds ``n_workers - 1`` threads, and
a chunk that is one range runs on the calling thread without it.

Scheduling is two-phase, mirroring the paper's Section 2.3 scheduler:

* **seed**: each chunk's ranges are LPT-partitioned across workers
  by :meth:`~repro.parallel.load_balancer.LoadBalancer.partition`
  ("divides all k-cliques evenly" — by estimated work, not by count);
* **steal**: within the level, a worker that drains its own partition
  pulls ``steal_granularity`` ranges from the tail of the heaviest
  remaining partition
  (:class:`~repro.parallel.load_balancer.StealingWorkQueue`), so the
  estimate errors that static sharding cannot absorb are fixed while
  the level runs instead of one level later.

Determinism: every range is expanded exactly once into its own clique
list and child chunk, per-worker :class:`~repro.core.counters.OpCounters`
merge through :meth:`~repro.core.counters.OpCounters.merge`, and the
ranges' cliques and children are concatenated in range order at the
level barrier — the sequential order by construction, since the ranges
are contiguous.  Output, per-level statistics, *and operation
counters* are byte-identical to the sequential ``incore`` backend no
matter how the steals interleave.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.errors import ParameterError
from repro.core.clique_enumerator import (
    gathered_batches,
    generate_next_level,
    pair_batches,
)
from repro.core.counters import OpCounters
from repro.core.graph import Graph
from repro.core.sublist import CompressedLevelBatch, LevelChunk
from repro.core.wah_kernels import nonzero_group_counts
from repro.obs.runtime import get_observability
from repro.parallel.load_balancer import StealingWorkQueue

__all__ = [
    "DEFAULT_STEAL_GRANULARITY",
    "EMIT_BATCH",
    "level_ranges",
    "resolve_worker_count",
    "ThreadedExpander",
]

#: sub-list ranges per chunk a thief steals at once.  Small enough that
#: a mis-estimated heavy tail can still migrate, large enough that the
#: queue lock is touched once per chunk, not once per range.
DEFAULT_STEAL_GRANULARITY = 4

#: cliques per ``emit.batch`` call when draining a merged level through
#: the sink: one budget check and one lock round-trip per EMIT_BATCH
#: cliques instead of per clique, while keeping any single sink call —
#: and the partial delivery before a budget trip — bounded.
EMIT_BATCH = 1024


def level_ranges(
    chunk: LevelChunk, n_words: int, n_workers: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """The work units of one store chunk: ranges and their estimates.

    Returns the contiguous ``[start, end)`` sub-list ranges of the
    chunk's step batches, and per range the sum of
    :meth:`~repro.core.sublist.CliqueSubList.work_estimate` over its
    sub-lists (adjacency rows of ``n_words`` words).  A raw-word chunk
    is cut by :func:`~repro.core.clique_enumerator.pair_batches` at the
    full budget.  A compressed batch is cut by
    :func:`~repro.core.clique_enumerator.gathered_batches` for
    ``n_workers`` concurrent batches, so each range is one WAH step
    batch and the ranges in flight together hold one batch's budget.
    """
    t = chunk.n_tails
    if isinstance(chunk, CompressedLevelBatch):
        gathered = nonzero_group_counts(chunk.cn_words, chunk.cn_offsets)
        ranges = gathered_batches(t, gathered, n_workers)
    else:
        ranges = pair_batches(t, n_words)
    work = np.zeros(t.size + 1, dtype=np.int64)
    np.cumsum(t * (t - 1) // 2 + t * max(1, n_words // 8), out=work[1:])
    return ranges, [int(work[end] - work[start]) for start, end in ranges]


def resolve_worker_count(jobs: int | None) -> int:
    """Worker-thread count: explicit ``jobs`` or the host CPU count."""
    if jobs is not None:
        if jobs < 1:
            raise ParameterError(f"jobs must be >= 1, got {jobs}")
        return jobs
    return max(1, os.cpu_count() or 1)


class ThreadedExpander:
    """A persistent worker-thread pool expanding levels with stealing.

    One expander serves one enumeration run: the pool is created lazily
    on the first chunk of more than one range and reused for every
    later level (the paper's threads likewise persist across levels).
    The thread that calls :meth:`step` is worker 0, so the pool holds
    ``n_workers - 1`` threads.
    :meth:`step` matches the engine's
    :data:`~repro.engine.level_loop.GenerationStep` signature, so the
    ``"threads"`` backend is the unmodified shared level loop with this
    as its generation policy — seeding, budgets, level statistics, and
    every level store come along for free.

    Parameters
    ----------
    n_workers:
        Worker count, the calling thread included (see
        :func:`resolve_worker_count`).
    steal_granularity:
        Ranges per steal slice.
    step:
        The sequential generation step each worker runs on its ranges
        (the paper's tail-list generation by default).

    Use as a context manager; :meth:`close` joins the pool.
    """

    def __init__(
        self,
        n_workers: int,
        steal_granularity: int = DEFAULT_STEAL_GRANULARITY,
        step: Callable = generate_next_level,
    ):
        if n_workers < 1:
            raise ParameterError(
                f"worker count must be >= 1, got {n_workers}"
            )
        if steal_granularity < 1:
            raise ParameterError(
                f"steal_granularity must be >= 1, got {steal_granularity}"
            )
        self.n_workers = n_workers
        self.steal_granularity = steal_granularity
        self._step = step
        self._pool: ThreadPoolExecutor | None = None
        # serialises sink delivery: sinks are not required to be
        # thread-safe, so every batch the expander pushes goes through
        # this one lock regardless of which thread drives step()
        self._emit_lock = threading.Lock()
        self.steals = 0
        self.stolen_ranges = 0
        #: wall-clock seconds each worker spent expanding ranges across
        #: the run's parallel steps — the measured Figure 8 signal
        #: (:func:`repro.parallel.metrics.worker_load_balance`)
        self.worker_busy = [0.0] * n_workers
        #: worst per-step ``(max - mean) / mean`` busy-time imbalance
        self.max_step_imbalance = 0.0
        # the ambient tracer is captured once per expander (== per run):
        # workers may emit from any thread, the tracer is thread-safe,
        # and the disabled plane costs one attribute check per level
        tracer = get_observability().tracer
        self._tracer = tracer if tracer.enabled else None

    # -- lifecycle -----------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers - 1,
                thread_name_prefix="enum-thread",
            )
        return self._pool

    def close(self) -> None:
        """Join the worker pool; idempotent."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ThreadedExpander":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the parallel generation step ---------------------------------------

    def step(
        self,
        chunk: LevelChunk,
        g: Graph,
        counters: OpCounters,
        emit: Callable[[tuple[int, ...]], None],
    ) -> LevelChunk:
        """One store chunk of generation, fanned across the pool.

        The chunk is cut into ranges (:func:`level_ranges`); one range
        runs on the calling thread.  Otherwise the calling thread and
        the pool's workers expand LPT-seeded or stolen ranges into
        per-range clique lists and child chunks with *local* counters;
        at the barrier the counters merge (``OpCounters.merge``), and
        the ranges' cliques are emitted and their children concatenated
        in range order — the exact sequence the sequential step
        produces, in the chunk's own form.  ``emit`` runs only on the
        calling thread, after the barrier, so a raising sink (budget
        trip, cancellation, broken ``jsonl`` target) propagates without
        a worker deadlock: workers never block on anything but finished
        work.
        """
        if self.n_workers == 1:
            return self._step(chunk, g, counters, emit)
        ranges, estimates = level_ranges(
            chunk, g.adj.shape[1], self.n_workers
        )
        if len(ranges) < 2:
            return self._step(chunk, g, counters, emit)
        parts = [chunk.rows(start, end) for start, end in ranges]
        queue = StealingWorkQueue.from_partition(
            list(range(len(parts))),
            estimates,
            self.n_workers,
            graph_size=g.n,
            steal_granularity=self.steal_granularity,
        )
        #: per range: (cliques, children), written by whichever worker
        #: expanded it
        results: list = [None] * len(parts)
        stop = threading.Event()
        drain = functools.partial(
            self._drain, queue=queue, parts=parts, g=g, results=results,
            stop=stop,
        )
        pool = self._ensure_pool()
        futures = [pool.submit(drain, w) for w in range(1, self.n_workers)]
        outcomes = []
        error: BaseException | None = None
        # worker 0 drains on the calling thread, then the pool's
        # outcomes are collected in worker order
        for finish in [functools.partial(drain, 0)] + [
            future.result for future in futures
        ]:
            try:
                outcomes.append(finish())
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                # workers poll `stop` between chunks and never block, so
                # the remaining futures always finish; drain them before
                # re-raising or their threads would race the next level
                stop.set()
                if error is None:
                    error = exc
        if error is not None:
            raise error
        self.steals += queue.steals
        self.stolen_ranges += queue.stolen_items
        step_busy = []
        for worker, (worker_counters, busy) in enumerate(outcomes):
            counters.merge(worker_counters)
            self.worker_busy[worker] += busy
            step_busy.append(busy)
        mean_busy = sum(step_busy) / len(step_busy)
        if mean_busy > 0:
            self.max_step_imbalance = max(
                self.max_step_imbalance,
                (max(step_busy) - mean_busy) / mean_busy,
            )
        if self._tracer is not None and queue.steals:
            self._tracer.event(
                "steal",
                steals=queue.steals,
                stolen_ranges=queue.stolen_items,
                workers=self.n_workers,
            )
        self._emit_cliques(
            [clique for cliques, _ in results for clique in cliques], emit
        )
        return type(chunk).concat([children for _, children in results])

    def _emit_cliques(
        self,
        cliques: list[tuple[int, ...]],
        emit: Callable[[tuple[int, ...]], None],
    ) -> None:
        """Drain the level's merged cliques through the sink, batched.

        Uses the emitter's ``batch`` method when it has one —
        ``EMIT_BATCH`` cliques per budget check — under the expander's
        own lock, so delivery stays serialised whatever thread runs the
        level loop.  A bare callable (a test harness, a custom driver)
        still gets per-clique calls.
        """
        emit_batch = getattr(emit, "batch", None)
        with self._emit_lock:
            if emit_batch is None:
                for clique in cliques:
                    emit(clique)
                return
            for start in range(0, len(cliques), EMIT_BATCH):
                emit_batch(cliques[start:start + EMIT_BATCH])

    def _drain(
        self,
        worker: int,
        queue: StealingWorkQueue,
        parts: list[LevelChunk],
        g: Graph,
        results: list,
        stop: threading.Event,
    ) -> tuple[OpCounters, float]:
        """Worker body: expand ranges (local, then stolen) until dry.

        Range ``i``'s cliques and children land in ``results[i]``.
        Returns the worker's counters plus the wall-clock it spent
        inside the step — the per-worker busy time the load-balance
        stats and the paper's ±10% check are computed from.
        """
        counters = OpCounters()
        busy = 0.0
        while not stop.is_set():
            taken = queue.take(worker)
            if taken is None:
                break
            t0 = time.perf_counter()
            for i in taken:
                cliques: list[tuple[int, ...]] = []
                children = self._step(parts[i], g, counters, cliques.append)
                results[i] = (cliques, children)
            busy += time.perf_counter() - t0
        return counters, busy
