"""The shared-memory threaded backend: correctness and concurrency stress.

Equivalence of the ``"threads"`` registry entry is continuously covered
by ``tests/engine/test_property_harness.py``; this suite targets what
only the threaded substrate can get wrong — oversubscription, stealing
under skew, exception propagation out of the worker pool, pool
lifecycle, and degenerate inputs — plus the
:class:`~repro.parallel.thread_backend.ThreadedExpander` surface
directly.

The expander's work unit is a range of sub-lists cut by the step's pair
budget, and every graph here fits one range at the default budget, so
the autouse fixture sets the budget to zero: each sub-list is then a
range of its own, and the worker pool runs.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import BudgetExceeded, ParameterError
from repro.core import clique_enumerator
from repro.core.counters import OpCounters
from repro.core.generators import (
    complete_graph,
    erdos_renyi,
    overlapping_cliques,
    planted_partition,
    star_graph,
)
from repro.core.graph import Graph
from repro.core.sublist import LevelArrays
from repro.engine import EnumerationConfig, EnumerationEngine
from repro.parallel import thread_backend as tb
from repro.parallel.thread_backend import (
    ThreadedExpander,
    resolve_worker_count,
)

ENGINE = EnumerationEngine()

#: the pair budget the program ships with
DEFAULT_PAIR_BATCH_BYTES = clique_enumerator.PAIR_BATCH_BYTES


@pytest.fixture(autouse=True)
def range_per_sublist(monkeypatch):
    """A zero pair budget: every sub-list is a range, so workers run."""
    monkeypatch.setattr(clique_enumerator, "PAIR_BATCH_BYTES", 0)


def _run(g, backend="threads", on_clique=None, **kw):
    return ENGINE.run(
        g, EnumerationConfig(backend=backend, **kw), on_clique=on_clique
    )


def _spy_steps(monkeypatch, store, check=None):
    """Wrap the sequential step the ``threads`` backend runs on
    ``store``; returns the log of its calls as ``(thread, fanned)``,
    ``fanned`` when the call expands a range of a chunk cut into two or
    more.  ``check(calls)`` runs after each call is logged and may
    raise in its place."""
    from repro.core.compressed_domain import CompressedExpander
    from repro.engine import backends

    calls: list = []
    fanned = [False]
    real_ranges = tb.level_ranges

    def ranges_spy(*args):
        ranges, estimates = real_ranges(*args)
        fanned[0] = len(ranges) > 1
        return ranges, estimates

    owner, name = (
        (CompressedExpander, "step") if store == "wah"
        else (backends, "generate_next_level")
    )
    real_step = getattr(owner, name)

    def step_spy(*args):
        calls.append((threading.current_thread(), fanned[0]))
        if check is not None:
            check(calls)
        # yield the GIL so the pool's threads take ranges too
        time.sleep(0.001)
        return real_step(*args)

    monkeypatch.setattr(tb, "level_ranges", ranges_spy)
    monkeypatch.setattr(owner, name, step_spy)
    return calls


def _live_pool_threads(timeout: float = 5.0) -> list[threading.Thread]:
    """``enum-thread`` workers still alive once joined pools have had
    ``timeout`` seconds to exit."""
    deadline = time.monotonic() + timeout
    while True:
        alive = [
            t for t in threading.enumerate()
            if t.name.startswith("enum-thread")
        ]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.01)


def _settled_thread_count(baseline: int, timeout: float = 5.0) -> int:
    """Active threads once transient pool threads have exited."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        now = threading.active_count()
        if now <= baseline:
            return now
        time.sleep(0.01)
    return threading.active_count()


class TestResolveWorkerCount:
    def test_explicit(self):
        assert resolve_worker_count(3) == 3

    def test_default_positive(self):
        assert resolve_worker_count(None) >= 1

    def test_invalid(self):
        with pytest.raises(ParameterError, match="jobs"):
            resolve_worker_count(0)


class TestExpanderSurface:
    def test_validates_workers_and_granularity(self):
        with pytest.raises(ParameterError, match="worker count"):
            ThreadedExpander(0)
        with pytest.raises(ParameterError, match="steal_granularity"):
            ThreadedExpander(2, steal_granularity=0)

    def test_close_is_idempotent(self):
        expander = ThreadedExpander(2)
        expander.close()
        expander.close()

    def test_pool_is_lazy(self):
        with ThreadedExpander(4) as expander:
            assert expander._pool is None
            counters = OpCounters()
            empty = LevelArrays.empty(2, Graph(3).adj.shape[1])
            children = expander.step(
                empty, Graph(3), counters, lambda c: None
            )
            assert len(children) == 0
            # nothing to parallelise: still no pool
            assert expander._pool is None

    @pytest.mark.parametrize("store", ["memory", "wah"])
    def test_calling_thread_is_worker_zero(self, monkeypatch, store):
        """The calling thread expands ranges of the chunks it fans out,
        and the pool adds at most ``jobs - 1`` threads to it."""
        jobs = 3
        caller = threading.current_thread()
        calls = _spy_steps(monkeypatch, store)
        g = planted_partition(
            60, [9, 8, 7], p_in=0.9, p_out=0.04, seed=11
        )[0]
        res = _run(g, jobs=jobs, k_min=1, level_store=store)
        assert res.load_balance is not None
        assert (caller, True) in calls
        pool = {thread for thread, _ in calls if thread is not caller}
        assert len(pool) <= jobs - 1
        assert all(t.name.startswith("enum-thread") for t in pool)
        assert res.cliques == _run(g, backend="incore", k_min=1).cliques

    def test_expander_reusable_across_levels(self):
        g = planted_partition(
            50, [8, 7, 6], p_in=0.95, p_out=0.04, seed=2
        )[0]
        ref = _run(g, backend="incore", k_min=2)
        with ThreadedExpander(3, steal_granularity=1) as expander:
            from repro.engine.level_loop import run_level_loop
            from repro.engine.level_store import MemoryLevelStore

            res = run_level_loop(
                g,
                EnumerationConfig(backend="threads", k_min=2),
                None,
                step=expander.step,
                store_factory=MemoryLevelStore,
                backend="threads",
            )
        assert res.cliques == ref.cliques


class TestDegenerateInputs:
    @pytest.mark.parametrize("jobs", [1, 2, 6])
    def test_empty_graph(self, jobs):
        res = _run(Graph(0), jobs=jobs, k_min=1)
        assert res.cliques == []
        assert res.completed

    @pytest.mark.parametrize("jobs", [1, 2, 6])
    def test_single_vertex(self, jobs):
        res = _run(Graph(1), jobs=jobs, k_min=1)
        assert res.cliques == [(0,)]

    def test_single_edge(self):
        res = _run(Graph.from_edges(2, [(0, 1)]), jobs=4, k_min=1)
        assert res.cliques == [(0, 1)]

    def test_star_single_sublist(self):
        """A star is one giant sub-list: nothing to steal, still right."""
        g = star_graph(40)
        assert _run(g, jobs=4, k_min=2).cliques == _run(
            g, backend="incore", k_min=2
        ).cliques

    def test_complete_graph(self):
        assert _run(complete_graph(9), jobs=3, k_min=1).cliques == [
            tuple(range(9))
        ]


@pytest.mark.stress
class TestConcurrencyStress:
    def test_oversubscribed_workers_finest_stealing(self, monkeypatch):
        """Workers far beyond cores, steal slices of one, switching
        threads every microsecond: a lost per-range result or counter
        update would change the output."""
        monkeypatch.setattr(tb, "DEFAULT_STEAL_GRANULARITY", 1)
        g = planted_partition(
            80, [10, 9, 8, 7], p_in=0.9, p_out=0.05, seed=6
        )[0]
        ref = _run(g, backend="incore", k_min=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            res = _run(g, jobs=16, k_min=1)
        finally:
            sys.setswitchinterval(interval)
        assert res.load_balance is not None
        assert res.cliques == ref.cliques
        assert res.counters.snapshot() == ref.counters.snapshot()
        assert res.n_workers == 16

    def test_stealing_reported_as_transfers(self, monkeypatch):
        """With more workers than seed sub-lists some pools start empty,
        so any observed transfer traffic is genuine stealing; output
        stays canonical regardless of how much occurred."""
        monkeypatch.setattr(tb, "DEFAULT_STEAL_GRANULARITY", 1)
        g = erdos_renyi(60, 0.2, seed=13)
        res = _run(g, jobs=8, k_min=2)
        assert res.load_balance is not None
        assert res.transfers >= 0
        assert res.load_balance["transfers"] == res.transfers
        assert res.cliques == _run(g, backend="incore", k_min=2).cliques

    def test_transfers_wired_from_expander_accounting(self, monkeypatch):
        """`result.transfers` is the expander's stolen-range tally —
        pinned deterministically by substituting an expander that
        reports a known count (steal timing itself is nondeterministic,
        so the integration tests above can only assert >= 0)."""
        from repro.core.clique_enumerator import generate_next_level

        class FakeExpander(tb.ThreadedExpander):
            def __init__(self, n_workers, steal_granularity, **kw):
                super().__init__(n_workers, steal_granularity, **kw)
                self.stolen_ranges = 7

            def step(self, level, g, counters, emit):
                # expand inline: no queue, so the tally stays put
                return generate_next_level(level, g, counters, emit)

        monkeypatch.setattr(tb, "ThreadedExpander", FakeExpander)
        g = planted_partition(
            40, [7, 6], p_in=0.95, p_out=0.05, seed=1
        )[0]
        res = _run(g, jobs=2, k_min=2)
        assert res.transfers == 7
        assert res.n_workers == 2
        monkeypatch.undo()
        # the real inline single-worker path reports zero traffic
        assert _run(g, jobs=1, k_min=2).transfers == 0

    def test_sink_exception_propagates_without_deadlock(self):
        """A raising sink fails the run and leaves no worker behind."""
        g = planted_partition(
            60, [9, 8, 7], p_in=0.9, p_out=0.04, seed=4
        )[0]
        baseline = threading.active_count()

        class Boom(RuntimeError):
            pass

        seen = 0

        def sink(clique):
            nonlocal seen
            seen += 1
            if seen >= 3:
                raise Boom("sink rejected clique")

        with pytest.raises(Boom):
            _run(g, jobs=4, k_min=2, on_clique=sink)
        # the runner's pool is joined before the exception leaves the
        # backend — no enum-thread workers may linger
        assert _settled_thread_count(baseline) <= baseline
        # and the engine is immediately reusable
        res = _run(g, jobs=4, k_min=2)
        assert res.load_balance is not None
        assert res.cliques == _run(g, backend="incore", k_min=2).cliques

    def test_calling_thread_step_exception_mid_level(self, monkeypatch):
        """A step that raises on the calling thread while the pool
        expands the same chunk's other ranges fails the run with its
        exception; the pool is drained and joined before it leaves, and
        the engine runs again."""

        class Boom(RuntimeError):
            pass

        caller = threading.current_thread()
        armed = True

        def fail_once_the_pool_works(calls):
            # past the caller's first range, once a pool thread has
            # taken one too
            mine = sum(1 for t, fanned in calls if t is caller and fanned)
            pool = any(t is not caller and fanned for t, fanned in calls)
            if armed and mine >= 2 and pool:
                raise Boom("step failed on the calling thread")

        _spy_steps(monkeypatch, "memory", fail_once_the_pool_works)
        g = planted_partition(
            60, [9, 8, 7], p_in=0.9, p_out=0.04, seed=4
        )[0]
        with pytest.raises(Boom):
            _run(g, jobs=3, k_min=2)
        assert _live_pool_threads() == []
        armed = False
        res = _run(g, jobs=3, k_min=2)
        assert res.load_balance is not None
        assert res.cliques == _run(g, backend="incore", k_min=2).cliques

    def test_cancellation_style_exception_mid_level(self):
        """A cancellation raised by the emit path aborts between levels
        without hanging the pool (the service's cooperative cancel)."""

        class Cancelled(Exception):
            pass

        g = overlapping_cliques(80, [9, 8, 8, 7], 3, p=0.02, seed=5)[0]
        baseline = threading.active_count()
        cancel = threading.Event()
        cancel.set()

        def emit(clique):
            if cancel.is_set():
                raise Cancelled

        with pytest.raises(Cancelled):
            _run(g, jobs=4, k_min=2, on_clique=emit)
        assert _settled_thread_count(baseline) <= baseline

    def test_budget_trips_at_the_same_clique_as_incore(self):
        g = planted_partition(
            50, [8, 7, 6], p_in=0.9, p_out=0.05, seed=8
        )[0]
        with pytest.raises(BudgetExceeded) as thr:
            _run(g, jobs=4, k_min=2, max_cliques=5)
        with pytest.raises(BudgetExceeded) as seq:
            _run(g, backend="incore", k_min=2, max_cliques=5)
        assert thr.value.emitted == seq.value.emitted
        assert thr.value.level == seq.value.level
        # the unbudgeted run fans out: the trip above was a pool's
        assert _run(g, jobs=4, k_min=2).load_balance is not None

    def test_many_runs_are_deterministic(self, monkeypatch):
        """Repeated threaded runs interleave differently but must emit
        the byte-identical sequence every time."""
        monkeypatch.setattr(tb, "DEFAULT_STEAL_GRANULARITY", 2)
        g = erdos_renyi(50, 0.25, seed=3)
        first = _run(g, jobs=6, k_min=1)
        for _ in range(4):
            again = _run(g, jobs=6, k_min=1)
            assert again.cliques == first.cliques
            assert (
                again.counters.snapshot() == first.counters.snapshot()
            )

    def test_level_store_matrix_under_oversubscription(self):
        g = planted_partition(
            60, [9, 8, 7], p_in=0.9, p_out=0.04, seed=11
        )[0]
        ref = _run(g, backend="incore", k_min=1)
        for store in ("memory", "disk", "wah"):
            res = _run(g, jobs=8, k_min=1, level_store=store)
            assert res.cliques == ref.cliques, store


class TestRanges:
    """The work unit: contiguous sub-list ranges cut by the pair budget."""

    def test_levels_of_one_range_never_start_the_pool(self, monkeypatch):
        """At the default budget every level of this graph is one
        range: the step runs on the calling thread and no pool exists."""
        monkeypatch.setattr(
            clique_enumerator, "PAIR_BATCH_BYTES", DEFAULT_PAIR_BATCH_BYTES
        )

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-range level started the pool")

        monkeypatch.setattr(tb, "ThreadPoolExecutor", no_pool)
        g = planted_partition(
            60, [9, 8, 7], p_in=0.9, p_out=0.04, seed=11
        )[0]
        ref = _run(g, backend="incore", k_min=1)
        for store in ("memory", "disk", "wah"):
            res = _run(g, jobs=4, k_min=1, level_store=store)
            assert res.cliques == ref.cliques, store
            assert res.load_balance is None
            assert res.transfers == 0


    @pytest.mark.parametrize("jobs", [2, 3])
    def test_wah_ranges_are_one_step_batch_each(self, monkeypatch, jobs):
        """A ``wah`` chunk is cut for ``jobs`` concurrent WAH step
        batches, so the step runs each range as exactly one batch, and
        the run reports what ``incore`` does on the ``wah`` store."""
        from repro.core.compressed_domain import CompressedExpander

        monkeypatch.setattr(clique_enumerator, "PAIR_BATCH_BYTES", 4096)
        g = erdos_renyi(80, 0.2, seed=2)
        ref = _run(g, backend="incore", k_min=1, level_store="wah")
        ranges, batches = [], []
        real_ranges = tb.level_ranges
        real_batch = CompressedExpander._pairs_batch

        def ranges_spy(*args):
            out = real_ranges(*args)
            ranges.extend(out[0])
            return out

        def batch_spy(self, lo, hi, *rest):
            batches.append(hi - lo)
            return real_batch(self, lo, hi, *rest)

        monkeypatch.setattr(tb, "level_ranges", ranges_spy)
        monkeypatch.setattr(CompressedExpander, "_pairs_batch", batch_spy)
        res = _run(g, jobs=jobs, k_min=1, level_store="wah")
        assert res.load_balance is not None
        sizes = sorted(end - start for start, end in ranges)
        assert sizes[-1] > 1
        assert sorted(batches) == sizes
        assert res.cliques == ref.cliques
        assert res.level_stats == ref.level_stats
        assert res.counters.snapshot() == ref.counters.snapshot()
        assert res.domain_stats == ref.domain_stats


class TestEmissionBatching:
    """The batched sink path: one budget check per chunk, same bytes."""

    @staticmethod
    def _emitter(max_cliques=None, on_clique=None, level=7):
        from repro.core.clique_enumerator import EnumerationResult
        from repro.engine.level_loop import make_emitter

        result = EnumerationResult(
            counters=OpCounters(), k_min=1, k_max=None, backend="incore"
        )
        config = EnumerationConfig(max_cliques=max_cliques)
        return result, make_emitter(
            result, config, on_clique, lambda: level
        )

    def test_batch_collects_like_per_clique(self):
        cliques = [(i, i + 1) for i in range(10)]
        result_a, emit_a = self._emitter()
        for c in cliques:
            emit_a(c)
        result_b, emit_b = self._emitter()
        emit_b.batch(cliques[:4])
        emit_b.batch(cliques[4:])
        assert result_b.cliques == result_a.cliques == cliques

    def test_batch_budget_delivers_then_trips_like_per_clique(self):
        cliques = [(i, i + 1) for i in range(10)]
        result_a, emit_a = self._emitter(max_cliques=6)
        with pytest.raises(BudgetExceeded) as seq:
            for c in cliques:
                emit_a(c)
        result_b, emit_b = self._emitter(max_cliques=6)
        emit_b.batch(cliques[:4])
        with pytest.raises(BudgetExceeded) as bat:
            emit_b.batch(cliques[4:])
        # everything the budget allows is delivered, then the trip
        # reports the same emitted count and level either way
        assert result_b.cliques == result_a.cliques == cliques[:6]
        assert bat.value.emitted == seq.value.emitted == 6
        assert bat.value.level == seq.value.level == 7

    def test_batch_exactly_at_budget_does_not_trip(self):
        cliques = [(i,) for i in range(5)]
        result, emit = self._emitter(max_cliques=5)
        emit.batch(cliques)
        assert result.cliques == cliques
        with pytest.raises(BudgetExceeded):
            emit((99,))

    def test_batch_streams_through_on_clique(self):
        seen = []
        _, emit = self._emitter(on_clique=seen.append)
        emit.batch([(1, 2), (2, 3)])
        assert seen == [(1, 2), (2, 3)]

    def test_expander_chunks_through_the_batch_method(self):
        from repro.parallel.thread_backend import EMIT_BATCH

        chunks = []

        def emit(clique):
            raise AssertionError("batched path must be preferred")

        emit.batch = lambda cliques: chunks.append(len(cliques))
        with ThreadedExpander(n_workers=2) as exp:
            exp._emit_cliques(
                [(i,) for i in range(2 * EMIT_BATCH + 5)], emit
            )
        assert chunks == [EMIT_BATCH, EMIT_BATCH, 5]

    def test_expander_falls_back_to_bare_callables(self):
        seen = []
        with ThreadedExpander(n_workers=2) as exp:
            exp._emit_cliques([(1,), (2,)], seen.append)
        assert seen == [(1,), (2,)]
