"""The shared level-loop skeleton every backend runs.

This is the paper's algorithm with the substrate factored out: seeding
(edges for ``k_min <= 2``; above that the ``Init_K`` seed, which runs
the array step from the edges of the ``(k_min-1)``-core up to
``k_min``), then repeated ``GenerateKCliques`` steps until exhaustion
or ``k_max``, with per-level statistics, budget checks, and the
emission bookkeeping that every historical driver re-implemented
separately.

A backend supplies exactly two policies:

* ``store_factory`` — where a level's candidates live
  (:class:`~repro.engine.level_store.MemoryLevelStore`,
  :class:`~repro.core.out_of_core.DiskLevelStore`, or the WAH
  :class:`~repro.engine.level_store.CompressedLevelStore`, resolved
  from ``config.level_store``);
* ``step`` — how one level becomes the next
  (:func:`~repro.core.clique_enumerator.generate_next_level`, the
  bit-scan ablation variant, or their compressed-domain counterpart on
  the ``wah`` store).

The store fixes the step, and both deal in one chunk form
(:data:`~repro.core.sublist.LevelChunk`), so every level runs the same
path: each streamed chunk goes straight into the step and its children
straight into the next store.

Everything else — budgets, stats, ordering guarantees — is shared, so a
new substrate cannot drift from the algorithm.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from repro.errors import BudgetExceeded
# build_sublists_from_k_cliques and enumerate_k_cliques are no longer
# called here; they stay importable under this module's names because
# perfbench's layer spans wrap them here (perfbench/spans.py TARGETS)
from repro.core.clique_enumerator import (
    EnumerationResult,
    LevelStats,
    build_initial_sublists,
    build_sublists_from_k_cliques,  # noqa: F401
    edge_level,
    expand_level,
    paper_formula_bytes,
)
from repro.core.counters import IOStats, OpCounters
from repro.core.graph import Graph
from repro.core.kclique import (
    enumerate_k_cliques,  # noqa: F401
    k_core_mask,
)
from repro.core.sublist import LevelArrays, LevelChunk
from repro.engine.config import EnumerationConfig
from repro.engine.level_store import LevelStore
from repro.obs.runtime import get_observability
from repro.obs.trace import NULL_SPAN

__all__ = ["make_emitter", "seed_level", "run_level_loop"]

#: one step over a level chunk in the form its store streams; it
#: returns the children in that same form
GenerationStep = Callable[
    [LevelChunk, Graph, OpCounters, Callable[[tuple[int, ...]], None]],
    LevelChunk,
]


def make_emitter(
    result: EnumerationResult,
    config: EnumerationConfig,
    on_clique: Callable[[tuple[int, ...]], None] | None,
    current_level: Callable[[], int],
) -> Callable[[tuple[int, ...]], None]:
    """The shared emission sink: budget check, then stream or collect.

    ``current_level`` is read lazily so :class:`~repro.errors.
    BudgetExceeded` reports the level being generated when the budget
    tripped.

    The returned callable also carries a ``batch`` attribute —
    ``emit.batch(cliques)`` delivers a pre-ordered list through one
    budget check instead of one per clique.  Semantics match the
    per-clique path exactly: everything the budget still allows is
    delivered, then :class:`~repro.errors.BudgetExceeded` reports
    ``max_cliques`` emitted.  Parallel expanders use it to drain a
    whole merged level through the sink in a few calls.
    """
    emitted = 0
    max_cliques = config.max_cliques

    def deliver(clique: tuple[int, ...]) -> None:
        if on_clique is not None:
            on_clique(clique)
        else:
            result.cliques.append(clique)

    def emit(clique: tuple[int, ...]) -> None:
        nonlocal emitted
        emitted += 1
        if max_cliques is not None and emitted > max_cliques:
            raise BudgetExceeded(
                f"clique budget {max_cliques} exceeded",
                emitted=emitted - 1,
                level=current_level(),
            )
        deliver(clique)

    def emit_batch(cliques: list[tuple[int, ...]]) -> None:
        nonlocal emitted
        if (
            max_cliques is not None
            and emitted + len(cliques) > max_cliques
        ):
            for clique in cliques[: max_cliques - emitted]:
                deliver(clique)
            emitted = max_cliques
            raise BudgetExceeded(
                f"clique budget {max_cliques} exceeded",
                emitted=max_cliques,
                level=current_level(),
            )
        emitted += len(cliques)
        if on_clique is not None:
            for clique in cliques:
                on_clique(clique)
        else:
            result.cliques.extend(cliques)

    emit.batch = emit_batch
    return emit


def seed_level(
    g: Graph,
    k_min: int,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None],
    emit_maximal_edges: bool = True,
) -> tuple[int, LevelArrays]:
    """Seed the enumeration: the paper's ``Init_K``.

    Returns ``(k, level)`` — the starting level and its candidate
    sub-lists, as one :class:`~repro.core.sublist.LevelArrays` chunk.
    For ``k_min <= 2`` seeding starts from the edge set
    (emitting isolated vertices first when ``k_min == 1``).
    ``emit_maximal_edges=False`` suppresses the size-2 emissions (for
    runs bounded to ``k_max < 2``).

    For larger ``k_min`` the level algorithm itself seeds: level 2 from
    the edges of the ``(k_min - 1)``-core (no smaller core vertex is in
    a ``k_min``-clique), then the array step (:func:`~repro.core.
    clique_enumerator.expand_level`) up to ``k_min``, emitting only
    the last step's maximal ``k_min``-cliques, in canonical order.  The
    seed levels are the sub-lists of the paper's k-clique enumerator
    (:mod:`repro.core.kclique`) grouped by prefix, with identical CN
    strings, because each level holds exactly the non-maximal
    ``k``-cliques that share their prefix with another.  The counters
    then count the level algorithm's operations on the seed levels.
    The climb stops at the first empty level, which it returns: no
    step runs above the graph's largest clique, however large
    ``k_min`` is.
    """
    if k_min <= 2:
        if k_min == 1:
            isolated = np.flatnonzero(g.degrees() == 0).tolist()
            counters.maximal_emitted += len(isolated)
            for v in isolated:
                emit((v,))
        return 2, build_initial_sublists(
            g, counters, emit, emit_maximal_edges=emit_maximal_edges
        )
    alive = k_core_mask(g, k_min)
    u, v = g.edge_arrays()
    core = alive[u] & alive[v]
    level = edge_level(g.adj, u[core], v[core], counters)
    for k in range(3, k_min + 1):
        if not len(level):
            break  # no (k-1)-level: every later level is empty too
        level = expand_level(
            level, g.adj, counters, emit if k == k_min else None
        )
    return k_min, level


def _measure_store(
    k: int, store: LevelStore, maximal: int, n_vertices: int
) -> LevelStats:
    """One :class:`LevelStats` row from the store's accounting."""
    return LevelStats(
        k=k,
        n_sublists=store.n_sublists,
        n_candidates=store.n_candidates,
        maximal_emitted=maximal,
        candidate_bytes=store.candidate_bytes,
        paper_formula_bytes=paper_formula_bytes(
            k, store.n_sublists, store.n_candidates, n_vertices
        ),
    )


def _trace_store_retired(trace, store: LevelStore, k: int) -> None:
    """Emit the ``store`` event for a level store about to retire.

    Captured *before* ``close()`` so the store's accounting is still
    live.
    """
    trace.event(
        "store",
        k=k,
        sublists=store.n_sublists,
        candidates=store.n_candidates,
        candidate_bytes=store.candidate_bytes,
    )


def run_level_loop(
    g: Graph,
    config: EnumerationConfig,
    on_clique: Callable[[tuple[int, ...]], None] | None,
    *,
    step: GenerationStep,
    store_factory: Callable[[], LevelStore],
    backend: str,
    io: IOStats | None = None,
) -> EnumerationResult:
    """Run the complete level-wise enumeration on one storage substrate.

    The single source of truth for the algorithm's control flow: seeding,
    level advance through ``step``, per-level :class:`LevelStats`, the
    ``max_cliques`` / ``max_candidate_bytes`` budgets, and the
    ``completed`` flag.  Backends built on this loop inherit the paper's
    output guarantees — each maximal clique exactly once, non-decreasing
    size order, canonical order within a size, nothing above ``k_max``.

    The seed is appended as one :class:`~repro.core.sublist.LevelArrays`
    chunk.  Each later level runs one path: ``store.stream()`` yields
    chunks in the form ``step`` computes in, and each chunk's children
    are appended whole to the next store, one chunk per streamed chunk.
    """
    k_min = config.k_min  # k_max >= k_min is the config's own invariant
    counters = OpCounters()
    result = EnumerationResult(
        counters=counters,
        k_min=k_min,
        k_max=config.k_max,
        backend=backend,
        io=io,
    )
    level = k_min
    # the ambient tracer, captured once per run; `trace is None` is the
    # strict no-op path — no span objects, no kwargs dicts, when disabled
    tracer = get_observability().tracer
    trace = tracer if tracer.enabled else None

    emit = make_emitter(result, config, on_clique, lambda: level)
    t_level = time.perf_counter()
    span = (
        trace.span("seed", backend=backend, k_min=k_min)
        if trace is not None else NULL_SPAN
    )
    with span:
        k, seed = seed_level(
            g, k_min, counters, emit,
            emit_maximal_edges=config.k_max is None or config.k_max >= 2,
        )
        span.set(
            k=k, sublists=len(seed), emitted=counters.maximal_emitted
        )

    store = store_factory()
    try:
        store.append(seed)
        del seed
        result.level_stats.append(
            _measure_store(k, store, counters.maximal_emitted, g.n)
        )
        result.level_seconds.append(time.perf_counter() - t_level)
        counters.levels = k

        while len(store) and (config.k_max is None or k < config.k_max):
            budget = config.max_candidate_bytes
            if budget is not None and store.candidate_bytes > budget:
                raise BudgetExceeded(
                    f"candidate memory {store.candidate_bytes} exceeds "
                    f"budget {budget} at level {k}",
                    emitted=counters.maximal_emitted,
                    level=k,
                )
            before = counters.maximal_emitted
            level = k + 1
            t_level = time.perf_counter()
            span = (
                trace.span(
                    "level", k=level, backend=backend,
                    store=config.level_store, parents=store.n_sublists,
                )
                if trace is not None else NULL_SPAN
            )
            with span:
                next_store = store_factory()
                try:
                    for chunk in store.stream():
                        next_store.append(step(chunk, g, counters, emit))
                except BaseException:
                    next_store.close()
                    raise
                if trace is not None:
                    _trace_store_retired(trace, store, k)
                store.close()
                store = next_store
                k += 1
                counters.levels = k
                result.level_stats.append(
                    _measure_store(
                        k, store, counters.maximal_emitted - before, g.n
                    )
                )
                span.set(
                    sublists=store.n_sublists,
                    candidates=store.n_candidates,
                    emitted=counters.maximal_emitted - before,
                    candidate_bytes=store.candidate_bytes,
                )
            result.level_seconds.append(time.perf_counter() - t_level)
        result.completed = not len(store)
    finally:
        store.close()
    return result
