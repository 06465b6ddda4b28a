"""The built-in execution backends.

Each backend is a few lines of substrate policy over the shared loop in
:mod:`repro.engine.level_loop`:

* ``"incore"`` — the paper's contribution: tail-list pair generation
  (Figure 3);
* ``"bitscan"`` — the paper's *rejected* n-bit-scan generation, kept
  runnable for the ablation;
* ``"threads"`` — the paper's actual parallelisation: shared-memory
  worker threads over the same adjacency bitmap, LPT-seeded per level
  with intra-level work stealing
  (:mod:`repro.parallel.thread_backend`).

Every backend runs on every level store (``config.level_store``), and
the store fixes the generation step: ``"memory"`` and ``"disk"`` (the
paper's retired out-of-core mode, every level spilled and its I/O
counted) run the raw-word step, while ``"wah"`` runs the
compressed-domain step of :mod:`repro.core.compressed_domain`, so a
compressed level never round-trips through raw bit strings.

All three return the same canonical
:class:`~repro.core.clique_enumerator.EnumerationResult` and emit
identical clique sets for identical bounds — the invariant
``tests/engine/test_equivalence.py`` and the randomized
``tests/engine/test_property_harness.py`` enforce across the whole
registry.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ParameterError
from repro.core.clique_enumerator import (
    EnumerationResult,
    generate_next_level,
    generate_next_level_bitscan,
)
from repro.core.compressed_domain import CompressedExpander
from repro.core.counters import IOStats
from repro.core.graph import Graph
from repro.core.out_of_core import DiskLevelStore
from repro.engine.config import LEVEL_STORES, EnumerationConfig
from repro.engine.level_loop import run_level_loop
from repro.engine.level_store import CompressedLevelStore, MemoryLevelStore
from repro.engine.registry import register_backend

__all__ = [
    "run_incore",
    "run_bitscan",
    "run_threads",
]

OnClique = Callable[[tuple[int, ...]], None] | None


def _store_policy(config: EnumerationConfig):
    """Resolve ``config.level_store`` for a level-loop backend.

    Returns ``(store_factory, io)`` — the factory for
    :func:`~repro.engine.level_loop.run_level_loop` and the shared
    :class:`IOStats` when the substrate touches disk (``None``
    otherwise).
    """
    name = config.level_store
    if name == "auto":
        raise ParameterError(
            "level_store='auto' must be resolved before a runner is "
            "called — dispatch through EnumerationEngine.run (or the "
            "job service), which picks the concrete substrate"
        )
    if name == "memory":
        return MemoryLevelStore, None
    if name == "wah":
        return CompressedLevelStore, None
    if name == "disk":
        io = IOStats()
        return lambda: DiskLevelStore(config.spill_dir, stats=io), io
    raise ParameterError(  # pragma: no cover - config validates first
        f"unknown level store {name!r}; expected one of "
        f"{', '.join(LEVEL_STORES)}"
    )


def _resolve_step(g: Graph, store_name: str, model: str, bitset_step):
    """The generation step the level store fixes.

    Returns ``(step, expander)``.  The ``"memory"`` and ``"disk"``
    stores run ``bitset_step`` on raw-word
    :class:`~repro.core.sublist.LevelArrays` chunks.  The ``"wah"``
    store runs a :class:`~repro.core.compressed_domain.
    CompressedExpander` of the same counter ``model`` on whole
    compressed level batches; the expander also carries the kernel
    telemetry for ``result.domain_stats``.
    """
    if store_name != "wah":
        return bitset_step, None
    expander = CompressedExpander(g, model=model)
    return expander.step, expander


def _wah_stats(result: EnumerationResult, expander) -> None:
    """Fill ``result.domain_stats`` after a run on the ``"wah"`` store.

    Besides the expander's kernel telemetry, records the raw bytes the
    store kept compressed: what the ``"memory"`` store would have held
    (the paper-formula bytes) for every level the loop streamed — all
    but the last, which is empty or, at ``k_max``, never streamed.
    """
    result.domain_stats["decompressed_bytes_avoided"] = sum(
        stats.paper_formula_bytes for stats in result.level_stats[:-1]
    )
    result.domain_stats.update(expander.stats())


def _run_sequential(
    g: Graph,
    config: EnumerationConfig,
    on_clique: OnClique,
    backend: str,
    model: str,
    bitset_step,
) -> EnumerationResult:
    """One sequential level-loop run on the configured store."""
    store_factory, io = _store_policy(config)
    step, expander = _resolve_step(
        g, config.level_store, model, bitset_step
    )
    result = run_level_loop(
        g,
        config,
        on_clique,
        step=step,
        store_factory=store_factory,
        backend=backend,
        io=io,
    )
    if expander is not None:
        _wah_stats(result, expander)
    return result


@register_backend("incore", description="tail-list generation (the paper)")
def run_incore(
    g: Graph, config: EnumerationConfig, on_clique: OnClique = None
) -> EnumerationResult:
    """The paper's in-core Clique Enumerator on the unified loop."""
    return _run_sequential(
        g, config, on_clique, "incore", "pairs", generate_next_level
    )


@register_backend(
    "bitscan",
    description="rejected n-bit-scan generation (ablation)",
)
def run_bitscan(
    g: Graph, config: EnumerationConfig, on_clique: OnClique = None
) -> EnumerationResult:
    """The Section 2.3 bit-scan generation variant on the unified loop."""
    return _run_sequential(
        g,
        config,
        on_clique,
        "bitscan",
        "bitscan",
        generate_next_level_bitscan,
    )


@register_backend(
    "threads",
    description="shared-memory worker threads with intra-level work "
    "stealing (the paper's Altix mode)",
    parallel=True,
)
def run_threads(
    g: Graph, config: EnumerationConfig, on_clique: OnClique = None
) -> EnumerationResult:
    """The shared-memory threaded substrate on the unified loop.

    The generation *step* is the parallel policy: each store chunk is
    cut into contiguous sub-list ranges, one pair batch of its step
    each, and the ranges are LPT-partitioned across ``config.jobs``
    workers — the calling thread and a persistent pool of
    ``config.jobs - 1`` threads — which steal
    ``DEFAULT_STEAL_GRANULARITY`` ranges at a time from the heaviest
    partition when their own runs dry
    (:class:`~repro.parallel.thread_backend.ThreadedExpander`).  A
    chunk that is one range runs on the calling thread alone.
    Everything else — seeding, budgets, per-level statistics, all three
    level stores — is the same
    :func:`~repro.engine.level_loop.run_level_loop` the sequential
    backends run, so output, statistics, and operation counters are
    byte-identical to ``incore``.

    On the ``"wah"`` level store each worker runs the compressed-domain
    step on a zero-copy row slice of the level batch, reading the
    graph's raw adjacency rows, so the level stays compressed end to
    end.  There a range is cut by the WAH step's gathered-group weight
    at ``PAIR_BATCH_BYTES // config.jobs``, so the batches in flight
    together hold one sequential batch's budget.

    Cliques stream through ``on_clique`` at every level barrier:
    budgets trip at the same clique they would in-core, and a
    cooperative cancellation raised by the sink takes effect one level
    late at worst.
    """
    from repro.parallel.thread_backend import (
        DEFAULT_STEAL_GRANULARITY,
        ThreadedExpander,
        resolve_worker_count,
    )

    store_factory, io = _store_policy(config)
    step, wah_expander = _resolve_step(
        g, config.level_store, "pairs", generate_next_level
    )
    expander = ThreadedExpander(
        resolve_worker_count(config.jobs),
        DEFAULT_STEAL_GRANULARITY,
        step=step,
    )
    with expander:
        result = run_level_loop(
            g,
            config,
            on_clique,
            step=expander.step,
            store_factory=store_factory,
            backend="threads",
            io=io,
        )
    result.n_workers = expander.n_workers
    result.transfers = expander.stolen_ranges
    if any(expander.worker_busy):
        # runs whose every level is one range never touch the pool
        # and carry no balance evidence
        from repro.parallel.metrics import worker_load_balance

        result.load_balance = worker_load_balance(
            expander.worker_busy,
            transfers=expander.stolen_ranges,
            max_level_imbalance=expander.max_step_imbalance,
        ).to_dict()
    if wah_expander is not None:
        _wah_stats(result, wah_expander)
    return result
