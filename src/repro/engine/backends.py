"""The built-in execution backends.

Each backend is ~30 lines of substrate policy over the shared loop in
:mod:`repro.engine.level_loop`:

* ``"incore"`` — the paper's contribution: candidates in RAM, tail-list
  pair generation (Figure 3);
* ``"bitscan"`` — same storage, the paper's *rejected* n-bit-scan
  generation, kept runnable for the ablation;
* ``"ooc"`` — the retired predecessor: candidates spill to disk per
  level, I/O counted;
* ``"threads"`` — the paper's actual parallelisation: shared-memory
  worker threads over the same adjacency bitmap, LPT-seeded per level
  with intra-level work stealing
  (:mod:`repro.parallel.thread_backend`).

All four return the same canonical
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
from repro.engine.config import (
    LEVEL_STORES,
    EnumerationConfig,
    resolve_compute_domain,
)
from repro.engine.level_loop import run_level_loop
from repro.engine.level_store import CompressedLevelStore, MemoryLevelStore
from repro.engine.registry import get_backend, register_backend

__all__ = [
    "run_incore",
    "run_bitscan",
    "run_ooc",
    "run_threads",
]

OnClique = Callable[[tuple[int, ...]], None] | None


def _reject_unknown_options(config: EnumerationConfig, known: set[str]):
    unknown = set(config.options) - known
    if unknown:
        raise ParameterError(
            f"backend {config.backend!r} does not understand option(s) "
            f"{', '.join(sorted(unknown))}; known: "
            f"{', '.join(sorted(known)) or '(none)'}"
        )


def _store_policy(config: EnumerationConfig, default: str):
    """Resolve ``config.level_store`` for a level-loop backend.

    Returns ``(store_factory, io, store_options)`` — the factory for
    :func:`~repro.engine.level_loop.run_level_loop`, the shared
    :class:`IOStats` when the substrate touches disk (``None``
    otherwise), and the option keys the substrate understands (fed to
    :func:`_reject_unknown_options`, so e.g. a spill ``directory`` on
    the in-memory substrate still fails before work starts).
    """
    name = config.level_store or default
    if name == "auto":
        raise ParameterError(
            "level_store='auto' must be resolved before a runner is "
            "called — dispatch through EnumerationEngine.run (or the "
            "job service), which picks the concrete substrate"
        )
    if name == "memory":
        return MemoryLevelStore, None, set()
    if name == "wah":
        chunk_size = config.option("chunk_size", 256)
        return (
            lambda: CompressedLevelStore(chunk_size),
            None,
            {"chunk_size"},
        )
    if name == "disk":
        io = IOStats()
        directory = config.option("directory")
        chunk_size = config.option("chunk_size", 256)
        return (
            lambda: DiskLevelStore(directory, chunk_size, io),
            io,
            {"directory", "chunk_size"},
        )
    raise ParameterError(  # pragma: no cover - config validates first
        f"unknown level store {name!r}; expected one of "
        f"{', '.join(LEVEL_STORES)}"
    )


def _reject_jobs(config: EnumerationConfig):
    if config.jobs is not None:
        raise ParameterError(
            f"backend {config.backend!r} is sequential; jobs is only "
            "valid for parallel backends (see `repro engines`)"
        )


def _resolve_step(
    g: Graph,
    config: EnumerationConfig,
    store_name: str,
    backend_name: str,
    model: str,
    bitset_step,
):
    """Resolve the generation step for the configured compute domain.

    Returns ``(step, stream_mode, expander, domain)``: the step
    callable for :func:`~repro.engine.level_loop.run_level_loop`, how
    the level streams between store and step (``"raw"`` /
    ``"entries"`` / ``"batches"`` — the compressed modes are the
    ``"wah"`` domain on the ``"wah"`` store, the zero-round-trip
    pairing), the :class:`~repro.core.compressed_domain.
    CompressedExpander` carrying the kernel telemetry (``None`` in the
    bitset domain), and the resolved domain name for
    ``result.compute_domain``.
    """
    info = get_backend(backend_name)
    domain = resolve_compute_domain(config, store_name, info)
    if domain == "bitset":
        return bitset_step, "raw", None, "bitset"
    expander = CompressedExpander(g, model=model)
    if store_name != "wah":
        stream_mode = "raw"
    elif info.parallel:
        # the threads backend partitions levels across workers per
        # sub-list, so it keeps the entry form
        stream_mode = "entries"
    else:
        stream_mode = "batches"
    return expander.step, stream_mode, expander, "wah"


@register_backend(
    "incore",
    description="in-memory candidates, tail-list generation (the paper)",
    storage="memory",
    level_stores=LEVEL_STORES,
    compute_domains=("bitset", "wah"),
)
def run_incore(
    g: Graph, config: EnumerationConfig, on_clique: OnClique = None
) -> EnumerationResult:
    """The paper's in-core Clique Enumerator on the unified loop."""
    _reject_jobs(config)
    store_name = config.level_store or "memory"
    step, stream_mode, expander, domain = _resolve_step(
        g, config, store_name, "incore", "pairs", generate_next_level
    )
    store_factory, io, store_opts = _store_policy(config, "memory")
    _reject_unknown_options(config, store_opts)
    result = run_level_loop(
        g,
        config,
        on_clique,
        step=step,
        store_factory=store_factory,
        backend="incore",
        io=io,
        stream_mode=stream_mode,
    )
    result.compute_domain = domain
    if expander is not None:
        result.domain_stats.update(expander.stats())
    return result


@register_backend(
    "bitscan",
    description="in-memory candidates, rejected n-bit-scan generation "
    "(ablation)",
    storage="memory",
    level_stores=LEVEL_STORES,
    compute_domains=("bitset", "wah"),
)
def run_bitscan(
    g: Graph, config: EnumerationConfig, on_clique: OnClique = None
) -> EnumerationResult:
    """The Section 2.3 bit-scan generation variant on the unified loop."""
    _reject_jobs(config)
    store_name = config.level_store or "memory"
    step, stream_mode, expander, domain = _resolve_step(
        g,
        config,
        store_name,
        "bitscan",
        "bitscan",
        generate_next_level_bitscan,
    )
    store_factory, io, store_opts = _store_policy(config, "memory")
    _reject_unknown_options(config, store_opts)
    result = run_level_loop(
        g,
        config,
        on_clique,
        step=step,
        store_factory=store_factory,
        backend="bitscan",
        io=io,
        stream_mode=stream_mode,
    )
    result.compute_domain = domain
    if expander is not None:
        result.domain_stats.update(expander.stats())
    return result


@register_backend(
    "ooc",
    description="disk-spilled candidates per level, I/O counted "
    "(the retired out-of-core mode)",
    storage="disk",
    level_stores=LEVEL_STORES,
)
def run_ooc(
    g: Graph, config: EnumerationConfig, on_clique: OnClique = None
) -> EnumerationResult:
    """The out-of-core substrate: every level spilled and re-read once.

    ``config.level_store`` can override the substrate (e.g. ``"wah"``
    holds the levels compressed in RAM instead); the result's ``io``
    field is populated only when the effective substrate touches disk.
    """
    store_factory, io, store_opts = _store_policy(config, "disk")
    _reject_unknown_options(config, store_opts)
    _reject_jobs(config)
    return run_level_loop(
        g,
        config,
        on_clique,
        step=generate_next_level,
        store_factory=store_factory,
        backend="ooc",
        io=io,
    )


@register_backend(
    "threads",
    description="shared-memory worker threads with intra-level work "
    "stealing (the paper's Altix mode)",
    storage="memory",
    parallel=True,
    level_stores=LEVEL_STORES,
    compute_domains=("bitset", "wah"),
)
def run_threads(
    g: Graph, config: EnumerationConfig, on_clique: OnClique = None
) -> EnumerationResult:
    """The shared-memory threaded substrate on the unified loop.

    The generation *step* is the parallel policy: each level (or store
    chunk) is LPT-partitioned across a persistent pool of
    ``config.jobs`` worker threads which expand shared-state sub-lists
    and steal ``steal_granularity``-sized slices from the heaviest
    partition when their own runs dry
    (:class:`~repro.parallel.thread_backend.ThreadedExpander`).
    Everything else — seeding, budgets, per-level statistics, all three
    level stores — is the same
    :func:`~repro.engine.level_loop.run_level_loop` the sequential
    backends run, so output, statistics, and operation counters are
    byte-identical to ``incore``.

    In the ``"wah"`` compute domain each worker runs the
    compressed-domain step over the shared WAH adjacency-row cache —
    the batched structure-of-arrays kernels, whose vectorised inner
    loops release the GIL — the partitioning, stealing, and
    level-barrier machinery is unchanged (work estimates are identical
    by construction), and with the ``"wah"`` level store the sub-lists
    workers exchange stay compressed end to end.

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

    store_name = config.level_store or "memory"
    step, stream_mode, wah_expander, domain = _resolve_step(
        g, config, store_name, "threads", "pairs", generate_next_level
    )
    store_factory, io, store_opts = _store_policy(config, "memory")
    _reject_unknown_options(config, store_opts | {"steal_granularity"})
    expander = ThreadedExpander(
        resolve_worker_count(config.jobs),
        config.option("steal_granularity", DEFAULT_STEAL_GRANULARITY),
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
            stream_mode=stream_mode,
        )
    result.n_workers = expander.n_workers
    result.transfers = expander.stolen_sublists
    result.compute_domain = domain
    if any(expander.worker_busy):
        # narrow runs (every level below the parallel threshold) never
        # touch the pool and carry no balance evidence
        from repro.parallel.metrics import worker_load_balance

        result.load_balance = worker_load_balance(
            expander.worker_busy,
            transfers=expander.stolen_sublists,
            max_level_imbalance=expander.max_step_imbalance,
        ).to_dict()
    if wah_expander is not None:
        result.domain_stats.update(wah_expander.stats())
    return result
