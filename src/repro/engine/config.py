"""Unified run configuration for every enumeration backend.

One :class:`EnumerationConfig` describes a run completely: the size
window (the paper's ``Init_K`` and the optional upper bound), the safety
budgets, the backend name resolved through
:mod:`repro.engine.registry`, the level store, and a free-form
``options`` mapping for backend-specific knobs (spill directory and
chunk size for the ``"disk"`` level store, steal granularity for
``"threads"``).  The config is frozen and validated at construction,
so a bad parameter fails before any work starts — and before a worker
pool or spill directory is created.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ConfigError, ParameterError

__all__ = [
    "EnumerationConfig",
    "LEVEL_STORES",
    "LEVEL_STORE_AUTO",
    "resolve_for_backend",
    "resolve_level_store",
]

#: the level-storage substrates a config may request: ``"memory"``
#: (:class:`~repro.engine.level_store.MemoryLevelStore`), ``"disk"``
#: (:class:`~repro.core.out_of_core.DiskLevelStore`), ``"wah"``
#: (:class:`~repro.engine.level_store.CompressedLevelStore`).
LEVEL_STORES = ("memory", "disk", "wah")

#: the additional ``level_store`` policy value: pick the cheapest
#: concrete substrate whose *predicted* peak (:func:`repro.core.
#: memory_model.predict_profile`) fits the memory budget, preferring
#: ``memory`` over ``wah`` over ``disk``.  Resolved per run against
#: the graph — by :func:`resolve_level_store` via the engine facade,
#: or by the job scheduler against its configured budget — so it is
#: deliberately *not* part of :data:`LEVEL_STORES`: backends run only
#: concrete substrates.
LEVEL_STORE_AUTO = "auto"


def _stable_key(value: Any) -> tuple[str, object]:
    """An order-insensitive, hash/eq-consistent stand-in for ``value``.

    Containers whose equality crosses hashability lines are unified
    *before* the hashable fast path — ``frozenset({1}) == {1}`` and a
    hashable Mapping equal to a plain dict must produce the same key —
    and are canonically sorted, so two equal options dicts built in
    different insertion orders agree.  Everything else collapses to its
    hash (``1`` and ``1.0`` compare equal and hash equal, so they stay
    consistent; ``tuple`` never equals ``list``, so their different
    tags are safe).  The leading tag keeps the sort inside
    mappings/sets well-defined for mixed types.
    """
    if isinstance(value, Mapping):
        return (
            "m",
            tuple(sorted(
                (_stable_key(k), _stable_key(v))
                for k, v in value.items()
            )),
        )
    if isinstance(value, (set, frozenset)):
        return ("s", tuple(sorted(_stable_key(v) for v in value)))
    try:
        return ("h", hash(value))
    except TypeError:
        pass
    if isinstance(value, (list, tuple)):
        return ("l", tuple(_stable_key(v) for v in value))
    return ("r", repr(value))


@dataclass(frozen=True)
class EnumerationConfig:
    """Everything a backend needs to know about one enumeration run.

    Attributes
    ----------
    backend:
        Registry name of the execution substrate (``"incore"``,
        ``"bitscan"``, ``"threads"``, or any backend registered via
        :func:`repro.engine.register_backend`).
    k_min:
        Lower clique-size bound (the paper's ``Init_K``).
    k_max:
        Optional upper bound; enumeration stops after emitting maximal
        cliques of this size.
    max_cliques:
        Optional output budget; exceeding it raises
        :class:`~repro.errors.BudgetExceeded`.
    max_candidate_bytes:
        Optional per-level cap on measured candidate storage; exceeding
        it raises :class:`~repro.errors.BudgetExceeded`.  Ignored by
        backends that do not track level storage centrally.
    jobs:
        Worker count for parallel backends — shared-memory threads
        for ``"threads"`` (``None`` lets the backend pick, e.g. the
        CPU count).
        Sequential backends reject a non-``None`` value
        (:func:`resolve_for_backend`) rather than silently ignoring it.
    level_store:
        Storage substrate for candidate levels: one of
        :data:`LEVEL_STORES` (``"memory"``, the default, ``"disk"``,
        the paper's out-of-core mode, or ``"wah"``), or
        :data:`LEVEL_STORE_AUTO` (``"auto"`` — the cheapest substrate
        whose predicted peak fits the memory budget, resolved per
        run).  The store also fixes the generation step: ``"wah"``
        runs the compressed-domain step of
        :mod:`repro.core.compressed_domain`, so the level never
        round-trips through raw bit strings; ``"memory"`` and
        ``"disk"`` run the raw ``uint64`` word step.  Part of the
        config's equality/hash, so the service result cache can never
        conflate runs on different substrates.
    options:
        Backend-specific knobs, e.g. ``{"directory": ..., "chunk_size":
        512}`` for the ``"disk"`` store, or ``{"steal_granularity": 4}`` for
        ``"threads"`` (validated here because it is a concurrency knob
        whose misconfiguration must fail before a pool starts; like
        every option it is hashed into the config identity, so the
        service result cache never conflates runs with different
        stealing policies).  Unknown keys are rejected by the backend.
    """

    backend: str = "incore"
    k_min: int = 1
    k_max: int | None = None
    max_cliques: int | None = None
    max_candidate_bytes: int | None = None
    jobs: int | None = None
    level_store: str = "memory"
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.backend or not isinstance(self.backend, str):
            raise ParameterError(
                f"backend must be a non-empty string, got {self.backend!r}"
            )
        if self.k_min < 1:
            raise ParameterError(f"k_min must be >= 1, got {self.k_min}")
        if self.k_max is not None and self.k_max < self.k_min:
            raise ParameterError(
                f"k_max ({self.k_max}) must be >= k_min ({self.k_min})"
            )
        if self.max_cliques is not None and self.max_cliques < 0:
            raise ParameterError(
                f"max_cliques must be >= 0, got {self.max_cliques}"
            )
        if (
            self.max_candidate_bytes is not None
            and self.max_candidate_bytes < 0
        ):
            raise ParameterError(
                "max_candidate_bytes must be >= 0, got "
                f"{self.max_candidate_bytes}"
            )
        if self.jobs is not None and self.jobs < 1:
            raise ParameterError(f"jobs must be >= 1, got {self.jobs}")
        if (
            self.level_store != LEVEL_STORE_AUTO
            and self.level_store not in LEVEL_STORES
        ):
            raise ParameterError(
                f"level_store must be one of {', '.join(LEVEL_STORES)} "
                f"or {LEVEL_STORE_AUTO!r}, got {self.level_store!r}"
            )
        # normalise to a plain dict so `options` is hashable-agnostic and
        # cheap to .get() from; the field stays read-only by convention.
        object.__setattr__(self, "options", dict(self.options))
        gran = self.options.get("steal_granularity")
        if gran is not None and (
            not isinstance(gran, int)
            or isinstance(gran, bool)
            or gran < 1
        ):
            raise ParameterError(
                f"steal_granularity must be an int >= 1, got {gran!r}"
            )

    def __hash__(self) -> int:
        # the frozen dataclass's auto-hash would choke on the options
        # dict; hash its canonical :func:`_stable_key` instead.  The
        # canonical key is used unconditionally — a fast path for
        # all-hashable options would hash equal values differently
        # (frozenset vs set) depending on which path they took,
        # breaking the hash/eq contract the service ResultCache dict
        # key depends on.
        return hash((
            self.backend,
            self.k_min,
            self.k_max,
            self.max_cliques,
            self.max_candidate_bytes,
            self.jobs,
            self.level_store,
            _stable_key(self.options),
        ))

    def with_backend(self, backend: str) -> "EnumerationConfig":
        """A copy of this config targeting a different backend."""
        return replace(self, backend=backend)

    def option(self, key: str, default: Any = None) -> Any:
        """Read one backend-specific option with a default."""
        return self.options.get(key, default)


def resolve_for_backend(
    config: "EnumerationConfig", info: Any
) -> "EnumerationConfig":
    """Cross-validate a config against its backend's registry entry.

    The single place config-vs-backend consistency is decided, shared
    by every path that accepts a config — the engine facade before
    dispatch, and the job service at *submit* time — so ``repro
    enumerate`` and ``repro submit`` raise the identical
    :class:`~repro.errors.ConfigError` for the identical mistake, and
    the service never burns a queue slot on a job doomed to fail at
    dispatch.  It catches one mistake: ``jobs`` on a sequential
    backend.

    ``info`` is a :class:`~repro.engine.registry.BackendInfo` (typed
    loosely to keep this module below the registry).  Returns the
    config unchanged.
    """
    if config.jobs is not None and not info.parallel:
        raise ConfigError(
            f"backend {config.backend!r} is sequential; jobs is only "
            "valid for parallel backends (see `repro engines`)"
        )
    return config


#: substrate preference of the auto policy: raw in-memory candidates
#: are fastest, WAH compression cuts the peak ~5.2x at modest CPU
#: cost, and the disk spill bounds residency at streaming speed.
_AUTO_STORE_PREFERENCE = ("memory", "wah", "disk")


def resolve_level_store(
    config: "EnumerationConfig",
    g: Any,
    budget_bytes: int | None = None,
    *,
    predicted: Any = None,
) -> str:
    """The concrete substrate a ``level_store="auto"`` run executes on.

    Forward-runs the paper recurrences (:func:`repro.core.memory_model.
    predict_profile`) on the graph's ``(n, m)`` and picks the first
    substrate in memory → wah → disk order whose predicted peak fits
    ``budget_bytes``.  With no budget given, the machine's currently
    available memory is used; when even that is unknown the memory
    store wins, and when nothing fits the disk spill does — it always
    "fits" in the sense that its residency barely grows with the level.

    ``g`` needs ``n``/``m`` attributes, plus the adjacency bitmap when
    ``k_min <= 2`` (for the exact seed count that sharpens the 2→3
    recurrence transition — skipped for duck-typed graphs without
    ``adj``).  A caller that has already run the model (the job
    scheduler predicts for admission control anyway) passes its
    :class:`~repro.core.memory_model.PredictedProfile` as ``predicted``
    to skip the recomputation.
    """
    from repro.core.memory_model import (
        available_memory_bytes,
        predict_profile,
        seed_sublist_count,
    )

    if budget_bytes is None:
        budget_bytes = available_memory_bytes()
    if budget_bytes is None:
        return _AUTO_STORE_PREFERENCE[0]
    if predicted is None:
        seeds = (
            seed_sublist_count(g)
            if config.k_min <= 2 and hasattr(g, "adj")
            else None
        )
        predicted = predict_profile(
            g.n, g.m, config.k_min, seeds, k_max=config.k_max
        )
    for store in _AUTO_STORE_PREFERENCE:
        if predicted.peak_bytes(store) <= budget_bytes:
            return store
    return _AUTO_STORE_PREFERENCE[-1]
