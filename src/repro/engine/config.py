"""Unified run configuration for every enumeration backend.

One :class:`EnumerationConfig` describes a run completely: the size
window (the paper's ``Init_K`` and the optional upper bound), the safety
budgets, the backend name resolved through
:mod:`repro.engine.registry`, the level store, and the disk store's
spill directory.  The config is frozen and validated at construction,
so a bad parameter fails before any work starts — and before a worker
pool or spill directory is created.

Its dataclass fields are the one list of config fields: the generated
``__eq__``/``__hash__`` (the service result-cache identity) and the
wire payload of :mod:`repro.service.protocol` both derive from them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError, ParameterError

__all__ = [
    "EnumerationConfig",
    "LEVEL_STORES",
    "LEVEL_STORE_AUTO",
    "MAX_JOBS",
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

#: the most worker threads a config may ask for: the paper's SGI Altix
#: has 256 processors.  Each fanned-out level deals its ranges over
#: every worker slot and submits one pool task per worker, so a larger
#: wire ``jobs`` would buy nothing but scheduling work and OS threads.
MAX_JOBS = 256


def _check_int(
    name: str,
    value: Any,
    minimum: int,
    optional: bool = False,
    maximum: int | None = None,
) -> int | None:
    """``value`` as a plain ``int`` in ``[minimum, maximum]`` (or
    ``None`` if optional).

    Integral values pass, numpy integers normalised to ``int`` so the
    config stays JSON-safe; ``bool``, ``float`` and ``str`` are refused
    rather than coerced — a wire payload's ``"k_min": "3"`` or
    ``2.5`` is a client bug, not a size.
    """
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ParameterError(f"{name} must be <= {maximum}, got {value}")
    return int(value)


@dataclass(frozen=True)
class EnumerationConfig:
    """Everything a backend needs to know about one enumeration run.

    Every field is hashable, so the generated ``__eq__``/``__hash__``
    cover all of them: the service result cache can never conflate
    runs that differ in any field.

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
        CPU count), at most :data:`MAX_JOBS`.
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
        ``"disk"`` run the raw ``uint64`` word step.
    spill_dir:
        Directory the ``"disk"`` store spills its levels into (a fresh
        temporary directory when ``None``).  A deployment path, so it
        is only accepted with ``level_store="disk"``; a directory that
        does not exist fails the run when the first level spills.
    """

    backend: str = "incore"
    k_min: int = 1
    k_max: int | None = None
    max_cliques: int | None = None
    max_candidate_bytes: int | None = None
    jobs: int | None = None
    level_store: str = "memory"
    spill_dir: str | None = None

    def __post_init__(self) -> None:
        if not self.backend or not isinstance(self.backend, str):
            raise ParameterError(
                f"backend must be a non-empty string, got {self.backend!r}"
            )
        for name, minimum, optional, maximum in (
            ("k_min", 1, False, None),
            ("max_cliques", 0, True, None),
            ("max_candidate_bytes", 0, True, None),
            ("jobs", 1, True, MAX_JOBS),
        ):
            value = _check_int(
                name, getattr(self, name), minimum, optional, maximum
            )
            object.__setattr__(self, name, value)
        k_max = _check_int("k_max", self.k_max, self.k_min, optional=True)
        object.__setattr__(self, "k_max", k_max)
        if (
            self.level_store != LEVEL_STORE_AUTO
            and self.level_store not in LEVEL_STORES
        ):
            raise ParameterError(
                f"level_store must be one of {', '.join(LEVEL_STORES)} "
                f"or {LEVEL_STORE_AUTO!r}, got {self.level_store!r}"
            )
        if self.spill_dir is not None:
            if not isinstance(self.spill_dir, str) or not self.spill_dir:
                raise ParameterError(
                    "spill_dir must be a non-empty path string, got "
                    f"{self.spill_dir!r}"
                )
            if self.level_store != "disk":
                raise ParameterError(
                    "spill_dir is the disk store's spill directory; it "
                    "needs level_store='disk', got "
                    f"level_store={self.level_store!r}"
                )


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
#: are fastest, WAH compression cuts the peak ~4.4x at modest CPU
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
