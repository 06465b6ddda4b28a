"""Pluggable enumeration engine: one algorithm, interchangeable substrates.

The paper's core claim (Section 2.3) is that the level-wise Clique
Enumerator wins or loses purely on its storage and execution substrate —
in-core bitmap memory beat the out-of-core predecessor by removing disk
I/O, and the shared-memory port scaled it to 256 processors.  This
package turns that claim into architecture:

* :class:`~repro.engine.config.EnumerationConfig` — one frozen,
  validated description of a run (size window, budgets, backend name,
  workers, level store, spill directory);
* :mod:`~repro.engine.registry` — named backends, each a callable
  ``(graph, config, on_clique) -> EnumerationResult``;
* :mod:`~repro.engine.level_store` /
  :mod:`~repro.engine.level_loop` — the shared single-pass level
  storage contract (``memory`` / ``disk`` / ``wah``-compressed,
  selected by ``EnumerationConfig.level_store``) and the one
  level-loop skeleton every backend runs; the store also fixes the
  generation step — raw words on ``memory`` and ``disk``, the
  WAH-compressed form of :mod:`repro.core.compressed_domain` on
  ``wah``;
* :mod:`~repro.engine.backends` — the three built-ins: ``"incore"``,
  ``"bitscan"``, ``"threads"``;
* :class:`~repro.engine.api.EnumerationEngine` — the facade that
  resolves, runs, and times a backend.

Quickstart::

    from repro.engine import EnumerationConfig, EnumerationEngine

    result = EnumerationEngine().run(
        g, EnumerationConfig(backend="threads", k_min=3, jobs=4)
    )

Every backend returns the same canonical
:class:`~repro.core.clique_enumerator.EnumerationResult` and emits the
same clique sets for the same bounds; ``tests/engine/`` enforces the
equivalence across the whole registry.
"""

from repro.core.clique_enumerator import EnumerationResult, LevelStats
from repro.core.counters import IOStats, OpCounters
from repro.engine.config import (
    LEVEL_STORE_AUTO,
    LEVEL_STORES,
    EnumerationConfig,
    resolve_for_backend,
    resolve_level_store,
)
from repro.engine.registry import (
    BackendInfo,
    available_backends,
    backend_table,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.engine.level_store import (
    CompressedLevelStore,
    DiskLevelStore,
    LevelStore,
    MemoryLevelStore,
)
from repro.engine.level_loop import run_level_loop, seed_level
from repro.engine import backends as _backends  # noqa: F401 (registers)
from repro.engine.api import EnumerationEngine, run_enumeration

__all__ = [
    "EnumerationConfig",
    "resolve_for_backend",
    "EnumerationEngine",
    "EnumerationResult",
    "LevelStats",
    "IOStats",
    "OpCounters",
    "BackendInfo",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
    "backend_table",
    "LEVEL_STORES",
    "LEVEL_STORE_AUTO",
    "resolve_level_store",
    "LevelStore",
    "MemoryLevelStore",
    "DiskLevelStore",
    "CompressedLevelStore",
    "run_level_loop",
    "seed_level",
    "run_enumeration",
]
