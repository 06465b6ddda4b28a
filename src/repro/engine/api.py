"""The :class:`EnumerationEngine` facade — one door to every substrate.

Resolve a named backend from the registry, run it, time it, and hand
back the canonical result::

    from repro.engine import EnumerationConfig, EnumerationEngine

    engine = EnumerationEngine()
    result = engine.run(g, EnumerationConfig(level_store="disk", k_min=3))
    print(result.backend, result.wall_seconds, result.io.total_bytes)

:func:`run_enumeration` is the function-style shorthand the legacy
drivers shim through.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import replace

from repro.core.clique_enumerator import EnumerationResult
from repro.core.graph import Graph
from repro.engine.config import (
    LEVEL_STORE_AUTO,
    EnumerationConfig,
    resolve_for_backend,
    resolve_level_store,
)
from repro.engine.registry import (
    BackendInfo,
    available_backends,
    backend_table,
    get_backend,
)

__all__ = ["EnumerationEngine", "run_enumeration"]


class EnumerationEngine:
    """Facade dispatching enumeration runs to registered backends.

    An engine optionally carries a default :class:`EnumerationConfig`;
    per-call configs override it.  The engine is stateless between runs
    — it exists so callers hold one object with one ``run`` method
    instead of four driver imports.
    """

    def __init__(self, config: EnumerationConfig | None = None):
        self.config = config if config is not None else EnumerationConfig()

    def run(
        self,
        g: Graph,
        config: EnumerationConfig | None = None,
        on_clique: Callable[[tuple[int, ...]], None] | None = None,
    ) -> EnumerationResult:
        """Run one enumeration through the configured backend.

        Parameters
        ----------
        g:
            Input graph.
        config:
            Run configuration; falls back to the engine's default.
        on_clique:
            Optional streaming sink; when given, cliques are not
            collected in the result.

        Returns
        -------
        EnumerationResult
            The canonical result, with ``backend`` and ``wall_seconds``
            filled in.

        Notes
        -----
        A ``jobs`` value on a sequential backend is rejected here —
        through the shared
        :func:`~repro.engine.config.resolve_for_backend`, so the
        service's submit-time validation raises the identical
        :class:`~repro.errors.ConfigError` — before any work starts.
        A ``level_store="auto"`` is resolved here against the graph
        and the machine's available memory
        (:func:`~repro.engine.config.resolve_level_store`); jobs going
        through the service resolve against its configured budget
        instead, before dispatch reaches this method.
        """
        cfg = config if config is not None else self.config
        info = get_backend(cfg.backend)
        cfg = resolve_for_backend(cfg, info)
        if cfg.level_store == LEVEL_STORE_AUTO:
            cfg = replace(cfg, level_store=resolve_level_store(cfg, g))
        t0 = time.perf_counter()
        result = info.runner(g, cfg, on_clique)
        result.wall_seconds = time.perf_counter() - t0
        return result

    def run_with_sink(
        self,
        g: Graph,
        config: EnumerationConfig | None = None,
        sink: Callable[[tuple[int, ...]], None] | None = None,
    ) -> EnumerationResult:
        """Run streaming into a sink and manage its lifecycle.

        A sink is any ``on_clique`` callable; when it additionally has
        the :class:`repro.service.sinks.CliqueSink` surface (``close``
        and ``summary``, duck-typed so the engine layer stays below the
        service layer) it is closed on completion *and* on error, and
        its summary is folded into ``result.counters.extra`` under
        ``sink_*`` keys.
        """
        if sink is None:
            return self.run(g, config)
        try:
            result = self.run(g, config, on_clique=sink)
            close = getattr(sink, "close", None)
            if close is not None:
                close()
        except BaseException:
            # abort, not close: neither a failed run nor a failed
            # close (e.g. the jsonl rename target is a directory) may
            # finalize output or leak the sink's temp file
            if not getattr(sink, "closed", False):
                release = getattr(sink, "abort", None) or getattr(
                    sink, "close", None
                )
                if release is not None:
                    release()
            raise
        summary = getattr(sink, "summary", None)
        if summary is not None:
            report = summary()
            result.counters.extra["sink_cliques"] = report.get(
                "cliques", 0
            )
            result.counters.extra["sink_max_size"] = report.get(
                "max_size", 0
            )
        return result

    @staticmethod
    def backends() -> list[str]:
        """Names of every registered backend."""
        return available_backends()

    @staticmethod
    def describe() -> list[BackendInfo]:
        """Full registry entries (for ``repro engines`` and docs)."""
        return backend_table()


def run_enumeration(
    g: Graph,
    config: EnumerationConfig | None = None,
    on_clique: Callable[[tuple[int, ...]], None] | None = None,
) -> EnumerationResult:
    """Function-style shorthand for ``EnumerationEngine().run(...)``."""
    return EnumerationEngine().run(g, config, on_clique)
