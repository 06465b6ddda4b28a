"""Backend registry: named, pluggable execution substrates.

The paper's Section 2.3 argument is that one algorithm — the level-wise
Clique Enumerator — wins or loses purely on its storage and execution
substrate.  The registry makes that argument an API: a backend is a
callable ``(graph, config, on_clique) -> EnumerationResult`` registered
under a name, and every driver in the repo resolves substrates through
:func:`get_backend` instead of hard-wiring one.

Adding a substrate (a sharded multi-machine backend, a GPU-resident
bitmap store) is one :func:`register_backend` call — no new driver
fork; ``"threads"``, the shared-memory analogue of the paper's
256-processor Altix run, landed exactly that way.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import ParameterError

__all__ = [
    "BackendInfo",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
    "backend_table",
]

#: runner signature: (graph, config, on_clique) -> EnumerationResult
BackendRunner = Callable


@dataclass(frozen=True)
class BackendInfo:
    """Registry entry describing one execution substrate.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"incore"``.
    runner:
        ``(graph, config, on_clique) -> EnumerationResult``.
    description:
        One line for ``repro engines`` and the docs.
    parallel:
        True when the backend distributes work across workers (the
        shared-memory threads of ``"threads"``).  Only parallel
        backends accept a non-``None`` ``config.jobs``; the shared
        :func:`~repro.engine.config.resolve_for_backend` refuses it
        for the others before dispatch.
    """

    name: str
    runner: BackendRunner
    description: str = ""
    parallel: bool = False


_REGISTRY: dict[str, BackendInfo] = {}


def register_backend(
    name: str,
    runner: BackendRunner | None = None,
    *,
    description: str = "",
    parallel: bool = False,
    replace: bool = False,
):
    """Register an execution backend under ``name``.

    Usable directly (``register_backend("incore", run_incore, ...)``) or
    as a decorator::

        @register_backend("mybackend", description="...")
        def run_mybackend(g, config, on_clique): ...

    Re-registering an existing name raises
    :class:`~repro.errors.ParameterError` unless ``replace=True``.
    """

    def _register(fn: BackendRunner) -> BackendRunner:
        if name in _REGISTRY and not replace:
            raise ParameterError(
                f"backend {name!r} is already registered; "
                "pass replace=True to override"
            )
        _REGISTRY[name] = BackendInfo(
            name=name,
            runner=fn,
            description=description or (fn.__doc__ or "").strip().split(
                "\n"
            )[0],
            parallel=parallel,
        )
        return fn

    if runner is not None:
        return _register(runner)
    return _register


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (for tests and plugins)."""
    _REGISTRY.pop(name, None)


def get_backend(name: str) -> BackendInfo:
    """Resolve a backend by name, or raise with the available choices."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ParameterError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends()) or '(none registered)'}"
        ) from None


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def backend_table() -> list[BackendInfo]:
    """Every registry entry, sorted by name (for ``repro engines``)."""
    return [_REGISTRY[n] for n in available_backends()]
