"""The disabled-observability fast path: no spans, untouched registry.

This is the contract that lets the instrumentation live inside the
enumeration hot loop: with the ambient plane disabled (the default),
no :class:`~repro.obs.trace.Span` object is ever constructed and no
metric family is ever touched — ``check_speed_baseline.py`` depends on
it.  Span construction is patched to raise, so any disabled-path
allocation fails the run loudly rather than showing up as a timing
regression.
"""

from __future__ import annotations

import pytest

from repro.core.generators import planted_clique
from repro.core.graph import Graph
from repro.engine.api import run_enumeration
from repro.engine.config import EnumerationConfig
from repro.obs import Observability, set_observability
from repro.obs.trace import Span
from repro.service.jobs import JobSpec
from repro.service.scheduler import JobScheduler


@pytest.fixture
def disabled_plane():
    """A fresh disabled ambient plane, with Span construction booby-trapped.

    The trap patches ``__init__`` rather than ``__new__``: once
    ``__new__`` has ever been overridden on a class, CPython's
    ``object.__new__`` rejects excess constructor arguments even after
    the override is deleted, which would break every later real
    ``Span(...)`` in the test session.  ``__init__`` is an ordinary
    class-dict function and restores cleanly.
    """

    def _no_spans(self, *args, **kwargs):
        raise AssertionError(
            "Span allocated while observability is disabled"
        )

    original_init = Span.__init__
    Span.__init__ = _no_spans  # type: ignore[method-assign]
    obs = Observability()
    previous = set_observability(obs)
    try:
        yield obs
    finally:
        set_observability(previous)
        Span.__init__ = original_init  # type: ignore[method-assign]


@pytest.fixture
def graph() -> Graph:
    return planted_clique(30, 6, p=0.25, seed=11)[0]


class TestEngineFastPath:
    @pytest.mark.parametrize(
        "config",
        [
            EnumerationConfig(k_min=3),
            EnumerationConfig(k_min=3, level_store="wah"),
            EnumerationConfig(k_min=3, backend="threads", jobs=2),
        ],
        ids=["incore", "wah-numpy", "threads"],
    )
    def test_run_allocates_no_spans_touches_no_metrics(
        self, disabled_plane, graph, config
    ):
        result = run_enumeration(graph, config)
        assert result.counters.maximal_emitted > 0
        assert disabled_plane.registry.snapshot() == {}
        assert disabled_plane.tracer.records() == []


class TestSchedulerFastPath:
    def test_job_dispatch_allocates_no_spans(self, disabled_plane, graph):
        with JobScheduler(workers=2) as sched:
            job = sched.submit(JobSpec(graph=graph, sink="count"))
            job.wait(timeout=30)
            assert job.status.value == "done"
        assert disabled_plane.registry.snapshot() == {}
