"""Job records for the enumeration service.

A :class:`JobSpec` is everything needed to run one enumeration as a
unit of queued work: the graph (in-memory or a file reference), the
frozen :class:`~repro.engine.config.EnumerationConfig`, the sink spec
(see :mod:`repro.service.sinks`), a priority, and caching policy.  The
spec is frozen and validated at submission, mirroring the engine's
fail-before-work contract.

A :class:`Job` is the mutable service-side record of one spec's
lifecycle — ``PENDING → RUNNING → DONE | FAILED | CANCELLED`` — with
wall-clock timings, the canonical
:class:`~repro.core.clique_enumerator.EnumerationResult` attached on
success, and a ``threading.Event`` so clients can block on completion.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import ParameterError
from repro.core.clique_enumerator import EnumerationResult
from repro.core.graph import Graph
from repro.engine.config import EnumerationConfig
from repro.service.sinks import validate_sink_spec

__all__ = ["JobStatus", "JobSpec", "Job"]


class JobStatus(enum.Enum):
    """Lifecycle states of a service job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """True once the job can no longer change state."""
        return self in (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)


@dataclass(frozen=True)
class JobSpec:
    """One enumeration request, frozen at submission.

    Attributes
    ----------
    graph:
        The input graph — an in-memory :class:`~repro.core.graph.Graph`
        or a path string accepted by :func:`repro.core.graph_io.load`.
        Path-referenced graphs are loaded (and memoized by path and
        mtime) by the scheduler.
    config:
        The run configuration dispatched through
        :class:`~repro.engine.api.EnumerationEngine`.
    sink:
        Sink spec string (``collect``, ``count``, ``top_k:N``,
        ``jsonl:PATH``); validated at construction.
    priority:
        Higher runs first; ties run in submission order.
    use_cache:
        Consult / populate the scheduler's result cache for this job.
    label:
        Free-form tag surfaced in listings (e.g. the sweep threshold).
    """

    graph: Graph | str | Path
    config: EnumerationConfig = field(default_factory=EnumerationConfig)
    sink: str = "collect"
    priority: int = 0
    use_cache: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.graph, (Graph, str, Path)):
            raise ParameterError(
                "JobSpec.graph must be a Graph or a path, got "
                f"{type(self.graph).__name__}"
            )
        if not isinstance(self.config, EnumerationConfig):
            raise ParameterError(
                "JobSpec.config must be an EnumerationConfig, got "
                f"{type(self.config).__name__}"
            )
        # check the config against the backend registry *now*: an
        # unknown backend, or jobs on a sequential one, must be refused
        # at submission (with the exact error the engine facade raises)
        # instead of burning a queue slot on a job that can only fail
        # at dispatch.  Imported lazily: repro.engine's package import
        # is what registers the built-in backends.
        from repro.engine import get_backend
        from repro.engine.config import resolve_for_backend

        resolve_for_backend(
            self.config, get_backend(self.config.backend)
        )
        validate_sink_spec(self.sink)
        if not isinstance(self.priority, int):
            raise ParameterError(
                f"priority must be an int, got {self.priority!r}"
            )
        if not isinstance(self.use_cache, bool):
            raise ParameterError(
                f"use_cache must be a bool, got {self.use_cache!r}"
            )
        if not isinstance(self.label, str):
            raise ParameterError(
                f"label must be a str, got {self.label!r}"
            )


class Job:
    """Mutable service-side record of one submitted :class:`JobSpec`.

    Created by the scheduler; callers observe it.  All state moves
    through the scheduler's worker threads — client code should only
    read attributes and :meth:`wait`.
    """

    def __init__(self, job_id: str, spec: JobSpec):
        self.id = job_id
        self.spec = spec
        self.status = JobStatus.PENDING
        self.result: EnumerationResult | None = None
        self.error: str | None = None
        self.cache_hit = False
        self.sink_summary: dict | None = None
        # admission-control view, set by the scheduler at submit: the
        # memory-model peak the job is charged against the budget, and
        # the spec config with a level_store="auto" resolved to the
        # concrete substrate the run will execute on (the cache key
        # and the engine dispatch both use the resolved config, so an
        # "auto" job can never conflate cache entries across
        # substrates).  Both stay at their defaults on schedulers
        # without a budget/prediction (e.g. direct Job construction).
        self.predicted_peak_bytes: int | None = None
        self.resolved_config = spec.config
        # bytes currently charged against the scheduler's budget;
        # nonzero exactly while the job is admitted (claim -> terminal)
        self._admitted_bytes = 0
        self.created_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._done = threading.Event()
        self._cancel = threading.Event()
        # scheduler hook invoked on the terminal transition *before*
        # waiters wake: a waiter returning from wait() must already
        # observe the job's metrics fold
        self._on_terminal: Callable[[Job], None] | None = None

    # -- client-side observation --------------------------------------------

    def wait(self, timeout: float | None = None) -> "Job":
        """Block until the job is terminal; raises ``TimeoutError``."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.id} still {self.status.value} after {timeout}s"
            )
        return self

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self._done.is_set()

    @property
    def queued_seconds(self) -> float:
        """Time spent waiting in the queue."""
        end = self.started_at or self.finished_at or time.time()
        return max(0.0, end - self.created_at)

    @property
    def run_seconds(self) -> float:
        """Time spent executing (0 until the job starts)."""
        if self.started_at is None:
            return 0.0
        end = self.finished_at or time.time()
        return max(0.0, end - self.started_at)

    # -- scheduler-side transitions -----------------------------------------

    def _mark_running(self) -> None:
        self.status = JobStatus.RUNNING
        self.started_at = time.time()

    def _finish(self, status: JobStatus, error: str | None = None) -> None:
        self.status = status
        self.error = error
        self.finished_at = time.time()
        try:
            if self._on_terminal is not None:
                self._on_terminal(self)
        finally:
            self._done.set()

    # -- serialization -------------------------------------------------------

    def to_dict(self, include_cliques: bool = False) -> dict:
        """JSON-safe view for the wire protocol and listings."""
        out = {
            "id": self.id,
            "status": self.status.value,
            "label": self.spec.label,
            "sink": self.spec.sink,
            "priority": self.spec.priority,
            "backend": self.spec.config.backend,
            # the substrate the run executes on (an "auto" submission
            # shows the scheduler's resolution; the spec's value until
            # one happens)
            "level_store": self.resolved_config.level_store,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "queued_seconds": self.queued_seconds,
            "run_seconds": self.run_seconds,
            "sink_summary": self.sink_summary,
            # memory-model admission evidence: what the job was
            # charged against the budget vs what the run measured
            "predicted_peak_bytes": self.predicted_peak_bytes,
        }
        if self.result is not None:
            out["counters"] = self.result.counters.snapshot()
            out["completed"] = self.result.completed
            # parallel-substrate observability (threads backend):
            # worker count and scheduler transfers ride the same wire
            # payload, so `repro jobs` can show how a parallel job ran
            out["n_workers"] = self.result.n_workers
            out["transfers"] = self.result.transfers
            # compressed-domain observability (wah store): the
            # codec/kernel telemetry
            out["domain_stats"] = self.result.domain_stats
            # measured Figure 8 evidence (threads backend); None for
            # sequential or too-narrow runs
            out["load_balance"] = self.result.load_balance
            out["measured_peak_bytes"] = max(
                (ls.candidate_bytes for ls in self.result.level_stats),
                default=0,
            )
            out["n_cliques"] = (
                self.sink_summary["cliques"]
                if self.sink_summary
                else len(self.result.cliques)
            )
            if include_cliques:
                out["cliques"] = [list(c) for c in self.result.cliques]
        return out

    def __repr__(self) -> str:
        return (
            f"Job(id={self.id!r}, status={self.status.value}, "
            f"sink={self.spec.sink!r}, label={self.spec.label!r})"
        )
