"""Structured trace spans: the timeline half of the observability plane.

A :class:`Tracer` records *spans* (named, timed regions — a job, a
candidate level, an expander batch) and *events* (points in time — a
steal, a store retirement) into a bounded in-memory ring buffer and,
optionally, a JSONL file.  Records are plain dicts with a fixed schema
(:data:`REQUIRED_KEYS`; ``tools/check_trace_schema.py`` gates the JSONL
form in CI)::

    {"ts": 1754650000.123,     # wall-clock start, seconds since epoch
     "kind": "span",           # "span" | "event"
     "name": "level",          # span taxonomy: see docs/ARCHITECTURE.md
     "dur_s": 0.0123,          # spans only: wall-clock duration
     "thread": "enum-worker-0",
     "depth": 2,               # nesting depth within the thread
     "fields": {"k": 3, ...}}  # free-form instrumentation payload

Spans nest per thread (``depth`` is maintained thread-locally), so a
renderer can indent a job's levels under its job span without a span-id
protocol.

The disabled path is strict: :data:`NULL_TRACER` hands out one shared
:data:`NULL_SPAN` singleton from every :meth:`~NullTracer.span` call
and drops every event — **no span object is ever allocated** while
tracing is off, which is what keeps the enumeration hot loop clean (the
fast-path test patches :class:`Span` construction to prove it).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from types import TracebackType
from typing import Any

__all__ = [
    "REQUIRED_KEYS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
]

#: keys every trace record carries (``dur_s`` additionally on spans).
REQUIRED_KEYS = ("ts", "kind", "name", "thread", "depth", "fields")


class Span:
    """One timed region; use as a context manager.

    Only a real :class:`Tracer` constructs these — the disabled path
    reuses :data:`NULL_SPAN`.  ``set(**fields)`` adds payload fields any
    time before the span closes (e.g. counts only known at the end).
    """

    __slots__ = ("_tracer", "name", "fields", "_ts", "_t0", "_depth")

    def __init__(
        self, tracer: "Tracer", name: str, fields: dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.fields = fields

    def set(self, **fields: Any) -> None:
        """Attach (or overwrite) payload fields."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        self._ts = time.time()
        self._depth = self._tracer._enter_depth()
        self._t0 = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        dur = time.perf_counter() - self._t0
        self._tracer._exit_depth()
        if exc_type is not None:
            self.fields["error"] = exc_type.__name__
        self._tracer._record(
            {
                "ts": self._ts,
                "kind": "span",
                "name": self.name,
                "dur_s": dur,
                "thread": threading.current_thread().name,
                "depth": self._depth,
                "fields": self.fields,
            }
        )


class _NullSpan:
    """The shared do-nothing span of the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def set(self, **fields: Any) -> None:
        pass


#: the singleton no-op span every disabled ``span()`` call returns.
NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer stand-in while tracing is disabled: allocates nothing."""

    enabled = False

    def span(self, name: str, **fields: Any) -> _NullSpan:
        """Always the shared :data:`NULL_SPAN` — never a new object."""
        return NULL_SPAN

    def event(self, name: str, **fields: Any) -> None:
        """Dropped."""

    def records(self, limit: int | None = None) -> list[dict]:
        """Always empty."""
        return []

    def close(self) -> None:
        """Nothing to flush."""


#: the process-wide disabled tracer (see :mod:`repro.obs.runtime`).
NULL_TRACER = NullTracer()


class Tracer:
    """Span/event recorder over a ring buffer and an optional JSONL file.

    Parameters
    ----------
    ring_size:
        Bound on in-memory records; older records fall off.  The ring
        is what the service's ``trace`` wire op and ``repro trace``
        serve.
    jsonl_path:
        When given, every record is additionally appended as one JSON
        line (flushed per record — trace volume is span-per-level, not
        span-per-operation, so durability wins over batching).

    Thread-safe: engine worker threads, scheduler workers, and scrape
    requests may all touch one tracer.
    """

    enabled = True

    def __init__(
        self,
        ring_size: int = 4096,
        jsonl_path: str | Path | None = None,
    ) -> None:
        self._ring: deque[dict] = deque(maxlen=max(1, ring_size))
        self._io_lock = threading.Lock()
        self._depth = threading.local()
        self.jsonl_path = None if jsonl_path is None else Path(jsonl_path)
        self._file = (
            None
            if self.jsonl_path is None
            else open(self.jsonl_path, "a", encoding="utf-8")
        )

    # -- depth bookkeeping (thread-local nesting) ---------------------------

    def _enter_depth(self) -> int:
        depth = getattr(self._depth, "value", 0)
        self._depth.value = depth + 1
        return depth

    def _exit_depth(self) -> None:
        self._depth.value = max(0, getattr(self._depth, "value", 1) - 1)

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **fields: Any) -> Span:
        """A new span; activate it with ``with``."""
        return Span(self, name, fields)

    def event(self, name: str, **fields: Any) -> None:
        """Record one point-in-time event."""
        self._record(
            {
                "ts": time.time(),
                "kind": "event",
                "name": name,
                "thread": threading.current_thread().name,
                "depth": getattr(self._depth, "value", 0),
                "fields": fields,
            }
        )

    def _record(self, record: dict) -> None:
        self._ring.append(record)  # deque.append is atomic
        if self._file is not None:
            line = json.dumps(record, separators=(",", ":"), default=str)
            with self._io_lock:
                if self._file is not None:
                    self._file.write(line + "\n")
                    self._file.flush()

    # -- observation --------------------------------------------------------

    def records(self, limit: int | None = None) -> list[dict]:
        """The newest ``limit`` ring records, oldest first."""
        records = list(self._ring)
        if limit is not None and limit >= 0:
            records = records[max(0, len(records) - limit):]
        return records

    def close(self) -> None:
        """Close the JSONL file (the ring stays readable); idempotent."""
        with self._io_lock:
            if self._file is not None:
                self._file.close()
                self._file = None
