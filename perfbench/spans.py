"""Benchmark-owned tracing: spans around the program's layer boundaries.

The traced run wraps the program's public functions at the names their
callers look them up (module globals, class attributes) — the program
itself is not changed and its own ``repro.obs`` plane stays disabled.
Each wrapped call becomes either

* a **span** — id, parent id, per-job trace id, name, start, end, a
  count (sub-lists built, chunks streamed, ...) and the thread; or
* a **leaf** — a call made thousands of times per job (one clique into
  the sink, one sub-list into the store) is not given an object of its
  own: its calls, seconds and count are summed per (parent span, name).

Everything stays in memory until the run ends.

A layer's self time is its span's duration minus the part of that
interval its children cover: the union of the child spans' intervals
plus the summed leaf time.  Children that ran in parallel (worker
threads inside one threaded step) overlap; the overlap is defined so
that over a job tree

    sum(self) + sum(leaf seconds) - parallel overlap == job duration

holds by construction, and the job span's own self time is what no
wrapped layer accounts for: the *unattributed* remainder.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "Instrumentation",
    "attribute",
    "load",
    "chrome_events",
    "unresolved",
]


class Span:
    """One finished (or open) wrapped call."""

    __slots__ = ("id", "parent", "trace", "name", "t0", "t1", "count",
                 "tid")

    def __init__(self, id, parent, trace, name, t0, t1=None, count=0,
                 tid=0):
        self.id = id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.count = count
        self.tid = tid

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Thread-aware span recorder.

    A span opened on a thread with no open span of its own is adopted by
    :attr:`fallback` when one is set — the threaded step sets it to its
    own span, so worker-thread work nests under the step that fanned it
    out — and otherwise starts a new trace.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.fallback: Span | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._leaf_tables: list[dict] = []
        #: ids of spans that adopted another thread's work as fallback
        self.adopters: set[int] = set()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[Span]) -> Span | None:
        if stack:
            return stack[-1]
        if self.fallback is not None:
            self.adopters.add(self.fallback.id)
        return self.fallback

    def open(self, name: str, trace: object = None) -> Span:
        """Open a span under the thread's innermost open span."""
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        if parent is not None:
            pid, trace = parent.id, parent.trace
        else:
            pid, trace = 0, trace if trace is not None else f"t{sid}"
        span = Span(sid, pid, trace, name, 0.0,
                    tid=threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        span.t0 = time.perf_counter()
        return span

    def close(self, span: Span, count: int = 0) -> None:
        span.t1 = time.perf_counter()
        span.count = count
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def leaf(self, name: str, seconds: float, count: int) -> None:
        """Add one leaf call to the innermost open span's tally."""
        table = getattr(self._local, "leaves", None)
        if table is None:
            table = self._local.leaves = {}
            self._leaf_tables.append(table)
        parent = self._parent(self._stack())
        key = (parent.id if parent is not None else 0, name)
        entry = table.get(key)
        if entry is None:
            table[key] = [1, seconds, count]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += count

    def leaves(self) -> dict[tuple[int, str], list]:
        """``(parent id, name) -> [calls, seconds, count]`` over all
        threads (parent id 0: called outside any span)."""
        merged: dict[tuple[int, str], list] = {}
        for table in self._leaf_tables:
            for key, (calls, seconds, count) in list(table.items()):
                entry = merged.setdefault(key, [0, 0.0, 0])
                entry[0] += calls
                entry[1] += seconds
                entry[2] += count
        return merged

    def dump(self) -> dict:
        """JSON-safe copy of everything recorded (see :func:`load`)."""
        return {
            "spans": [
                [s.id, s.parent, s.trace, s.name, s.t0, s.t1, s.count,
                 s.tid]
                for s in self.spans
            ],
            "leaves": [
                [pid, name, *entry]
                for (pid, name), entry in self.leaves().items()
            ],
            "adopters": sorted(self.adopters),
        }


def load(dump: dict) -> tuple[list[Span], dict]:
    """``(spans, leaves)`` back from :meth:`Tracer.dump`."""
    spans = [Span(*row) for row in dump["spans"]]
    leaves = {(pid, name): [calls, seconds, count]
              for pid, name, calls, seconds, count in dump["leaves"]}
    return spans, leaves


# -- attribution ------------------------------------------------------------

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        elif b > end:
            end = b
    if end is not None:
        total += end - start
    return total


@dataclass
class Attribution:
    """Self-time accounting over a set of finished spans."""

    #: span id -> self seconds
    self_seconds: dict[int, float] = field(default_factory=dict)
    #: root span id -> time its children ran in parallel with each other
    overlap: dict[int, float] = field(default_factory=dict)
    #: span id -> root span id
    root_of: dict[int, int] = field(default_factory=dict)
    #: (root id, layer) -> [calls, self seconds, count]
    by_root: dict[tuple[int, str], list] = field(default_factory=dict)
    #: ids of single-thread spans whose children cover more than them
    overcovered: list[int] = field(default_factory=list)


def attribute(
    spans: list[Span], leaves: dict, adopters: set[int] = frozenset()
) -> Attribution:
    """Self time of every span and the per-root layer ledger.

    Spans are first clipped into their parent's interval (a child can
    only spend its parent's time); a leaf's seconds count as covered,
    disjoint from the sibling spans, in the span that called it.
    Covered time is capped at the span's duration and what the cap
    removes is the root's parallel overlap.  Only work on several
    threads can overlap: a span whose child spans all ran on its thread
    and that adopted no other thread's work (``adopters``, see
    :attr:`Tracer.adopters`) cannot be covered beyond its duration
    unless time was counted twice, so such a span is listed in
    :attr:`Attribution.overcovered`.  Spans still open are ignored.
    """
    done = {s.id: s for s in spans if s.t1 is not None}
    kids: dict[int, list[Span]] = defaultdict(list)
    for s in done.values():
        if s.parent in done:
            kids[s.parent].append(s)
    leaf_by_parent: dict[int, list] = defaultdict(list)
    for (pid, name), entry in leaves.items():
        leaf_by_parent[pid].append((name, entry))

    out = Attribution()
    clipped: dict[int, tuple[float, float]] = {}
    roots = [s for s in done.values() if s.parent not in done]
    order = []
    for root in roots:
        clipped[root.id] = (root.t0, root.t1)
        out.root_of[root.id] = root.id
        todo = [root]
        while todo:
            s = todo.pop()
            order.append(s)
            lo, hi = clipped[s.id]
            for c in kids.get(s.id, ()):
                a, b = max(c.t0, lo), min(c.t1, hi)
                clipped[c.id] = (a, max(a, b))
                out.root_of[c.id] = out.root_of[s.id]
                todo.append(c)

    for s in order:
        lo, hi = clipped[s.id]
        duration = hi - lo
        intervals = [clipped[c.id] for c in kids.get(s.id, ())]
        leaf_seconds = sum(e[1] for _, e in leaf_by_parent.get(s.id, ()))
        covered = min(duration, _union_length(intervals) + leaf_seconds)
        children_total = sum(b - a for a, b in intervals) + leaf_seconds
        root = out.root_of[s.id]
        if (
            children_total > duration * (1 + 1e-9) + 1e-9
            and s.id not in adopters
            and all(c.tid == s.tid for c in kids.get(s.id, ()))
        ):
            out.overcovered.append(s.id)
        out.self_seconds[s.id] = duration - covered
        out.overlap[root] = out.overlap.get(root, 0.0) + (
            children_total - covered
        )
        entry = out.by_root.setdefault((root, s.name), [0, 0.0, 0])
        entry[0] += 1
        entry[1] += duration - covered
        entry[2] += s.count
        for name, (calls, seconds, count) in leaf_by_parent.get(
            s.id, ()
        ):
            entry = out.by_root.setdefault((root, name), [0, 0.0, 0])
            entry[0] += calls
            entry[1] += seconds
            entry[2] += count
    return out


def chrome_events(
    spans: list[Span], leaves: dict, pid: int, label: str
) -> list[dict]:
    """Chrome trace-event records (``ph: X``, microseconds) for Perfetto.

    Leaf tallies ride in the ``args`` of the span that made the calls;
    leaves called outside any span become one instant event each.
    """
    by_parent: dict[int, dict] = defaultdict(dict)
    for (parent, name), (calls, seconds, count) in leaves.items():
        by_parent[parent][name] = {
            "calls": calls, "seconds": seconds, "count": count,
        }
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": pid,
        "args": {"name": label},
    }]
    for s in spans:
        if s.t1 is None:
            continue
        args = {"id": s.id, "parent": s.parent, "trace": str(s.trace),
                "count": s.count}
        if s.id in by_parent:
            args["leaves"] = by_parent[s.id]
        events.append({
            "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
            "ts": s.t0 * 1e6, "dur": (s.t1 - s.t0) * 1e6,
            "pid": pid, "tid": s.tid % 1_000_000, "args": args,
        })
    for name, tally in by_parent.get(0, {}).items():
        events.append({
            "name": name, "ph": "i", "s": "p", "ts": 0, "pid": pid,
            "tid": 0, "args": tally,
        })
    return events


# -- wrapping the program -----------------------------------------------------

def _span_call(tracer, name, fn, count):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        span = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span)
            raise
        tracer.close(span, count(out, args) if count else 0)
        return out
    return wrapped


def _leaf_call(tracer, name, fn, count):
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        t0 = clock()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.leaf(name, clock() - t0, 0)
            raise
        tracer.leaf(name, clock() - t0, count(out, args))
        return out
    return wrapped


class _TimedIterator:
    """Times each ``next()`` of a level-store stream as one leaf."""

    __slots__ = ("_it", "_tracer", "_name")

    def __init__(self, it, tracer, name):
        self._it = iter(it)
        self._tracer = tracer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        t0 = time.perf_counter()
        try:
            chunk = next(self._it)
        except StopIteration:
            self._tracer.leaf(self._name, time.perf_counter() - t0, 0)
            raise
        self._tracer.leaf(self._name, time.perf_counter() - t0,
                          len(chunk))
        return chunk


def _stream_call(tracer, name, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return _TimedIterator(fn(*args, **kwargs), tracer, name)
    return wrapped


def _fan_out_call(tracer, name, fn):
    """The threaded step: a span its worker threads' spans adopt."""
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        span = tracer.open(name)
        previous, tracer.fallback = tracer.fallback, span
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span)
            raise
        finally:
            tracer.fallback = previous
        tracer.close(span, len(out))
        return out
    return wrapped


def _root_call(tracer, fn, label):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        name, trace = label(args)
        span = tracer.open(name, trace=trace)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)
    return wrapped


def _seed_call(tracer, fn):
    """``seed_level``: named by the seeding path its ``k_min`` takes;
    its sub-lists are counted by the spans of the functions that build
    them, inside it."""
    @functools.wraps(fn)
    def wrapped(g, k_min, *args, **kwargs):
        name = "seed.edges" if k_min <= 2 else "seed.kclique"
        span = tracer.open(name)
        try:
            return fn(g, k_min, *args, **kwargs)
        finally:
            tracer.close(span)
    return wrapped


def _len_out(out, args):
    return len(out)


def _len_first(out, args):
    return len(args[0])


def _len_second(out, args):
    return len(args[1])


def _one(out, args):
    return 1


def _hit(out, args):
    return int(out is not None)


def _service_job(args):
    return "service.job", getattr(args[1], "id", None)


def _service_request(args):
    request = args[1] if len(args) > 1 else None
    op = request.get("op") if isinstance(request, dict) else None
    return f"service.{op if isinstance(op, str) else 'request'}", None


#: (module, attribute path, layer name, wrapper kind, count) — every
#: program name the traced run wraps, at the name its callers look up.
#: Kinds: span, leaf, stream (iterator of chunks), fanout (threaded
#: step), seed (span named by k_min), root (a new trace per call; its
#: "count" gives the span's name and trace id from the call's args).
TARGETS = (
    ("repro.core.graph_io", "load", "graph_io.load", "span", None),
    ("repro.service.scheduler", "load_graph", "graph_io.load", "span",
     None),
    ("repro.service.scheduler", "graph_fingerprint",
     "graph_io.fingerprint", "span", None),
    ("repro.engine.level_loop", "seed_level", None, "seed", None),
    ("repro.engine.level_loop", "build_initial_sublists", "seed.edges",
     "span", _len_out),
    ("repro.engine.level_loop", "enumerate_k_cliques", "seed.kclique",
     "span", None),
    ("repro.engine.level_loop", "build_sublists_from_k_cliques",
     "seed.kclique", "span", _len_out),
    ("repro.engine.backends", "generate_next_level", "step.bitset",
     "span", _len_out),
    ("repro.core.compressed_domain", "CompressedExpander.step",
     "step.wah", "span", _len_out),
    ("repro.parallel.thread_backend", "ThreadedExpander.step",
     "thread_backend.step", "fanout", None),
    ("repro.engine.level_store", "MemoryLevelStore.append",
     "level_store.append", "leaf", _one),
    ("repro.engine.level_store", "CompressedLevelStore.append",
     "level_store.append", "leaf", _one),
    ("repro.engine.level_store", "CompressedLevelStore.append_batch",
     "level_store.append", "leaf", _len_second),
    ("repro.engine.level_store", "MemoryLevelStore.stream",
     "level_store.stream", "stream", None),
    ("repro.engine.level_store", "CompressedLevelStore.stream",
     "level_store.stream", "stream", None),
    ("repro.engine.level_store", "CompressedLevelStore.stream_batches",
     "level_store.stream", "stream", None),
    ("repro.engine.level_store", "CompressedLevelStore.stream_entries",
     "level_store.stream", "stream", None),
    ("repro.service.sinks", "CliqueSink.__call__", "sinks.emit", "leaf",
     _one),
    ("repro.service.scheduler", "predict_profile",
     "memory_model.predict", "span", None),
    ("repro.service.cache", "ResultCache.get", "cache.get", "span",
     _hit),
    ("repro.service.server", "encode_line", "protocol.encode", "leaf",
     _len_out),
    ("repro.service.server", "decode_line", "protocol.decode", "leaf",
     _len_first),
    ("repro.service.client", "encode_line", "protocol.encode", "leaf",
     _len_out),
    ("repro.service.client", "decode_line", "protocol.decode", "leaf",
     _len_first),
    ("repro.service.scheduler", "JobScheduler._run_job", None, "root",
     _service_job),
    ("repro.service.server", "EnumerationServer.dispatch", None, "root",
     _service_request),
)


def _resolve(module: str, path: str):
    """``(owner, attribute name)`` of a target, or None when the program
    no longer has it."""
    try:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        getattr(owner, attr)
    except (ImportError, AttributeError):
        return None
    return owner, attr


def unresolved(modules: tuple[str, ...]) -> list[str]:
    """The targets in ``modules`` that the program no longer has: a
    traced run cannot time their layers, which would read 0."""
    return [f"{module}.{path}" for module, path, *_ in TARGETS
            if module in modules and _resolve(module, path) is None]


class Instrumentation:
    """Installs and removes the wrappers of :data:`TARGETS` in
    ``modules``; every one of them must exist (:func:`unresolved`)."""

    def __init__(self, tracer: Tracer, modules: tuple[str, ...]):
        self.tracer = tracer
        self.modules = modules
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            return
        missing = unresolved(self.modules)
        if missing:
            raise LookupError(f"no such targets: {', '.join(missing)}")
        for module, path, name, kind, count in TARGETS:
            if module not in self.modules:
                continue
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, kind, original, count))

    def _wrap(self, name, kind, fn, count):
        tracer = self.tracer
        if kind == "span":
            return _span_call(tracer, name, fn, count)
        if kind == "leaf":
            return _leaf_call(tracer, name, fn, count)
        if kind == "stream":
            return _stream_call(tracer, name, fn)
        if kind == "fanout":
            return _fan_out_call(tracer, name, fn)
        if kind == "seed":
            return _seed_call(tracer, fn)
        return _root_call(tracer, fn, count)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
