"""Self-time arithmetic, the wrappers, and the trace export."""

import threading

import pytest

from perfbench import report
from perfbench.spans import (
    Instrumentation,
    Span,
    Tracer,
    attribute,
    chrome_events,
    load,
)


def span(id, parent, name, t0, t1, count=0, tid=1):
    return Span(id, parent, "job", name, t0, t1, count, tid)


def ledger_of(att, root=1):
    return {layer: round(v[1], 9)
            for (r, layer), v in att.by_root.items() if r == root}


def test_nested_spans_subtract_their_children():
    spans = [
        span(1, 0, "job", 0.0, 10.0),
        span(2, 1, "seed", 1.0, 4.0),
        span(3, 2, "build", 2.0, 3.0),
        span(4, 1, "step", 5.0, 9.0),
    ]
    att = attribute(spans, {})
    assert att.self_seconds == pytest.approx(
        {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    )
    assert att.overlap[1] == 0.0
    assert sum(att.self_seconds.values()) == pytest.approx(10.0)


def test_overlapping_children_count_once_in_the_parent():
    # two worker spans overlap on [3, 5]: the parent loses their union
    spans = [
        span(1, 0, "job", 0.0, 10.0),
        span(2, 1, "fanout", 1.0, 9.0),
        span(3, 2, "step", 2.0, 5.0, tid=2),
        span(4, 2, "step", 3.0, 7.0, tid=3),
    ]
    att = attribute(spans, {})
    assert att.self_seconds[2] == pytest.approx(8.0 - 5.0)
    assert att.overlap[1] == pytest.approx(2.0)
    total = sum(att.self_seconds.values())
    assert total - att.overlap[1] == pytest.approx(10.0)


def test_leaves_are_covered_time_and_join_the_ledger():
    spans = [span(1, 0, "job", 0.0, 10.0), span(2, 1, "step", 2.0, 6.0)]
    leaves = {(1, "emit"): [100, 1.5, 100], (2, "emit"): [10, 0.5, 10]}
    att = attribute(spans, leaves)
    assert att.self_seconds == pytest.approx({1: 4.5, 2: 3.5})
    assert ledger_of(att) == {"job": 4.5, "step": 3.5, "emit": 2.0}
    assert sum(ledger_of(att).values()) == pytest.approx(10.0)


def test_children_are_clipped_to_their_parent():
    spans = [span(1, 0, "job", 0.0, 4.0), span(2, 1, "late", 3.0, 6.0)]
    att = attribute(spans, {})
    assert att.self_seconds == pytest.approx({1: 3.0, 2: 1.0})


def test_time_counted_twice_on_one_thread_is_flagged():
    # leaves (0.7 s) and a child span (0.5 s) on the span's own thread
    # cannot cover more than its 1 s
    spans = [span(1, 0, "job", 0.0, 1.0), span(2, 1, "step", 0.2, 0.7)]
    leaves = {(1, "emit"): [3, 0.7, 3]}
    assert attribute(spans, leaves).overcovered == [1]
    # work adopted from other threads can
    assert attribute(spans, leaves, adopters={1}).overcovered == []
    workers = [span(1, 0, "fanout", 0.0, 1.0),
               span(2, 1, "step", 0.0, 0.8, tid=2),
               span(3, 1, "step", 0.1, 0.9, tid=3)]
    assert attribute(workers, {}).overcovered == []


def test_union_length_of_disjoint_nested_and_touching_intervals():
    spans = [
        span(1, 0, "job", 0.0, 20.0),
        span(2, 1, "a", 1.0, 3.0),
        span(3, 1, "b", 2.0, 2.5),
        span(4, 1, "c", 3.0, 4.0),
        span(5, 1, "d", 10.0, 11.0),
    ]
    att = attribute(spans, {})
    assert att.self_seconds[1] == pytest.approx(20.0 - 4.0)
    assert att.overlap[1] == pytest.approx(0.5)


def test_ledger_identity_holds_over_a_recorded_tree():
    tracer = Tracer()
    root = tracer.open("job", trace="j0")
    child = tracer.open("step")
    tracer.leaf("emit", 0.0, 1)
    tracer.close(child, 3)
    tracer.close(root)
    ledger = report.Ledger()
    ledger.add(tracer.dump(), scale=1.0)
    assert ledger.jobs == 1
    assert ledger.overcovered == 0
    assert ledger.layer("step")[2] == 3
    assert child.parent == root.id and child.trace == "j0"


def test_worker_threads_nest_under_the_fallback_span():
    tracer = Tracer()
    root = tracer.open("job")
    fan = tracer.open("fanout")
    tracer.fallback = fan

    def work():
        s = tracer.open("step")
        tracer.leaf("append", 0.001, 2)
        tracer.close(s)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.fallback = None
    tracer.close(fan)
    tracer.close(root)
    steps = [s for s in tracer.spans if s.name == "step"]
    assert [s.parent for s in steps] == [fan.id, fan.id]
    assert tracer.adopters == {fan.id}
    leaves = tracer.leaves()
    assert sum(v[2] for (pid, name), v in leaves.items()
               if name == "append") == 4
    spans, loaded = load(tracer.dump())
    assert [s.name for s in spans] == ["job", "fanout", "step", "step"]
    assert loaded == leaves


def test_chrome_events_are_complete_events_in_microseconds():
    spans = [span(1, 0, "job", 1.0, 1.5), span(2, 1, "seed.edges", 1.1,
                                               1.2, count=7)]
    events = chrome_events(spans, {(1, "sinks.emit"): [3, 0.1, 3]},
                           pid=9, label="worker")
    complete = [e for e in events if e["ph"] == "X"]
    assert complete[0]["ts"] == pytest.approx(1e6)
    assert complete[0]["dur"] == pytest.approx(5e5)
    assert complete[0]["args"]["leaves"]["sinks.emit"]["calls"] == 3
    assert complete[1]["args"]["count"] == 7
    assert complete[1]["cat"] == "seed"
    assert all(e["pid"] == 9 for e in events)


def test_instrumentation_wraps_and_restores_program_names():
    from repro.core import graph_io
    from repro.service.sinks import CliqueSink, CountSink

    originals = (graph_io.load, CliqueSink.__call__)
    tracer = Tracer()
    with Instrumentation(tracer, ("repro.core.graph_io",
                                  "repro.service.sinks")):
        assert graph_io.load is not originals[0]
        root = tracer.open("job")
        sink = CountSink()
        sink((1, 2))
        sink((3,))
        tracer.close(root)
    assert (graph_io.load, CliqueSink.__call__) == originals
    assert sink.count == 2
    assert tracer.leaves()[(root.id, "sinks.emit")][0] == 2


def test_a_missing_target_refuses_the_traced_run(monkeypatch):
    from perfbench import run
    from perfbench import spans as spanlib

    assert spanlib.unresolved(("repro.engine.level_loop",)) == []
    monkeypatch.setattr(spanlib, "TARGETS", spanlib.TARGETS + (
        ("repro.engine.level_loop", "renamed_away", "x", "span", None),
    ))
    assert spanlib.unresolved(("repro.engine.level_loop",)) == [
        "repro.engine.level_loop.renamed_away"]
    with pytest.raises(LookupError):
        Instrumentation(Tracer(), ("repro.engine.level_loop",)).install()
    argv = ["--workload", "init-k-high", "--seed", "1", "--seconds", "1"]
    assert run.main([*argv, "--trace", "1"]) == 3
