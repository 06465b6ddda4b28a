"""Tracer: span records, nesting, the ring bound, and the JSONL file."""

from __future__ import annotations

import json
import threading

from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    REQUIRED_KEYS,
    Tracer,
)


class TestSpans:
    def test_span_record_schema(self):
        tracer = Tracer()
        with tracer.span("level", k=3) as span:
            span.set(emitted=7)
        (rec,) = tracer.records()
        for key in REQUIRED_KEYS:
            assert key in rec
        assert rec["kind"] == "span"
        assert rec["name"] == "level"
        assert rec["dur_s"] >= 0
        assert rec["fields"] == {"k": 3, "emitted": 7}

    def test_nesting_depth_is_thread_local(self):
        tracer = Tracer()
        with tracer.span("job"):
            with tracer.span("level"):
                tracer.event("steal")
        by_name = {r["name"]: r for r in tracer.records()}
        assert by_name["job"]["depth"] == 0
        assert by_name["level"]["depth"] == 1
        assert by_name["steal"]["depth"] == 2

        depths = {}

        def other_thread():
            with tracer.span("other"):
                pass
            depths["other"] = tracer.records()[-1]["depth"]

        with tracer.span("outer"):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        # the other thread starts at its own depth 0, not under "outer"
        assert depths["other"] == 0

    def test_span_records_error_field_on_exception(self):
        tracer = Tracer()
        try:
            with tracer.span("job"):
                raise ValueError("boom")
        except ValueError:
            pass
        (rec,) = tracer.records()
        assert rec["fields"]["error"] == "ValueError"
        # depth bookkeeping survives the exception
        with tracer.span("next"):
            pass
        assert tracer.records()[-1]["depth"] == 0

    def test_event_has_no_duration(self):
        tracer = Tracer()
        tracer.event("steal", steals=2)
        (rec,) = tracer.records()
        assert rec["kind"] == "event"
        assert "dur_s" not in rec


class TestRing:
    def test_ring_is_bounded_newest_win(self):
        tracer = Tracer(ring_size=4)
        for i in range(10):
            tracer.event("e", i=i)
        records = tracer.records()
        assert len(records) == 4
        assert [r["fields"]["i"] for r in records] == [6, 7, 8, 9]

    def test_records_limit_returns_newest_oldest_first(self):
        tracer = Tracer()
        for i in range(5):
            tracer.event("e", i=i)
        assert [
            r["fields"]["i"] for r in tracer.records(limit=2)
        ] == [3, 4]
        assert tracer.records(limit=0) == []
        assert len(tracer.records(limit=9)) == 5


class TestJsonl:
    def test_records_append_as_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(jsonl_path=path)
        with tracer.span("job", id="job-1"):
            tracer.event("steal", steals=1)
        tracer.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            rec = json.loads(line)
            for key in REQUIRED_KEYS:
                assert key in rec

    def test_close_is_idempotent_and_ring_survives(self, tmp_path):
        tracer = Tracer(jsonl_path=tmp_path / "t.jsonl")
        tracer.event("e")
        tracer.close()
        tracer.close()
        assert len(tracer.records()) == 1


class TestDisabledSingletons:
    def test_null_tracer_hands_out_one_shared_span(self):
        a = NULL_TRACER.span("job", id="x")
        b = NULL_TRACER.span("level", k=3)
        assert a is b is NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_TRACER.span("job") as span:
            span.set(anything=1)
        NULL_TRACER.event("steal")
        assert NULL_TRACER.records() == []
        assert NULL_TRACER.enabled is False


class TestThreadsJobRecords:
    """The field names a traced ``threads`` job writes — the taxonomy
    ``docs/ARCHITECTURE.md`` documents for external tooling."""

    def test_level_and_steal_record_fields(self, plane, monkeypatch):
        from repro.core import clique_enumerator
        from repro.core.graph import Graph
        from repro.engine import EnumerationConfig, EnumerationEngine
        from repro.engine import backends
        from repro.parallel import thread_backend

        # eight disjoint K4s seed 16 sub-lists (8 of three tails, 8 of
        # two); a zero pair budget makes each a range, LPT hands each of
        # the two workers 8, and steals move one range at a time
        g = Graph.from_edges(32, [
            (4 * i + a, 4 * i + b)
            for i in range(8)
            for a in range(4)
            for b in range(a + 1, 4)
        ])
        monkeypatch.setattr(clique_enumerator, "PAIR_BATCH_BYTES", 0)
        monkeypatch.setattr(
            thread_backend, "DEFAULT_STEAL_GRANULARITY", 1
        )
        step = backends.generate_next_level
        cond = threading.Condition()
        state = {"calls": 0, "done": 0}

        def gated(sublists, graph, counters, emit):
            # the very first range waits until its worker's partner has
            # finished its own 8 ranges and one stolen from this one
            with cond:
                state["calls"] += 1
                first = state["calls"] == 1
                if first:
                    assert cond.wait_for(
                        lambda: state["done"] > 8, timeout=30
                    ), "no range was stolen"
            out = step(sublists, graph, counters, emit)
            with cond:
                state["done"] += 1
                cond.notify_all()
            return out

        monkeypatch.setattr(backends, "generate_next_level", gated)
        res = EnumerationEngine().run(
            g, EnumerationConfig(backend="threads", jobs=2, k_min=2)
        )
        assert res.cliques == [
            tuple(range(4 * i, 4 * i + 4)) for i in range(8)
        ]
        records = plane.tracer.records()
        levels = [r for r in records if r["name"] == "level"]
        steals = [r for r in records if r["name"] == "steal"]
        assert [r["fields"]["k"] for r in levels] == [3, 4]
        for record in levels:
            assert set(record["fields"]) == {
                "k", "backend", "store", "parents",
                "sublists", "candidates", "emitted", "candidate_bytes",
            }
            assert record["fields"]["backend"] == "threads"
            assert record["fields"]["store"] == "memory"
        assert steals
        for record in steals:
            assert record["kind"] == "event"
            assert set(record["fields"]) == {
                "steals", "stolen_ranges", "workers",
            }
            assert record["fields"]["workers"] == 2
        assert res.transfers == sum(
            r["fields"]["stolen_ranges"] for r in steals
        ) >= 1
