"""Sink subsystem tests: spec parsing, accounting, backend equivalence."""

from __future__ import annotations

import json

import pytest

from repro.core.generators import erdos_renyi, overlapping_cliques
from repro.engine import EnumerationConfig, EnumerationEngine
from repro.errors import ParameterError
from repro.service.sinks import (
    CollectSink,
    CountSink,
    JsonlSink,
    TopKSink,
    make_sink,
    validate_sink_spec,
)

ENGINE = EnumerationEngine()

#: the streaming sinks are substrate-independent; the in-core mode and
#: the out-of-core mode (the disk store) are enough to prove it.
MODES = {"incore": "memory", "ooc": "disk"}


def _config(mode):
    return EnumerationConfig(level_store=MODES[mode], k_min=2)


@pytest.fixture(scope="module")
def workload():
    g = overlapping_cliques(35, [7, 6, 5], 3, seed=8)[0]
    reference = ENGINE.run(g, EnumerationConfig(k_min=2))
    return g, sorted(reference.cliques)


class TestMakeSink:
    def test_collect(self):
        assert isinstance(make_sink("collect"), CollectSink)

    def test_count(self):
        assert isinstance(make_sink("count"), CountSink)

    def test_top_k(self):
        sink = make_sink("top_k:5")
        assert isinstance(sink, TopKSink)
        assert sink.k == 5

    def test_jsonl(self, tmp_path):
        sink = make_sink(f"jsonl:{tmp_path / 'out.jsonl'}")
        assert isinstance(sink, JsonlSink)

    @pytest.mark.parametrize(
        "spec",
        ["", "bogus", "top_k", "top_k:", "top_k:x", "top_k:0",
         "jsonl", "jsonl:", "collect:arg", "count:3"],
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ParameterError):
            make_sink(spec)

    def test_validate_returns_spec(self):
        assert validate_sink_spec("top_k:3") == "top_k:3"

    def test_validate_creates_no_file(self, tmp_path):
        path = tmp_path / "never.jsonl"
        validate_sink_spec(f"jsonl:{path}")
        assert not path.exists()


class TestAccounting:
    def test_uniform_summary_core(self):
        sink = CountSink()
        for c in [(0, 1), (0, 1, 2), (3, 4, 5)]:
            sink(c)
        summary = sink.summary()
        assert summary["cliques"] == 3
        assert summary["max_size"] == 3
        assert summary["by_size"] == {"2": 1, "3": 2}

    def test_top_k_keeps_largest(self):
        sink = TopKSink(2)
        for c in [(0, 1), (0, 1, 2), (5, 6), (1, 2, 3, 4)]:
            sink(c)
        assert sink.top == [(1, 2, 3, 4), (0, 1, 2)]
        assert sink.count == 4  # accounting sees everything

    def test_jsonl_streams_and_counts_bytes(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlSink(path) as sink:
            sink((0, 1, 2))
            sink((3, 4))
        lines = path.read_text().splitlines()
        assert [json.loads(l) for l in lines] == [[0, 1, 2], [3, 4]]
        assert sink.bytes_written == len(path.read_bytes())

    def test_jsonl_empty_run_leaves_empty_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JsonlSink(path)
        sink.close()
        assert path.read_text() == ""
        assert list(tmp_path.glob("*.partial")) == []

    def test_jsonl_empty_close_is_atomic(self, tmp_path, monkeypatch):
        """Regression: a zero-emission close used to write the target
        directly (path.write_text), bypassing the documented .partial +
        os.replace guarantee — an interrupt mid-close could leave the
        previous target content truncated.  The empty case must go
        through the same temp-file rename."""
        import repro.service.sinks as sinks_mod

        path = tmp_path / "out.jsonl"
        path.write_text('[1,2]\n')  # a previous good run

        sink = JsonlSink(path)

        def exploding_replace(src, dst):
            raise OSError("interrupted mid-close")

        monkeypatch.setattr(sinks_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="interrupted"):
            sink.close()
        # the previous run's output is intact, byte for byte
        assert path.read_text() == '[1,2]\n'
        assert not sink.closed
        # abort after the failed close still cleans the .partial debris
        monkeypatch.undo()
        sink.abort()
        assert list(tmp_path.glob("*.partial")) == []
        assert path.read_text() == '[1,2]\n'

    def test_jsonl_empty_close_replaces_previous_content(self, tmp_path):
        """A *successful* empty run atomically replaces the previous
        output with a well-formed empty file."""
        path = tmp_path / "out.jsonl"
        path.write_text('[1,2]\n')
        sink = JsonlSink(path)
        sink.close()
        assert path.read_text() == ""
        assert list(tmp_path.glob("*.partial")) == []

    def test_jsonl_abort_preserves_previous_output(self, tmp_path):
        """Regression: a zero-emission failed run must not truncate a
        previous successful run's file."""
        path = tmp_path / "out.jsonl"
        good = JsonlSink(path)
        good((0, 1, 2))
        good.close()
        failed = JsonlSink(path)
        failed.abort()  # failed before emitting anything
        assert failed.closed
        assert json.loads(path.read_text()) == [0, 1, 2]

    def test_jsonl_abort_after_partial_emission_preserves_target(
        self, tmp_path
    ):
        """Regression: a run that fails *after* emitting must not leave
        partial debris at the target — writes go to a temp file that
        only replaces the target on a successful close."""
        path = tmp_path / "out.jsonl"
        path.write_text("[7]\n")  # a previous good run
        sink = JsonlSink(path)
        sink((0, 1))
        sink.abort()
        assert sink.closed
        assert path.read_text() == "[7]\n"
        assert list(tmp_path.glob("*.partial")) == []

    def test_jsonl_failed_rename_then_abort_cleans_partial(self, tmp_path):
        """Regression: when close()'s rename fails (target is a
        directory), the follow-up abort() must still remove the
        .partial temp file."""
        target = tmp_path / "taken"
        target.mkdir()
        sink = JsonlSink(target)
        sink((0, 1))
        with pytest.raises(OSError):
            sink.close()
        sink.abort()
        assert list(tmp_path.glob("*.partial")) == []

    def test_context_manager_aborts_on_exception(self, tmp_path):
        """Regression: an exception inside the with-body is a failed
        run — __exit__ must abort, not finalize partial output over a
        previous good file."""
        path = tmp_path / "out.jsonl"
        path.write_text("[1,2,3]\n[4,5,6]\n")
        with pytest.raises(RuntimeError):
            with JsonlSink(path) as sink:
                sink((0, 1))
                raise RuntimeError("boom")
        assert path.read_text() == "[1,2,3]\n[4,5,6]\n"
        assert list(tmp_path.glob("*.partial")) == []

    def test_jsonl_close_replaces_target_atomically(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("[7]\n")
        sink = JsonlSink(path)
        sink((0, 1, 2))
        assert path.read_text() == "[7]\n"  # old content until close
        sink.close()
        assert path.read_text() == "[0,1,2]\n"
        assert list(tmp_path.glob("*.partial")) == []


class TestBackendEquivalence:
    """Each sink × two storage modes asserting identical counts."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("spec", ["collect", "count", "top_k:4"])
    def test_sink_counts_match_reference(self, mode, spec, workload):
        g, reference = workload
        sink = make_sink(spec)
        ENGINE.run(g, _config(mode), on_clique=sink)
        sink.close()
        assert sink.count == len(reference)
        assert sum(sink.by_size.values()) == len(reference)

    @pytest.mark.parametrize("mode", MODES)
    def test_jsonl_output_matches_collect(self, mode, workload, tmp_path):
        g, reference = workload
        path = tmp_path / f"{mode}.jsonl"
        sink = JsonlSink(path)
        ENGINE.run(g, _config(mode), on_clique=sink)
        sink.close()
        on_disk = sorted(
            tuple(json.loads(line))
            for line in path.read_text().splitlines()
        )
        assert on_disk == reference

    @pytest.mark.parametrize("mode", MODES)
    def test_top_k_identical_across_backends(self, mode, workload):
        g, reference = workload
        sink = make_sink("top_k:3")
        ENGINE.run(g, _config(mode), on_clique=sink)
        want = sorted(reference, key=lambda c: (len(c), c), reverse=True)[:3]
        assert sink.top == want


class TestEngineSinkPlumbing:
    def test_run_with_sink_closes_and_folds_summary(self):
        g = erdos_renyi(20, 0.3, seed=6)
        sink = CountSink()
        res = ENGINE.run_with_sink(g, EnumerationConfig(k_min=2), sink)
        assert sink.closed
        assert res.cliques == []  # streamed, not collected
        assert res.counters.extra["sink_cliques"] == sink.count
        assert res.counters.extra["sink_max_size"] == sink.max_size

    def test_run_with_sink_closes_on_error(self):
        g = erdos_renyi(25, 0.5, seed=2)
        sink = CountSink()
        from repro.errors import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            ENGINE.run_with_sink(
                g, EnumerationConfig(k_min=2, max_cliques=2), sink
            )
        assert sink.closed

    def test_run_with_sink_error_aborts_jsonl_without_truncating(
        self, tmp_path
    ):
        from repro.errors import BudgetExceeded

        path = tmp_path / "out.jsonl"
        path.write_text("[9,9,9]\n")  # a previous good run
        g = erdos_renyi(10, 0.1, seed=1)
        sink = JsonlSink(path)
        with pytest.raises(BudgetExceeded):
            # budget of 0 trips on the very first emission, before the
            # sink's lazy open — close() here would truncate the file
            ENGINE.run_with_sink(
                g, EnumerationConfig(k_min=2, max_cliques=0), sink
            )
        assert path.read_text() == "[9,9,9]\n"

    def test_run_with_sink_close_failure_cleans_partial(self, tmp_path):
        """Regression: when the sink's close() itself fails (jsonl
        rename target is a directory), the engine must abort the sink
        rather than leak its .partial temp file."""
        target = tmp_path / "taken"
        target.mkdir()
        g = erdos_renyi(15, 0.3, seed=3)
        sink = JsonlSink(target)
        with pytest.raises(OSError):
            ENGINE.run_with_sink(g, EnumerationConfig(k_min=2), sink)
        assert sink.closed
        assert list(tmp_path.glob("*.partial")) == []

    def test_plain_callable_still_accepted(self):
        g = erdos_renyi(15, 0.3, seed=3)
        seen: list[tuple[int, ...]] = []
        res = ENGINE.run_with_sink(g, EnumerationConfig(k_min=2), seen.append)
        assert res.cliques == []
        assert seen
