"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core import graph_io
from repro.core.generators import barbell_graph
from repro.engine import available_backends


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.json"
    graph_io.write_json(barbell_graph(3), path)
    return str(path)


class TestEnumerate:
    def test_lists_cliques(self, graph_file, capsys):
        assert main(["enumerate", graph_file]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert "0 1 2" in out
        assert "3 4 5" in out
        assert "2 3" in out

    def test_count_mode(self, graph_file, capsys):
        assert main(["enumerate", graph_file, "--count"]) == 0
        out = capsys.readouterr().out
        assert "size 2: 1" in out
        assert "size 3: 2" in out
        assert "total: 3" in out

    def test_k_min_filter(self, graph_file, capsys):
        assert main(["enumerate", graph_file, "--k-min", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["0 1 2", "3 4 5"]


class TestEnumerateSinks:
    def test_sink_count_matches_count_alias(self, graph_file, capsys):
        assert main(["enumerate", graph_file, "--sink", "count"]) == 0
        sink_out = capsys.readouterr().out
        assert main(["enumerate", graph_file, "--count"]) == 0
        assert capsys.readouterr().out == sink_out
        assert "total: 3" in sink_out

    def test_sink_top_k(self, graph_file, capsys):
        assert main(["enumerate", graph_file, "--sink", "top_k:2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        assert all(len(line.split()) == 3 for line in out)

    def test_sink_jsonl(self, graph_file, tmp_path, capsys):
        import json

        path = tmp_path / "out.jsonl"
        assert main(
            ["enumerate", graph_file, "--sink", f"jsonl:{path}"]
        ) == 0
        assert "wrote 3 cliques" in capsys.readouterr().out
        cliques = sorted(
            tuple(json.loads(line))
            for line in path.read_text().splitlines()
        )
        assert cliques == [(0, 1, 2), (2, 3), (3, 4, 5)]

    def test_sink_collect_prints_cliques(self, graph_file, capsys):
        assert main(["enumerate", graph_file, "--sink", "collect"]) == 0
        assert "0 1 2" in capsys.readouterr().out

    def test_unknown_sink_spec(self, graph_file, capsys):
        assert main(["enumerate", graph_file, "--sink", "warp"]) == 1
        assert "sink" in capsys.readouterr().err

    def test_count_conflicts_with_other_sink(self, graph_file, capsys):
        rc = main(
            ["enumerate", graph_file, "--count", "--sink", "top_k:2"]
        )
        assert rc == 1
        assert "alias" in capsys.readouterr().err


class TestEnumerateBackends:
    @pytest.mark.parametrize("backend", available_backends())
    def test_every_backend_counts_identically(
        self, backend, graph_file, capsys
    ):
        argv = ["enumerate", graph_file, "--backend", backend, "--count"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "size 3: 2" in out
        assert "total: 3" in out

    def test_unknown_backend_is_argparse_error(self, graph_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", graph_file, "--backend", "warpdrive"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, graph_file, capsys):
        rc = main(
            ["enumerate", graph_file, "--backend", "threads",
             "--jobs", "0"]
        )
        assert rc == 1
        assert "jobs" in capsys.readouterr().err

    def test_jobs_rejected_on_sequential_backend(self, graph_file, capsys):
        rc = main(
            ["enumerate", graph_file, "--backend", "incore", "--jobs", "4"]
        )
        assert rc == 1
        assert "sequential" in capsys.readouterr().err

    @pytest.mark.parametrize("store", ["memory", "disk", "wah"])
    def test_threads_with_jobs_matches_incore_on_every_store(
        self, store, graph_file, capsys
    ):
        """`repro enumerate --backend threads --jobs N` emits the
        byte-identical clique listing on every supported level store."""
        assert main(["enumerate", graph_file]) == 0
        want = capsys.readouterr().out
        assert main(
            ["enumerate", graph_file, "--backend", "threads",
             "--jobs", "4", "--level-store", store]
        ) == 0
        assert capsys.readouterr().out == want


class TestEnumerateLevelStores:
    @pytest.mark.parametrize("store", ["memory", "disk", "wah"])
    def test_every_store_lists_identical_cliques(
        self, store, graph_file, capsys
    ):
        assert main(["enumerate", graph_file]) == 0
        want = sorted(capsys.readouterr().out.strip().splitlines())
        assert main(
            ["enumerate", graph_file, "--level-store", store]
        ) == 0
        got = sorted(capsys.readouterr().out.strip().splitlines())
        assert got == want

    def test_unknown_store_is_argparse_error(self, graph_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", graph_file, "--level-store", "zip"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unsupported_store_message_identical_on_both_paths(
        self, graph_file, capsys
    ):
        """``repro enumerate`` and the service submit path must refuse
        a policy the backend does not support with the *identical*
        ConfigError — the single resolution point in the engine config
        layer.  Every backend runs every level store; the one refusal
        is ``--jobs`` on a sequential backend."""
        from repro.errors import ConfigError
        from repro.service.jobs import JobSpec
        from repro.engine import EnumerationConfig

        expected = (
            "backend 'incore' is sequential; jobs is only valid for "
            "parallel backends (see `repro engines`)"
        )
        rc = main(
            ["enumerate", graph_file, "--level-store", "wah",
             "--jobs", "2"]
        )
        assert rc == 1
        assert f"error: {expected}" in capsys.readouterr().err
        with pytest.raises(ConfigError) as exc:
            JobSpec(
                graph=graph_file,
                config=EnumerationConfig(level_store="wah", jobs=2),
            )
        assert str(exc.value) == expected


class TestEngines:
    def test_lists_all_registered_backends(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in available_backends():
            assert name in out
        assert "parallel" in out


class TestMaxClique:
    def test_reports_size_and_members(self, graph_file, capsys):
        assert main(["maxclique", graph_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("size 3:")


class TestStats:
    def test_summary_fields(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "vertices:            6" in out
        assert "edges:               7" in out
        assert "triangles:           2" in out

    def test_fingerprint_reported(self, graph_file, capsys):
        from repro.core.graph_io import graph_fingerprint
        from repro.core.generators import barbell_graph

        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        fp = graph_fingerprint(barbell_graph(3))
        assert f"fingerprint:         {fp}" in out


class TestServiceCommands:
    @pytest.fixture
    def server(self):
        from repro.service import EnumerationServer

        with EnumerationServer() as srv:
            yield srv

    def _connect(self, server):
        host, port = server.address
        return ["--connect", f"{host}:{port}"]

    def test_submit_and_wait(self, server, graph_file, capsys):
        rc = main(
            ["submit", graph_file, *self._connect(server),
             "--k-min", "2", "--wait"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert "total: 3" in out

    def test_submit_prints_job_id_without_wait(
        self, server, graph_file, capsys
    ):
        assert main(["submit", graph_file, *self._connect(server)]) == 0
        assert capsys.readouterr().out.strip().startswith("job-")

    def test_submit_with_level_store_round_trips(
        self, server, graph_file, capsys
    ):
        """The substrate policy travels the wire and the job completes
        with the same per-size counts as the default substrate."""
        rc = main(
            ["submit", graph_file, *self._connect(server),
             "--level-store", "wah", "--k-min", "2", "--wait"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert "total: 3" in out

    def test_jobs_listing(self, server, graph_file, capsys):
        main(
            ["submit", graph_file, *self._connect(server),
             "--label", "mylabel", "--wait"]
        )
        capsys.readouterr()
        assert main(["jobs", *self._connect(server)]) == 0
        out = capsys.readouterr().out
        assert "mylabel" in out
        assert "done" in out
        # the store column shows the store the job ran on
        header, row = out.splitlines()[:2]
        assert header.split()[3] == "store"
        assert row.split()[3] == "memory"

    def test_unreachable_service(self, graph_file, capsys):
        rc = main(
            ["submit", graph_file, "--connect", "127.0.0.1:1"]
        )
        assert rc == 2
        assert "service" in capsys.readouterr().err

    def test_malformed_connect(self, graph_file, capsys):
        rc = main(["submit", graph_file, "--connect", "nonsense"])
        assert rc == 1
        assert "HOST:PORT" in capsys.readouterr().err

    def test_serve_on_taken_port_reports_error(self, server, capsys):
        host, port = server.address
        rc = main(
            ["serve", "--host", host, "--port", str(port)]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestConfigFlags:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            ([], {}),
            (
                ["--backend", "threads", "--jobs", "2", "--level-store",
                 "wah", "--k-min", "3", "--k-max", "6"],
                {"backend": "threads", "jobs": 2, "level_store": "wah",
                 "k_min": 3, "k_max": 6},
            ),
        ],
    )
    def test_enumerate_and_submit_parse_configs_alike(self, argv, expected):
        from repro.cli import _config_from_args, build_parser
        from repro.engine import EnumerationConfig

        parser = build_parser()
        for cmd in ("enumerate", "submit"):
            args = parser.parse_args([cmd, "g.json", *argv])
            assert _config_from_args(args) == EnumerationConfig(**expected)

    def test_submit_unknown_backend_is_argparse_error(
        self, graph_file, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(["submit", graph_file, "--backend", "warpdrive"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--metrics", "abc"],
            ["serve", "--memory-budget", "12XB"],
        ],
    )
    def test_serve_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert argv[1] in err
        assert "Traceback" not in err

    def test_malformed_trace_record_names_file_and_line(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"kind": "event", "name": "ok"}\n\n{oops\n')
        assert main(["trace", "--file", str(trace)]) == 1
        assert f"{trace}:3: malformed trace record" in (
            capsys.readouterr().err
        )


class TestConvert:
    def test_json_to_dimacs(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "g.dimacs"
        assert main(["convert", graph_file, str(out_path)]) == 0
        g = graph_io.read_dimacs(out_path)
        assert g.n == 6
        assert g.m == 7


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["stats", "/nonexistent/g.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_format(self, tmp_path, capsys):
        bad = tmp_path / "g.xyz"
        bad.write_text("junk")
        assert main(["stats", str(bad)]) == 1

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
