"""Command-line interface for the clique framework.

Usage::

    python -m repro.cli enumerate GRAPH [--backend NAME] [--jobs N]
                                  [--level-store NAME]
                                  [--k-min K] [--k-max K] [--sink SPEC]
    python -m repro.cli engines
    python -m repro.cli maxclique GRAPH
    python -m repro.cli stats GRAPH
    python -m repro.cli convert GRAPH OUTPUT
    python -m repro.cli serve [--port N | --socket PATH] [--workers N]
                              [--metrics [PORT]] [--trace PATH]
    python -m repro.cli submit GRAPH [--connect HOST:PORT | --socket PATH]
    python -m repro.cli jobs [--connect HOST:PORT | --socket PATH]
    python -m repro.cli stats [GRAPH | --connect HOST:PORT | --socket PATH]
    python -m repro.cli trace [--file PATH | --connect ... | --socket ...]

``GRAPH`` is any file readable by :mod:`repro.core.graph_io` (DIMACS
``.dimacs``/``.clq``, edge list ``.edges``/``.txt``, JSON ``.json``);
``convert`` rewrites between formats by extension.  ``enumerate`` runs
on any registered :mod:`repro.engine` backend (``engines`` lists them);
all backends print identical cliques.  ``--sink`` routes the output
through a streaming :mod:`repro.service.sinks` sink (``count``,
``top_k:N``, ``jsonl:PATH``) so huge outputs never materialize in RAM;
the historical ``--count`` flag is an alias for ``--sink count``.

``serve`` starts the long-lived enumeration job service
(:mod:`repro.service`); ``submit`` and ``jobs`` talk to it over its
JSON-lines protocol.  ``serve --metrics [PORT]`` enables the metrics
plane (and, with a port, a ``GET /metrics`` Prometheus endpoint);
``serve --trace PATH`` appends structured span records to a JSONL
file.  ``stats`` without a graph shows a live service snapshot, and
``trace`` renders span records from a running service or a JSONL file.
"""

from __future__ import annotations

import argparse
import sys

from repro.core import graph_io
from repro.core.maximum_clique import maximum_clique
from repro.core.memory_model import parse_byte_size
from repro.core.stats import summarize
from repro.engine import (
    LEVEL_STORE_AUTO,
    LEVEL_STORES,
    EnumerationConfig,
    EnumerationEngine,
    available_backends,
    backend_table,
)
from repro.errors import ReproError

__all__ = ["main", "build_parser"]

#: default TCP port of the enumeration job service (one shared
#: definition — importing the service package here is deliberate so
#: the CLI and `repro.service.serve` cannot drift apart).
from repro.service.server import DEFAULT_PORT  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Genome-scale clique enumeration (Zhang et al., SC 2005 "
            "reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser(
        "enumerate", help="enumerate maximal cliques"
    )
    p_enum.add_argument("graph", help="input graph file")
    _add_config_flags(p_enum)
    p_enum.add_argument(
        "--sink",
        default=None,
        metavar="SPEC",
        help=(
            "stream cliques into a sink instead of printing them: "
            "count, top_k:N, jsonl:PATH (default: collect and print)"
        ),
    )
    p_enum.add_argument(
        "--count",
        action="store_true",
        help="alias for --sink count (per-size counts only)",
    )

    sub.add_parser(
        "engines", help="list the registered enumeration backends"
    )

    p_max = sub.add_parser("maxclique", help="exact maximum clique")
    p_max.add_argument("graph", help="input graph file")

    p_stats = sub.add_parser(
        "stats",
        help="graph summary statistics, or live service stats",
    )
    p_stats.add_argument(
        "graph", nargs="?", default=None,
        help="input graph file (omit to query a running service)",
    )
    p_stats.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="show live stats of the service at this TCP address",
    )
    p_stats.add_argument(
        "--socket", default=None, metavar="PATH",
        help="show live stats of the service on this unix socket",
    )

    p_conv = sub.add_parser(
        "convert", help="convert between graph formats by extension"
    )
    p_conv.add_argument("graph", help="input graph file")
    p_conv.add_argument("output", help="output graph file")

    p_serve = sub.add_parser(
        "serve", help="run the enumeration job service"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host"
    )
    p_serve.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help="TCP port (default: %(default)s; 0 picks a free port)",
    )
    p_serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="listen on a unix socket instead of TCP",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="scheduler worker threads (default: %(default)s)",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=128,
        help="result-cache entries, 0 disables (default: %(default)s)",
    )
    p_serve.add_argument(
        "--memory-budget", type=parse_byte_size, default=None,
        metavar="SIZE",
        help=(
            "admission-control memory budget, e.g. 512M or 2GB: "
            "workers only claim a job when its memory-model predicted "
            "peak fits next to the jobs already running (default: no "
            "admission control)"
        ),
    )
    p_serve.add_argument(
        "--metrics", nargs="?", type=int, const=True, default=None,
        metavar="PORT",
        help=(
            "enable the metrics plane (the 'metrics' wire op); with a "
            "PORT, additionally serve GET /metrics there (0 picks a "
            "free port)"
        ),
    )
    p_serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help=(
            "enable span tracing and append every record to this "
            "JSONL file (the 'trace' wire op reads the in-memory ring)"
        ),
    )

    def add_connect(p):
        p.add_argument(
            "--connect", default=f"127.0.0.1:{DEFAULT_PORT}",
            metavar="HOST:PORT", help="service TCP address",
        )
        p.add_argument(
            "--socket", default=None, metavar="PATH",
            help="service unix socket (overrides --connect)",
        )

    p_submit = sub.add_parser(
        "submit", help="submit an enumeration job to a running service"
    )
    p_submit.add_argument("graph", help="graph file (server-side path)")
    add_connect(p_submit)
    _add_config_flags(p_submit)
    p_submit.add_argument(
        "--sink", default="count", metavar="SPEC",
        help="job sink spec (default: count)",
    )
    p_submit.add_argument(
        "--priority", type=int, default=0, help="higher runs first"
    )
    p_submit.add_argument(
        "--label", default="", help="free-form tag shown in listings"
    )
    p_submit.add_argument(
        "--no-cache", action="store_true",
        help="bypass the service result cache for this job",
    )
    p_submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its summary",
    )

    p_jobs = sub.add_parser(
        "jobs", help="list the jobs of a running service"
    )
    add_connect(p_jobs)

    p_trace = sub.add_parser(
        "trace", help="show trace spans from a service or a JSONL file"
    )
    add_connect(p_trace)
    p_trace.add_argument(
        "--file", default=None, metavar="PATH",
        help="read records from a trace JSONL file instead of a service",
    )
    p_trace.add_argument(
        "--limit", type=int, default=40, metavar="N",
        help="newest records to show (default: %(default)s)",
    )
    return parser


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """The :class:`EnumerationConfig` flags ``enumerate`` and ``submit``
    share (read back by :func:`_config_from_args`)."""
    p.add_argument(
        "--backend",
        default="incore",
        choices=available_backends(),
        metavar="NAME",
        help=(
            "execution backend (see the 'engines' subcommand; default: "
            "incore; choices: %(choices)s)"
        ),
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker threads for the parallel 'threads' backend "
            "(default: cpu count)"
        ),
    )
    p.add_argument(
        "--level-store",
        default="memory",
        choices=(*LEVEL_STORES, LEVEL_STORE_AUTO),
        metavar="NAME",
        help=(
            "candidate-level storage substrate: %(choices)s "
            "(default: %(default)s; 'disk' spills every level, the "
            "paper's out-of-core mode; 'wah' holds levels "
            "WAH-compressed and runs the compressed-domain step, to "
            "cut the memory peak on sparse graphs; 'auto' picks the "
            "cheapest substrate whose memory-model predicted peak "
            "fits the memory budget — the service's, or the "
            "available memory)"
        ),
    )
    p.add_argument(
        "--k-min", type=int, default=1, help="minimum clique size (Init_K)"
    )
    p.add_argument(
        "--k-max", type=int, default=None, help="maximum clique size"
    )


def _config_from_args(args: argparse.Namespace) -> EnumerationConfig:
    return EnumerationConfig(
        backend=args.backend,
        k_min=args.k_min,
        k_max=args.k_max,
        jobs=args.jobs,
        level_store=args.level_store,
    )


def _print_size_counts(by_size: dict[int, int], total: int) -> None:
    for size, count in sorted(by_size.items()):
        print(f"size {size}: {count}")
    print(f"total: {total}")


def _cmd_enumerate(args) -> int:
    from repro.service.sinks import (
        CollectSink, JsonlSink, TopKSink, make_sink,
    )

    g = graph_io.load(args.graph)
    config = _config_from_args(args)
    spec = args.sink
    if args.count:
        if spec is not None and spec != "count":
            raise ReproError(
                "--count is an alias for --sink count; drop one of them"
            )
        spec = "count"
    if spec is None:
        result = EnumerationEngine().run(g, config)
        for clique in result.cliques:
            print(" ".join(map(str, clique)))
        return 0
    sink = make_sink(spec)
    EnumerationEngine().run_with_sink(g, config, sink)
    if isinstance(sink, CollectSink):
        for clique in sink.cliques:
            print(" ".join(map(str, clique)))
    elif isinstance(sink, TopKSink):
        for clique in sink.top:
            print(" ".join(map(str, clique)))
    elif isinstance(sink, JsonlSink):
        print(
            f"wrote {sink.count} cliques "
            f"({sink.bytes_written} bytes) to {sink.path}"
        )
    else:
        # count — and any future sink type: the uniform base-class
        # accounting always supports a per-size report
        _print_size_counts(sink.by_size, sink.count)
    return 0


def _cmd_engines(args) -> int:
    table = backend_table()
    name_w = max(len("backend"), max(len(i.name) for i in table))
    print(f"{'backend':<{name_w}}  parallel  description")
    for info in table:
        parallel = "yes" if info.parallel else "no"
        print(f"{info.name:<{name_w}}  {parallel:<8}  {info.description}")
    return 0


def _cmd_maxclique(args) -> int:
    g = graph_io.load(args.graph)
    clique = maximum_clique(g)
    print(f"size {len(clique)}: {' '.join(map(str, clique))}")
    return 0


def _cmd_stats(args) -> int:
    if args.graph is None:
        if args.connect is None and args.socket is None:
            raise ReproError(
                "stats needs a graph file, or --connect/--socket to "
                "query a running service"
            )
        return _cmd_service_stats(args)
    g = graph_io.load(args.graph)
    s = summarize(g)
    print(f"vertices:            {s.n}")
    print(f"edges:               {s.m}")
    print(f"density:             {s.density:.4%}")
    print(f"degree (min/mean/max): {s.min_degree} / "
          f"{s.mean_degree:.2f} / {s.max_degree}")
    print(f"triangles:           {s.triangles}")
    print(f"avg clustering:      {s.average_clustering:.4f}")
    print(f"components:          {s.n_components} "
          f"(largest {s.largest_component})")
    print(f"fingerprint:         {graph_io.graph_fingerprint(g)}")
    return 0


def _cmd_service_stats(args) -> int:
    """``repro stats --connect/--socket``: one live service snapshot."""
    from repro.service import ServiceClient

    with ServiceClient(_service_address(args)) as client:
        ping = client.ping()
        stats = client.stats()
    print(f"service:     version {ping['version']}, "
          f"up {ping.get('uptime_seconds', 0.0):.1f}s")
    print(f"workers:     {stats['workers']}")
    print(f"queued:      {stats['queued']}")
    states = " ".join(
        f"{state}={count}" for state, count in stats["jobs"].items()
    )
    print(f"jobs:        {states}")
    cache = stats.get("cache")
    if cache is not None:
        print(f"cache:       {cache['entries']}/{cache['max_entries']} "
              f"entries, {cache['hits']} hits / {cache['misses']} "
              f"misses / {cache['evictions']} evictions")
    else:
        print("cache:       disabled")
    return 0


def _cmd_trace(args) -> int:
    """``repro trace``: render span records, newest ``--limit``.

    Reads the service's in-memory ring over the wire, or — with
    ``--file`` — a JSONL file written by ``serve --trace``.
    """
    import json

    if args.file is not None:
        records = []
        with open(args.file, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError as exc:
                    raise ReproError(
                        f"{args.file}:{lineno}: malformed trace "
                        f"record: {exc}"
                    ) from None
        if args.limit is not None and args.limit >= 0:
            records = records[-args.limit:]
    else:
        from repro.service import ServiceClient

        with ServiceClient(_service_address(args)) as client:
            records = client.trace(limit=args.limit)
    for rec in records:
        indent = "  " * int(rec.get("depth", 0))
        name = rec.get("name", "?")
        fields = " ".join(
            f"{key}={value}"
            for key, value in (rec.get("fields") or {}).items()
        )
        stamp = f"{rec.get('ts', 0.0):.6f}"
        if rec.get("kind") == "span":
            dur_ms = rec.get("dur_s", 0.0) * 1000.0
            line = f"{stamp}  {indent}{name} [{dur_ms:.2f} ms] {fields}"
        else:
            line = f"{stamp}  {indent}* {name} {fields}"
        print(line.rstrip())
    return 0


def _cmd_convert(args) -> int:
    g = graph_io.load(args.graph)
    graph_io.save(g, args.output)
    print(f"wrote {g.n} vertices / {g.m} edges to {args.output}")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import serve

    # --metrics alone enables the plane (wire-op scrapes only);
    # --metrics PORT additionally serves GET /metrics on that port
    metrics_port = args.metrics if args.metrics is not True else None
    serve(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        workers=args.workers,
        cache_size=args.cache_size,
        memory_budget_bytes=args.memory_budget,
        metrics=args.metrics is not None,
        metrics_port=metrics_port,
        trace_path=args.trace,
    )
    return 0


def _service_address(args):
    """The client address from --socket / --connect."""
    if args.socket is not None:
        return args.socket
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(
            f"--connect must look like HOST:PORT, got {args.connect!r}"
        )
    return (host, int(port))


def _cmd_submit(args) -> int:
    from repro.service import ServiceClient

    config = _config_from_args(args)
    with ServiceClient(_service_address(args)) as client:
        job_id = client.submit(
            args.graph,
            config=config,
            sink=args.sink,
            priority=args.priority,
            use_cache=not args.no_cache,
            label=args.label,
        )
        if not args.wait:
            print(job_id)
            return 0
        job = client.wait(job_id)
    print(f"{job['id']}: {job['status']}"
          + (" (cache hit)" if job.get("cache_hit") else ""))
    if job["status"] != "done":
        # failed *and* cancelled jobs produced no usable output; a
        # pipeline must not treat them as success
        if job.get("error"):
            print(f"error: {job['error']}", file=sys.stderr)
        return 1
    summary = job.get("sink_summary") or {}
    if summary:
        _print_size_counts(
            {int(k): v for k, v in summary.get("by_size", {}).items()},
            summary.get("cliques", 0),
        )
    return 0


def _cmd_jobs(args) -> int:
    from repro.service import ServiceClient

    with ServiceClient(_service_address(args)) as client:
        jobs = client.jobs()
    print(f"{'id':<12} {'status':<10} {'backend':<12} {'store':<6} "
          f"{'sink':<14} {'cliques':>8} {'transfers':>9} "
          f"{'hit':<3}  label")
    for job in jobs:
        summary = job.get("sink_summary") or {}
        n = summary.get("cliques", job.get("n_cliques", ""))
        transfers = job.get("transfers", "")
        hit = "yes" if job.get("cache_hit") else ""
        # level_store is the resolved store: an "auto" submission shows
        # the one the scheduler picked
        print(f"{job['id']:<12} {job['status']:<10} "
              f"{job['backend']:<12} {job['level_store']:<6} "
              f"{job['sink']:<14} {n!s:>8} {transfers!s:>9} {hit:<3}  "
              f"{job['label']}")
    return 0


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "engines": _cmd_engines,
    "maxclique": _cmd_maxclique,
    "stats": _cmd_stats,
    "convert": _cmd_convert,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConnectionError as exc:
        print(f"error: cannot reach the service: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # e.g. `serve` on an already-bound port or unwritable socket
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
