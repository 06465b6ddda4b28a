"""One batch worker process: set up once, then run timed jobs.

Run as ``python3 -m perfbench.batch SPEC_JSON`` by :mod:`perfbench.run`.
A job is what ``repro enumerate GRAPH --sink count`` does: from
``graph_io.load`` of the file until the sink is closed and its per-size
counts are checked against the oracle.  Set-up is everything from the
process launch until the first timed job may start: interpreter start,
imports, and a warm-up job — the same configuration on the workload's
warm-up input — whose complete clique list is digest-checked.

Jobs, set-up and the calibration kernel are timed in CPU seconds of
this process (all its threads): on a shared host the hypervisor can
take a third of a busy core's time, and wall seconds then measure the
neighbours rather than the program.  Each job's wall seconds are
recorded beside them with the share of demanded CPU time the
hypervisor delivered meanwhile (:func:`perfbench.host.delivered_share`),
which gives the job's parallelism.

The worker writes one JSON record to ``SPEC["out"]``: set-up seconds,
each job's raw seconds beside its calibration-kernel seconds, the
counts the program reported, and (traced runs) the spans.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time

from perfbench import calib, host, inputs
from perfbench.spans import Instrumentation, Tracer

#: timed jobs a worker runs whatever its share: a traced run then holds
#: a traced and an untraced job, and a median is over more than one
MIN_JOBS = 2

#: the modules whose names a traced batch job wraps
MODULES = (
    "repro.core.graph_io",
    "repro.engine.level_loop",
    "repro.engine.backends",
    "repro.core.compressed_domain",
    "repro.parallel.thread_backend",
    "repro.engine.level_store",
    "repro.service.sinks",
)


def _job_record(result, sink) -> dict:
    lb = result.load_balance or {}
    return {
        "peak_candidate_bytes": max(
            (ls.candidate_bytes for ls in result.level_stats), default=0
        ),
        "cliques_generated": result.counters.cliques_generated,
        "maximal_emitted": result.counters.maximal_emitted,
        "sink_cliques": sink.count,
        "word_ops": result.domain_stats.get("kernel_word_ops", 0),
        "decompressed_bytes": result.domain_stats.get(
            "decompressed_bytes", 0
        ),
        "bypassed_bytes": result.domain_stats.get(
            "decompressed_bytes_avoided", 0
        ),
        "transfers": result.transfers,
        "n_workers": result.n_workers,
        "std_over_mean": lb.get("std_over_mean"),
    }


def _counts(sink) -> dict:
    return {"cliques": sink.count,
            "by_size": {str(k): v for k, v in sorted(sink.by_size.items())}}


def main(spec: dict) -> None:
    from repro.core import graph_io
    from repro.engine import EnumerationConfig, EnumerationEngine
    from repro.service.sinks import CollectSink, CountSink

    path = spec["graph"]
    expected = spec["oracle"]
    config = EnumerationConfig(**spec["config"])
    out = {"failures": [], "jobs": []}

    sink = CollectSink()
    EnumerationEngine().run_with_sink(graph_io.load(spec["warmup"]),
                                      config, sink)
    problems = inputs.check(inputs.summarize(sink.cliques),
                            spec["warmup_oracle"])
    del sink
    if problems:
        out["failures"].append({"job": "warm-up", "problems": problems})
    out["setup_cpu_s"] = time.process_time()
    out["setup_wall_s"] = time.monotonic() - spec["launched_at"]
    out["setup_cal_s"] = calib.time_kernel()

    tracer = Tracer() if spec["trace"] else None
    instrumentation = (
        Instrumentation(tracer, MODULES) if tracer is not None else None
    )
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        index = len(out["jobs"])
        cal = calib.time_kernel()
        # every timed job starts from a collected heap, as a fresh
        # `repro enumerate` would, and has its own RSS high-water mark
        gc.collect()
        host.reset_peak_rss()
        traced = (
            tracer is not None and (index + spec["phase"]) % 2 == 0
        )
        if traced:
            instrumentation.install()
            root = tracer.open("job", trace=f"{spec['tag']}-job{index}")
        ticks = host.cpu_ticks()
        t0, c0 = time.perf_counter(), time.process_time()
        g = graph_io.load(path)
        sink = CountSink()
        result = EnumerationEngine().run_with_sink(g, config, sink)
        problems = inputs.check(_counts(sink), expected)
        cpu = time.process_time() - c0
        wall = time.perf_counter() - t0
        delivered = host.delivered_share(ticks, host.cpu_ticks())
        peak_rss = host.peak_rss_mb()
        if traced:
            tracer.close(root)
            instrumentation.uninstall()
        record = _job_record(result, sink)
        record.update(cpu_s=cpu, wall_s=wall, delivered=delivered,
                      cal_s=cal, traced=traced, peak_rss_mb=peak_rss)
        out["jobs"].append(record)
        if problems:
            out["failures"].append({"job": index, "problems": problems})
        del g, sink, result
        # stop when a typical job would overrun the share, but not
        # before MIN_JOBS
        typical = statistics.median(j["wall_s"] for j in out["jobs"])
        if (len(out["jobs"]) >= MIN_JOBS
                and time.perf_counter() + typical > deadline):
            break
    if tracer is not None:
        out.update(tracer.dump())
    with open(spec["out"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
