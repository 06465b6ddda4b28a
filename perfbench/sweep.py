"""The service workload: one client driving ``repro serve`` over a unix
socket.

A run is a sequence of reps.  Each rep starts a fresh server (so every
cold sweep is cold: empty result cache, empty graph memo) and then:

1. **set-up** — launch until the first ``ping`` answers, plus a warm-up
   job on a small graph of its own, digest-checked;
2. **cold sweep** — submit all 12 cutoffs (``collect``, ``k_min=3``)
   at once, then wait for and fetch each ``result``; the results fill
   the cache;
3. **hits** — re-query the sweep :data:`~perfbench.workloads.
   HIT_PASSES` times, one job at a time (submit, wait, result); every
   one must be a cache hit.

Each phase is timed in CPU seconds — the server's threads (their
``schedstat`` counts) plus the client process — with wall seconds
recorded beside them, and the calibration kernel is timed in the
client's CPU seconds.  The cold sweep also records the share of
demanded CPU time the hypervisor delivered, which gives its
parallelism: admission control that runs one job at a time holds it
near one core.

Every result is digest-checked against the oracle outside the timed
intervals.  In a traced run the reps alternate between a traced and an
untraced server, so the run measures its own tracing overhead.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from perfbench import calib, host, inputs
from perfbench.spans import Instrumentation, Tracer
from perfbench.workloads import HIT_PASSES, SERVE_ARGS

#: the client-side modules a traced rep wraps
CLIENT_MODULES = ("repro.service.client",)


def _connect(client_cls, socket_path: str, proc, timeout: float):
    deadline = time.monotonic() + timeout
    while True:
        try:
            client = client_cls(socket_path)
        except ConnectionError:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise
            time.sleep(0.002)
            continue
        client.ping()
        return client


def _verify(job: dict, expected: dict, hit: bool | None) -> list[str]:
    if job.get("status") != "done":
        return [f"status {job.get('status')}: {job.get('error')}"]
    problems = inputs.check(
        inputs.summarize(job.get("cliques", [])), expected
    )
    if hit is not None and bool(job.get("cache_hit")) != hit:
        problems.append(f"cache_hit is {job.get('cache_hit')}, "
                        f"expected {hit}")
    return problems


def run_rep(root: Path, manifest: dict, rep: int, traced: bool,
            out_dir: Path, env: dict) -> dict:
    """One rep; returns its record (timings, counts, failures)."""
    from repro.service.client import ServiceClient

    graphs = manifest["graphs"]
    cutoffs = sorted(name for name in graphs if name != "warmup")
    k_min = manifest["k_min"]
    tag = f"rep{rep}"
    sock = str(out_dir.relative_to(root) / f"{tag}.sock")
    spans_file = out_dir / f"{tag}-server-spans.json"
    cmd = [sys.executable, "-m", "perfbench.launch_server"]
    if traced:
        cmd += ["--spans", str(spans_file)]
    cmd += ["--", "--socket", sock, *SERVE_ARGS]
    record = {"traced": traced, "failures": [], "attempted": 0}
    client = None
    stopping = False
    log = open(out_dir / f"{tag}-server.log", "w")
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log,
                            stderr=subprocess.STDOUT)
    tracer = Tracer() if traced else None
    client_instr = (
        Instrumentation(tracer, CLIENT_MODULES) if traced else None
    )
    try:
        client = _connect(ServiceClient, sock, proc, timeout=60)
        warm = graphs["warmup"]
        job_id = client.submit(warm["path"], sink="collect", k_min=k_min)
        client.wait(job_id)
        job = client.result(job_id)
        record["attempted"] += 1
        problems = _verify(job, warm["oracle"], hit=False)
        record["setup_wall_s"] = time.monotonic() - launched
        record["setup_cpu_s"] = host.cpu_seconds(proc.pid)
        record["setup_cal_s"] = calib.time_kernel()
        if problems:
            record["failures"].append({"job": "warm-up",
                                       "problems": problems})
        host.reset_peak_rss(proc.pid)

        cal_before = calib.time_kernel()
        server0 = host.cpu_seconds(proc.pid)
        ticks = host.cpu_ticks()
        t0, c0 = time.perf_counter(), time.process_time()
        ids = [client.submit(graphs[c]["path"], sink="collect",
                             k_min=k_min, label=c) for c in cutoffs]
        cold = []
        for job_id in ids:
            client.wait(job_id)
            cold.append(client.result(job_id))
        client_cpu = time.process_time() - c0
        record["sweep_wall_s"] = time.perf_counter() - t0
        record["sweep_delivered"] = host.delivered_share(
            ticks, host.cpu_ticks())
        record["sweep_cpu_s"] = (
            host.cpu_seconds(proc.pid) - server0 + client_cpu
        )
        record["sweep_cal_s"] = [cal_before,
                                 calib.time_kernel()]
        record["attempted"] += len(cold)
        for name, job in zip(cutoffs, cold):
            problems = _verify(job, graphs[name]["oracle"], hit=False)
            if problems:
                record["failures"].append({"job": name,
                                           "problems": problems})
        record["cold_jobs"] = [
            {key: job.get(key) for key in (
                "queued_seconds", "run_seconds", "predicted_peak_bytes",
                "measured_peak_bytes", "counters", "n_cliques")}
            for job in cold if job.get("status") == "done"
        ]
        record["deferred"] = client.stats()["admission"]["deferred_total"]

        hits = []
        record["hit_cal_s"] = []
        if client_instr is not None:
            client_instr.install()
        for _ in range(HIT_PASSES):
            record["hit_cal_s"].append(
                calib.time_kernel())
            for name in cutoffs:
                root_span = (
                    tracer.open("sweep.hit") if tracer is not None
                    else None
                )
                server0 = host.cpu_seconds(proc.pid)
                t0, c0 = time.perf_counter(), time.process_time()
                job_id = client.submit(graphs[name]["path"],
                                       sink="collect", k_min=k_min)
                client.wait(job_id)
                job = client.result(job_id)
                client_cpu = time.process_time() - c0
                wall = time.perf_counter() - t0
                cpu = host.cpu_seconds(proc.pid) - server0 + client_cpu
                if root_span is not None:
                    tracer.close(root_span)
                hits.append((cpu, wall))
                problems = _verify(job, graphs[name]["oracle"], hit=True)
                if problems:
                    record["failures"].append({"job": f"hit-{name}",
                                               "problems": problems})
        if client_instr is not None:
            client_instr.uninstall()
        record["attempted"] += len(hits)
        record["hit_cpu_s"] = [cpu for cpu, _ in hits]
        record["hit_wall_s"] = [wall for _, wall in hits]
        record["peak_rss_mb"] = host.peak_rss_mb(proc.pid)
        stats = client.stats()
        record["cache"] = stats["cache"]
        client.shutdown_server()
        stopping = True
    finally:
        if client is not None:
            client.close()
        if client_instr is not None:
            client_instr.uninstall()
        _stop(proc, stopping)
        log.close()
    if proc.returncode != 0:
        record["failures"].append({
            "job": "server", "problems": [f"exit code {proc.returncode}"]
        })
    if traced:
        record["server_spans"] = json.loads(spans_file.read_text())
        record["client_spans"] = tracer.dump()
    return record


def _stop(proc, stopping: bool) -> None:
    """Wait for the server to exit: it was asked to shut down, or it is
    terminated now (a rep that failed part-way)."""
    if proc.poll() is None and not stopping:
        proc.terminate()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
