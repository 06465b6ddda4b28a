"""Turn worker and rep records into the benchmark's metrics.

Times are CPU seconds of the processes doing the work, not wall
seconds: on the shared two-core host this benchmark was built on, the
hypervisor took 17-40 % of a busy core at times, and a cold sweep whose
work was fixed took 7.0-10.9 wall seconds from one rep to the next
while its CPU seconds stayed within 3 %.  They are reported in
reference seconds (:mod:`perfbench.calib`): multiplied by ``scale``,
the reference kernel time over the run's kernel time.  What CPU
seconds cannot see — work that runs one part at a time where it could
run two — is gated by ``parallelism``: CPU seconds over wall seconds
with the stolen share taken out (:func:`perfbench.host.delivered_share`).

Metric names and units are declared in ``BENCHMARK.json``
(:func:`declared`).  End-to-end metrics (untraced runs) are defined for
every workload:

``setup_s``           median over the run's set-ups of the CPU seconds
                      from process launch until the first timed job may
                      start (one per batch worker; one server per
                      service rep, until its warm-up job is back)
``job_cpu_p50_s``     median CPU seconds of one job: batch, from
                      ``graph_io.load`` to the verified sink; service,
                      one cache-hit round trip (submit, wait, result),
                      server and client together
``jobs_per_cpu_s``    median over the run's processes of jobs completed
                      per CPU second: batch, a worker's jobs over their
                      CPU seconds; service, a rep's 12 cold jobs over
                      the CPU seconds from the first submit to the last
                      ``result``
``parallelism``       median over the same processes of the same CPU
                      seconds over their wall seconds, each wall
                      interval scaled by the share of demanded CPU time
                      the hypervisor delivered during it: the cores the
                      work kept busy (service: the cold sweep)
``peak_rss_mb``       RSS high-water mark of the process doing the work:
                      batch, median over jobs of each job's mark in its
                      worker; service, median over reps of the server's
                      mark over the cold sweep and the hits
``peak_candidate_mb`` largest level's ``candidate_bytes`` over all jobs

Per-layer metrics (traced runs) are per job unless named otherwise; a
layer that a workload does not reach reads 0.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

from perfbench import spans as spanlib

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: per-layer metric -> the layer whose self time it reports (None: a
#: count or ratio worked out in :func:`per_layer` or from the records)
PER_LAYER = {
    "graph_io.load_s": "graph_io.load",
    "graph_io.fingerprint_s": "graph_io.fingerprint",
    "seed.edges_s": "seed.edges",
    "seed.kclique_s": "seed.kclique",
    "seed.sublists": None,
    "step.bitset_s": "step.bitset",
    "step.wah_s": "step.wah",
    "counters.cliques_generated": None,
    "counters.useful_ratio": None,
    "wah_kernels.word_ops": None,
    "level_store.append_s": "level_store.append",
    "level_store.stream_s": "level_store.stream",
    "level_store.decompressed_bytes": None,
    "level_store.bypassed_bytes": None,
    "sinks.emit_s": "sinks.emit",
    "sinks.cliques": None,
    "thread_backend.self_s": "thread_backend.step",
    "thread_backend.busy_share": None,
    "thread_backend.std_over_mean": None,
    "thread_backend.transfers": None,
    "scheduler.queue_wait_p50_s": None,
    "scheduler.run_p50_s": None,
    "scheduler.deferred": None,
    "memory_model.predict_s": "memory_model.predict",
    "memory_model.pred_over_measured_log10": None,
    "cache.hit_ratio": None,
    "cache.get_s": "cache.get",
    "cache.replay_s": None,
    "protocol.encode_s": "protocol.encode",
    "protocol.decode_s": "protocol.decode",
    "protocol.response_bytes": None,
    "trace.unattributed_s": None,
    "trace.overhead": None,
}


def declared(section: str) -> dict[str, str]:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` declares in
    ``section`` (``end_to_end`` or ``per_layer``)."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


#: root span of one job: batch workers open "job", the server's
#: scheduler runs each job inside "service.job"
JOB_ROOTS = ("job", "service.job")


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def batch_kernel_seconds(workers: list[dict]) -> float:
    """A batch run's kernel time: the median of every sample its
    workers took beside their set-up and jobs."""
    return _median(
        cal for w in workers
        for cal in (w["setup_cal_s"], *(j["cal_s"] for j in w["jobs"]))
    )


def service_kernel_seconds(reps: list[dict]) -> float:
    """A service run's kernel time: the median of every sample the
    client took while the server was idle."""
    return _median(
        cal for r in reps
        for cal in (r["setup_cal_s"], *r["sweep_cal_s"], *r["hit_cal_s"])
    )


# -- end to end ---------------------------------------------------------------

def batch_times(workers: list[dict], scale: float,
                traced: bool | None = None) -> list[float]:
    """Reference CPU seconds of every job (optionally only the
    (un)traced ones)."""
    return [
        j["cpu_s"] * scale for w in workers for j in w["jobs"]
        if traced is None or j["traced"] == traced
    ]


def batch_end_to_end(workers: list[dict], scale: float) -> dict:
    return {
        "setup_s": _median(w["setup_cpu_s"] * scale for w in workers),
        "job_cpu_p50_s": _median(batch_times(workers, scale)),
        "jobs_per_cpu_s": _median(
            len(w["jobs"]) / sum(j["cpu_s"] * scale for j in w["jobs"])
            for w in workers
        ),
        "parallelism": _median(
            sum(j["cpu_s"] for j in w["jobs"])
            / sum(j["wall_s"] * j["delivered"] for j in w["jobs"])
            for w in workers
        ),
        "peak_rss_mb": _median(
            j["peak_rss_mb"] for w in workers for j in w["jobs"]
        ),
        "peak_candidate_mb": max(
            j["peak_candidate_bytes"] for w in workers for j in w["jobs"]
        ) / 1e6,
    }


def hit_times(reps: list[dict], scale: float,
              traced: bool | None = None) -> list[float]:
    """Reference CPU seconds of every cache-hit round trip, server and
    client."""
    return [
        cpu * scale for r in reps for cpu in r["hit_cpu_s"]
        if traced is None or r["traced"] == traced
    ]


def service_end_to_end(reps: list[dict], scale: float) -> dict:
    return {
        "setup_s": _median(r["setup_cpu_s"] * scale for r in reps),
        "job_cpu_p50_s": _median(hit_times(reps, scale)),
        "jobs_per_cpu_s": _median(
            len(r["cold_jobs"]) / (r["sweep_cpu_s"] * scale) for r in reps
        ),
        "parallelism": _median(
            r["sweep_cpu_s"] / (r["sweep_wall_s"] * r["sweep_delivered"])
            for r in reps
        ),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in reps),
        "peak_candidate_mb": max(
            (j["measured_peak_bytes"] for r in reps for j in r["cold_jobs"]),
            default=0,
        ) / 1e6,
    }


def percentiles(samples: list[float]) -> dict:
    """Median, and p90 only when at least ten samples lie beyond it."""
    out = {"n": len(samples), "p50": _median(samples)}
    if len(samples) >= 100:
        out["p90"] = statistics.quantiles(samples, n=10)[-1]
    return out


# -- layers -------------------------------------------------------------------

class Ledger:
    """Per-layer self time over many span dumps, in reference seconds.

    ``add(dump, scale)`` folds one process's spans.  Span times are wall
    seconds — a traced run divides each job's wall span among its
    layers — scaled by the run's calibration like every other time.
    """

    def __init__(self) -> None:
        #: (root name, layer) -> [calls, self seconds, count]
        self.rows: dict[tuple[str, str], list] = defaultdict(
            lambda: [0, 0.0, 0]
        )
        #: root name -> [roots, seconds, parallel overlap seconds]
        self.roots: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: spans whose own-thread children and leaves cover more than
        #: their duration: time counted twice (see spans.attribute)
        self.overcovered = 0
        self.busy = [0.0, 0.0]  # worker step seconds, step capacity
        self.hit_replay = [0, 0.0]  # hit jobs, seconds after the get
        self.seed_roots = 0

    def add(self, dump: dict, scale: float, n_workers: int = 1) -> None:
        spans, leaves = spanlib.load(dump)
        att = spanlib.attribute(spans, leaves, set(dump["adopters"]))
        self.overcovered += len(att.overcovered)
        by_id = {s.id: s for s in spans if s.t1 is not None}
        for (root_id, layer), (calls, seconds, count) in att.by_root.items():
            row = self.rows[(by_id[root_id].name, layer)]
            row[0] += calls
            row[1] += seconds * scale
            row[2] += count
        for root_id in {root_id for root_id, _ in att.by_root}:
            root = by_id[root_id]
            entry = self.roots[root.name]
            entry[0] += 1
            entry[1] += root.duration * scale
            entry[2] += att.overlap.get(root_id, 0.0) * scale
        for (pid, name), (calls, seconds, count) in leaves.items():
            if pid == 0:
                row = self.rows[("(outside spans)", name)]
                row[0] += calls
                row[1] += seconds * scale
                row[2] += count
        kids = defaultdict(list)
        for s in by_id.values():
            kids[s.parent].append(s)
        for s in by_id.values():
            if s.name == "thread_backend.step":
                workers = [c for c in kids[s.id] if c.tid != s.tid]
                if workers:
                    self.busy[0] += sum(c.duration for c in workers)
                    self.busy[1] += n_workers * s.duration
            if s.name == "service.job":
                gets = [c for c in kids[s.id] if c.name == "cache.get"]
                if gets and gets[0].count:
                    self.hit_replay[0] += 1
                    self.hit_replay[1] += (
                        s.duration - gets[0].duration
                    ) * scale
            if s.name in JOB_ROOTS and any(
                c.name.startswith("seed.") for c in kids[s.id]
            ):
                self.seed_roots += 1

    def layer(self, name: str) -> tuple[int, float, int]:
        """Summed (calls, self seconds, count) of a layer."""
        calls = seconds = count = 0
        for (_, layer), (c, s, n) in self.rows.items():
            if layer == name:
                calls += c
                seconds += s
                count += n
        return calls, seconds, count

    @property
    def jobs(self) -> int:
        return sum(self.roots[name][0] for name in JOB_ROOTS
                   if name in self.roots)

    def table(self) -> list[str]:
        """The per-layer self-time table, one section per root kind."""
        lines = []
        for root_name in sorted(self.roots):
            n, total, overlap = self.roots[root_name]
            lines.append(
                f"  {root_name}: {n} spans, {total / n:.4f} s each"
                + (f", {overlap / total:.1%} parallel overlap"
                   if overlap else "")
            )
            rows = sorted(
                ((layer, r) for (root, layer), r in self.rows.items()
                 if root == root_name),
                key=lambda item: -item[1][1],
            )
            for layer, (calls, seconds, count) in rows:
                label = "(unattributed)" if layer == root_name else layer
                lines.append(
                    f"    {label:<24} {seconds / n:>10.5f} s/span "
                    f"{seconds / total:>7.1%}  calls {calls:>9} "
                    f"count {count}"
                )
        outside = [(layer, r) for (root, layer), r in self.rows.items()
                   if root == "(outside spans)"]
        for layer, (calls, seconds, count) in outside:
            lines.append(f"  (outside spans) {layer}: {seconds:.5f} s, "
                         f"calls {calls}, count {count}")
        lines.append(
            f"  spans whose own-thread children cover more than the "
            f"span (time counted twice): {self.overcovered}"
        )
        return lines


def per_layer(ledger: Ledger, counts: dict, overhead: float) -> dict:
    """The per-layer metric values from a ledger and job counts."""
    jobs = max(ledger.jobs, 1)
    values = {}
    for name, layer in PER_LAYER.items():
        if layer is not None:
            values[name] = ledger.layer(layer)[1] / jobs
    seed_count = ledger.layer("seed.edges")[2] + ledger.layer(
        "seed.kclique"
    )[2]
    values["seed.sublists"] = seed_count / max(ledger.seed_roots, 1)
    values["thread_backend.busy_share"] = (
        ledger.busy[0] / ledger.busy[1] if ledger.busy[1] else 0.0
    )
    values["cache.replay_s"] = (
        ledger.hit_replay[1] / ledger.hit_replay[0]
        if ledger.hit_replay[0] else 0.0
    )
    values["protocol.response_bytes"] = sum(
        r[2] for (root, layer), r in ledger.rows.items()
        if layer == "protocol.encode" and root != "sweep.hit"
    ) / jobs
    values["trace.unattributed_s"] = sum(
        ledger.rows[(root, root)][1] for root in JOB_ROOTS
        if (root, root) in ledger.rows
    ) / jobs
    values["trace.overhead"] = overhead
    values.update(counts)
    return {name: values.get(name, 0.0) for name in PER_LAYER}


def batch_counts(workers: list[dict]) -> dict:
    jobs = [j for w in workers for j in w["jobs"]]
    n = len(jobs)
    generated = sum(j["cliques_generated"] for j in jobs)
    balance = [j["std_over_mean"] for j in jobs
               if j["std_over_mean"] is not None]
    return {
        "counters.cliques_generated": generated / n,
        "counters.useful_ratio": (
            sum(j["maximal_emitted"] for j in jobs) / generated
            if generated else 0.0
        ),
        "wah_kernels.word_ops": sum(j["word_ops"] for j in jobs) / n,
        "level_store.decompressed_bytes": sum(
            j["decompressed_bytes"] for j in jobs) / n,
        "level_store.bypassed_bytes": sum(
            j["bypassed_bytes"] for j in jobs) / n,
        "sinks.cliques": sum(j["sink_cliques"] for j in jobs) / n,
        "thread_backend.std_over_mean": _median(balance),
        "thread_backend.transfers": sum(j["transfers"] for j in jobs) / n,
    }


def service_counts(reps: list[dict], scale: float) -> dict:
    cold = [j for r in reps for j in r["cold_jobs"]]
    n = max(len(cold), 1)
    queued = [j["queued_seconds"] * scale for j in cold]
    run = [j["run_seconds"] * scale for j in cold]
    generated = sum(j["counters"]["cliques_generated"] for j in cold)
    maximal = sum(j["counters"]["maximal_emitted"] for j in cold)
    hits = sum(r["cache"]["hits"] for r in reps)
    misses = sum(r["cache"]["misses"] for r in reps)
    return {
        "counters.cliques_generated": generated / n,
        "counters.useful_ratio": maximal / generated if generated else 0.0,
        "sinks.cliques": sum(j["n_cliques"] for j in cold) / n,
        "scheduler.queue_wait_p50_s": _median(queued),
        "scheduler.run_p50_s": _median(run),
        "scheduler.deferred": _median(r["deferred"] for r in reps),
        "memory_model.pred_over_measured_log10": _median(
            math.log10(j["predicted_peak_bytes"] / j["measured_peak_bytes"])
            for j in cold if j["measured_peak_bytes"]
        ),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
