"""Folding engine results and service state into the metrics registry.

The one place metric *names* are decided (the table in
``docs/ARCHITECTURE.md`` mirrors this module).  Two kinds of folding:

* **completion folds** — :func:`fold_result` / :func:`fold_job` run
  once per finished job and add the run's telemetry (operation
  counters, per-level candidates and seconds, WAH kernel word-ops,
  decompressed-bytes-avoided, steals, I/O traffic) into monotone
  counters.  Because every value comes verbatim from the job's
  :class:`~repro.core.clique_enumerator.EnumerationResult`, a scrape
  after one job matches that job's result *exactly* — the round-trip
  the acceptance test pins.
* **scrape samples** — :func:`sample_service` runs on every scrape and
  refreshes the instantaneous gauges (queue depth, jobs by state,
  cache tallies, sampled RSS next to the memory-model peaks).

Everything here is duck-typed against the result/scheduler surfaces so
:mod:`repro.obs` stays importable below both the engine and the
service layers.
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import rss_bytes

__all__ = ["METRIC_NAMES", "fold_result", "fold_job", "sample_service"]

#: The metric-name authority.  Every ``repro_*`` series the stats plane
#: can export is declared here; ``tools/repro_lint`` (RL002) checks that
#: registry constructor calls across ``src/`` and the metric table in
#: ``docs/ARCHITECTURE.md`` agree with this tuple, and the obs test
#: suite asserts the names rendered from ``_COUNTER_FIELDS`` /
#: ``_DOMAIN_FIELDS`` stay inside it.
METRIC_NAMES = (
    # completion folds (fold_result)
    "repro_cliques_emitted_total",
    "repro_bit_and_ops_total",
    "repro_bit_exist_checks_total",
    "repro_pair_checks_total",
    "repro_cliques_generated_total",
    "repro_sublists_created_total",
    "repro_counter_extra_total",
    "repro_job_levels_total",
    "repro_level_candidates_total",
    "repro_level_sublists_total",
    "repro_level_seconds_total",
    "repro_level_seconds",
    "repro_peak_candidate_bytes",
    "repro_peak_paper_formula_bytes",
    "repro_kernel_word_ops_total",
    "repro_kernel_ands_total",
    "repro_decompressed_bytes_avoided_total",
    "repro_domain_stats_total",
    "repro_transfers_total",
    "repro_io_read_bytes_total",
    "repro_io_written_bytes_total",
    "repro_load_balance_std_over_mean",
    # job lifecycle folds (fold_job)
    "repro_jobs_finished_total",
    "repro_job_queued_seconds",
    "repro_job_run_seconds",
    "repro_cache_replayed_jobs_total",
    "repro_predicted_peak_bytes",
    # scrape samples (sample_service)
    "repro_workers",
    "repro_queue_depth",
    "repro_jobs",
    "repro_cache_entries",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_cache_evictions_total",
    "repro_admission_budget_bytes",
    "repro_admission_bytes_in_use",
    "repro_admission_admitted_total",
    "repro_admission_deferred_total",
    "repro_uptime_seconds",
    "repro_rss_bytes",
)

#: OpCounters attributes folded 1:1 into ``repro_<name>_total``.
_COUNTER_FIELDS = (
    "bit_and_ops",
    "bit_exist_checks",
    "pair_checks",
    "cliques_generated",
    "maximal_emitted",
    "sublists_created",
)

#: domain_stats keys promoted to first-class counters; anything else a
#: future expander reports folds into the labeled fallback family.
_DOMAIN_FIELDS = {
    "kernel_word_ops": "repro_kernel_word_ops_total",
    "kernel_ands": "repro_kernel_ands_total",
    "decompressed_bytes_avoided": "repro_decompressed_bytes_avoided_total",
}

_DOMAIN_HELP = {
    "kernel_word_ops":
        "CN words the AND kernels read and wrote, plus adjacency groups "
        "probed.",
    "kernel_ands": "Compressed-domain AND kernel invocations.",
    "decompressed_bytes_avoided":
        "Raw bytes that stayed WAH-compressed end to end.",
}


def fold_result(registry: MetricsRegistry, result: Any) -> None:
    """Add one finished run's telemetry into the registry's counters.

    ``result`` is an :class:`~repro.core.clique_enumerator.
    EnumerationResult` (duck-typed).  Safe to call from scheduler
    worker threads; every family is thread-safe.
    """
    counters = result.counters
    registry.counter(
        "repro_cliques_emitted_total",
        "Maximal cliques emitted by finished jobs.",
    ).inc(counters.maximal_emitted)
    for name in _COUNTER_FIELDS:
        if name == "maximal_emitted":
            continue
        registry.counter(
            f"repro_{name}_total",
            f"OpCounters.{name} accumulated over finished jobs.",
        ).inc(getattr(counters, name))
    for key, value in counters.extra.items():
        if isinstance(value, (int, float)):
            registry.counter(
                "repro_counter_extra_total",
                "Non-canonical OpCounters.extra tallies, by key.",
                ("counter",),
            ).inc(value, counter=key)
    registry.counter(
        "repro_job_levels_total",
        "Deepest candidate level reached, summed over finished jobs.",
    ).inc(counters.levels)

    level_candidates = registry.counter(
        "repro_level_candidates_total",
        "Candidates held at each level, summed over finished jobs.",
        ("k",),
    )
    level_sublists = registry.counter(
        "repro_level_sublists_total",
        "Sub-lists held at each level, summed over finished jobs.",
        ("k",),
    )
    level_seconds_total = registry.counter(
        "repro_level_seconds_total",
        "Wall-clock seconds spent producing each level.",
        ("k",),
    )
    level_seconds = registry.histogram(
        "repro_level_seconds",
        "Per-level wall-clock seconds across finished jobs.",
    )
    peak_measured = 0
    peak_formula = 0
    for i, stats in enumerate(result.level_stats):
        level_candidates.inc(stats.n_candidates, k=stats.k)
        level_sublists.inc(stats.n_sublists, k=stats.k)
        peak_measured = max(peak_measured, stats.candidate_bytes)
        peak_formula = max(peak_formula, stats.paper_formula_bytes)
        if i < len(result.level_seconds):
            level_seconds_total.inc(result.level_seconds[i], k=stats.k)
            level_seconds.observe(result.level_seconds[i])
    if result.level_stats:
        registry.gauge(
            "repro_peak_candidate_bytes",
            "Largest measured per-level candidate storage seen so far.",
        ).set_max(peak_measured)
        registry.gauge(
            "repro_peak_paper_formula_bytes",
            "Largest paper-formula (memory model) per-level prediction "
            "seen so far.",
        ).set_max(peak_formula)

    for key, value in result.domain_stats.items():
        if not isinstance(value, (int, float)):
            continue
        name = _DOMAIN_FIELDS.get(key)
        if name is not None:
            registry.counter(name, _DOMAIN_HELP[key]).inc(value)
        else:
            registry.counter(
                "repro_domain_stats_total",
                "Future compressed-domain telemetry, by key.",
                ("stat",),
            ).inc(value, stat=key)

    if result.transfers:
        registry.counter(
            "repro_transfers_total",
            "Sub-list ranges stolen between threads workers.",
        ).inc(result.transfers)
    if result.io is not None:
        registry.counter(
            "repro_io_read_bytes_total",
            "Level-store bytes read back from disk.",
        ).inc(result.io.bytes_read)
        registry.counter(
            "repro_io_written_bytes_total",
            "Level-store bytes spilled to disk.",
        ).inc(result.io.bytes_written)
    balance = getattr(result, "load_balance", None)
    if balance:
        registry.gauge(
            "repro_load_balance_std_over_mean",
            "Per-worker busy-seconds std/mean of the last parallel job "
            "(the paper's <=0.10 balance criterion).",
        ).set(balance.get("std_over_mean", 0.0))


def fold_job(registry: MetricsRegistry, job: Any) -> None:
    """Fold one terminal :class:`~repro.service.jobs.Job` lifecycle.

    Counts the terminal status, observes queue/run latency, counts
    cache replays, and — for real (non-replayed) successful runs —
    delegates the result telemetry to :func:`fold_result`.
    """
    registry.counter(
        "repro_jobs_finished_total",
        "Jobs reaching a terminal state, by status.",
        ("status",),
    ).inc(status=job.status.value)
    registry.histogram(
        "repro_job_queued_seconds",
        "Seconds jobs spent waiting in the queue.",
    ).observe(job.queued_seconds)
    registry.histogram(
        "repro_job_run_seconds",
        "Seconds jobs spent executing.",
    ).observe(job.run_seconds)
    if job.cache_hit:
        registry.counter(
            "repro_cache_replayed_jobs_total",
            "Jobs served by replaying a cached result.",
        ).inc()
    elif job.result is not None:
        fold_result(registry, job.result)
    predicted = getattr(job, "predicted_peak_bytes", None)
    if predicted:
        registry.gauge(
            "repro_predicted_peak_bytes",
            "Largest memory-model admission prediction among finished "
            "jobs (compare against repro_peak_candidate_bytes, the "
            "measured peak it must bound).",
        ).set_max(predicted)


def sample_service(registry: MetricsRegistry, scheduler: Any) -> None:
    """Refresh the instantaneous gauges from live scheduler state.

    Called on every scrape (wire ``metrics`` op or the HTTP exporter),
    so gauge freshness equals scrape freshness — the live stats plane.
    """
    stats = scheduler.stats()
    registry.gauge(
        "repro_workers", "Scheduler worker threads."
    ).set(stats["workers"])
    registry.gauge(
        "repro_queue_depth", "Jobs waiting in the priority queue."
    ).set(stats["queued"])
    jobs_gauge = registry.gauge(
        "repro_jobs", "Retained jobs by lifecycle state.", ("status",)
    )
    for status, count in stats["jobs"].items():
        jobs_gauge.set(count, status=status)
    cache = stats.get("cache")
    if cache is not None:
        registry.gauge(
            "repro_cache_entries", "Result-cache entries held."
        ).set(cache["entries"])
        registry.counter(
            "repro_cache_hits_total", "Result-cache hits."
        ).set_to(cache["hits"])
        registry.counter(
            "repro_cache_misses_total", "Result-cache misses."
        ).set_to(cache["misses"])
        registry.counter(
            "repro_cache_evictions_total", "Result-cache evictions."
        ).set_to(cache["evictions"])
    admission = stats.get("admission")
    if admission is not None:
        registry.gauge(
            "repro_admission_budget_bytes",
            "Configured admission-control memory budget (0 when none).",
        ).set(admission["budget_bytes"] or 0)
        registry.gauge(
            "repro_admission_bytes_in_use",
            "Predicted bytes charged by the jobs currently admitted.",
        ).set(admission["admitted_bytes"])
        registry.counter(
            "repro_admission_admitted_total",
            "Jobs admitted past the memory-budget check.",
        ).set_to(admission["admitted_total"])
        registry.counter(
            "repro_admission_deferred_total",
            "Deferral events: claims re-queued because the predicted "
            "peak did not fit the remaining budget.",
        ).set_to(admission["deferred_total"])
    started = getattr(scheduler, "started_at", None)
    if started is not None:
        registry.gauge(
            "repro_uptime_seconds", "Seconds since the scheduler started."
        ).set(time.time() - started)
    rss = rss_bytes()
    if rss is not None:
        registry.gauge(
            "repro_rss_bytes",
            "Sampled resident set size of the service process (compare "
            "against repro_peak_paper_formula_bytes, the memory-model "
            "prediction).",
        ).set(rss)
