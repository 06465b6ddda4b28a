"""Folding engine results and service state into the metrics registry.

The one place metric *names* are decided: :data:`METRICS` declares
every series, and a scrape's ``# HELP``/``# TYPE`` lines are its rows.
Two kinds of folding:

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

__all__ = ["METRICS", "fold_result", "fold_job", "sample_service"]

#: Every ``repro_*`` series the stats plane exports, declared once as
#: ``name -> (kind, help, labels)``.  The folds build each family from
#: its row by name (:func:`_family`), so a name outside the table
#: raises ``KeyError`` instead of exporting an undeclared series.
METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    # completion folds (fold_result)
    "repro_cliques_emitted_total": (
        "counter", "Maximal cliques emitted by finished jobs.", ()),
    "repro_bit_and_ops_total": (
        "counter",
        "OpCounters.bit_and_ops accumulated over finished jobs.", ()),
    "repro_bit_exist_checks_total": (
        "counter",
        "OpCounters.bit_exist_checks accumulated over finished jobs.",
        ()),
    "repro_pair_checks_total": (
        "counter",
        "OpCounters.pair_checks accumulated over finished jobs.", ()),
    "repro_cliques_generated_total": (
        "counter",
        "OpCounters.cliques_generated accumulated over finished jobs.",
        ()),
    "repro_sublists_created_total": (
        "counter",
        "OpCounters.sublists_created accumulated over finished jobs.",
        ()),
    "repro_counter_extra_total": (
        "counter", "Non-canonical OpCounters.extra tallies, by key.",
        ("counter",)),
    "repro_job_levels_total": (
        "counter",
        "Deepest candidate level reached, summed over finished jobs.",
        ()),
    "repro_level_candidates_total": (
        "counter",
        "Candidates held at each level, summed over finished jobs.",
        ("k",)),
    "repro_level_sublists_total": (
        "counter",
        "Sub-lists held at each level, summed over finished jobs.",
        ("k",)),
    "repro_level_seconds_total": (
        "counter", "Wall-clock seconds spent producing each level.",
        ("k",)),
    "repro_level_seconds": (
        "histogram", "Per-level wall-clock seconds across finished jobs.",
        ()),
    "repro_peak_candidate_bytes": (
        "gauge",
        "Largest measured per-level candidate storage seen so far.", ()),
    "repro_peak_paper_formula_bytes": (
        "gauge",
        "Largest paper-formula (memory model) per-level prediction seen "
        "so far.", ()),
    "repro_kernel_word_ops_total": (
        "counter",
        "CN words the AND kernels read and wrote, plus adjacency groups "
        "probed.", ()),
    "repro_kernel_ands_total": (
        "counter", "Compressed-domain AND kernel invocations.", ()),
    "repro_decompressed_bytes_avoided_total": (
        "counter", "Raw bytes that stayed WAH-compressed end to end.",
        ()),
    "repro_domain_stats_total": (
        "counter", "Future compressed-domain telemetry, by key.",
        ("stat",)),
    "repro_transfers_total": (
        "counter", "Sub-list ranges stolen between threads workers.", ()),
    "repro_io_read_bytes_total": (
        "counter", "Level-store bytes read back from disk.", ()),
    "repro_io_written_bytes_total": (
        "counter", "Level-store bytes spilled to disk.", ()),
    "repro_load_balance_std_over_mean": (
        "gauge",
        "Per-worker busy-seconds std/mean of the last parallel job (the "
        "paper's <=0.10 balance criterion).", ()),
    # job lifecycle folds (fold_job)
    "repro_jobs_finished_total": (
        "counter", "Jobs reaching a terminal state, by status.",
        ("status",)),
    "repro_job_queued_seconds": (
        "histogram", "Seconds jobs spent waiting in the queue.", ()),
    "repro_job_run_seconds": (
        "histogram", "Seconds jobs spent executing.", ()),
    "repro_cache_replayed_jobs_total": (
        "counter", "Jobs served by replaying a cached result.", ()),
    "repro_predicted_peak_bytes": (
        "gauge",
        "Largest memory-model admission prediction among finished jobs "
        "(compare against repro_peak_candidate_bytes, the measured peak "
        "it must bound).", ()),
    # scrape samples (sample_service)
    "repro_workers": ("gauge", "Scheduler worker threads.", ()),
    "repro_queue_depth": (
        "gauge", "Jobs waiting in the priority queue.", ()),
    "repro_jobs": (
        "gauge", "Retained jobs by lifecycle state.", ("status",)),
    "repro_cache_entries": ("gauge", "Result-cache entries held.", ()),
    "repro_cache_hits_total": ("counter", "Result-cache hits.", ()),
    "repro_cache_misses_total": ("counter", "Result-cache misses.", ()),
    "repro_cache_evictions_total": (
        "counter", "Result-cache evictions.", ()),
    "repro_admission_budget_bytes": (
        "gauge",
        "Configured admission-control memory budget (0 when none).", ()),
    "repro_admission_bytes_in_use": (
        "gauge",
        "Predicted bytes charged by the jobs currently admitted.", ()),
    "repro_admission_admitted_total": (
        "counter", "Jobs admitted past the memory-budget check.", ()),
    "repro_admission_deferred_total": (
        "counter",
        "Deferral events: claims re-queued because the predicted peak "
        "did not fit the remaining budget.", ()),
    "repro_uptime_seconds": (
        "gauge", "Seconds since the scheduler started.", ()),
    "repro_rss_bytes": (
        "gauge",
        "Sampled resident set size of the service process (compare "
        "against repro_peak_paper_formula_bytes, the memory-model "
        "prediction).", ()),
}

#: OpCounters attributes folded 1:1 into counters.
_COUNTER_FIELDS = {
    "maximal_emitted": "repro_cliques_emitted_total",
    "bit_and_ops": "repro_bit_and_ops_total",
    "bit_exist_checks": "repro_bit_exist_checks_total",
    "pair_checks": "repro_pair_checks_total",
    "cliques_generated": "repro_cliques_generated_total",
    "sublists_created": "repro_sublists_created_total",
}

#: domain_stats keys promoted to first-class counters; anything else a
#: future expander reports folds into the labeled fallback family.
_DOMAIN_FIELDS = {
    "kernel_word_ops": "repro_kernel_word_ops_total",
    "kernel_ands": "repro_kernel_ands_total",
    "decompressed_bytes_avoided": "repro_decompressed_bytes_avoided_total",
}


def _family(registry: MetricsRegistry, name: str) -> Any:
    """The family ``METRICS[name]`` declares, registered on first use."""
    kind, help, labels = METRICS[name]
    return getattr(registry, kind)(name, help, labels)


def fold_result(registry: MetricsRegistry, result: Any) -> None:
    """Add one finished run's telemetry into the registry's counters.

    ``result`` is an :class:`~repro.core.clique_enumerator.
    EnumerationResult` (duck-typed).  Safe to call from scheduler
    worker threads; every family is thread-safe.
    """
    counters = result.counters
    for field, name in _COUNTER_FIELDS.items():
        _family(registry, name).inc(getattr(counters, field))
    for key, value in counters.extra.items():
        if isinstance(value, (int, float)):
            _family(registry, "repro_counter_extra_total").inc(
                value, counter=key
            )
    _family(registry, "repro_job_levels_total").inc(counters.levels)

    level_candidates = _family(registry, "repro_level_candidates_total")
    level_sublists = _family(registry, "repro_level_sublists_total")
    level_seconds_total = _family(registry, "repro_level_seconds_total")
    level_seconds = _family(registry, "repro_level_seconds")
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
        _family(registry, "repro_peak_candidate_bytes").set_max(
            peak_measured
        )
        _family(registry, "repro_peak_paper_formula_bytes").set_max(
            peak_formula
        )

    for key, value in result.domain_stats.items():
        if not isinstance(value, (int, float)):
            continue
        name = _DOMAIN_FIELDS.get(key)
        if name is not None:
            _family(registry, name).inc(value)
        else:
            _family(registry, "repro_domain_stats_total").inc(
                value, stat=key
            )

    if result.transfers:
        _family(registry, "repro_transfers_total").inc(result.transfers)
    if result.io is not None:
        _family(registry, "repro_io_read_bytes_total").inc(
            result.io.bytes_read
        )
        _family(registry, "repro_io_written_bytes_total").inc(
            result.io.bytes_written
        )
    balance = getattr(result, "load_balance", None)
    if balance:
        _family(registry, "repro_load_balance_std_over_mean").set(
            balance.get("std_over_mean", 0.0)
        )


def fold_job(registry: MetricsRegistry, job: Any) -> None:
    """Fold one terminal :class:`~repro.service.jobs.Job` lifecycle.

    Counts the terminal status, observes queue/run latency, counts
    cache replays, and — for real (non-replayed) successful runs —
    delegates the result telemetry to :func:`fold_result`.
    """
    _family(registry, "repro_jobs_finished_total").inc(
        status=job.status.value
    )
    _family(registry, "repro_job_queued_seconds").observe(
        job.queued_seconds
    )
    _family(registry, "repro_job_run_seconds").observe(job.run_seconds)
    if job.cache_hit:
        _family(registry, "repro_cache_replayed_jobs_total").inc()
    elif job.result is not None:
        fold_result(registry, job.result)
    predicted = getattr(job, "predicted_peak_bytes", None)
    if predicted:
        _family(registry, "repro_predicted_peak_bytes").set_max(predicted)


def sample_service(registry: MetricsRegistry, scheduler: Any) -> None:
    """Refresh the instantaneous gauges from live scheduler state.

    Called on every scrape (wire ``metrics`` op or the HTTP exporter),
    so gauge freshness equals scrape freshness — the live stats plane.
    """
    stats = scheduler.stats()
    _family(registry, "repro_workers").set(stats["workers"])
    _family(registry, "repro_queue_depth").set(stats["queued"])
    jobs_gauge = _family(registry, "repro_jobs")
    for status, count in stats["jobs"].items():
        jobs_gauge.set(count, status=status)
    cache = stats.get("cache")
    if cache is not None:
        _family(registry, "repro_cache_entries").set(cache["entries"])
        _family(registry, "repro_cache_hits_total").set_to(cache["hits"])
        _family(registry, "repro_cache_misses_total").set_to(
            cache["misses"]
        )
        _family(registry, "repro_cache_evictions_total").set_to(
            cache["evictions"]
        )
    admission = stats.get("admission")
    if admission is not None:
        _family(registry, "repro_admission_budget_bytes").set(
            admission["budget_bytes"] or 0
        )
        _family(registry, "repro_admission_bytes_in_use").set(
            admission["admitted_bytes"]
        )
        _family(registry, "repro_admission_admitted_total").set_to(
            admission["admitted_total"]
        )
        _family(registry, "repro_admission_deferred_total").set_to(
            admission["deferred_total"]
        )
    started = getattr(scheduler, "started_at", None)
    if started is not None:
        _family(registry, "repro_uptime_seconds").set(time.time() - started)
    rss = rss_bytes()
    if rss is not None:
        _family(registry, "repro_rss_bytes").set(rss)
