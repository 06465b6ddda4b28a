"""Backend shoot-out: every registered engine on one workload.

The paper's whole argument in one benchmark table — the identical
level-wise algorithm on interchangeable substrates, timed through the
unified :mod:`repro.engine` API.  Extra-info records the per-backend
evidence: operation counts (identical across sequential substrates by
construction), disk traffic for the out-of-core mode (``incore`` on the
disk store), stolen sub-list ranges for ``threads``.

Run with the same harness as the other ``bench_*`` scripts (the
``bench_*`` naming needs explicit collection overrides)::

    PYTHONPATH=src python -m pytest benchmarks/bench_engines.py \
        -o python_files='bench_*.py' -o python_functions='bench_*' \
        --benchmark-json=engines.json
"""

from __future__ import annotations

import pytest

from repro.engine import EnumerationConfig, EnumerationEngine

ENGINE = EnumerationEngine()


def _run(graph, backend, **kw):
    return ENGINE.run(
        graph, EnumerationConfig(backend=backend, k_min=3, **kw)
    )


def bench_engine_incore(benchmark, myogenic):
    """In-core backend (the paper's contribution) on the myogenic graph."""
    res = benchmark(lambda: _run(myogenic.graph, "incore"))
    benchmark.extra_info["n_cliques"] = len(res.cliques)
    benchmark.extra_info["pair_checks"] = res.counters.pair_checks


def bench_engine_bitscan(benchmark, myogenic):
    """Rejected n-bit-scan generation through the same API."""
    res = benchmark(lambda: _run(myogenic.graph, "bitscan"))
    benchmark.extra_info["n_cliques"] = len(res.cliques)
    benchmark.extra_info["bits_scanned"] = res.counters.extra.get(
        "bits_scanned", 0
    )


def bench_engine_incore_disk(benchmark, myogenic):
    """The out-of-core mode (disk-spilled levels); extra-info shows the
    avoided I/O."""
    res = benchmark(
        lambda: _run(myogenic.graph, "incore", level_store="disk")
    )
    benchmark.extra_info["n_cliques"] = len(res.cliques)
    benchmark.extra_info["bytes_written"] = res.io.bytes_written
    benchmark.extra_info["bytes_read"] = res.io.bytes_read


@pytest.mark.parametrize("jobs", [1, 2, 4, 8])
def bench_engine_threads(benchmark, myogenic, jobs):
    """Shared-memory threaded backend across the worker sweep.

    Extra-info records the scaling evidence against the paper's
    Figure 7: speedup over the sequential in-core run measured in the
    same session, plus the work-stealing traffic.  Real speedup needs
    real cores — the numpy kernels release the GIL, so the curve
    tracks the host's core count (flat on a single-core runner).
    """
    import time

    t0 = time.perf_counter()
    base = _run(myogenic.graph, "incore")
    incore_seconds = time.perf_counter() - t0
    res = benchmark(lambda: _run(myogenic.graph, "threads", jobs=jobs))
    assert sorted(res.cliques) == sorted(base.cliques)
    benchmark.extra_info["n_cliques"] = len(res.cliques)
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["stolen_ranges"] = res.transfers
    stats = getattr(benchmark, "stats", None)
    if stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["speedup_vs_incore"] = round(
            incore_seconds / max(stats.stats.median, 1e-9), 2
        )


def bench_engine_incore_wah(benchmark, myogenic):
    """Compressed-domain generation over the WAH level store.

    The paper's closing remark made executable: candidates rest
    WAH-compressed and the generation step's ANDs run directly on the
    WAH words, so the level never round-trips through raw bit strings.
    Extra-info records the memory argument — the compressed peak
    candidate bytes against the uncompressed store's peak — plus the
    codec traffic avoided and the kernel volume that replaced it, and
    asserts the output and counters equal the memory store's.
    """
    res = benchmark(
        lambda: _run(myogenic.graph, "incore", level_store="wah")
    )
    mem = _run(myogenic.graph, "incore")
    assert res.cliques == mem.cliques
    assert res.counters.snapshot() == mem.counters.snapshot()
    stats = res.domain_stats
    benchmark.extra_info["n_cliques"] = len(res.cliques)
    benchmark.extra_info["peak_candidate_bytes"] = (
        res.peak_candidate_bytes()
    )
    benchmark.extra_info["memory_peak_candidate_bytes"] = (
        mem.peak_candidate_bytes()
    )
    benchmark.extra_info["peak_compression"] = round(
        mem.peak_candidate_bytes() / max(1, res.peak_candidate_bytes()), 2
    )
    for key in (
        "decompressed_bytes_avoided",
        "kernel_word_ops",
        "kernel_ands",
    ):
        benchmark.extra_info[key] = stats.get(key, 0)
