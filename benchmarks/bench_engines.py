"""Backend shoot-out: every registered engine on one workload.

The paper's whole argument in one benchmark table — the identical
level-wise algorithm on interchangeable substrates, timed through the
unified :mod:`repro.engine` API.  Extra-info records the per-backend
evidence: operation counts (identical across sequential substrates by
construction), disk traffic for ``ooc``, stolen sub-lists for ``threads``.

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


def bench_engine_ooc(benchmark, myogenic):
    """Disk-spilled backend; extra-info shows the avoided I/O."""
    res = benchmark(lambda: _run(myogenic.graph, "ooc"))
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
    benchmark.extra_info["stolen_sublists"] = res.transfers
    stats = getattr(benchmark, "stats", None)
    if stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["speedup_vs_incore"] = round(
            incore_seconds / max(stats.stats.median, 1e-9), 2
        )


def bench_engine_incore_wah(benchmark, myogenic):
    """Incore step over the WAH-compressed level store (at-rest path).

    ``compute_domain="bitset"`` pins the PR-3 behaviour — compress at
    rest, decompress every chunk for expansion — so this bench stays
    comparable across PRs.  Extra-info records the memory argument: the
    compressed peak candidate bytes against the uncompressed store's
    peak, plus the clique-set equality every substrate must preserve.
    """
    res = benchmark(
        lambda: _run(
            myogenic.graph, "incore", level_store="wah",
            compute_domain="bitset",
        )
    )
    mem = _run(myogenic.graph, "incore")
    assert sorted(res.cliques) == sorted(mem.cliques)
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
    benchmark.extra_info["generation_decompressed_bytes"] = (
        res.domain_stats.get("decompressed_bytes", 0)
    )


def bench_engine_incore_wah_domain(benchmark, myogenic):
    """Compressed-domain generation over the WAH store.

    The paper's closing remark made executable: the generation step's
    ANDs run directly on the WAH words (``compute_domain="wah"``), so
    the level never round-trips through raw bit strings.  Extra-info
    records the codec traffic this avoids relative to the at-rest path
    of :func:`bench_engine_incore_wah`, plus the kernel volume that
    replaced it — and asserts the output is byte-identical.
    """
    res = benchmark(
        lambda: _run(
            myogenic.graph, "incore", level_store="wah",
            compute_domain="wah",
        )
    )
    at_rest = _run(
        myogenic.graph, "incore", level_store="wah",
        compute_domain="bitset",
    )
    assert res.cliques == at_rest.cliques
    assert res.counters.snapshot() == at_rest.counters.snapshot()
    benchmark.extra_info["n_cliques"] = len(res.cliques)
    benchmark.extra_info["peak_candidate_bytes"] = (
        res.peak_candidate_bytes()
    )
    benchmark.extra_info["decompressed_bytes"] = (
        res.domain_stats.get("decompressed_bytes", 0)
    )
    benchmark.extra_info["decompressed_bytes_avoided"] = (
        res.domain_stats.get("decompressed_bytes_avoided", 0)
    )
    benchmark.extra_info["at_rest_decompressed_bytes"] = (
        at_rest.domain_stats.get("decompressed_bytes", 0)
    )
    benchmark.extra_info["kernel_word_ops"] = (
        res.domain_stats.get("kernel_word_ops", 0)
    )
    benchmark.extra_info["kernel_ands"] = (
        res.domain_stats.get("kernel_ands", 0)
    )
