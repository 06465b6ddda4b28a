"""Ablation benchmarks for the design choices DESIGN.md calls out.

* load balancing on vs off (paper Section 2.3's centralised scheduler);
* remote-access penalty sweep (the NUMA trade-off the paper discusses);
* Init_K sensitivity (the run-time-halving observation);
* WAH compressed vs uncompressed bitmap AND (the paper's compression
  direction).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitset import WORD_BITS, BitSet
from repro.core.wah_kernels import batch_and_rows, batch_encode_words
from repro.parallel.machine import MachineSpec
from repro.parallel.metrics import load_balance_stats
from repro.parallel.parallel_enumerator import simulate_run


def bench_simulation_balanced_16p(benchmark, traces, spec):
    """Simulated 16-processor run with the dynamic balancer on."""
    trace = traces[18]
    run = benchmark(
        lambda: simulate_run(trace, spec.with_processors(16), balance=True)
    )
    benchmark.extra_info["elapsed_virtual_s"] = round(
        run.elapsed_seconds, 3
    )
    benchmark.extra_info["std_over_mean"] = round(
        load_balance_stats(run).std_over_mean, 4
    )


def bench_simulation_unbalanced_16p(benchmark, traces, spec):
    """Same run without load balancing (ablation)."""
    trace = traces[18]
    run = benchmark(
        lambda: simulate_run(
            trace, spec.with_processors(16), balance=False
        )
    )
    benchmark.extra_info["elapsed_virtual_s"] = round(
        run.elapsed_seconds, 3
    )
    benchmark.extra_info["std_over_mean"] = round(
        load_balance_stats(run).std_over_mean, 4
    )


@pytest.mark.parametrize("penalty", [1.0, 1.3, 2.0, 4.0])
def bench_remote_penalty_sweep(benchmark, traces, spec, penalty):
    """256-processor virtual time as the NUMA penalty grows."""
    trace = traces[18]
    custom = MachineSpec(
        n_processors=256,
        seconds_per_work_unit=spec.seconds_per_work_unit,
        remote_access_penalty=penalty,
        sync_base_seconds=spec.sync_base_seconds,
        sync_seconds_per_processor=spec.sync_seconds_per_processor,
    )
    run = benchmark(lambda: simulate_run(trace, custom, balance=True))
    benchmark.extra_info["penalty"] = penalty
    benchmark.extra_info["elapsed_virtual_s"] = round(
        run.elapsed_seconds, 3
    )


@pytest.mark.parametrize("paper_init_k", [18, 19, 20])
def bench_init_k_sensitivity(benchmark, traces, spec, paper_init_k):
    """Sequential virtual time per Init_K (paper: halves per +1)."""
    trace = traces[paper_init_k]
    run = benchmark(
        lambda: simulate_run(trace, spec.with_processors(1))
    )
    benchmark.extra_info["paper_init_k"] = paper_init_k
    benchmark.extra_info["virtual_seconds"] = round(
        run.elapsed_seconds, 2
    )


def bench_bitset_and(benchmark):
    """Uncompressed 64-bit-word AND over a 12,422-bit universe."""
    a = BitSet.from_indices(12422, range(0, 12422, 7))
    b = BitSet.from_indices(12422, range(0, 12422, 11))
    benchmark(lambda: a & b)


def bench_wah_and_sparse(benchmark):
    """WAH compressed AND on sparse bitmaps (the paper's direction),
    through the step's own kernel: a compressed string against the
    other operand's raw row."""
    a = BitSet.from_indices(12422, range(0, 12422, 500)).words[None, :]
    b = BitSet.from_indices(12422, range(0, 12422, 700)).words[None, :]
    words, offsets = batch_encode_words(a, WORD_BITS * a.shape[1])
    pair = np.zeros(1, dtype=np.int64)
    benchmark(batch_and_rows, words, offsets, b, pair, pair)
    benchmark.extra_info["compression_ratio_a"] = round(
        a.nbytes / words.nbytes, 1
    )


# ---------------------------------------------------------------------------
# Generation-variant and storage-layer ablations
# ---------------------------------------------------------------------------

def _drive(g, step):
    from repro.core.clique_enumerator import build_initial_sublists
    from repro.core.counters import OpCounters

    counters = OpCounters()
    sink: list[tuple[int, ...]] = []
    level = build_initial_sublists(g, counters, sink.append, True)
    while len(level):
        level = step(level, g, counters, sink.append)
    return sink


def bench_generation_list_method(benchmark, brain_sparse):
    """The paper's chosen generation: compare the tail list (bounded by
    n-k) — Figure 3's method."""
    from repro.core.clique_enumerator import generate_next_level

    out = benchmark(lambda: _drive(brain_sparse.graph, generate_next_level))
    benchmark.extra_info["n_cliques"] = len(out)


def bench_generation_bitscan(benchmark, brain_sparse):
    """The paper's rejected alternative: scan all n bits of the common-
    neighbor string per clique (Section 2.3's discussion)."""
    from repro.core.clique_enumerator import generate_next_level_bitscan

    out = benchmark(
        lambda: _drive(brain_sparse.graph, generate_next_level_bitscan)
    )
    benchmark.extra_info["n_cliques"] = len(out)


def bench_storage_in_core(benchmark, myogenic):
    """In-core enumeration (the paper's contribution)."""
    from repro.core.clique_enumerator import enumerate_maximal_cliques

    res = benchmark(
        lambda: enumerate_maximal_cliques(myogenic.graph, k_min=3)
    )
    benchmark.extra_info["n_cliques"] = len(res.cliques)


def bench_storage_out_of_core(benchmark, myogenic):
    """Out-of-core enumeration (the predecessor the paper retired);
    records the disk traffic the in-core version avoids."""
    from repro.engine import EnumerationConfig, run_enumeration

    config = EnumerationConfig(k_min=3, level_store="disk")
    res = benchmark(lambda: run_enumeration(myogenic.graph, config))
    benchmark.extra_info["bytes_written"] = res.io.bytes_written
    benchmark.extra_info["bytes_read"] = res.io.bytes_read
    benchmark.extra_info["io_ops"] = res.io.read_ops + res.io.write_ops
