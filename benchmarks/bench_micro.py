"""Microbenchmarks for the substrate hot paths.

These pin the performance characteristics the framework depends on: the
bitmap primitives (one AND per common-neighbor derivation, one
any-bit-exists per maximality test), the WAH kernel layer (the scalar
per-word oracle vs the batched structure-of-arrays kernels the
compressed-domain step runs), the expression pipeline stages, and the
seeding (edges, and Init_K both ways).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.bio.correlation import spearman_correlation
from repro.bio.expression import ModuleSpec, synthetic_expression
from repro.core import bitset as bs
from repro.core import wah_kernels as wk
from repro.core.compressed import (
    WahBitmap,
    WahScratch,
    wah_and_count,
    wah_and_into,
)
from repro.core.clique_enumerator import build_initial_sublists
from repro.core.counters import OpCounters
from repro.core.generators import erdos_renyi
from repro.core.graph import Graph
from repro.core.graph_ops import at_least_k_of_n
from repro.core.kclique import enumerate_k_cliques
from repro.engine.level_loop import seed_level


@pytest.fixture(scope="module")
def words_pair():
    n = 12422  # the paper's probe-set count
    a = bs.indices_to_words(range(0, n, 3), n)
    b = bs.indices_to_words(range(0, n, 5), n)
    out = np.zeros_like(a)
    return a, b, out


def bench_words_and(benchmark, words_pair):
    """Length-12,422 bit-string AND (the paper's core primitive)."""
    a, b, out = words_pair
    benchmark(bs.words_and, a, b, out)


def bench_words_any(benchmark, words_pair):
    """BitOneExists over 12,422 bits (the maximality test)."""
    a, _, _ = words_pair
    benchmark(bs.words_any, a)


def bench_words_count(benchmark, words_pair):
    """Popcount over 12,422 bits."""
    a, _, _ = words_pair
    benchmark(bs.words_count, a)


def bench_common_neighbors_chain(benchmark):
    """k-fold AND chain: common neighbors of a 10-clique at n=12,422."""
    n = 12422
    rows = np.vstack(
        [bs.indices_to_words(range(i, n, 7 + i), n) for i in range(10)]
    )
    out = np.zeros(rows.shape[1], dtype=np.uint64)

    def chain():
        np.copyto(out, rows[0])
        for i in range(1, 10):
            np.bitwise_and(out, rows[i], out=out)
        return out

    benchmark(chain)


@pytest.fixture(scope="module")
def wah_batch():
    """512 paired WAH streams over the paper's 12,422-bit universe."""
    n = 12422
    rng = random.Random(7)
    ng = (n + wk.GROUP_BITS - 1) // wk.GROUP_BITS

    def stream():
        # clustered sparse indices: realistic fill/literal alternation
        density = rng.choice([0.002, 0.01, 0.05])
        return WahBitmap.from_indices(
            n, [i for i in range(n) if rng.random() < density]
        ).wah_words()

    a = [stream() for _ in range(512)]
    b = [stream() for _ in range(512)]
    aw, ao = wk.concat_streams(a)
    bw, bo = wk.concat_streams(b)
    return a, b, aw, ao, bw, bo, ng


def bench_wah_and_scalar(benchmark, wah_batch):
    """512 compressed ANDs through the per-word Python kernel."""
    a, b, _, _, _, _, ng = wah_batch
    scratch = WahScratch()

    def run():
        for x, y in zip(a, b):
            wah_and_into(x.tolist(), y.tolist(), ng, scratch)

    benchmark(run)


def bench_wah_and_batch(benchmark, wah_batch):
    """The same 512 ANDs through one batched numpy kernel call."""
    _, _, aw, ao, bw, bo, ng = wah_batch
    benchmark(wk.batch_and, aw, ao, bw, bo, ng)


def bench_wah_count_scalar(benchmark, wah_batch):
    """512 compressed popcounts, per-word Python kernel."""
    a, b, _, _, _, _, ng = wah_batch
    scratch = WahScratch()

    def run():
        for x, y in zip(a, b):
            wah_and_count(x.tolist(), y.tolist(), ng, scratch)

    benchmark(run)


def bench_wah_count_batch(benchmark, wah_batch):
    """The same 512 popcounts through one batched kernel call."""
    _, _, aw, ao, bw, bo, ng = wah_batch
    benchmark(wk.batch_and_count, aw, ao, bw, bo, ng)


def bench_wah_encode_batch(benchmark, wah_batch):
    """Batch raw-word→WAH encode of 512 CN strings over the genome
    graph's 64-bit-padded 12,480-bit universe."""
    a = wah_batch[0]
    mat = np.stack([WahBitmap(12422, w).to_words() for w in a])
    benchmark(wk.batch_encode_words, mat, 12480)


def bench_spearman_1242_genes(benchmark):
    """Spearman matrix at the Table 1 workload scale."""
    ds = synthetic_expression(
        1242, 64, [ModuleSpec(17, 0.985)], seed=1
    )
    benchmark(spearman_correlation, ds.matrix)


def bench_at_least_3_of_5(benchmark):
    """Replicate voting over five 500-vertex observation graphs."""
    graphs = [erdos_renyi(500, 0.02, seed=s) for s in range(5)]
    benchmark(at_least_k_of_n, graphs, 3)


def bench_kclique_seeding(benchmark, myogenic):
    """Init_K=9 seeding on the myogenic workload (k-clique enumerator)."""
    res = benchmark(enumerate_k_cliques, myogenic.graph, 9)
    benchmark.extra_info["n_kcliques"] = len(res.maximal) + len(
        res.non_maximal
    )


def bench_init_k_seed_level(benchmark, myogenic):
    """Init_K=9 seeding as the engine runs it: the level step from the
    8-core's edges up to k = 9 (compare bench_kclique_seeding)."""
    k, seed = benchmark(
        seed_level, myogenic.graph, 9, OpCounters(), lambda clique: None
    )
    assert k == 9
    benchmark.extra_info["n_sublists"] = len(seed)


@pytest.fixture(scope="module")
def sparse_genome_graph():
    """A sparse graph at the paper's probe-set count: 6,151 random
    pairs over 12,422 vertices (drawn as pairs, never as the n^2 pair
    list that erdos_renyi walks), plus a few planted 8-cliques so the
    seed has candidates."""
    n = 12422
    rng = np.random.default_rng(13)
    pairs = rng.integers(0, n, size=(6151, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]].tolist()
    for members in rng.choice(n, size=(20, 8), replace=False).tolist():
        pairs += [(a, b) for i, a in enumerate(members)
                  for b in members[i + 1:]]
    return Graph.from_edges(n, pairs)


def bench_edge_seeding_genome(benchmark, sparse_genome_graph):
    """Level-2 edge seeding over 12,422 vertices: one pass over the
    edge arrays."""
    subs = benchmark(
        build_initial_sublists, sparse_genome_graph, OpCounters(),
        lambda clique: None, True,
    )
    benchmark.extra_info["n_sublists"] = len(subs)
