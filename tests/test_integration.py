"""End-to-end integration tests across subsystem boundaries.

Each scenario chains several subpackages the way a downstream user would:
expression pipeline into enumeration into decomposition; noisy PPI into
cleaning into complex discovery; traces into machine simulation into
metrics; file I/O round trips through the CLI-level API.
"""

from __future__ import annotations

import pytest

from repro.bio.coexpression import coexpression_pipeline
from repro.bio.expression import ModuleSpec, synthetic_expression
from repro.bio.ppi import clean_by_voting, score_recovery, simulate_replicates
from repro.bio.threshold_selection import select_threshold, threshold_sweep
from repro.core import graph_io
from repro.core.clique_enumerator import enumerate_maximal_cliques
from repro.core.decomposition import paraclique_decomposition
from repro.core.generators import planted_partition
from repro.core.kose import kose_enumerate
from repro.core.maximum_clique import maximum_clique, maximum_clique_size
from repro.core.stats import summarize
from repro.engine import EnumerationConfig, run_enumeration
from repro.parallel.machine import MachineSpec
from repro.parallel.metrics import absolute_speedup, load_balance_stats
from repro.parallel.parallel_enumerator import (
    record_trace,
    simulate_processor_sweep,
)


class TestExpressionToModules:
    """Microarray -> correlation graph -> cliques -> modules."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        ds = synthetic_expression(
            150,
            50,
            [ModuleSpec(11, 0.97), ModuleSpec(8, 0.95)],
            seed=1001,
        )
        res = coexpression_pipeline(ds, threshold=0.75)
        return ds, res

    def test_modules_survive_the_whole_chain(self, pipeline):
        ds, res = pipeline
        decomp = paraclique_decomposition(res.graph, min_size=5)
        module_sets = [set(m.vertices) for m in decomp.modules]
        for planted in ds.modules:
            overlap = max(
                (len(set(planted) & s) / len(planted) for s in module_sets),
                default=0.0,
            )
            assert overlap >= 0.8, f"module {planted} lost in the chain"

    def test_threshold_selection_consistent_with_pipeline(self, pipeline):
        ds, res = pipeline
        sweep = threshold_sweep(res.correlation, [0.9, 0.8, 0.7])
        chosen = select_threshold(sweep)
        # the chosen cutoff retains the biggest planted module's clique
        assert chosen.max_clique >= 10

    def test_enumeration_backends_agree_on_pipeline_graph(self, pipeline):
        _, res = pipeline
        g = res.graph
        ref = sorted(enumerate_maximal_cliques(g, k_min=2).cliques)
        assert sorted(kose_enumerate(g, k_min=2).cliques) == ref
        ooc = EnumerationConfig(k_min=2, level_store="disk")
        assert sorted(run_enumeration(g, ooc).cliques) == ref
        threads = EnumerationConfig(backend="threads", k_min=2, jobs=2)
        assert sorted(run_enumeration(g, threads).cliques) == ref


class TestPpiToComplexes:
    """Noisy replicates -> voting -> clique complexes."""

    def test_cleaning_then_discovery(self):
        truth, complexes = planted_partition(
            120, [9, 8, 7], p_in=1.0, p_out=0.005, seed=55
        )
        reps = simulate_replicates(truth, 5, 0.01, 0.1, seed=56)
        cleaned = clean_by_voting(reps, 3)
        assert score_recovery(truth, cleaned).f1 > 0.9
        found = enumerate_maximal_cliques(cleaned, k_min=5)
        clique_sets = [set(c) for c in found.cliques]
        for cx in complexes:
            best = max(
                (len(set(cx) & s) / len(cx) for s in clique_sets),
                default=0.0,
            )
            assert best >= 0.7


class TestTraceToMetrics:
    """Enumeration trace -> machine sweep -> published metrics."""

    def test_full_parallel_analysis_chain(self):
        g, _ = planted_partition(
            100, [10, 9, 8], p_in=0.95, p_out=0.03, seed=77
        )
        trace = record_trace(g, k_min=3)
        seq = enumerate_maximal_cliques(g, k_min=3)
        assert sorted(trace.cliques) == sorted(seq.cliques)
        spec = MachineSpec(n_processors=1, seconds_per_work_unit=1e-6)
        runs = simulate_processor_sweep(trace, spec, [1, 2, 4, 8])
        speedups = absolute_speedup(runs)
        assert speedups[8] > speedups[2] > 1.0
        balance = load_balance_stats(runs[8])
        assert balance.std_over_mean <= 0.10


class TestFileRoundTripToAnalysis:
    """Save -> load -> analyse gives identical results."""

    def test_formats_preserve_analysis(self, tmp_path):
        g, _ = planted_partition(
            60, [8, 7], p_in=0.95, p_out=0.02, seed=88
        )
        omega = maximum_clique_size(g)
        cliques = sorted(enumerate_maximal_cliques(g, k_min=2).cliques)
        summary = summarize(g)
        for ext in (".json", ".dimacs", ".edges"):
            path = tmp_path / f"g{ext}"
            graph_io.save(g, path)
            back = graph_io.load(path)
            assert back == g
            assert maximum_clique_size(back) == omega
            assert sorted(
                enumerate_maximal_cliques(back, k_min=2).cliques
            ) == cliques
            assert summarize(back) == summary


class TestMaximumCliqueConsistency:
    """Every maximum-clique route agrees with the enumerator's largest."""

    def test_three_routes_agree(self):
        g, _ = planted_partition(
            40, [9, 7], p_in=0.95, p_out=0.05, seed=99
        )
        enum_max = enumerate_maximal_cliques(g, k_min=2).max_clique_size()
        bb = len(maximum_clique(g))
        assert bb == enum_max
        from repro.core.maximum_clique import (
            maximum_clique_via_vertex_cover,
        )

        # complement-VC route on a subgraph (kept small: exponential in
        # n - omega)
        sub, _ = g.subgraph(range(16))
        assert len(maximum_clique_via_vertex_cover(sub)) == len(
            maximum_clique(sub)
        )
