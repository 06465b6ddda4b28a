"""Tests for the expression-to-graph pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bio.coexpression import (
    coexpression_cliques,
    coexpression_pipeline,
    correlation_graph,
    threshold_for_density,
)
from repro.bio.expression import ModuleSpec, synthetic_expression
from repro.core.clique_enumerator import enumerate_maximal_cliques
from repro.engine import EnumerationConfig
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def dataset():
    return synthetic_expression(
        80, 50, [ModuleSpec(10, 0.97), ModuleSpec(7, 0.95)], seed=9
    )


class TestCorrelationGraph:
    def test_simple_threshold(self):
        c = np.array([
            [1.0, 0.9, 0.1],
            [0.9, 1.0, -0.8],
            [0.1, -0.8, 1.0],
        ])
        g = correlation_graph(c, 0.5)
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 2)  # |−0.8| passes with absolute=True
        assert not g.has_edge(0, 2)

    def test_signed_mode(self):
        c = np.array([[1.0, -0.8], [-0.8, 1.0]])
        assert correlation_graph(c, 0.5, absolute=False).m == 0
        assert correlation_graph(c, 0.5, absolute=True).m == 1

    def test_diagonal_never_edges(self):
        c = np.eye(4)
        assert correlation_graph(c, 0.5).m == 0

    def test_asymmetric_rejected(self):
        c = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ParameterError):
            correlation_graph(c, 0.5)

    def test_non_square_rejected(self):
        with pytest.raises(ParameterError):
            correlation_graph(np.zeros((2, 3)), 0.5)


class TestThresholdForDensity:
    def test_hits_target(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(60, 40))
        corr = np.corrcoef(m)
        t = threshold_for_density(corr, 0.05)
        g = correlation_graph(corr, t)
        assert g.density() == pytest.approx(0.05, abs=0.01)

    def test_invalid_density(self):
        with pytest.raises(ParameterError):
            threshold_for_density(np.eye(3), 0.0)

    def test_trivial_matrix(self):
        assert threshold_for_density(np.eye(1), 0.5) == 1.0


class TestPipeline:
    def test_planted_modules_become_cliques(self, dataset):
        res = coexpression_pipeline(dataset, threshold=0.8)
        found = enumerate_maximal_cliques(res.graph, k_min=5)
        found_sets = [set(c) for c in found.cliques]
        for module in dataset.modules:
            assert any(
                set(module) <= s for s in found_sets
            ), f"module {module} not recovered as a clique"

    def test_target_density_mode(self, dataset):
        res = coexpression_pipeline(dataset, target_density=0.03)
        assert res.graph.density() <= 0.08
        assert 0 < res.threshold < 1

    def test_exactly_one_threshold_arg(self, dataset):
        with pytest.raises(ParameterError):
            coexpression_pipeline(dataset)
        with pytest.raises(ParameterError):
            coexpression_pipeline(
                dataset, threshold=0.5, target_density=0.1
            )

    def test_method_validation(self, dataset):
        with pytest.raises(ParameterError):
            coexpression_pipeline(dataset, threshold=0.5, method="kendall")

    def test_pearson_mode(self, dataset):
        res = coexpression_pipeline(
            dataset, threshold=0.8, method="pearson"
        )
        assert res.method == "pearson"
        assert res.graph.n == dataset.n_genes


class TestCoexpressionCliques:
    def test_end_to_end_through_engine(self, dataset):
        pipeline, enum = coexpression_cliques(
            dataset,
            threshold=0.8,
            config=EnumerationConfig(backend="incore", k_min=5),
        )
        reference = enumerate_maximal_cliques(pipeline.graph, k_min=5)
        assert sorted(enum.cliques) == sorted(reference.cliques)
        assert enum.backend == "incore"

    def test_backend_is_interchangeable(self, dataset):
        _, incore = coexpression_cliques(
            dataset, threshold=0.8,
            config=EnumerationConfig(backend="incore", k_min=4),
        )
        _, ooc = coexpression_cliques(
            dataset, threshold=0.8,
            config=EnumerationConfig(level_store="disk", k_min=4),
        )
        assert sorted(incore.cliques) == sorted(ooc.cliques)
        assert ooc.io is not None and ooc.io.bytes_written > 0

    def test_default_config(self, dataset):
        _, enum = coexpression_cliques(dataset, threshold=0.8)
        assert enum.k_min == 3
        assert all(len(c) >= 3 for c in enum.cliques)


class TestSweepJobBatches:
    def test_sweep_matches_direct_pipeline(self, dataset):
        from repro.service import JobScheduler, JobStatus
        from repro.bio.coexpression import submit_coexpression_sweep

        thresholds = [0.9, 0.8]
        with JobScheduler(workers=2) as sched:
            jobs = submit_coexpression_sweep(
                sched, dataset, thresholds, sink="count"
            )
            sched.drain(60)
        assert [j.status for j in jobs] == [JobStatus.DONE] * 2
        assert [j.spec.label for j in jobs] == [
            "coexpression@0.9", "coexpression@0.8"
        ]
        for threshold, job in zip(thresholds, jobs):
            _, direct = coexpression_cliques(dataset, threshold=threshold)
            assert job.sink_summary["cliques"] == len(direct.cliques)

    def test_repeated_threshold_hits_cache(self, dataset):
        from repro.service import JobScheduler
        from repro.bio.coexpression import submit_coexpression_sweep

        with JobScheduler(workers=1) as sched:
            jobs = submit_coexpression_sweep(
                sched, dataset, [0.8, 0.8], sink="collect"
            )
            sched.drain(60)
        assert not jobs[0].cache_hit
        assert jobs[1].cache_hit

    def test_empty_sweep_rejected(self, dataset):
        from repro.service import JobScheduler
        from repro.bio.coexpression import submit_coexpression_sweep

        with JobScheduler(workers=1) as sched:
            with pytest.raises(ParameterError, match="threshold"):
                submit_coexpression_sweep(sched, dataset, [])
