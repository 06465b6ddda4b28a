"""Tests for PPI noise simulation and Boolean cleaning."""

from __future__ import annotations

import pytest

from repro.bio.ppi import (
    clean_by_voting,
    interaction_modules,
    observe_with_noise,
    score_recovery,
    simulate_replicates,
)
from repro.core.clique_enumerator import enumerate_maximal_cliques
from repro.core.generators import erdos_renyi, planted_partition
from repro.core.graph import Graph
from repro.engine import EnumerationConfig
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def truth():
    return erdos_renyi(60, 0.1, seed=42)


class TestObservation:
    def test_no_noise_is_identity(self, truth):
        obs = observe_with_noise(truth, 0.0, 0.0, seed=1)
        assert obs == truth

    def test_full_fn_erases(self, truth):
        obs = observe_with_noise(truth, 0.0, 1.0, seed=1)
        assert obs.m == 0

    def test_full_fp_completes(self, truth):
        obs = observe_with_noise(truth, 1.0, 0.0, seed=1)
        assert obs.m == truth.n * (truth.n - 1) // 2

    def test_rates_validated(self, truth):
        with pytest.raises(ParameterError):
            observe_with_noise(truth, -0.1, 0.0)
        with pytest.raises(ParameterError):
            observe_with_noise(truth, 0.0, 1.5)

    def test_deterministic(self, truth):
        a = observe_with_noise(truth, 0.05, 0.2, seed=7)
        b = observe_with_noise(truth, 0.05, 0.2, seed=7)
        assert a == b

    def test_fn_rate_approximate(self, truth):
        obs = observe_with_noise(truth, 0.0, 0.3, seed=3)
        kept = obs.m / truth.m
        assert 0.55 < kept < 0.85


class TestReplicates:
    def test_count_and_independence(self, truth):
        reps = simulate_replicates(truth, 4, 0.01, 0.2, seed=5)
        assert len(reps) == 4
        assert reps[0] != reps[1]

    def test_at_least_one(self, truth):
        with pytest.raises(ParameterError):
            simulate_replicates(truth, 0, 0.0, 0.0)


class TestCleaning:
    def test_voting_improves_precision(self, truth):
        reps = simulate_replicates(truth, 5, fp_rate=0.02, fn_rate=0.2,
                                   seed=9)
        single = score_recovery(truth, reps[0])
        voted = score_recovery(truth, clean_by_voting(reps, 3))
        assert voted.precision >= single.precision
        assert voted.f1 > 0.8

    def test_strict_vote_trades_recall(self, truth):
        reps = simulate_replicates(truth, 5, fp_rate=0.02, fn_rate=0.2,
                                   seed=11)
        loose = score_recovery(truth, clean_by_voting(reps, 1))
        strict = score_recovery(truth, clean_by_voting(reps, 5))
        assert strict.precision >= loose.precision
        assert strict.recall <= loose.recall


class TestScore:
    def test_perfect(self, truth):
        s = score_recovery(truth, truth)
        assert s.precision == 1.0
        assert s.recall == 1.0
        assert s.f1 == 1.0

    def test_empty_prediction(self, truth):
        s = score_recovery(truth, Graph(truth.n))
        assert s.precision == 1.0  # vacuous
        assert s.recall == 0.0
        assert s.f1 == 0.0

    def test_counts(self):
        t = Graph.from_edges(4, [(0, 1), (1, 2)])
        p = Graph.from_edges(4, [(0, 1), (2, 3)])
        s = score_recovery(t, p)
        assert (s.true_positives, s.false_positives, s.false_negatives) == (
            1, 1, 1,
        )

    def test_size_mismatch(self, truth):
        with pytest.raises(ParameterError):
            score_recovery(truth, Graph(truth.n + 1))


class TestInteractionModules:
    def test_matches_manual_two_steps(self):
        truth, _ = planted_partition(
            80, [7, 6, 5], p_in=0.9, p_out=0.02, seed=21
        )
        reps = simulate_replicates(truth, 5, 0.01, 0.15, seed=5)
        cleaned, enum = interaction_modules(
            reps, 3, config=EnumerationConfig(k_min=4)
        )
        assert cleaned == clean_by_voting(reps, 3)
        reference = enumerate_maximal_cliques(cleaned, k_min=4)
        assert sorted(enum.cliques) == sorted(reference.cliques)

    def test_default_config_and_backend_swap(self, truth):
        reps = simulate_replicates(truth, 3, 0.02, 0.1, seed=8)
        _, incore = interaction_modules(reps, 2)
        _, threads = interaction_modules(
            reps, 2,
            config=EnumerationConfig(backend="threads", k_min=3, jobs=2),
        )
        assert incore.k_min == 3
        assert sorted(incore.cliques) == sorted(threads.cliques)
