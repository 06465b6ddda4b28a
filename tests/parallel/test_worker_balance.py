"""Measured load balance of real threaded runs (the paper's Figure 8).

``load_balance_stats`` covers the simulator; these tests cover the
measured analogue: per-worker busy seconds recorded by
:class:`~repro.parallel.thread_backend.ThreadedExpander` and folded
into ``EnumerationResult.load_balance`` by the ``threads`` backend.
"""

from __future__ import annotations

import math

import pytest

from repro.core import clique_enumerator
from repro.core.generators import planted_clique
from repro.engine.api import run_enumeration
from repro.engine.config import EnumerationConfig
from repro.parallel.metrics import (
    BALANCE_TOLERANCE,
    worker_load_balance,
)


class TestWorkerLoadBalance:
    def test_statistics_of_a_known_sample(self):
        stats = worker_load_balance(
            [2.0, 4.0], transfers=3, max_level_imbalance=0.5
        )
        assert stats.n_processors == 2
        assert stats.mean_busy == 3.0
        assert stats.std_busy == pytest.approx(1.0)
        assert stats.std_over_mean == pytest.approx(1.0 / 3.0)
        assert stats.n_transfers == 3
        assert not stats.balanced

    def test_uniform_load_is_balanced(self):
        stats = worker_load_balance([1.0, 1.0, 1.0, 1.0])
        assert stats.std_busy == 0.0
        assert stats.std_over_mean == 0.0
        assert stats.balanced

    def test_balance_threshold_is_the_papers_ten_percent(self):
        assert BALANCE_TOLERANCE == 0.10
        # two workers at mu +/- sigma have std exactly sigma
        under = worker_load_balance([0.91, 1.09])
        assert under.std_over_mean == pytest.approx(0.09)
        assert under.balanced
        over = worker_load_balance([0.89, 1.11])
        assert over.std_over_mean == pytest.approx(0.11)
        assert not over.balanced

    def test_empty_sample_is_all_zero(self):
        stats = worker_load_balance([])
        assert stats.n_processors == 0
        assert stats.mean_busy == 0.0
        assert stats.std_over_mean == 0.0

    def test_to_dict_is_json_safe_and_complete(self):
        d = worker_load_balance([1.0, 2.0], transfers=1).to_dict()
        assert set(d) == {
            "n_workers", "mean_busy", "std_busy", "std_over_mean",
            "max_level_imbalance", "transfers", "balanced",
        }
        assert all(
            isinstance(v, (int, float, bool)) for v in d.values()
        )
        assert not any(
            isinstance(v, float) and math.isnan(v) for v in d.values()
        )


class TestThreadsRunMeasurement:
    @pytest.fixture(autouse=True)
    def range_per_sublist(self, monkeypatch):
        """A zero pair budget: every sub-list is a range of its own, so
        these small graphs fan out across the pool."""
        monkeypatch.setattr(clique_enumerator, "PAIR_BATCH_BYTES", 0)

    @pytest.fixture
    def graph(self):
        return planted_clique(60, 7, p=0.3, seed=3)[0]

    def test_threads_result_carries_load_balance(self, graph):
        result = run_enumeration(
            graph, EnumerationConfig(k_min=3, backend="threads", jobs=2)
        )
        balance = result.load_balance
        assert balance is not None
        assert balance["n_workers"] == 2
        assert balance["mean_busy"] > 0
        assert balance["std_over_mean"] >= 0
        assert balance["transfers"] == result.transfers
        assert isinstance(balance["balanced"], bool)

    def test_sequential_result_has_none(self, graph):
        result = run_enumeration(graph, EnumerationConfig(k_min=3))
        assert result.load_balance is None

    def test_single_worker_narrow_run_has_none(self):
        # one worker expands every level inline: the pool never spins
        # up, so there is no balance evidence to report
        tiny = planted_clique(6, 3, p=0.2, seed=1)[0]
        result = run_enumeration(
            tiny, EnumerationConfig(backend="threads", jobs=1)
        )
        assert result.load_balance is None
