"""Tests for the memory model and paper recurrences."""

from __future__ import annotations

import math
import sys

import pytest

from repro.core.clique_enumerator import LevelStats, enumerate_maximal_cliques
from repro.core.generators import complete_graph, erdos_renyi, planted_clique
from repro.core.graph import Graph
from repro.core.memory_model import (
    DISK_RESIDENT_RATIO,
    WAH_COMPRESSION_RATIO,
    _clique_count_bound,
    available_memory_bytes,
    bytes_to_unit,
    check_paper_recurrences,
    memory_profile,
    parse_byte_size,
    predict_profile,
    seed_sublist_count,
)


def _stats(k, n_sub, m_cand, bytes_=100):
    return LevelStats(
        k=k,
        n_sublists=n_sub,
        n_candidates=m_cand,
        maximal_emitted=0,
        candidate_bytes=bytes_,
        paper_formula_bytes=bytes_,
    )


class TestUnits:
    def test_conversions(self):
        assert bytes_to_unit(1024, "KB") == 1.0
        assert bytes_to_unit(1024 ** 3, "GB") == 1.0
        assert bytes_to_unit(512, "B") == 512

    def test_unknown_unit(self):
        with pytest.raises(ValueError):
            bytes_to_unit(1, "PB")


class TestProfile:
    def test_profile_from_run(self, random_graph):
        res = enumerate_maximal_cliques(random_graph)
        prof = memory_profile(res.level_stats)
        assert prof.sizes == [ls.k for ls in res.level_stats]
        peak_k, peak_b = prof.peak()
        assert peak_b == max(prof.measured_bytes)
        assert peak_k in prof.sizes

    def test_empty_profile(self):
        prof = memory_profile([])
        assert prof.peak() == (0, 0)
        assert prof.series() == []

    def test_series_units(self):
        prof = memory_profile([_stats(2, 1, 1, bytes_=2048)])
        assert prof.series("KB") == [(2, 2.0)]

    def test_rise_and_fall_on_planted(self):
        g, _ = planted_clique(70, 11, 0.1, seed=2)
        res = enumerate_maximal_cliques(g)
        prof = memory_profile(res.level_stats)
        peak_k, _ = prof.peak()
        # peak strictly inside the range: the Figure 9 shape
        assert prof.sizes[0] < peak_k < prof.sizes[-1]


class TestRecurrences:
    def test_valid_run_passes(self, random_graph):
        res = enumerate_maximal_cliques(random_graph)
        assert check_paper_recurrences(res.level_stats, random_graph.n) == []

    def test_complete_graph_passes_safe_bounds(self):
        g = complete_graph(8)
        res = enumerate_maximal_cliques(g)
        assert check_paper_recurrences(res.level_stats, 8) == []

    def test_nonconsecutive_levels_flagged(self):
        issues = check_paper_recurrences(
            [_stats(2, 1, 2), _stats(4, 1, 2)], 10
        )
        assert any("not consecutive" in s for s in issues)

    def test_n_bound_violation_flagged(self):
        # N[3] = 5 > M[2] - 2*N[2] = 4 - 2 = 2
        issues = check_paper_recurrences(
            [_stats(2, 1, 4), _stats(3, 5, 5)], 10
        )
        assert any("N[3]" in s for s in issues)

    def test_m_bound_violation_flagged(self):
        # safe M bound: (M[2]-2N[2])*(n-k) = 2*8 = 16 < 50
        issues = check_paper_recurrences(
            [_stats(2, 1, 4), _stats(3, 2, 50)], 10
        )
        assert any("M[3]" in s for s in issues)


class TestPredictProfile:
    def test_prediction_bounds_measured_per_level(self):
        g = erdos_renyi(40, 0.25, seed=3)
        res = enumerate_maximal_cliques(g)
        predicted = predict_profile(g.n, g.m, 1, seed_sublist_count(g))
        by_k = dict(zip(predicted.sizes, predicted.predicted_bytes))
        for ls in res.level_stats:
            assert ls.candidate_bytes <= by_k[ls.k], (
                f"level {ls.k}: measured {ls.candidate_bytes} exceeds "
                f"predicted {by_k[ls.k]}"
            )
        _, peak_measured = memory_profile(res.level_stats).peak()
        assert peak_measured <= predicted.peak()[1]

    def test_exact_seed_count_matches_enumeration(self):
        g = erdos_renyi(40, 0.25, seed=4)
        res = enumerate_maximal_cliques(g)
        level2 = next(ls for ls in res.level_stats if ls.k == 2)
        assert seed_sublist_count(g) == level2.n_sublists

    def test_empty_graph_predicts_nothing(self):
        predicted = predict_profile(10, 0, 1)
        assert predicted.sizes == []
        assert predicted.peak() == (0, 0)
        assert predicted.peak_bytes("memory") == 0
        assert predicted.peak_bytes("wah") == 0
        assert predicted.peak_bytes("disk") == 0

    def test_store_scaling(self):
        g = erdos_renyi(30, 0.3, seed=5)
        predicted = predict_profile(g.n, g.m, 1, seed_sublist_count(g))
        raw = predicted.peak_bytes("memory")
        assert raw == predicted.peak()[1]
        assert predicted.peak_bytes(None) == raw
        assert predicted.peak_bytes("wah") == max(
            1, int(raw / WAH_COMPRESSION_RATIO)
        )
        assert predicted.peak_bytes("disk") == max(
            1, raw // DISK_RESIDENT_RATIO
        )
        assert predicted.peak_bytes("wah") < raw

    def test_unknown_store_rejected(self):
        predicted = predict_profile(5, 4, 1)
        with pytest.raises(ValueError, match="store"):
            predicted.peak_bytes("tape")

    def test_input_validation(self):
        with pytest.raises(ValueError):
            predict_profile(-1, 0, 1)
        with pytest.raises(ValueError):
            predict_profile(5, -1, 1)
        with pytest.raises(ValueError):
            predict_profile(5, 4, 0)

    def test_k_max_truncates_levels(self):
        g = complete_graph(8)
        full = predict_profile(g.n, g.m, 1, seed_sublist_count(g))
        capped = predict_profile(
            g.n, g.m, 1, seed_sublist_count(g), k_max=3
        )
        assert max(capped.sizes) <= 3
        assert len(capped.sizes) < len(full.sizes)

    def test_seed_count_on_edgeless_graph(self):
        assert seed_sublist_count(Graph(6)) == 0

    def test_caps_past_the_float_range_stay_exact_ints(self):
        """Over ~530k edges a clique-count cap C(x, j) passes the float
        range; the forward run then caps with the exact integer
        C(ceil(x), j) instead of raising OverflowError, and every
        store's peak is still an int."""
        n, m = 2000, 600_000
        x = (1 + math.sqrt(1 + 8 * m)) / 2
        predicted = predict_profile(n, m, 3)
        assert predicted.sizes[0] == 3
        assert predicted.sizes[-1] <= math.ceil(x)
        assert all(
            isinstance(c, int) and c >= 0 for c in predicted.candidates
        )
        raw = predicted.peak_bytes("memory")
        assert raw > sys.float_info.max
        wah = predicted.peak_bytes("wah")
        assert isinstance(wah, int)
        assert 4 * wah < raw < 5 * wah
        assert predicted.peak_bytes("disk") == raw // DISK_RESIDENT_RATIO
        j = len(predicted.sizes) // 2
        cap = _clique_count_bound(n, m, j)
        assert cap == math.comb(math.ceil(x), j)
        # no smaller than the real-valued binomial it stands in for
        assert math.log(cap) >= (
            math.lgamma(x + 1) - math.lgamma(j + 1) - math.lgamma(x - j + 1)
        )


class TestByteSizes:
    def test_parse_plain_and_suffixed(self):
        assert parse_byte_size("4096") == 4096
        assert parse_byte_size("1K") == 1024
        assert parse_byte_size("512M") == 512 * 1024**2
        assert parse_byte_size("2GB") == 2 * 1024**3
        assert parse_byte_size("1T") == 1024**4
        assert parse_byte_size(" 1 kb ") == 1024
        assert parse_byte_size("2.5G") == int(2.5 * 1024**3)

    def test_parse_rejects_garbage(self):
        for bad in ("", "MB", "12Q", "-1K", "1.2.3M"):
            with pytest.raises(ValueError):
                parse_byte_size(bad)

    def test_available_memory_is_positive_or_unknown(self):
        avail = available_memory_bytes()
        assert avail is None or avail > 0
