"""Tests for the experiment drivers.

Heavy experiments run on a small substitute workload where possible; the
figure drivers that depend on the cached myogenic traces exercise the real
thing once (module-scoped) and assert the paper's qualitative claims.
"""

from __future__ import annotations

import pytest

from repro.core.generators import planted_partition
from repro.experiments import (
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    table1,
)
from repro.experiments.runner import EXPERIMENTS, main
from repro.experiments.workloads import Workload


@pytest.fixture(scope="module")
def small_workload() -> Workload:
    # large enough that the Clique Enumerator's asymptotic advantage over
    # Kose shows despite interpreter overheads (see table1 docstring)
    g, _ = planted_partition(
        300, [15, 14, 13, 12, 10], p_in=0.97, p_out=0.02, seed=77
    )
    return Workload(
        name="test_small",
        graph=g,
        paper_analog="test-only",
        expected_max_clique=15,
        description="small workload for experiment tests",
    )


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self, small_workload):
        # warm-up pass: JIT-free but the first numpy/code-path touch is
        # measurably slower, and Table 1 is a timing comparison
        from repro.core.clique_enumerator import enumerate_maximal_cliques

        enumerate_maximal_cliques(small_workload.graph, k_min=3, k_max=5)
        return table1.run(small_workload)

    def test_run_on_small(self, result):
        assert result.outputs_match
        assert result.kose_seconds > 0 and result.ce_seconds > 0
        assert result.n_maximal > 0

    def test_ce_beats_kose(self, result):
        """Table 1's claim at any scale: the Clique Enumerator wins."""
        assert result.speedup > 1.0

    def test_ce_uses_less_memory(self, result):
        """Candidate pruning beats full retention on peak storage."""
        assert result.memory_ratio > 1.5

    def test_report_renders(self, result):
        text = table1.report(result)
        assert "Kose RAM" in text
        assert "383" in text  # paper reference row present


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return figure5.run(processor_counts=(1, 2, 4, 64, 256))

    def test_monotone_to_mid_range(self, result):
        """Run time decreases with processors up to 64."""
        for k in (18, 19, 20):
            assert result.seconds(k, 2) < result.seconds(k, 1)
            assert result.seconds(k, 4) < result.seconds(k, 2)
            assert result.seconds(k, 64) < result.seconds(k, 4)

    def test_init_k_halving(self, result):
        """Paper: +1 Init_K roughly halves the run time."""
        t18 = result.seconds(18, 1)
        t19 = result.seconds(19, 1)
        t20 = result.seconds(20, 1)
        assert 1.4 < t18 / t19 < 2.8
        assert 1.4 < t19 / t20 < 2.8

    def test_degradation_at_256(self, result):
        """Paper: performance degrades a little at 256 processors."""
        for k in (18, 19, 20):
            assert result.seconds(k, 256) > result.seconds(k, 64) * 0.8

    def test_report_renders(self, result):
        text = figure5.report(result)
        assert "Init_K=18" in text and "256" in text


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self):
        return figure6.run(processor_counts=(1, 2, 4, 8, 16, 32, 64))

    def test_relative_speedup_near_paper(self, result):
        """Paper: relative speedups remain around 1.8 up to 64."""
        for k in (18, 19, 20, 3):
            mean_rel = result.mean_relative(k)
            assert 1.5 <= mean_rel <= 2.0, f"Init_K={k}: {mean_rel}"

    def test_absolute_below_ideal(self, result):
        for k, series in result.absolute.items():
            for p, s in series.items():
                assert s <= p + 1e-9

    def test_report_renders(self, result):
        text = figure6.report(result)
        assert "relative" in text.lower()


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return figure7.run()

    def test_monotonicity(self, result):
        """The figure's claim: speedup grows with sequential time."""
        assert result.is_monotone()

    def test_speedups_in_paper_band(self, result):
        """Paper band at 256 processors: 22x to 51x."""
        speedups = [row.speedup for row in result.rows]
        assert min(speedups) > 10
        assert max(speedups) < 110

    def test_report_renders(self, result):
        assert "speedup increases" in figure7.report(result)


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return figure8.run()

    def test_paper_balance_criterion(self, result):
        """Paper: std within 10% of mean busy time."""
        assert result.max_std_over_mean() <= 0.10

    def test_balancer_not_worse(self, result):
        for p in result.balanced:
            assert (
                result.balanced[p].std_over_mean
                <= result.unbalanced[p].std_over_mean + 1e-9
            )

    def test_report_renders(self, result):
        assert "Figure 8" in figure8.report(result)


class TestFigure9:
    @pytest.fixture(scope="class")
    def result(self, small_workload):
        return figure9.run(small_workload)

    def test_rise_peak_fall(self, result):
        sizes = result.profile.sizes
        series = result.profile.measured_bytes
        peak_k, peak_b = result.profile.peak()
        assert sizes[0] < peak_k < sizes[-1]
        assert series[-1] < peak_b

    def test_peak_fraction_mid_range(self, result):
        """Paper peak at 13/28 = 46%; shape check: peak in 25–75%."""
        assert 0.25 <= result.peak_fraction() <= 0.75

    def test_report_renders(self, result):
        assert "peak" in figure9.report(result)


class TestRunner:
    def test_experiment_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table1", "maxclique", "figure5", "figure6", "figure7",
            "figure8", "figure9", "figure9_stores", "ablations",
        }

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_single_experiment_runs(self, capsys):
        assert main(["figure8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
