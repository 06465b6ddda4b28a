"""Tests for the bit-scan generation ablation (paper Section 2.3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clique_enumerator import (
    build_initial_sublists,
    generate_next_level,
    generate_next_level_bitscan,
)
from repro.core.counters import OpCounters
from repro.core.generators import erdos_renyi, planted_clique


def _run_full(g, step):
    """Drive a full enumeration with the given generation step."""
    counters = OpCounters()
    cliques: list[tuple[int, ...]] = []
    level = build_initial_sublists(
        g, counters, cliques.append, emit_maximal_edges=True
    )
    while len(level):
        level = step(level, g, counters, cliques.append)
    return sorted(cliques), counters


class TestBitscanEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_cliques(self, seed):
        g = erdos_renyi(30, 0.35, seed=seed)
        list_out, _ = _run_full(g, generate_next_level)
        scan_out, _ = _run_full(g, generate_next_level_bitscan)
        assert list_out == scan_out

    def test_same_cliques_planted(self):
        g, _ = planted_clique(50, 9, 0.1, seed=2)
        list_out, _ = _run_full(g, generate_next_level)
        scan_out, _ = _run_full(g, generate_next_level_bitscan)
        assert list_out == scan_out


class TestBitscanCostModel:
    def test_bits_scanned_counted(self):
        g = erdos_renyi(40, 0.3, seed=1)
        _, counters = _run_full(g, generate_next_level_bitscan)
        scanned = counters.extra.get("bits_scanned", 0)
        # every expansion scans all n bits: count is a multiple of n
        assert scanned > 0
        assert scanned % g.n == 0

    def test_paper_argument_holds_on_sparse_graphs(self):
        """The paper rejects bit-scan because it visits n bits per clique
        while the tail list is bounded by (n - k); on a sparse graph the
        scanned-bit volume dwarfs the pair checks of the list method."""
        g = erdos_renyi(200, 0.03, seed=3)
        _, c_list = _run_full(g, generate_next_level)
        _, c_scan = _run_full(g, generate_next_level_bitscan)
        assert c_scan.extra["bits_scanned"] > 10 * c_list.pair_checks


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=0, max_value=300),
)
def test_bitscan_property(n, p, seed):
    g = erdos_renyi(n, p, seed=seed)
    list_out, _ = _run_full(g, generate_next_level)
    scan_out, _ = _run_full(g, generate_next_level_bitscan)
    assert list_out == scan_out
