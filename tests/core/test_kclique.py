"""Tests for the k-clique enumerator (Section 2.2 of the paper)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generators import complete_graph, erdos_renyi, path_graph
from repro.core.graph import Graph
from repro.core.kclique import enumerate_k_cliques, k_core_mask
from repro.errors import ParameterError


def brute_force_k_cliques(g: Graph, k: int):
    """All k-cliques by exhaustive subset check."""
    return sorted(
        c for c in combinations(range(g.n), k) if g.is_clique(c)
    )


def reference_k_core_mask(g: Graph, k: int) -> np.ndarray:
    """The per-vertex fixed point the edge-array peel replaced."""
    alive = np.ones(g.n, dtype=bool)
    deg = g.degrees()
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if alive[v] and deg[v] < k - 1:
                alive[v] = False
                changed = True
                for u in g.neighbors(v).tolist():
                    if alive[u]:
                        deg[u] -= 1
    return alive


class TestKCoreMask:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=30),
        st.floats(min_value=0.0, max_value=0.6),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=8),
    )
    def test_matches_the_vertex_loop(self, n, p, seed, k):
        g = erdos_renyi(n, p, seed=seed)
        assert k_core_mask(g, k).tolist() == (
            reference_k_core_mask(g, k).tolist()
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_small_k_and_empty_graph(self, k):
        g = Graph.from_edges(5, [(0, 1), (1, 2)])
        assert k_core_mask(g, k).tolist() == (
            reference_k_core_mask(g, k).tolist()
        )
        assert k_core_mask(Graph(0), k).tolist() == []

    def test_all_survive_complete(self):
        assert k_core_mask(complete_graph(5), 5).all()

    def test_path_k3(self):
        # no vertex of a path has degree >= 2 after peeling cascades
        mask = k_core_mask(path_graph(5), 3)
        assert not mask.any()

    def test_cascade(self):
        # triangle with a pendant chain: chain peels away for k=3
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        mask = k_core_mask(g, 3)
        assert mask[:3].all()
        assert not mask[3:].any()


class TestEnumerateKCliques:
    def test_k1_splits_isolated(self):
        g = Graph.from_edges(3, [(0, 1)])
        res = enumerate_k_cliques(g, 1)
        assert res.maximal == [(2,)]
        assert sorted(res.non_maximal) == [(0,), (1,)]

    def test_k2_is_edges(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        res = enumerate_k_cliques(g, 2)
        assert sorted(res.all_cliques()) == [(0, 1), (0, 2), (1, 2), (2, 3)]
        # edge (2,3) has no common neighbor -> maximal
        assert (2, 3) in res.maximal
        assert (0, 1) in res.non_maximal

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            enumerate_k_cliques(Graph(3), 0)

    def test_empty_graph(self):
        res = enumerate_k_cliques(Graph(0), 3)
        assert res.all_cliques() == []

    def test_k_larger_than_max_clique(self):
        res = enumerate_k_cliques(complete_graph(4), 5)
        assert res.all_cliques() == []

    def test_complete_graph_counts(self):
        res = enumerate_k_cliques(complete_graph(6), 3)
        assert len(res.all_cliques()) == 20  # C(6,3)
        assert res.maximal == []  # all 3-cliques extend inside K6

    def test_maximal_k_clique_detected(self):
        # two triangles sharing one vertex: both maximal 3-cliques
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3),
                                 (2, 4), (3, 4)])
        res = enumerate_k_cliques(g, 3)
        assert sorted(res.maximal) == [(0, 1, 2), (2, 3, 4)]
        assert res.non_maximal == []

    def test_canonical_order(self, random_graph):
        res = enumerate_k_cliques(random_graph, 3)
        assert res.maximal == sorted(res.maximal)
        assert res.non_maximal == sorted(res.non_maximal)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_brute_force(self, k, random_graph):
        res = enumerate_k_cliques(random_graph, k)
        assert res.all_cliques() == brute_force_k_cliques(random_graph, k)

    def test_maximality_split_correct(self, random_graph):
        g = random_graph
        res = enumerate_k_cliques(g, 3)
        for c in res.maximal:
            assert not g.common_neighbors(c).any()
        for c in res.non_maximal:
            assert g.common_neighbors(c).any()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=2, max_value=5),
)
def test_kclique_property(n, p, seed, k):
    g = erdos_renyi(n, p, seed=seed)
    res = enumerate_k_cliques(g, k)
    assert res.all_cliques() == brute_force_k_cliques(g, k)
    # split consistency
    for c in res.maximal:
        assert not g.common_neighbors(c).any()
    for c in res.non_maximal:
        assert g.common_neighbors(c).any()
