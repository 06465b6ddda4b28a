"""Unit and property tests for repro.core.graph."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import Graph
from repro.core.generators import complete_graph, erdos_renyi
from repro.errors import GraphError


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.n == 0
        assert g.m == 0
        g.validate()

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_from_edges(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        assert g.m == 2
        assert g.has_edge(1, 0)
        g.validate()

    def test_from_edges_duplicates_ignored(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(1, 1)])

    @pytest.mark.parametrize("bad, message", [
        ((7, 50), "vertex 50 out of range [0, 50)"),
        ((50, -1), "vertex 50 out of range [0, 50)"),
        ((-3, 50), "vertex -3 out of range [0, 50)"),
        ((7, 7), "self loop at vertex 7 is not allowed"),
        ((70, 70), "vertex 70 out of range [0, 50)"),
        ((10**30, 1), f"vertex {10**30} out of range [0, 50)"),
    ])
    def test_first_bad_pair_raises_the_add_edge_message(self, bad, message):
        good = [(i % 50, (i * 7 + 1) % 50) for i in range(1000)]
        good = [(u, v) for u, v in good if u != v]
        later = [(3, 3), (99, 0)]  # never reached: the first bad one wins
        with pytest.raises(GraphError) as exc:
            Graph.from_edges(50, good + [bad] + later)
        assert str(exc.value) == message

    def test_numpy_pair_array(self):
        pairs = np.array([[0, 1], [2, 1], [1, 0]])
        g = Graph.from_edges(3, pairs)
        assert g == Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.m == 2

    def test_from_adjacency(self):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        g = Graph.from_adjacency(a)
        assert g.m == 2
        g.validate()

    def test_from_adjacency_requires_square(self):
        with pytest.raises(GraphError):
            Graph.from_adjacency(np.zeros((2, 3)))

    def test_from_adjacency_requires_symmetric(self):
        a = np.array([[0, 1], [0, 0]])
        with pytest.raises(GraphError):
            Graph.from_adjacency(a)

    def test_from_adjacency_rejects_diagonal(self):
        a = np.array([[1, 0], [0, 0]])
        with pytest.raises(GraphError):
            Graph.from_adjacency(a)

    def test_from_networkx_roundtrip(self):
        import networkx as nx

        nxg = nx.path_graph(5)
        g = Graph.from_networkx(nxg)
        assert g.m == 4
        back = g.to_networkx()
        assert sorted(back.edges()) == sorted(nxg.edges())

    def test_copy_independent(self):
        g = Graph.from_edges(3, [(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert not g.has_edge(1, 2)


class TestMutation:
    def test_add_remove(self):
        g = Graph(3)
        g.add_edge(0, 2)
        assert g.has_edge(2, 0)
        g.remove_edge(0, 2)
        assert not g.has_edge(0, 2)
        assert g.m == 0
        g.validate()

    def test_add_idempotent(self):
        g = Graph(3)
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        assert g.m == 1
        assert g.degree(0) == 1

    def test_remove_absent_raises(self):
        g = Graph(3)
        with pytest.raises(GraphError):
            g.remove_edge(0, 1)

    def test_vertex_range_checked(self):
        g = Graph(3)
        with pytest.raises(GraphError):
            g.add_edge(0, 3)
        with pytest.raises(GraphError):
            g.degree(-1)


class TestQueries:
    def test_degrees(self, star7):
        assert star7.degree(0) == 6
        assert star7.degree(1) == 1
        assert star7.degrees().sum() == 2 * star7.m

    def test_density(self):
        assert complete_graph(5).density() == pytest.approx(1.0)
        assert Graph(5).density() == 0.0
        assert Graph(1).density() == 0.0

    def test_neighbors_sorted(self):
        g = Graph.from_edges(6, [(3, 5), (3, 0), (3, 4)])
        assert g.neighbors(3).tolist() == [0, 4, 5]

    def test_neighbor_bitset_shares_storage(self):
        g = Graph.from_edges(3, [(0, 1)])
        nb = g.neighbor_bitset(0)
        assert 1 in nb
        g.add_edge(0, 2)
        assert 2 in nb  # view semantics

    def test_edges_canonical_order(self):
        g = Graph.from_edges(4, [(2, 3), (0, 3), (0, 1)])
        assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]

    def test_edge_arrays_across_words(self):
        g = erdos_renyi(200, 0.05, seed=3)
        u, v = g.edge_arrays()
        assert list(zip(u.tolist(), v.tolist())) == [
            (a, b) for a in range(g.n) for b in g.neighbors(a).tolist()
            if b > a
        ]

    def test_is_clique(self, k5):
        assert k5.is_clique([0, 1, 2])
        assert k5.is_clique([])
        assert k5.is_clique([4])
        assert not k5.is_clique([0, 0, 1])

    def test_is_clique_negative(self, p4):
        assert not p4.is_clique([0, 1, 2])

    def test_common_neighbors(self):
        g = Graph.from_edges(
            4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        )
        cn = g.common_neighbors([0, 1])
        assert sorted(cn) == [2, 3]

    def test_common_neighbors_empty_args_is_full(self):
        g = Graph(4)
        assert g.common_neighbors([]).count() == 4

    def test_has_edge_self_false(self, k5):
        assert not k5.has_edge(2, 2)


class TestDerived:
    def test_complement(self, p4):
        c = p4.complement()
        assert c.m == 4 * 3 // 2 - 3
        assert c.has_edge(0, 2)
        assert not c.has_edge(0, 1)
        c.validate()

    def test_complement_involution(self, random_graph):
        assert random_graph.complement().complement() == random_graph

    def test_complement_odd_n_tail(self):
        g = Graph(70)
        c = g.complement()
        assert c.m == 70 * 69 // 2
        c.validate()

    def test_subgraph(self, barbell4):
        sub, mapping = barbell4.subgraph([0, 1, 2, 3])
        assert sub.n == 4
        assert sub.m == 6
        assert mapping.tolist() == [0, 1, 2, 3]
        sub.validate()

    def test_subgraph_relabels(self):
        g = Graph.from_edges(6, [(2, 5)])
        sub, mapping = g.subgraph([5, 2])
        assert sub.has_edge(0, 1)
        assert mapping.tolist() == [2, 5]

    def test_subgraph_duplicates_rejected(self, k5):
        with pytest.raises(GraphError):
            k5.subgraph([0, 0])

    def test_relabel(self, p4):
        h = p4.relabel([3, 2, 1, 0])
        assert h.has_edge(3, 2)
        assert h.has_edge(1, 0)
        h.validate()

    def test_relabel_bad_perm(self, p4):
        with pytest.raises(GraphError):
            p4.relabel([0, 0, 1, 2])

    def test_equality_hash(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        b.add_edge(1, 2)
        assert a != b

    def test_repr(self, k5):
        assert "n=5" in repr(k5)

    def test_nbytes_positive(self, k5):
        assert k5.nbytes() > 0


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@st.composite
def random_edges(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, max_size=80))
    return n, edges


@settings(max_examples=40, deadline=None)
@given(random_edges())
def test_invariants_hold(t):
    n, edges = t
    g = Graph.from_edges(n, edges)
    g.validate()
    assert g.m == len({tuple(sorted(e)) for e in edges})
    assert int(g.degrees().sum()) == 2 * g.m


@settings(max_examples=60, deadline=None)
@given(random_edges(), st.randoms(use_true_random=False))
def test_from_edges_matches_an_add_edge_loop(t, rnd):
    n, edges = t
    # duplicates and reversed pairs of the drawn ones, shuffled in
    extra = [rnd.choice(edges)[::rnd.choice((1, -1))] for _ in edges]
    pairs = edges + extra
    rnd.shuffle(pairs)
    ref = Graph(n)
    for u, v in pairs:
        ref.add_edge(u, v)
    g = Graph.from_edges(n, pairs)
    g.validate()
    assert g == ref
    assert g.m == ref.m
    assert g.degrees().tolist() == ref.degrees().tolist()
    assert list(g.edges()) == sorted({tuple(sorted(e)) for e in pairs})
    perm = list(range(n))
    rnd.shuffle(perm)
    relabelled = g.relabel(perm)
    relabelled.validate()
    assert sorted(relabelled.edges()) == sorted(
        tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()
    )
    dense = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        dense[u, v] = dense[v, u] = True
    from_matrix = Graph.from_adjacency(dense)
    from_matrix.validate()
    assert from_matrix == g and from_matrix.m == g.m


@settings(max_examples=30, deadline=None)
@given(random_edges())
def test_complement_partitions_pairs(t):
    n, edges = t
    g = Graph.from_edges(n, edges)
    c = g.complement()
    assert g.m + c.m == n * (n - 1) // 2
    for u, v in g.edges():
        assert not c.has_edge(u, v)


@settings(max_examples=20, deadline=None)
@given(random_edges())
def test_networkx_roundtrip(t):
    n, edges = t
    g = Graph.from_edges(n, edges)
    h = Graph.from_networkx(g.to_networkx())
    assert g == h
