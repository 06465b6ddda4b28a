"""Tests for the Clique Enumerator — the paper's core algorithm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clique_enumerator import (
    build_initial_sublists,
    build_sublists_from_k_cliques,
    enumerate_maximal_cliques,
    generate_next_level,
    pair_batches,
    tail_pairs,
)
from repro.core.counters import OpCounters
from repro.core.generators import (
    complete_graph,
    erdos_renyi,
    overlapping_cliques,
    path_graph,
    planted_clique,
)
from repro.core.graph import Graph
from repro.core.kclique import enumerate_k_cliques
from repro.core.memory_model import check_paper_recurrences
from repro.core.sublist import CliqueSubList
from repro.engine.level_loop import seed_level
from repro.errors import BudgetExceeded, ParameterError
from tests.conftest import nx_maximal_cliques


class TestBasics:
    def test_empty_graph(self):
        res = enumerate_maximal_cliques(Graph(0))
        assert res.cliques == []
        assert res.completed

    def test_isolated_vertices_at_kmin_1(self):
        res = enumerate_maximal_cliques(Graph(3), k_min=1)
        assert sorted(res.cliques) == [(0,), (1,), (2,)]

    def test_isolated_vertices_excluded_at_kmin_2(self):
        res = enumerate_maximal_cliques(Graph(3), k_min=2)
        assert res.cliques == []

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert enumerate_maximal_cliques(g).cliques == [(0, 1)]

    def test_triangle(self, triangle):
        assert enumerate_maximal_cliques(triangle).cliques == [(0, 1, 2)]

    def test_path(self):
        res = enumerate_maximal_cliques(path_graph(5))
        assert sorted(res.cliques) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_star(self, star7):
        res = enumerate_maximal_cliques(star7)
        assert sorted(res.cliques) == [(0, i) for i in range(1, 7)]

    def test_cycle(self, c6):
        res = enumerate_maximal_cliques(c6)
        assert len(res.cliques) == 6
        assert all(len(c) == 2 for c in res.cliques)

    def test_complete(self):
        res = enumerate_maximal_cliques(complete_graph(8))
        assert res.cliques == [tuple(range(8))]

    def test_barbell(self, barbell4):
        res = enumerate_maximal_cliques(barbell4)
        assert sorted(res.cliques) == [(0, 1, 2, 3), (3, 4), (4, 5, 6, 7)]

    def test_invalid_kmin(self, triangle):
        with pytest.raises(ParameterError):
            enumerate_maximal_cliques(triangle, k_min=0)

    def test_invalid_range(self, triangle):
        with pytest.raises(ParameterError):
            enumerate_maximal_cliques(triangle, k_min=5, k_max=4)


class TestCorrectness:
    def test_matches_networkx(self, seeded_er):
        res = enumerate_maximal_cliques(seeded_er, k_min=1)
        assert sorted(res.cliques) == nx_maximal_cliques(seeded_er)

    def test_no_duplicates(self, random_graph):
        res = enumerate_maximal_cliques(random_graph)
        assert len(res.cliques) == len(set(res.cliques))

    def test_all_maximal(self, random_graph):
        g = random_graph
        for c in enumerate_maximal_cliques(g).cliques:
            assert g.is_clique(c)
            assert not g.common_neighbors(c).any()

    def test_planted_clique_found(self):
        g, members = planted_clique(60, 9, 0.1, seed=2)
        res = enumerate_maximal_cliques(g)
        assert tuple(members) in set(res.cliques)

    def test_overlapping_cliques_found(self):
        g, cliques = overlapping_cliques(50, [8, 8, 8], 4, seed=3)
        got = set(enumerate_maximal_cliques(g).cliques)
        for c in cliques:
            assert tuple(c) in got


class TestNonDecreasingOrder:
    """The paper's headline property: emission in non-decreasing size."""

    def test_order_on_random(self, seeded_er):
        res = enumerate_maximal_cliques(seeded_er, k_min=1)
        sizes = [len(c) for c in res.cliques]
        assert sizes == sorted(sizes)

    def test_order_with_callback(self, random_graph):
        seen = []
        enumerate_maximal_cliques(random_graph, on_clique=seen.append)
        sizes = [len(c) for c in seen]
        assert sizes == sorted(sizes)

    def test_canonical_within_size(self, random_graph):
        res = enumerate_maximal_cliques(random_graph)
        for size, group in res.by_size().items():
            assert group == sorted(group)


class TestSizeRange:
    def test_k_min_filters_small(self, barbell4):
        res = enumerate_maximal_cliques(barbell4, k_min=3)
        assert sorted(res.cliques) == [(0, 1, 2, 3), (4, 5, 6, 7)]

    def test_k_max_stops_early(self):
        g = complete_graph(8)
        res = enumerate_maximal_cliques(g, k_min=2, k_max=5)
        assert res.cliques == []  # the only maximal clique has size 8
        assert not res.completed  # candidates remained

    def test_k_max_reports_maximal_at_bound(self, barbell4):
        res = enumerate_maximal_cliques(barbell4, k_min=2, k_max=4)
        assert (0, 1, 2, 3) in res.cliques
        assert res.completed

    @pytest.mark.parametrize("k_min", [2, 3, 4, 5])
    def test_init_k_seeding_matches_full_run(self, k_min, random_graph):
        """Init_K seeding must agree with filtering a full run."""
        full = enumerate_maximal_cliques(random_graph, k_min=1)
        expected = sorted(c for c in full.cliques if len(c) >= k_min)
        seeded = enumerate_maximal_cliques(random_graph, k_min=k_min)
        assert sorted(seeded.cliques) == expected

    def test_init_k_on_planted(self):
        g, members = planted_clique(50, 10, 0.12, seed=8)
        res = enumerate_maximal_cliques(g, k_min=8)
        assert tuple(members) in set(res.cliques)
        assert all(len(c) >= 8 for c in res.cliques)


class TestLevelStats:
    def test_stats_recorded(self, random_graph):
        res = enumerate_maximal_cliques(random_graph)
        assert res.level_stats
        ks = [ls.k for ls in res.level_stats]
        assert ks == sorted(ks)
        assert ks[0] == 2

    def test_paper_recurrences_hold(self, random_graph):
        res = enumerate_maximal_cliques(random_graph)
        issues = check_paper_recurrences(res.level_stats, random_graph.n)
        assert issues == []

    def test_memory_rises_then_falls(self):
        g, _ = planted_clique(80, 12, 0.08, seed=5)
        res = enumerate_maximal_cliques(g)
        bytes_series = [ls.candidate_bytes for ls in res.level_stats]
        peak = max(bytes_series)
        peak_idx = bytes_series.index(peak)
        # strictly decreasing after some point past the peak
        assert bytes_series[-1] <= peak
        assert peak_idx < len(bytes_series) - 1

    def test_counts_match_emission(self, random_graph):
        res = enumerate_maximal_cliques(random_graph, k_min=1)
        emitted_by_stats = sum(
            ls.maximal_emitted for ls in res.level_stats
        )
        # stats cover levels >= 2; add isolated vertices (none here)
        isolated = sum(
            1 for v in range(random_graph.n) if random_graph.degree(v) == 0
        )
        assert emitted_by_stats + isolated == len(res.cliques)

    def test_peak_bytes_accessor(self, random_graph):
        res = enumerate_maximal_cliques(random_graph)
        assert res.peak_candidate_bytes() == max(
            ls.candidate_bytes for ls in res.level_stats
        )


class TestBudgets:
    def test_max_cliques_budget(self):
        g = erdos_renyi(30, 0.5, seed=1)
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_maximal_cliques(g, max_cliques=3)
        assert exc.value.emitted == 3

    def test_memory_budget(self):
        g, _ = planted_clique(60, 12, 0.2, seed=1)
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_maximal_cliques(g, max_candidate_bytes=100)
        assert exc.value.level >= 2

    def test_generous_budgets_pass(self, random_graph):
        res = enumerate_maximal_cliques(
            random_graph, max_cliques=10**9, max_candidate_bytes=10**12
        )
        assert res.completed


class TestCallback:
    def test_callback_suppresses_collection(self, random_graph):
        seen = []
        res = enumerate_maximal_cliques(
            random_graph, on_clique=seen.append
        )
        assert res.cliques == []
        assert sorted(seen) == sorted(
            enumerate_maximal_cliques(random_graph).cliques
        )


class TestSeedSublists:
    def test_from_k_cliques_requires_k2(self, triangle):
        with pytest.raises(ParameterError):
            build_sublists_from_k_cliques(triangle, 1, [], OpCounters())

    def test_singleton_groups_dropped(self):
        g = complete_graph(4)
        # a single 3-clique forms a singleton sub-list -> dropped
        subs = build_sublists_from_k_cliques(
            g, 3, [(0, 1, 2)], OpCounters()
        )
        assert subs == []

    def test_group_common_neighbors(self):
        g = complete_graph(4)
        subs = build_sublists_from_k_cliques(
            g, 3, [(0, 1, 2), (0, 1, 3)], OpCounters()
        )
        assert len(subs) == 1
        sl = subs[0]
        assert sl.prefix == (0, 1)
        assert sl.tails.tolist() == [2, 3]
        assert sorted(
            __import__("repro.core.bitset", fromlist=["words_to_indices"])
            .words_to_indices(sl.cn_words, 4)
            .tolist()
        ) == [2, 3]


# ---------------------------------------------------------------------------
# the definitive cross-validation property
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=18),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2000),
)
def test_matches_networkx_property(n, p, seed):
    g = erdos_renyi(n, p, seed=seed)
    res = enumerate_maximal_cliques(g, k_min=1)
    assert sorted(res.cliques) == nx_maximal_cliques(g)
    sizes = [len(c) for c in res.cliques]
    assert sizes == sorted(sizes)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=4, max_value=16),
    st.floats(min_value=0.2, max_value=0.8),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=3, max_value=5),
)
def test_init_k_seeding_property(n, p, seed, k_min):
    g = erdos_renyi(n, p, seed=seed)
    full = enumerate_maximal_cliques(g, k_min=1)
    expected = sorted(c for c in full.cliques if len(c) >= k_min)
    seeded = enumerate_maximal_cliques(g, k_min=k_min)
    assert sorted(seeded.cliques) == expected


# ---------------------------------------------------------------------------
# the array seeding and step against the loops they replaced
# ---------------------------------------------------------------------------

def reference_initial_sublists(g, counters, emit, emit_maximal_edges):
    """The per-vertex edge seeding the one-pass array seeding replaced."""
    adj = g.adj
    out = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        tails = nbrs[nbrs > v]
        if tails.size == 0:
            continue
        counters.cliques_generated += int(tails.size)
        counters.bit_and_ops += int(tails.size)
        counters.bit_exist_checks += int(tails.size)
        nonmax = (adj[tails] & adj[v][None, :]).any(axis=1)
        if emit_maximal_edges:
            for u in tails[~nonmax].tolist():
                counters.maximal_emitted += 1
                emit((v, int(u)))
        cand = tails[nonmax]
        if cand.size > 1:
            counters.sublists_created += 1
            out.append(CliqueSubList((v,), cand, adj[v]))
    return out


def reference_step(sublists, g, counters, emit):
    """The per-sub-list pair build and per-group loop of the step the
    array step replaced, batch cuts included."""
    adj = g.adj
    out = []
    live = [sl for sl in sublists if sl.tails.size >= 2]
    cuts = pair_batches([sl.tails.size for sl in live], adj.shape[1])
    for start, end in cuts:
        batch = live[start:end]
        vi_parts, vj_parts, counts = [], [], []
        for sl in batch:
            iu, ju = np.triu_indices(int(sl.tails.size), k=1)
            vi_parts.append(sl.tails[iu])
            vj_parts.append(sl.tails[ju])
            counts.append(iu.size)
        all_vi, all_vj = np.concatenate(vi_parts), np.concatenate(vj_parts)
        all_sid = np.repeat(np.arange(len(batch)), counts)
        counters.pair_checks += int(all_vi.size)
        mask = ((adj[all_vi, all_vj >> 6] >> (all_vj & 63).astype(
            np.uint64)) & np.uint64(1)).astype(bool)
        if not mask.any():
            continue
        pvi, pvj, psid = all_vi[mask], all_vj[mask], all_sid[mask]
        counters.cliques_generated += int(pvi.size)
        counters.bit_exist_checks += int(pvi.size)
        counters.bit_and_ops += int(pvi.size)
        cn = np.stack([sl.cn_words for sl in batch])
        nonmax = (adj[pvi] & adj[pvj] & cn[psid]).any(axis=1)
        boundary = np.concatenate(
            ([True], (psid[1:] != psid[:-1]) | (pvi[1:] != pvi[:-1]))
        )
        starts = np.flatnonzero(boundary).tolist()
        ends = starts[1:] + [int(pvi.size)]
        counters.bit_and_ops += len(starts)
        for s, e in zip(starts, ends):
            nm = int(nonmax[s:e].sum())
            sl = batch[int(psid[s])]
            child_prefix = sl.prefix + (int(pvi[s]),)
            for idx in range(s, e):
                if not nonmax[idx]:
                    counters.maximal_emitted += 1
                    emit(child_prefix + (int(pvj[idx]),))
            if nm > 1:
                counters.sublists_created += 1
                out.append(CliqueSubList(
                    child_prefix, pvj[s:e][nonmax[s:e]],
                    sl.cn_words & adj[int(pvi[s])],
                ))
    return out


def _key(sublists):
    return [
        (sl.prefix, sl.tails.tolist(), sl.cn_words.tobytes())
        for sl in sublists
    ]


def _family_graphs():
    from tests.engine.test_property_harness import FAMILIES

    return st.builds(
        lambda family, seed, n: FAMILIES[family](seed, n),
        st.sampled_from(sorted(FAMILIES)),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=4, max_value=40),
    )


class TestArraySeeding:
    @settings(max_examples=40, deadline=None)
    @given(_family_graphs(), st.booleans())
    def test_edge_seeding_matches_the_vertex_loop(self, g, emit_edges):
        c_ref, c_new = OpCounters(), OpCounters()
        e_ref, e_new = [], []
        ref = reference_initial_sublists(g, c_ref, e_ref.append, emit_edges)
        new = build_initial_sublists(g, c_new, e_new.append, emit_edges)
        assert _key(new) == _key(ref)
        assert e_new == e_ref
        assert c_new.snapshot() == c_ref.snapshot()

    @staticmethod
    def _assert_init_k_matches(g, k_min):
        c_ref = OpCounters()
        kres = enumerate_k_cliques(g, k_min, c_ref)
        ref = build_sublists_from_k_cliques(
            g, k_min, kres.non_maximal, c_ref
        )
        c_new, emitted = OpCounters(), []
        k, new = seed_level(g, k_min, c_new, emitted.append)
        assert k == k_min
        assert _key(new) == _key(ref)
        assert emitted == kres.maximal
        assert c_new.maximal_emitted == c_ref.maximal_emitted

    @settings(max_examples=40, deadline=None)
    @given(_family_graphs(), st.integers(min_value=3, max_value=7))
    def test_init_k_matches_the_k_clique_enumerator(self, g, k_min):
        self._assert_init_k_matches(g, k_min)

    @pytest.mark.parametrize("k_min", [3, 4, 5, 7])
    def test_init_k_on_planted_modules(self, k_min):
        g, _ = overlapping_cliques(80, [9, 8, 7], 3, p=0.05, seed=4)
        self._assert_init_k_matches(g, k_min)

    def test_seed_levels_empty_before_k_min(self):
        # the octahedron: a 4-core with triangles, every one maximal,
        # so level 3 is already empty on the way to k_min = 5
        g = Graph.from_edges(6, [
            (u, v) for u in range(6) for v in range(u + 1, 6)
            if v != u + 3
        ])
        for k_min in (4, 5):
            self._assert_init_k_matches(g, k_min)
        _, seed = seed_level(g, 5, OpCounters(), [].append)
        assert seed == []

    def test_empty_core(self):
        # a path has no 3-core: nothing to seed at k_min = 4
        counters, emitted = OpCounters(), []
        k, seed = seed_level(path_graph(9), 4, counters, emitted.append)
        assert (k, seed, emitted) == (4, [], [])
        assert counters.snapshot() == OpCounters().snapshot()
        self._assert_init_k_matches(path_graph(9), 4)


class TestArrayStep:
    @staticmethod
    def _mixed_level():
        """Level-3 sub-lists of 0, 1, 2 and many tails, from a planted
        graph dense enough that groups keep, drop and emit."""
        g, _ = planted_clique(70, 14, 0.25, seed=11)
        level = build_initial_sublists(g, OpCounters(), [].append, False)
        level = generate_next_level(level, g, OpCounters(), [].append)
        many = [sl for sl in level if sl.tails.size > 4]
        two = [sl for sl in level if sl.tails.size == 2]
        assert many and two
        mixed = []
        for i, sl in enumerate(many[:6] + two[:3]):
            mixed.append(sl)
            if i % 3 == 0:  # a one-tail and an empty sub-list between
                mixed.append(CliqueSubList(sl.prefix, sl.tails[:1],
                                           sl.cn_words))
                mixed.append(CliqueSubList(sl.prefix, sl.tails[:0],
                                           sl.cn_words))
        return g, mixed

    @staticmethod
    def _set_budget(monkeypatch, g, pairs):
        """Cut pair batches at ``pairs`` pairs (None: the default)."""
        from repro.core import clique_enumerator

        if pairs is not None:
            monkeypatch.setattr(
                clique_enumerator, "PAIR_BATCH_BYTES",
                8 * g.adj.shape[1] * pairs,
            )

    @pytest.mark.parametrize("pairs", [0, 12, None])
    def test_matches_the_group_loop(self, pairs, monkeypatch):
        g, level = self._mixed_level()
        self._set_budget(monkeypatch, g, pairs)
        c_ref, c_new = OpCounters(), OpCounters()
        e_ref, e_new = [], []
        ref = reference_step(level, g, c_ref, e_ref.append)
        new = generate_next_level(level, g, c_new, e_new.append)
        assert ref and e_ref
        assert _key(new) == _key(ref)
        assert e_new == e_ref
        assert c_new.snapshot() == c_ref.snapshot()

    @pytest.mark.parametrize("pairs", [0, 12, None])
    def test_wah_step_matches_the_group_loop(self, pairs, monkeypatch):
        from repro.core.compressed_domain import CompressedExpander
        from repro.core.sublist import CompressedLevelBatch

        g, level = self._mixed_level()
        self._set_budget(monkeypatch, g, pairs)
        c_ref, c_new = OpCounters(), OpCounters()
        e_ref, e_new = [], []
        ref = reference_step(level, g, c_ref, e_ref.append)
        batch = CompressedLevelBatch.from_sublists(level)
        new = CompressedExpander(g).step(batch, g, c_new, e_new.append)
        assert _key(new.to_sublists()) == _key(ref)
        assert e_new == e_ref
        assert c_new.snapshot() == c_ref.snapshot()

    def test_batches_straddle_sub_lists(self, monkeypatch):
        """At 12 pairs a batch, the mixed level is cut into several
        batches, some of more than one sub-list with pairs, so batch
        cuts fall between neighbouring sub-lists' pairs."""
        g, level = self._mixed_level()
        self._set_budget(monkeypatch, g, 12)
        t = np.array([sl.tails.size for sl in level])
        pairs = t * (t - 1) // 2
        cuts = pair_batches(t, g.adj.shape[1])
        assert len(cuts) > 2
        assert any(
            np.count_nonzero(pairs[start:end]) > 1 for start, end in cuts
        )

    def test_tail_pairs_is_the_upper_triangle(self):
        offsets = np.array([3, 3, 4, 6, 10], dtype=np.int64)
        i, j, sid = tail_pairs(offsets)
        want = [
            (s, a + offsets[s], b + offsets[s])
            for s in range(4)
            for a, b in zip(*np.triu_indices(offsets[s + 1] - offsets[s], 1))
        ]
        assert list(zip(sid.tolist(), i.tolist(), j.tolist())) == want
