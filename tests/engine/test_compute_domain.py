"""The generation step the level store fixes: raw words or WAH words.

The ``memory`` and ``disk`` stores run the raw-word step; the ``wah``
store runs the compressed-domain step of
:mod:`repro.core.compressed_domain` on whole level batches (row slices
of them under ``threads``).  The contract the compressed step must
keep forever: for every backend, the byte-identical clique *sequence*,
per-level sub-list and candidate counts, and merged
:class:`~repro.core.counters.OpCounters` as the raw-word step — the
representation changes, the algorithm (and its paper-faithful operation
model) does not.  What may differ is each store's own byte accounting
and the telemetry in ``result.domain_stats``, which this suite also
pins: the ``wah`` store streams levels compressed end to end (zero
decompressed bytes).
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigError, ParameterError
from repro.core import clique_enumerator
from repro.core.compressed_domain import CompressedExpander
from repro.core.generators import (
    erdos_renyi,
    overlapping_cliques,
    planted_clique,
)
from repro.core.graph import Graph
from repro.core.sublist import CompressedLevelBatch
from repro.engine import (
    EnumerationConfig,
    EnumerationEngine,
    get_backend,
    resolve_for_backend,
)
from repro.engine import level_store
from repro.engine.level_store import CompressedLevelStore

ENGINE = EnumerationEngine()

#: every built-in backend runs the compressed step on the wah store.
WAH_BACKENDS = ("incore", "bitscan", "threads")


def _graph():
    g, _ = overlapping_cliques(
        120, [9, 8, 7, 6], 3, p=0.03, seed=11
    )
    return g


def _disjoint_k7s(count: int, n: int) -> Graph:
    """``count`` vertex-disjoint 7-cliques on random vertices of ``n``."""
    perm = np.random.default_rng(0).permutation(n)
    return Graph.from_edges(n, [
        (int(a), int(b))
        for c in range(count)
        for a, b in itertools.combinations(
            sorted(perm[7 * c:7 * c + 7]), 2
        )
    ])


def _counts(result):
    """Per-level ``(k, N[k], M[k], emitted)``: the store-independent
    part of the level statistics."""
    return [
        (ls.k, ls.n_sublists, ls.n_candidates, ls.maximal_emitted)
        for ls in result.level_stats
    ]


class TestConfigValidation:
    def test_submit_path_raises_identical_error(self):
        """`repro submit` refuses at submission with the engine's exact
        ConfigError — the shared resolution point, whose one check is
        ``jobs`` on a sequential backend."""
        from repro.service.jobs import JobSpec

        config = EnumerationConfig(backend="incore", jobs=2)
        with pytest.raises(ConfigError) as engine_exc:
            resolve_for_backend(config, get_backend("incore"))
        with pytest.raises(ConfigError) as submit_exc:
            JobSpec(graph=Graph(3), config=config)
        assert str(submit_exc.value) == str(engine_exc.value)


class TestDomainEquivalence:
    """Another store: byte-identical everything but the accounting."""

    @pytest.fixture(scope="class")
    def graph(self):
        return _graph()

    @pytest.mark.parametrize("backend", WAH_BACKENDS)
    @pytest.mark.parametrize("store", ["disk", "wah"])
    def test_byte_identical_across_matrix(self, graph, backend, store):
        jobs = 2 if get_backend(backend).parallel else None
        base = ENGINE.run(graph, EnumerationConfig(
            backend=backend, level_store="memory", jobs=jobs,
        ))
        other = ENGINE.run(graph, EnumerationConfig(
            backend=backend, level_store=store, jobs=jobs,
        ))
        assert other.cliques == base.cliques
        assert _counts(other) == _counts(base)
        assert other.counters.snapshot() == base.counters.snapshot()
        assert other.completed == base.completed
        if store == "disk":
            # the spill store charges the in-memory byte model
            assert other.level_stats == base.level_stats

    @pytest.mark.parametrize("backend", ["incore", "bitscan"])
    def test_one_fill_streams_match_memory_store(self, backend):
        """A 40-clique on vertices 0..39 gives its edges CN strings
        whose group 0 is all ones: the row kernels split those
        one-fills into unit groups, and the output still matches the
        memory store.  (The genome workload's streams hold none.)"""
        from repro.core.counters import OpCounters
        from repro.engine.level_loop import seed_level

        background = erdos_renyi(140, 0.04, seed=3)
        g = Graph.from_edges(140, sorted(
            set(itertools.combinations(range(40), 2))
            | set(background.edges())
        ))
        _, seed = seed_level(g, 2, OpCounters(), lambda c: None)
        words = CompressedLevelBatch.from_level(seed).cn_words
        assert ((words >> np.uint32(30)) == 3).any()  # one-fill words
        base = ENGINE.run(g, EnumerationConfig(
            backend=backend, level_store="memory", k_max=4,
        ))
        wah = ENGINE.run(g, EnumerationConfig(
            backend=backend, level_store="wah", k_max=4,
        ))
        assert len(base.cliques) > 0
        assert wah.cliques == base.cliques
        assert _counts(wah) == _counts(base)
        assert wah.counters.snapshot() == base.counters.snapshot()
        assert wah.completed == base.completed

    def test_size_window_and_budget_parity(self, graph):
        """Init_K seeding, k_max cuts, and streamed sinks behave the
        same on the raw-word and the compressed step."""
        collected: list = []
        base = ENGINE.run(graph, EnumerationConfig(
            backend="incore", level_store="memory", k_min=3, k_max=6,
        ))
        wah = ENGINE.run(
            graph,
            EnumerationConfig(
                backend="incore", level_store="wah", k_min=3, k_max=6,
            ),
            on_clique=collected.append,
        )
        assert collected == base.cliques
        assert wah.completed == base.completed
        assert _counts(wah) == _counts(base)
        assert wah.counters.snapshot() == base.counters.snapshot()


class TestDomainTelemetry:
    @pytest.fixture(scope="class")
    def graph(self):
        return _graph()

    def test_wah_domain_on_wah_store_never_decompresses(
        self, graph, monkeypatch
    ):
        """Both ways to decompress a level are booby-trapped for the
        run: a wah-store job never decodes a CN string to raw words."""
        from repro.core import sublist, wah_kernels

        def trap(*args, **kwargs):
            raise AssertionError("a level was decompressed")

        monkeypatch.setattr(CompressedLevelBatch, "to_level", trap)
        monkeypatch.setattr(sublist, "batch_decode_words", trap)
        monkeypatch.setattr(wah_kernels, "batch_decode_words", trap)
        res = ENGINE.run(graph, EnumerationConfig(
            backend="incore", level_store="wah"
        ))
        stats = res.domain_stats
        assert stats["decompressed_bytes_avoided"] > 0
        assert stats["kernel_word_ops"] > 0
        assert stats["kernel_ands"] > 0

    @pytest.mark.parametrize("backend", WAH_BACKENDS)
    @pytest.mark.parametrize("k_max", [None, 4])
    def test_bytes_avoided_are_the_streamed_levels_raw_bytes(
        self, graph, backend, k_max
    ):
        """What a wah run kept compressed is what the memory store held
        on every level the loop streamed: all but the last, which is
        empty or, when ``k_max`` stops the run, never streamed."""
        jobs = 2 if get_backend(backend).parallel else None
        mem, wah = (
            ENGINE.run(graph, EnumerationConfig(
                backend=backend, level_store=store, k_max=k_max, jobs=jobs,
            ))
            for store in ("memory", "wah")
        )
        assert mem.completed is (k_max is None)
        assert wah.domain_stats["decompressed_bytes_avoided"] == sum(
            stats.candidate_bytes for stats in mem.level_stats[:-1]
        )

    def test_bitset_on_raw_stores_reports_nothing(self, graph):
        for store in ("memory", "disk"):
            res = ENGINE.run(graph, EnumerationConfig(
                backend="incore", level_store=store
            ))
            assert res.domain_stats == {}

    def test_level_seconds_recorded_by_the_loop(self, graph):
        res = ENGINE.run(graph, EnumerationConfig(backend="incore"))
        assert len(res.level_seconds) == len(res.level_stats)
        assert all(s >= 0 for s in res.level_seconds)


class TestCompressedStream:
    """The zero-round-trip store surface the wah store's step rides on."""

    def _store_with(self, g):
        from repro.core.counters import OpCounters
        from repro.engine.level_loop import seed_level

        store = CompressedLevelStore()
        _, seed = seed_level(g, 2, OpCounters(), lambda c: None)
        store.append(seed)
        return store

    def test_native_compressed_append_identical_accounting(
        self, monkeypatch
    ):
        """Appending a compressed batch (what the compressed step
        produces) charges the same bytes as encoding the equivalent
        raw chunk in several parts (what seeding appends) — so
        per-level stats do not depend on which path filled the store."""
        monkeypatch.setattr(level_store, "ENCODE_ROWS", 2)
        g, _ = planted_clique(40, 6, 0.1, seed=3)
        raw_store = self._store_with(g)
        native_store = CompressedLevelStore()
        from repro.core.counters import OpCounters
        from repro.engine.level_loop import seed_level

        _, seed = seed_level(g, 2, OpCounters(), lambda c: None)
        assert len(seed) > 2
        native_store.append(CompressedLevelBatch.from_level(seed))
        assert native_store.candidate_bytes == raw_store.candidate_bytes
        assert native_store.n_candidates == raw_store.n_candidates


class TestCompressedExpander:
    def test_model_validated(self):
        with pytest.raises(ParameterError, match="step model"):
            CompressedExpander(Graph(4), model="vectorised")

    def test_work_estimate_parity(self, monkeypatch):
        """Each chunk form is cut by its own step's batch rule, and a
        range's LPT estimate is what its sub-lists' ``work_estimate``
        sums to on either form.  A raw level is cut by ``pair_batches``
        at the full budget whatever the worker count; a compressed batch
        by the WAH step's gathered weight (8 bytes per tail pair and per
        nonzero CN group the pair gathers, counted here from the decoded
        groups) at ``PAIR_BATCH_BYTES // n_workers``: every range weighs
        at most that unless it is a single sub-list, and is cut no
        shorter than that allows."""
        from repro.core.counters import OpCounters
        from repro.core.wah_kernels import batch_decode_groups
        from repro.engine.level_loop import seed_level
        from repro.parallel.thread_backend import level_ranges

        g = erdos_renyi(80, 0.2, seed=2)
        _, seed = seed_level(g, 2, OpCounters(), lambda c: None)
        batch = CompressedLevelBatch.from_level(seed)
        n_words = g.adj.shape[1]
        work = [sl.work_estimate() for sl in seed.to_sublists()]
        t = seed.n_tails
        groups = batch_decode_groups(
            batch.cn_words, batch.cn_offsets, batch.n_groups
        )
        weight = 8 * (t * (t - 1) // 2) * (1 + (groups != 0).sum(axis=1))
        default = clique_enumerator.PAIR_BATCH_BYTES
        raw_counts, wah_counts = {}, {}
        for budget in (default, 4096, 0):
            monkeypatch.setattr(
                clique_enumerator, "PAIR_BATCH_BYTES", budget
            )
            raw = clique_enumerator.pair_batches(t, n_words)
            for n_workers in (1, 2, 3):
                ranges, estimates = level_ranges(seed, n_words, n_workers)
                assert ranges == raw
                assert estimates == [sum(work[a:b]) for a, b in ranges]
                ranges, estimates = level_ranges(batch, n_words, n_workers)
                assert estimates == [sum(work[a:b]) for a, b in ranges]
                # contiguous, covering, never splitting a sub-list
                assert [a for a, _ in ranges] == [0] + [
                    b for _, b in ranges[:-1]
                ]
                assert ranges[-1][1] == len(seed)
                limit = budget // n_workers
                for a, b in ranges:
                    assert weight[a:b].sum() <= limit or b - a == 1
                    if b < len(seed):
                        assert weight[a:b + 1].sum() > limit
                wah_counts[budget, n_workers] = len(ranges)
            raw_counts[budget] = len(raw)
        assert raw_counts[default] == 1
        assert 1 < raw_counts[4096] < len(seed)
        assert raw_counts[0] == len(seed)
        # the default budget holds the level at any worker count; at
        # 4096 bytes more workers cut more, multi-sub-list, ranges
        assert {wah_counts[default, w] for w in (1, 2, 3)} == {1}
        assert 1 < wah_counts[4096, 1] < wah_counts[4096, 3] < len(seed)

    def test_step_signature_matches_generation_step(self):
        """The expander is a drop-in GenerationStep: same call shape,
        and on a compressed level batch the same children as the
        reference step on the raw sub-lists."""
        from repro.core.clique_enumerator import generate_next_level
        from repro.core.counters import OpCounters
        from repro.engine.level_loop import seed_level

        g, _ = planted_clique(50, 7, 0.12, seed=5)
        _, seed = seed_level(g, 2, OpCounters(), lambda c: None)
        ref_counters, wah_counters = OpCounters(), OpCounters()
        ref_cliques: list = []
        wah_cliques: list = []
        ref_children = generate_next_level(
            seed, g, ref_counters, ref_cliques.append
        )
        expander = CompressedExpander(g, model="pairs")
        wah_children = expander.step(
            CompressedLevelBatch.from_level(seed),
            g,
            wah_counters,
            wah_cliques.append,
        )
        assert isinstance(wah_children, CompressedLevelBatch)
        assert wah_cliques == ref_cliques
        assert wah_counters.snapshot() == ref_counters.snapshot()
        ours_all = wah_children.to_level().to_sublists()
        assert len(ours_all) == len(ref_children)
        for ours, theirs in zip(ours_all, ref_children.to_sublists()):
            assert ours.prefix == theirs.prefix
            assert ours.tails.tolist() == theirs.tails.tolist()
            assert (ours.cn_words == theirs.cn_words).all()


class TestPairBatches:
    """Both steps cut pair batches at sub-list boundaries against one
    byte budget, ``clique_enumerator.PAIR_BATCH_BYTES``: the bitset
    step by its test rows' width, the WAH step by the CN groups a batch
    gathers.  Where they cut is invisible in the output, and the
    budget, not the level width, bounds the step's transients."""

    @pytest.mark.parametrize(
        "store, step", [("memory", "bitset"), ("wah", "wah")]
    )
    def test_batch_boundaries_are_invisible(self, monkeypatch, store, step):
        # at n = 300 the default budget holds every level in one batch;
        # a zero budget makes every sub-list a batch of its own
        g, _ = planted_clique(300, 12, 0.05, seed=0)
        config = EnumerationConfig(backend="incore", level_store=store)
        whole = ENGINE.run(g, config)
        # the store fixes the step: only the wah step reports kernels
        assert ("kernel_word_ops" in whole.domain_stats) == (step == "wah")
        monkeypatch.setattr(clique_enumerator, "PAIR_BATCH_BYTES", 0)
        assert clique_enumerator.pair_batch_limit(g.adj.shape[1]) == 0
        split = ENGINE.run(g, config)
        assert len(split.cliques) > 1000
        assert split.cliques == whole.cliques
        assert split.level_stats == whole.level_stats
        assert split.counters.snapshot() == whole.counters.snapshot()
        # kernel_word_ops, kernel_ands, decompressed bytes avoided
        assert split.domain_stats == whole.domain_stats

    def test_wah_batches_weigh_at_most_the_budget(self, monkeypatch):
        """Every pair batch the WAH step runs weighs at most the budget
        (8 bytes per tail pair and per nonzero CN group the pair
        gathers, counted here from the decoded groups) unless it is a
        single sub-list, and is cut no shorter than that allows."""
        from repro.core.wah_kernels import batch_decode_groups

        budget = 4096
        cuts = []
        real = CompressedExpander._pairs_batch

        def spy(self, lo, hi, batch, *rest):
            groups = batch_decode_groups(
                batch.cn_words, batch.cn_offsets, batch.n_groups
            )
            t = batch.n_tails
            weight = 8 * (t * (t - 1) // 2) * (
                1 + (groups != 0).sum(axis=1)
            )
            cuts.append((hi - lo, int(weight[lo:hi].sum()),
                         int(weight[hi]) if hi < len(batch) else None))
            return real(self, lo, hi, batch, *rest)

        monkeypatch.setattr(CompressedExpander, "_pairs_batch", spy)
        monkeypatch.setattr(clique_enumerator, "PAIR_BATCH_BYTES", budget)
        g, _ = planted_clique(300, 12, 0.05, seed=0)
        ENGINE.run(g, EnumerationConfig(backend="incore", level_store="wah"))
        assert len(cuts) > 10
        assert any(size > 1 for size, _, _ in cuts)
        for size, weight, following in cuts:
            assert weight <= budget or size == 1
            if following is not None:
                assert weight + following > budget

    def test_sparse_wide_level_cuts_into_fewer_batches(self):
        """Sparse CN strings in a wide universe gather a few groups per
        pair, not a row of ``n_words`` words: the WAH cut runs the
        level in fewer batches than the bitset step's cut would."""
        from repro.core.counters import OpCounters
        from repro.core.wah_kernels import nonzero_group_counts
        from repro.engine.level_loop import seed_level

        g = _disjoint_k7s(400, 12_000)
        _, seed = seed_level(g, 2, OpCounters(), lambda c: None)
        batch = CompressedLevelBatch.from_level(seed)
        gathered = nonzero_group_counts(batch.cn_words, batch.cn_offsets)
        assert gathered.max() <= 6
        wah = clique_enumerator.gathered_batches(batch.n_tails, gathered)
        bitset = clique_enumerator.pair_batches(
            batch.n_tails, g.adj.shape[1]
        )
        assert len(bitset) > 10
        assert len(wah) < len(bitset)

    def test_nonzero_group_counts_include_one_fills(self):
        """The cut's per-stream count is the number of units the step
        gathers: a literal 1, a one-fill its length, a zero fill 0."""
        from repro.core.counters import OpCounters
        from repro.core.wah_kernels import (
            _nonzero_groups,
            batch_decode_groups,
            nonzero_group_counts,
        )
        from repro.engine.level_loop import seed_level

        # a 70-clique on vertices 0..69 gives CN streams whose groups
        # 0 and 1 are all ones: one-fills two groups long
        background = erdos_renyi(140, 0.04, seed=3)
        g = Graph.from_edges(140, sorted(
            set(itertools.combinations(range(70), 2))
            | set(background.edges())
        ))
        _, seed = seed_level(g, 2, OpCounters(), lambda c: None)
        batch = CompressedLevelBatch.from_level(seed)
        words, offsets = batch.cn_words, batch.cn_offsets
        one_fill = (words >> np.uint32(30)) == 3
        assert (words[one_fill] & np.uint32((1 << 30) - 1) > 1).any()
        counts = nonzero_group_counts(words, offsets)
        _, _, nz_offsets = _nonzero_groups(words, offsets, batch.n_groups)
        np.testing.assert_array_equal(counts, np.diff(nz_offsets))
        np.testing.assert_array_equal(counts, (batch_decode_groups(
            words, offsets, batch.n_groups
        ) != 0).sum(axis=1))

    def test_working_set_does_not_grow_with_level_width(self):
        """Four times the level width (disjoint K7s seeded at k = 3 in
        a 12,000-vertex universe) must not scale the traced peak with
        it, as a (children, universe) matrix in the step would."""
        config = EnumerationConfig(
            backend="incore", level_store="wah", k_min=3
        )
        peaks = []
        for count in (100, 400):
            g = _disjoint_k7s(count, 12_000)
            tracemalloc.start()
            try:
                res = ENGINE.run(g, config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(res.cliques) == count
            peaks.append(peak)
        assert peaks[1] < 2 * peaks[0]


class TestWireProtocol:
    def test_payload_roundtrip(self):
        """The store travels, and selects the step on the far side; the
        default store never travels, however it is spelled."""
        from repro.service.protocol import (
            config_from_payload,
            config_to_payload,
        )

        config = EnumerationConfig(backend="incore", level_store="wah")
        payload = config_to_payload(config)
        assert payload == {"level_store": "wah"}
        assert config_from_payload(payload) == config
        assert config_to_payload(EnumerationConfig()) == {}
        assert config_to_payload(
            EnumerationConfig(level_store="memory")
        ) == {}

    def test_job_to_dict_carries_domain(self):
        """The store fixes the step, so the store a job resolved to
        names the step it ran: an ``auto`` job whose budget fits only
        the compressed peak runs the wah store's kernels."""
        from repro.core.memory_model import (
            predict_profile,
            seed_sublist_count,
        )
        from repro.service.jobs import JobSpec
        from repro.service.scheduler import JobScheduler

        g, _ = planted_clique(60, 9, 0.1, seed=6)
        predicted = predict_profile(g.n, g.m, 1, seed_sublist_count(g))
        # room for the compressed peak only: "auto" resolves to wah
        budget = predicted.peak_bytes("wah")
        with JobScheduler(
            workers=1, cache=None, memory_budget_bytes=budget
        ) as sched:
            job = sched.submit(JobSpec(
                graph=g, config=EnumerationConfig(level_store="auto"),
            )).wait(30)
        out = job.to_dict()
        assert "compute_domain" not in out
        assert out["level_store"] == "wah"
        assert out["domain_stats"]["kernel_word_ops"] > 0
