"""The compute-domain axis: ``bitset`` vs ``wah`` generation.

The contract the tentpole must keep forever: for every backend that
advertises the ``wah`` compute domain (``incore``/``bitscan``/
``threads``) on every level store it supports, the compressed-domain
generation step produces the byte-identical clique *sequence*, the
byte-identical per-level :class:`~repro.core.clique_enumerator.
LevelStats`, and the byte-identical merged
:class:`~repro.core.counters.OpCounters` as the raw-word path — the
representation changes, the algorithm (and its paper-faithful operation
model) does not.  What may differ is only the telemetry in
``result.domain_stats``, which this suite also pins: the
``wah``+``wah`` pairing streams levels compressed end to end (zero
decompressed bytes), while the at-rest path reports the codec traffic
it pays.
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
from repro.core.sublist import CliqueSubList, CompressedSubList
from repro.engine import (
    COMPUTE_DOMAINS,
    EnumerationConfig,
    EnumerationEngine,
    get_backend,
    resolve_compute_domain,
    resolve_for_backend,
)
from repro.engine.level_store import CompressedLevelStore

ENGINE = EnumerationEngine()

#: the backends the tentpole wired the compressed domain into.
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


class TestConfigValidation:
    def test_domains_tuple(self):
        assert COMPUTE_DOMAINS == ("auto", "bitset", "wah")

    def test_default_is_auto(self):
        assert EnumerationConfig().compute_domain == "auto"

    def test_unknown_domain_rejected(self):
        with pytest.raises(ParameterError, match="compute_domain"):
            EnumerationConfig(compute_domain="simd")

    def test_hash_and_eq_distinguish_domains(self):
        """The service result cache may never conflate the domains."""
        a = EnumerationConfig(level_store="wah", compute_domain="bitset")
        b = EnumerationConfig(level_store="wah", compute_domain="wah")
        assert a != b
        assert hash(a) != hash(b)

    @pytest.mark.parametrize("backend", ["ooc"])
    def test_explicit_wah_rejected_where_unsupported(self, backend):
        config = EnumerationConfig(backend=backend, compute_domain="wah")
        with pytest.raises(ConfigError, match="compute domain"):
            resolve_for_backend(config, get_backend(backend))
        with pytest.raises(ConfigError, match="compute domain"):
            ENGINE.run(Graph(4), config)

    def test_submit_path_raises_identical_error(self):
        """`repro submit` refuses at submission with the engine's exact
        ConfigError — the shared resolution point."""
        from repro.service.jobs import JobSpec

        config = EnumerationConfig(backend="ooc", compute_domain="wah")
        with pytest.raises(ConfigError) as engine_exc:
            resolve_for_backend(config, get_backend("ooc"))
        with pytest.raises(ConfigError) as submit_exc:
            JobSpec(graph=Graph(3), config=config)
        assert str(submit_exc.value) == str(engine_exc.value)

    def test_advertised_via_backend_info(self):
        for name in WAH_BACKENDS:
            assert get_backend(name).compute_domains == ("bitset", "wah")
        assert get_backend("ooc").compute_domains == ("bitset",)

    def test_auto_resolution(self):
        incore = get_backend("incore")
        assert resolve_compute_domain(
            EnumerationConfig(), "memory", incore
        ) == "bitset"
        assert resolve_compute_domain(
            EnumerationConfig(), "wah", incore
        ) == "wah"
        assert resolve_compute_domain(
            EnumerationConfig(), "wah", get_backend("ooc")
        ) == "bitset"
        assert resolve_compute_domain(
            EnumerationConfig(compute_domain="wah"), "memory", incore
        ) == "wah"


class TestDomainEquivalence:
    """wah vs bitset: byte-identical everything but the telemetry."""

    @pytest.fixture(scope="class")
    def graph(self):
        return _graph()

    @pytest.mark.parametrize("backend", WAH_BACKENDS)
    @pytest.mark.parametrize("store", ["memory", "disk", "wah"])
    def test_byte_identical_across_matrix(self, graph, backend, store):
        jobs = 2 if get_backend(backend).parallel else None
        base = ENGINE.run(graph, EnumerationConfig(
            backend=backend, level_store=store,
            compute_domain="bitset", jobs=jobs,
        ))
        wah = ENGINE.run(graph, EnumerationConfig(
            backend=backend, level_store=store,
            compute_domain="wah", jobs=jobs,
        ))
        assert wah.cliques == base.cliques
        assert wah.level_stats == base.level_stats
        assert wah.counters.snapshot() == base.counters.snapshot()
        assert wah.completed == base.completed
        assert base.compute_domain == "bitset"
        assert wah.compute_domain == "wah"

    def test_size_window_and_budget_parity(self, graph):
        """Init_K seeding, k_max cuts, and streamed sinks behave the
        same in both domains."""
        collected: list = []
        base = ENGINE.run(graph, EnumerationConfig(
            backend="incore", level_store="wah", k_min=3, k_max=6,
            compute_domain="bitset",
        ))
        wah = ENGINE.run(
            graph,
            EnumerationConfig(
                backend="incore", level_store="wah", k_min=3, k_max=6,
                compute_domain="wah",
            ),
            on_clique=collected.append,
        )
        assert collected == base.cliques
        assert wah.completed == base.completed

    def test_resolved_domain_reported_for_auto(self, graph):
        res = ENGINE.run(graph, EnumerationConfig(
            backend="incore", level_store="wah"
        ))
        assert res.compute_domain == "wah"
        res = ENGINE.run(graph, EnumerationConfig(backend="incore"))
        assert res.compute_domain == "bitset"
        # ooc never runs the wah domain, even under an "auto" config
        res = ENGINE.run(graph, EnumerationConfig(
            backend="ooc", level_store="wah"
        ))
        assert res.compute_domain == "bitset"


class TestDomainTelemetry:
    @pytest.fixture(scope="class")
    def graph(self):
        return _graph()

    def test_wah_domain_on_wah_store_never_decompresses(self, graph):
        res = ENGINE.run(graph, EnumerationConfig(
            backend="incore", level_store="wah", compute_domain="wah"
        ))
        stats = res.domain_stats
        assert stats.get("decompressed_bytes", 0) == 0
        assert stats["decompressed_bytes_avoided"] > 0
        assert stats["kernel_word_ops"] > 0
        assert stats["kernel_ands"] > 0
        assert stats["adj_rows_compressed"] > 0

    def test_at_rest_path_reports_codec_traffic(self, graph):
        res = ENGINE.run(graph, EnumerationConfig(
            backend="incore", level_store="wah", compute_domain="bitset"
        ))
        assert res.domain_stats["decompressed_bytes"] > 0
        assert res.domain_stats.get("decompressed_bytes_avoided", 0) == 0

    def test_bitset_on_raw_stores_reports_nothing(self, graph):
        res = ENGINE.run(graph, EnumerationConfig(backend="incore"))
        assert res.domain_stats == {}

    def test_level_seconds_recorded_by_the_loop(self, graph):
        res = ENGINE.run(graph, EnumerationConfig(backend="incore"))
        assert len(res.level_seconds) == len(res.level_stats)
        assert all(s >= 0 for s in res.level_seconds)


class TestCompressedStream:
    """The zero-round-trip store surface the wah domain rides on."""

    def _store_with(self, g, k=3):
        store = CompressedLevelStore(chunk_size=2)
        from repro.core.counters import OpCounters
        from repro.engine.level_loop import seed_level

        _, seed = seed_level(g, 2, OpCounters(), lambda c: None)
        for sl in seed:
            store.append(sl)
        return store

    def test_stream_entries_yields_compressed(self):
        g, _ = planted_clique(40, 6, 0.1, seed=3)
        store = self._store_with(g)
        chunks = list(store.stream_entries())
        assert chunks
        assert all(
            isinstance(e, CompressedSubList)
            for chunk in chunks
            for e in chunk
        )
        assert store.bypassed_bytes > 0
        assert store.decompressed_bytes == 0

    def test_stream_entries_shares_single_pass_contract(self):
        from repro.errors import LevelStoreError

        g, _ = planted_clique(40, 6, 0.1, seed=3)
        store = self._store_with(g)
        list(store.stream_entries())
        with pytest.raises(LevelStoreError, match="single-pass"):
            store.stream()
        store2 = self._store_with(g)
        list(store2.stream())
        with pytest.raises(LevelStoreError, match="single-pass"):
            store2.stream_entries()

    def test_native_compressed_append_identical_accounting(self):
        """Appending a CompressedSubList directly (the wah-domain path)
        charges the same bytes as compressing the equivalent raw
        sub-list (the bitset path) — so per-level stats stay
        byte-identical across domains."""
        g, _ = planted_clique(40, 6, 0.1, seed=3)
        raw_store = self._store_with(g)
        native_store = CompressedLevelStore(chunk_size=2)
        from repro.core.counters import OpCounters
        from repro.engine.level_loop import seed_level

        _, seed = seed_level(g, 2, OpCounters(), lambda c: None)
        for sl in seed:
            native_store.append(CompressedSubList.from_sublist(sl))
        assert native_store.candidate_bytes == raw_store.candidate_bytes
        assert native_store.n_candidates == raw_store.n_candidates
        assert (
            native_store.uncompressed_bytes == raw_store.uncompressed_bytes
        )


class TestCompressedExpander:
    def test_model_validated(self):
        with pytest.raises(ParameterError, match="step model"):
            CompressedExpander(Graph(4), model="vectorised")

    def test_work_estimate_parity(self):
        """LPT partitioning sees identical weights in both forms."""
        g = erdos_renyi(80, 0.2, seed=2)
        from repro.core.counters import OpCounters
        from repro.engine.level_loop import seed_level

        _, seed = seed_level(g, 2, OpCounters(), lambda c: None)
        assert seed
        for sl in seed:
            assert (
                CompressedSubList.from_sublist(sl).work_estimate()
                == sl.work_estimate()
            )

    def test_step_signature_matches_generation_step(self):
        """The expander is a drop-in GenerationStep: same call shape,
        same children as the reference on raw sub-lists."""
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
            seed, g, wah_counters, wah_cliques.append
        )
        assert wah_cliques == ref_cliques
        assert wah_counters.snapshot() == ref_counters.snapshot()
        assert len(wah_children) == len(ref_children)
        for ours, theirs in zip(wah_children, ref_children):
            assert isinstance(ours, CliqueSubList)
            assert ours.prefix == theirs.prefix
            assert ours.tails.tolist() == theirs.tails.tolist()
            assert (ours.cn_words == theirs.cn_words).all()


class TestPairBatches:
    """Both steps cut pair batches at sub-list boundaries by one byte
    budget, ``clique_enumerator.PAIR_BATCH_BYTES``.  Where they cut is
    invisible in the output, and the budget, not the level width,
    bounds the step's transients."""

    @pytest.mark.parametrize("domain", ["bitset", "wah"])
    @pytest.mark.parametrize("store", ["memory", "wah"])
    def test_batch_boundaries_are_invisible(
        self, monkeypatch, store, domain
    ):
        # at n = 300 the default budget holds every level in one batch;
        # a zero budget makes every sub-list a batch of its own
        g, _ = planted_clique(300, 12, 0.05, seed=0)
        config = EnumerationConfig(
            backend="incore", level_store=store, compute_domain=domain
        )
        whole = ENGINE.run(g, config)
        monkeypatch.setattr(clique_enumerator, "PAIR_BATCH_BYTES", 0)
        assert clique_enumerator.pair_batch_limit(g.adj.shape[1]) == 0
        split = ENGINE.run(g, config)
        assert len(split.cliques) > 1000
        assert split.cliques == whole.cliques
        assert split.level_stats == whole.level_stats
        assert split.counters.snapshot() == whole.counters.snapshot()
        # kernel_word_ops, kernel_ands, decompressed/bypassed bytes
        assert split.domain_stats == whole.domain_stats

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
        from repro.service.protocol import (
            config_from_payload,
            config_to_payload,
        )

        config = EnumerationConfig(
            backend="incore", level_store="wah", compute_domain="wah"
        )
        payload = config_to_payload(config)
        assert payload["compute_domain"] == "wah"
        assert config_from_payload(payload) == config
        # the default never travels
        assert "compute_domain" not in config_to_payload(
            EnumerationConfig()
        )

    def test_job_to_dict_carries_domain(self):
        from repro.service.jobs import Job, JobSpec

        job = Job("j1", JobSpec(
            graph=Graph(3),
            config=EnumerationConfig(
                backend="incore", level_store="wah", compute_domain="wah"
            ),
        ))
        assert job.to_dict()["compute_domain"] == "wah"
