"""Level-store substrate tests: the single-pass contract, the WAH
compressed store, and the ``level_store`` policy threading through
config, backends, facade, and cache."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitset as bs
from repro.core import clique_enumerator
from repro.core.clique_enumerator import (
    INDEX_BYTES,
    POINTER_BYTES,
    expand_level,
)
from repro.core.counters import OpCounters
from repro.core.generators import erdos_renyi, overlapping_cliques
from repro.core.sublist import (
    CliqueSubList,
    CompressedLevelBatch,
    LevelArrays,
)
from repro.engine import (
    LEVEL_STORES,
    CompressedLevelStore,
    DiskLevelStore,
    EnumerationConfig,
    EnumerationEngine,
    LevelStore,
    MemoryLevelStore,
    level_store,
    run_enumeration,
)
from repro.engine.level_loop import seed_level
from repro.errors import LevelStoreError, ParameterError
from repro.service.cache import ResultCache
from tests.engine.test_property_harness import FAMILIES
from wah_oracle import WahBitmap

ENGINE = EnumerationEngine()

#: every backend runs the shared level loop over a pluggable store.
STORE_BACKENDS = ("incore", "bitscan", "threads")


def _sl(prefix, tails, n=256):
    """A one-sub-list level chunk whose CN string is its tails."""
    return LevelArrays.from_sublists([
        CliqueSubList(
            prefix=tuple(prefix),
            tails=np.asarray(tails, dtype=np.int64),
            cn_words=bs.indices_to_words(tails, n),
        )
    ])


def _key(chunks):
    """Every streamed sub-list as (prefix, tails, CN bytes); a
    compressed batch is compared decompressed."""
    return [
        (sl.prefix, sl.tails.tolist(), sl.cn_words.tobytes())
        for chunk in chunks
        for sl in (
            chunk.to_level()
            if isinstance(chunk, CompressedLevelBatch)
            else chunk
        ).to_sublists()
    ]


def _stores(tmp_path):
    return {
        "memory": MemoryLevelStore(),
        "disk": DiskLevelStore(tmp_path),
        "wah": CompressedLevelStore(),
    }


class TestSinglePassContract:
    """Regression: a second stream() used to silently replay the whole
    level (MemoryLevelStore), double-counting expansion."""

    @pytest.mark.parametrize("name", LEVEL_STORES)
    def test_second_stream_raises(self, name, tmp_path):
        store = _stores(tmp_path)[name]
        store.append(_sl([0], [1, 2]))
        assert sum(len(c) for c in store.stream()) == 1
        with pytest.raises(LevelStoreError, match="twice"):
            store.stream()
        store.close()

    @pytest.mark.parametrize("name", LEVEL_STORES)
    def test_second_stream_raises_even_unconsumed(self, name, tmp_path):
        """The violation is detected at call time, not first-next."""
        store = _stores(tmp_path)[name]
        store.append(_sl([0], [1, 2]))
        store.stream()  # never iterated
        with pytest.raises(LevelStoreError):
            store.stream()
        store.close()

    @pytest.mark.parametrize("name", LEVEL_STORES)
    def test_append_after_stream_raises(self, name, tmp_path):
        store = _stores(tmp_path)[name]
        store.append(_sl([0], [1, 2]))
        list(store.stream())
        with pytest.raises(LevelStoreError, match="single-pass"):
            store.append(_sl([1], [2, 3]))
        store.close()

    @pytest.mark.parametrize("name", LEVEL_STORES)
    def test_close_stays_idempotent(self, name, tmp_path):
        store = _stores(tmp_path)[name]
        store.append(_sl([0], [1, 2]))
        store.close()
        store.close()

    def test_every_store_enters_through_the_guarded_base(self):
        """A store supplies only the storage hooks: its public
        ``append`` and ``stream`` are the base's guarded ones, so no
        store can ship an entry point without the single-pass guard."""
        for cls in (MemoryLevelStore, DiskLevelStore, CompressedLevelStore):
            # directly: perfbench wraps append/stream once per store
            # class, and a store inheriting another's would stack them
            assert cls.__bases__ == (LevelStore,), cls
            assert cls.append is LevelStore.append, cls
            assert cls.stream is LevelStore.stream, cls


class TestArrayChunks:
    """Every store takes ``LevelArrays`` chunks (the seed) and yields
    the chunk form its step computes in: ``LevelArrays`` on the
    ``memory`` and ``disk`` stores, ``CompressedLevelBatch`` on
    ``wah``."""

    @pytest.mark.parametrize("name", LEVEL_STORES)
    def test_two_chunks_stream_in_insertion_order(self, name, tmp_path):
        store = _stores(tmp_path)[name]
        first = LevelArrays.concat([_sl([0], [1, 2]), _sl([1], [2, 5])])
        second = LevelArrays.concat([_sl([2], [3, 4, 6]), _sl([3], [7, 9])])
        store.append(first)
        store.append(second)
        assert (store.n_sublists, store.n_candidates) == (4, 9)
        chunks = list(store.stream())
        form = CompressedLevelBatch if name == "wah" else LevelArrays
        assert all(isinstance(c, form) for c in chunks)
        assert _key(chunks) == _key([first, second])
        store.close()

    @pytest.mark.parametrize("name", LEVEL_STORES)
    def test_empty_chunk_stores_nothing(self, name, tmp_path):
        store = _stores(tmp_path)[name]
        store.append(LevelArrays.empty(3, 4))
        assert len(store) == 0
        assert store.n_sublists == 0
        assert store.n_candidates == 0
        assert store.candidate_bytes == 0
        assert list(store.stream()) == []
        store.close()

    def test_one_chunk_streams_back_uncopied(self):
        store = MemoryLevelStore()
        level = LevelArrays.concat([_sl([0], [1, 2]), _sl([1], [2, 3])])
        store.append(level)
        (chunk,) = store.stream()
        assert chunk is level

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["memory", "disk"]),
        st.sampled_from(sorted(FAMILIES)),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=4, max_value=36),
        st.integers(min_value=1, max_value=5),
    )
    def test_accounting_is_the_sum_over_sub_lists(
        self, name, family, seed, n, k_min
    ):
        """``N[k]``, ``M[k]`` and the byte charge read off the arrays
        equal the per-sub-list sums they replace, level by level."""
        g = FAMILIES[family](seed, n)
        counters = OpCounters()
        _, level = seed_level(g, k_min, counters, lambda c: None)
        while True:
            subs = level.to_sublists()
            store = (
                MemoryLevelStore() if name == "memory" else DiskLevelStore()
            )
            with store:
                store.append(level)
                assert store.n_sublists == len(subs)
                assert store.n_candidates == sum(len(sl) for sl in subs)
                assert store.candidate_bytes == sum(
                    sl.nbytes(INDEX_BYTES, POINTER_BYTES) for sl in subs
                )
            if not len(level):
                break
            level = expand_level(level, g.adj, counters, lambda c: None)


class TestNoSubListObjects:
    """No backend on any store builds a ``CliqueSubList``: every level
    stays in its store's chunk form from seed to step to store."""

    @pytest.mark.parametrize("k_min", [1, 3])
    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_no_sub_list_is_built(self, backend, k_min, monkeypatch):
        # overlapping modules over a dense background: several levels,
        # each emitting cliques from many sub-lists, so a range merged
        # out of order changes the clique sequence
        g, _ = overlapping_cliques(80, [9, 8, 7], 3, p=0.1, seed=4)
        jobs = {"jobs": 2} if backend == "threads" else {}
        configs = {
            store: EnumerationConfig(
                backend=backend, k_min=k_min, level_store=store, **jobs
            )
            for store in LEVEL_STORES
        }
        refs = {
            store: run_enumeration(g, config)
            for store, config in configs.items()
        }

        def trap(*args, **kwargs):
            raise AssertionError("a per-sub-list object was built")

        monkeypatch.setattr(CliqueSubList, "__init__", trap)
        # every sub-list its own range, so `threads` starts its pool
        monkeypatch.setattr(clique_enumerator, "PAIR_BATCH_BYTES", 0)
        for store, config in configs.items():
            ref, res = refs[store], run_enumeration(g, config)
            assert res.cliques == ref.cliques, store
            assert res.level_stats == ref.level_stats, store
            assert res.counters.snapshot() == ref.counters.snapshot(), store
            assert res.completed == ref.completed, store
            assert res.domain_stats == ref.domain_stats, store
            assert res.io == ref.io, store
            if backend == "threads":
                assert res.load_balance is not None, store


class TestCompressedLevelStore:
    def test_is_level_store(self):
        assert isinstance(CompressedLevelStore(), LevelStore)

    def test_accounting_matches_memory_counts(self):
        mem, wah = MemoryLevelStore(), CompressedLevelStore()
        for sl in (_sl([0], [1, 2]), _sl([1], [2, 3, 4])):
            mem.append(sl)
            wah.append(sl)
        assert wah.n_sublists == mem.n_sublists == 2
        assert wah.n_candidates == mem.n_candidates == 5
        # the sparse 256-bit cn strings compress below the raw bytes
        assert wah.candidate_bytes < mem.candidate_bytes

    def test_stream_roundtrips_sublists(self):
        store = CompressedLevelStore()
        items = [_sl([0], [1, 2]), _sl([1], [2, 3, 4]), _sl([2], [5, 9])]
        for sl in items:
            store.append(sl)
        streamed = _key(store.stream())
        assert len(streamed) == len(items)
        assert streamed == _key(items)

    def test_empty_store_streams_nothing(self):
        assert list(CompressedLevelStore().stream()) == []

    def test_mixed_appends_stream_in_insertion_order(self):
        """Raw chunks are encoded as they are appended; batches stored
        between them must not overtake them."""
        store = CompressedLevelStore()
        store.append(_sl([0], [1, 2]))
        store.append(_sl([1], [2, 3]))
        store.append(CompressedLevelBatch.from_level(_sl([2], [3, 4])))
        store.append(_sl([3], [4, 5]))
        store.append(CompressedLevelBatch.from_level(_sl([4], [5, 6])))
        store.append(_sl([5], [6, 7]))
        (chunk,) = store.stream()
        assert isinstance(chunk, CompressedLevelBatch)
        assert chunk.prefixes.tolist() == [[i] for i in range(6)]

    def test_stores_differ_only_in_the_cn_term(self, monkeypatch):
        """The wah store charges exactly what the memory store does,
        with each raw CN string replaced by its WAH words: tails,
        prefixes and pointers are held once, as indices."""
        g, _ = overlapping_cliques(
            300, [9, 8, 7], overlap=3, p=0.02, seed=4
        )
        _, seed = seed_level(g, 2, OpCounters(), lambda c: None)
        monkeypatch.setattr(level_store, "ENCODE_ROWS", 7)
        mem, wah = MemoryLevelStore(), CompressedLevelStore()
        mem.append(seed)
        wah.append(seed)
        raw_cn = sum(sl.cn_words.nbytes for sl in seed.to_sublists())
        wah_cn = sum(
            WahBitmap.from_words(sl.cn_words).nbytes()
            for sl in seed.to_sublists()
        )
        assert len(seed) > 7
        assert wah.candidate_bytes == (
            mem.candidate_bytes - raw_cn + wah_cn
        )


class TestLevelStorePolicy:
    def test_constant_lists_stores(self):
        assert LEVEL_STORES == ("memory", "disk", "wah")

    def test_invalid_level_store_rejected_at_config(self):
        with pytest.raises(ParameterError, match="level_store"):
            EnumerationConfig(level_store="zip")

    def test_level_store_part_of_identity(self):
        a = EnumerationConfig(level_store="wah")
        b = EnumerationConfig()
        c = EnumerationConfig(level_store="wah")
        assert a != b
        assert a == c and hash(a) == hash(c)
        assert len({a, b, c}) == 2

    def test_spill_directory_rejected_off_disk_substrate(self):
        """A spill directory off the disk store fails at construction,
        before any work; so does one that is not a path string."""
        for store in ("memory", "wah", "auto"):
            with pytest.raises(ParameterError, match="spill_dir"):
                EnumerationConfig(level_store=store, spill_dir="/tmp/x")
        for bad in (5, "", ["/tmp/x"]):
            with pytest.raises(ParameterError, match="spill_dir"):
                EnumerationConfig(level_store="disk", spill_dir=bad)

    def test_incore_on_disk_substrate_accepts_spill_options(
        self, tmp_path
    ):
        g = erdos_renyi(30, 0.3, seed=6)
        res = run_enumeration(
            g,
            EnumerationConfig(
                backend="incore",
                k_min=2,
                level_store="disk",
                spill_dir=str(tmp_path),
            ),
        )
        ref = run_enumeration(g, EnumerationConfig(k_min=2))
        assert sorted(res.cliques) == sorted(ref.cliques)
        assert res.io is not None and res.io.bytes_written > 0
        assert list(tmp_path.glob("*.spill")) == []

    def test_ooc_on_wah_substrate_reports_no_io(self):
        """The out-of-core mode's I/O counters belong to the disk
        store: the same run on the wah store reports none."""
        g = erdos_renyi(25, 0.3, seed=7)
        res = run_enumeration(
            g,
            EnumerationConfig(backend="incore", k_min=2, level_store="wah"),
        )
        assert res.io is None


class TestWahRuns:
    @pytest.fixture(scope="class")
    def sparse(self):
        g, _ = overlapping_cliques(
            400, [9, 8, 8, 7], 3, p=0.01, seed=13
        )
        return g

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_wah_matches_memory_cliques(self, backend, sparse):
        ref = ENGINE.run(sparse, EnumerationConfig(k_min=3))
        res = ENGINE.run(
            sparse,
            EnumerationConfig(
                backend=backend, k_min=3, level_store="wah"
            ),
        )
        assert sorted(res.cliques) == sorted(ref.cliques)

    def test_wah_shrinks_the_figure9_peak(self, sparse):
        mem = ENGINE.run(
            sparse, EnumerationConfig(k_min=3, level_store="memory")
        )
        wah = ENGINE.run(
            sparse, EnumerationConfig(k_min=3, level_store="wah")
        )
        # N[k]/M[k] are substrate-independent; bytes are what shrink
        assert [
            (s.k, s.n_sublists, s.n_candidates) for s in mem.level_stats
        ] == [
            (s.k, s.n_sublists, s.n_candidates) for s in wah.level_stats
        ]
        assert 0 < wah.peak_candidate_bytes() < mem.peak_candidate_bytes()

    def test_wah_honours_byte_budget_on_compressed_footprint(self, sparse):
        from repro.errors import BudgetExceeded

        mem_peak = ENGINE.run(
            sparse, EnumerationConfig(k_min=3)
        ).peak_candidate_bytes()
        wah_peak = ENGINE.run(
            sparse, EnumerationConfig(k_min=3, level_store="wah")
        ).peak_candidate_bytes()
        # a budget between the two peaks kills the memory run but the
        # compressed run fits — the paper's whole point
        budget = (wah_peak + mem_peak) // 2
        with pytest.raises(BudgetExceeded):
            ENGINE.run(
                sparse,
                EnumerationConfig(k_min=3, max_candidate_bytes=budget),
            )
        res = ENGINE.run(
            sparse,
            EnumerationConfig(
                k_min=3, level_store="wah", max_candidate_bytes=budget
            ),
        )
        assert res.completed


class TestCacheKeyedByStore:
    def test_cache_distinguishes_level_store(self, triangle):
        cache = ResultCache()
        mem_cfg = EnumerationConfig(k_min=2)
        wah_cfg = EnumerationConfig(k_min=2, level_store="wah")
        first, hit1 = cache.run(ENGINE, triangle, mem_cfg)
        again, hit2 = cache.run(ENGINE, triangle, mem_cfg)
        other, hit3 = cache.run(ENGINE, triangle, wah_cfg)
        assert (hit1, hit2, hit3) == (False, True, False)
        assert again is first
        assert other is not first
        assert sorted(other.cliques) == sorted(first.cliques)
