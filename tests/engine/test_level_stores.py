"""Level-store substrate tests: the single-pass contract, the WAH
compressed store, and the ``level_store`` policy threading through
config, backends, facade, and cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import bitset as bs
from repro.core.compressed import WahBitmap
from repro.core.counters import OpCounters
from repro.core.generators import erdos_renyi, overlapping_cliques
from repro.core.sublist import CliqueSubList, CompressedSubList
from repro.engine import (
    LEVEL_STORES,
    CompressedLevelStore,
    DiskLevelStore,
    EnumerationConfig,
    EnumerationEngine,
    LevelStore,
    MemoryLevelStore,
    run_enumeration,
)
from repro.engine.level_loop import seed_level
from repro.errors import LevelStoreError, ParameterError
from repro.service.cache import ResultCache

ENGINE = EnumerationEngine()

#: every backend runs the shared level loop over a pluggable store.
STORE_BACKENDS = ("incore", "bitscan", "threads")


def _sl(prefix, tails, n=256):
    return CliqueSubList(
        prefix=tuple(prefix),
        tails=np.asarray(tails, dtype=np.int64),
        cn_words=bs.indices_to_words(tails, n),
    )


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
        assert wah.uncompressed_bytes == mem.candidate_bytes
        # the sparse 256-bit cn strings compress below the raw bytes
        assert wah.candidate_bytes < mem.candidate_bytes
        assert wah.compression_ratio() > 1

    def test_stream_roundtrips_sublists(self):
        store = CompressedLevelStore()
        items = [_sl([0], [1, 2]), _sl([1], [2, 3, 4]), _sl([2], [5, 9])]
        for sl in items:
            store.append(sl)
        streamed = [sl for chunk in store.stream() for sl in chunk]
        assert len(streamed) == len(items)
        for got, want in zip(streamed, items):
            assert got.prefix == want.prefix
            assert np.array_equal(got.tails, want.tails)
            assert np.array_equal(got.cn_words, want.cn_words)

    def test_stream_chunks_bound_decompression(self):
        store = CompressedLevelStore(chunk_size=2)
        for i in range(5):
            store.append(_sl([i], [i + 1, i + 2]))
        chunks = [len(c) for c in store.stream()]
        assert chunks == [2, 2, 1]

    def test_empty_store_streams_nothing(self):
        assert list(CompressedLevelStore().stream()) == []

    def test_invalid_chunk_size(self):
        with pytest.raises(ParameterError):
            CompressedLevelStore(chunk_size=0)

    @pytest.mark.parametrize(
        "stream", ["stream", "stream_entries", "stream_batches"]
    )
    def test_mixed_appends_stream_in_insertion_order(self, stream):
        """Raw appends wait in a buffer for batch encoding; batches
        stored meanwhile must not overtake them."""
        from repro.core.sublist import CompressedLevelBatch

        store = CompressedLevelStore()
        store.append(_sl([0], [1, 2]))
        store.append(_sl([1], [2, 3]))
        store.append_batch(
            CompressedLevelBatch.from_sublists([_sl([2], [3, 4])])
        )
        store.append(_sl([3], [4, 5]))
        store.append_batch(
            CompressedLevelBatch.from_sublists([_sl([4], [5, 6])])
        )
        store.append(_sl([5], [6, 7]))
        prefixes = [
            prefix
            for chunk in getattr(store, stream)()
            for prefix in (
                chunk.prefixes
                if isinstance(chunk, CompressedLevelBatch)
                else [sl.prefix for sl in chunk]
            )
        ]
        assert prefixes == [(i,) for i in range(6)]

    def test_entries_are_compressed_sublists(self):
        store = CompressedLevelStore()
        store.append(_sl([0], [1, 2]))
        ((entry,),) = store.stream_entries()
        assert isinstance(entry, CompressedSubList)
        assert len(entry) == 2
        # the CN string stays compressed; tails are the index array
        assert entry.cn.count() == 2
        assert entry.tails.dtype == np.int64
        assert entry.tails.tolist() == [1, 2]
        assert list(entry.cn.iter_indices()) == [1, 2]

    def test_stores_differ_only_in_the_cn_term(self):
        """The wah store charges exactly what the memory store does,
        with each raw CN string replaced by its WAH words: tails,
        prefixes and pointers are held once, as indices."""
        g, _ = overlapping_cliques(
            300, [9, 8, 7], overlap=3, p=0.02, seed=4
        )
        _, seed = seed_level(g, 2, OpCounters(), lambda c: None)
        mem, wah = MemoryLevelStore(), CompressedLevelStore(chunk_size=7)
        for sl in seed:
            mem.append(sl)
            wah.append(sl)
        raw_cn = sum(sl.cn_words.nbytes for sl in seed)
        wah_cn = sum(
            WahBitmap.from_words(sl.cn_words).nbytes() for sl in seed
        )
        assert len(seed) > 7
        assert wah.candidate_bytes == (
            mem.candidate_bytes - raw_cn + wah_cn
        )
        assert wah.uncompressed_bytes == mem.candidate_bytes


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
