"""Tests for the out-of-core level store and the out-of-core mode."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import out_of_core
from repro.core.clique_enumerator import enumerate_maximal_cliques
from repro.core.generators import erdos_renyi, planted_clique
from repro.core.out_of_core import DiskLevelStore, IOStats
from repro.core.sublist import CliqueSubList, LevelArrays
from repro.engine import EnumerationConfig, run_enumeration
from repro.errors import LevelStoreError, ParameterError


def _sl(prefix, tails, n=32):
    """A one-sub-list level chunk whose CN string is its tails."""
    from repro.core import bitset as bs

    return LevelArrays.from_sublists([
        CliqueSubList(
            prefix=tuple(prefix),
            tails=np.asarray(tails, dtype=np.int64),
            cn_words=bs.indices_to_words(tails, n),
        )
    ])


def _ooc(g, on_clique=None, **kw):
    """The paper's out-of-core mode: ``incore`` on the disk store."""
    kw.setdefault("k_min", 2)
    config = EnumerationConfig(backend="incore", level_store="disk", **kw)
    return run_enumeration(g, config, on_clique=on_clique)


class TestDiskLevelStore:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(out_of_core, "RECORD_ROWS", 2)
        with DiskLevelStore(tmp_path) as store:
            items = [_sl([0], [1, 2]), _sl([1], [2, 3]), _sl([2], [3, 4])]
            for sl in items:
                store.append(sl)
            assert len(store) == 3
            back = [
                sl for chunk in store.stream() for sl in chunk.to_sublists()
            ]
        assert [sl.prefix for sl in back] == [(0,), (1,), (2,)]
        assert all(
            np.array_equal(a.tails, b.tails)
            and np.array_equal(a.cn, [b.cn_words])
            for a, b in zip(items, back)
        )

    def test_empty_store_streams_nothing(self, tmp_path):
        with DiskLevelStore(tmp_path) as store:
            assert list(store.stream()) == []

    def test_io_stats_counted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(out_of_core, "RECORD_ROWS", 1)
        stats = IOStats()
        with DiskLevelStore(tmp_path, stats=stats) as store:
            store.append(_sl([0], [1, 2]))
            list(store.stream())
        assert stats.write_ops == 1
        assert stats.read_ops == 1
        assert stats.bytes_written > 0
        assert stats.bytes_read == stats.bytes_written
        assert stats.total_bytes == 2 * stats.bytes_written

    def test_chunking(self, tmp_path, monkeypatch):
        monkeypatch.setattr(out_of_core, "RECORD_ROWS", 4)
        stats = IOStats()
        with DiskLevelStore(tmp_path, stats=stats) as store:
            for i in range(10):
                store.append(_sl([i], [i + 1, i + 2]))
            chunks = list(store.stream())
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert stats.write_ops == 3
        # appends of several rows fill records across append boundaries
        level = [_sl([i], [i + 1, i + 2 + i % 3]) for i in range(11)]
        with DiskLevelStore(tmp_path) as store:
            for a, b in ((0, 1), (1, 6), (6, 8), (8, 11)):
                store.append(LevelArrays.concat(level[a:b]))
            chunks = list(store.stream())
        assert [len(c) for c in chunks] == [4, 4, 3]
        whole, back = LevelArrays.concat(level), LevelArrays.concat(chunks)
        for field in ("prefixes", "tails", "offsets", "cn"):
            assert np.array_equal(getattr(back, field), getattr(whole, field))

    def test_temp_dir_mode(self):
        with DiskLevelStore() as store:
            store.append(_sl([0], [1, 2]))
            assert len(list(store.stream())) == 1

    def _spilled(self, tmp_path, monkeypatch):
        """A store whose records are on disk, and its unread stream."""
        monkeypatch.setattr(out_of_core, "RECORD_ROWS", 1)
        store = DiskLevelStore(tmp_path)
        for i in range(3):
            store.append(_sl([i], [i + 1, i + 2]))
        chunks = store.stream()  # flushes and closes the spill file
        (path,) = tmp_path.glob("*.spill")
        return store, chunks, path

    def test_truncated_spill_raises(self, tmp_path, monkeypatch):
        store, chunks, path = self._spilled(tmp_path, monkeypatch)
        with path.open("r+b") as fh:
            fh.truncate(path.stat().st_size - 5)
        with pytest.raises(LevelStoreError, match="past the end"):
            list(chunks)
        store.close()
        assert list(tmp_path.glob("*.spill")) == []

    def test_header_disagreeing_with_length_raises(
        self, tmp_path, monkeypatch
    ):
        store, chunks, path = self._spilled(tmp_path, monkeypatch)
        with path.open("r+b") as fh:
            fh.seek(8)  # the first record's row count
            fh.write((2).to_bytes(8, "little"))
        with pytest.raises(LevelStoreError, match="disagrees"):
            list(chunks)
        store.close()


class TestOocDriver:
    """``incore`` + ``level_store="disk"``: every level spilled and
    re-read once, I/O counted, output identical to the in-core run."""

    def test_matches_in_core(self, seeded_er):
        in_core = enumerate_maximal_cliques(seeded_er, k_min=2)
        ooc = _ooc(seeded_er)
        assert sorted(ooc.cliques) == sorted(in_core.cliques)

    def test_io_traffic_positive(self):
        g, _ = planted_clique(50, 9, 0.1, seed=6)
        ooc = _ooc(g)
        assert ooc.io.bytes_written > 0
        assert ooc.io.bytes_read > 0

    def test_init_k_seeding(self):
        g, _ = planted_clique(40, 8, 0.12, seed=3)
        in_core = enumerate_maximal_cliques(g, k_min=4)
        ooc = _ooc(g, k_min=4)
        assert sorted(ooc.cliques) == sorted(in_core.cliques)

    def test_k_max(self):
        g = erdos_renyi(25, 0.4, seed=1)
        in_core = enumerate_maximal_cliques(g, k_min=2, k_max=3)
        ooc = _ooc(g, k_max=3)
        assert sorted(ooc.cliques) == sorted(in_core.cliques)
        assert ooc.completed == in_core.completed

    def test_callback_mode(self):
        g = erdos_renyi(20, 0.3, seed=2)
        seen: list[tuple[int, ...]] = []
        res = _ooc(g, on_clique=seen.append)
        assert res.cliques == []
        assert sorted(seen) == sorted(
            enumerate_maximal_cliques(g, k_min=2).cliques
        )

    def test_invalid_range(self):
        with pytest.raises(ParameterError):
            _ooc(erdos_renyi(5, 0.5, seed=0), k_min=4, k_max=3)

    def test_spilled_bytes_follow_the_level_alone(self):
        """Every backend spills the same records, so the same bytes:
        the levels here span several records, and a record mixes rows
        from different appended chunks."""
        g = erdos_renyi(120, 0.2, seed=1)
        runs = {
            backend: run_enumeration(g, EnumerationConfig(
                backend=backend, level_store="disk", k_min=1, **jobs
            ))
            for backend, jobs in (
                ("incore", {}), ("bitscan", {}), ("threads", {"jobs": 2}),
            )
        }
        assert max(s.n_sublists for s in runs["incore"].level_stats) > 256
        assert runs["bitscan"].io == runs["incore"].io
        assert runs["threads"].io == runs["incore"].io

    def test_explicit_directory(self, tmp_path):
        g = erdos_renyi(20, 0.35, seed=5)
        res = _ooc(g, spill_dir=str(tmp_path))
        assert res.io.bytes_written > 0
        # spill files are cleaned up after streaming
        assert list(tmp_path.glob("*.spill")) == []
