"""Unit tests for the engine layer: config, registry, stores, facade."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import bitset as bs
from repro.core import out_of_core
from repro.core.generators import complete_graph, erdos_renyi
from repro.core.sublist import CliqueSubList, LevelArrays
from repro.engine import (
    DiskLevelStore,
    EnumerationConfig,
    EnumerationEngine,
    LevelStore,
    MemoryLevelStore,
    available_backends,
    backend_table,
    get_backend,
    register_backend,
    run_enumeration,
    unregister_backend,
)
from repro.engine.config import MAX_JOBS
from repro.errors import BudgetExceeded, ConfigError, ParameterError


def _sl(prefix, tails, n=32):
    """A one-sub-list level chunk whose CN string is its tails."""
    return LevelArrays.from_sublists([
        CliqueSubList(
            prefix=tuple(prefix),
            tails=np.asarray(tails, dtype=np.int64),
            cn_words=bs.indices_to_words(tails, n),
        )
    ])


def _key(level):
    return [
        (sl.prefix, sl.tails.tolist(), sl.cn_words.tobytes())
        for sl in level.to_sublists()
    ]


#: a non-default value of every EnumerationConfig field
_NON_DEFAULT = {
    "backend": "bitscan",
    "k_min": 3,
    "k_max": 5,
    "max_cliques": 10,
    "max_candidate_bytes": 1 << 20,
    "jobs": 2,
    "level_store": "wah",
    "spill_dir": "/tmp/spill",
}


class TestConfig:
    def test_defaults(self):
        cfg = EnumerationConfig()
        assert cfg.backend == "incore"
        assert cfg.k_min == 1
        assert cfg.k_max is None
        assert cfg.level_store == "memory"

    def test_invalid_k_min(self):
        with pytest.raises(ParameterError):
            EnumerationConfig(k_min=0)

    def test_invalid_range(self):
        with pytest.raises(ParameterError):
            EnumerationConfig(k_min=5, k_max=4)

    def test_invalid_jobs(self):
        with pytest.raises(ParameterError):
            EnumerationConfig(jobs=0)

    def test_jobs_bounded(self):
        # configs only: a run at the bound would start that many threads
        cfg = EnumerationConfig(backend="threads", jobs=MAX_JOBS)
        assert cfg.jobs == MAX_JOBS
        with pytest.raises(ParameterError, match="jobs"):
            EnumerationConfig(backend="threads", jobs=MAX_JOBS + 1)

    def test_invalid_backend_name(self):
        with pytest.raises(ParameterError):
            EnumerationConfig(backend="")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EnumerationConfig().k_min = 2

    def test_hashable(self):
        a = EnumerationConfig(level_store="disk", spill_dir="/tmp/a")
        b = EnumerationConfig(level_store="disk", spill_dir="/tmp/a")
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_hash_fallback_still_usable_as_dict_key(self):
        cfg = EnumerationConfig(level_store="disk", spill_dir="/tmp/a")
        table = {cfg: "cached"}
        same = EnumerationConfig(level_store="disk", spill_dir="/tmp/a")
        assert table[same] == "cached"

    @pytest.mark.parametrize("bad", [2.5, True, "3"])
    @pytest.mark.parametrize(
        "name",
        ["k_min", "k_max", "max_cliques", "max_candidate_bytes", "jobs"],
    )
    def test_int_fields_refuse_non_ints(self, name, bad):
        with pytest.raises(ParameterError, match=name):
            EnumerationConfig(**{name: bad})

    def test_numpy_ints_normalised(self):
        cfg = EnumerationConfig(k_min=np.int64(3), k_max=np.int32(5))
        assert type(cfg.k_min) is int and type(cfg.k_max) is int
        assert cfg == EnumerationConfig(k_min=3, k_max=5)

    @pytest.mark.parametrize(
        "field", dataclasses.fields(EnumerationConfig), ids=lambda f: f.name
    )
    def test_every_field_is_part_of_identity(self, field, triangle):
        """Each field changes equality, hash and the result-cache key,
        and survives the wire: a new field needs a value here."""
        from repro.service.cache import ResultCache
        from repro.service.protocol import (
            config_from_payload,
            config_to_payload,
            decode_line,
            encode_line,
        )

        base = EnumerationConfig(
            level_store="disk" if field.name == "spill_dir" else "memory"
        )
        other = dataclasses.replace(
            base, **{field.name: _NON_DEFAULT[field.name]}
        )
        assert other != base
        assert hash(other) != hash(base)
        wire = decode_line(encode_line(config_to_payload(other)))
        assert config_from_payload(wire) == other
        assert ResultCache.key(triangle, other) != ResultCache.key(
            triangle, base
        )

    def test_jobs_rejected_by_sequential_backends(self, triangle):
        for backend in ("incore", "bitscan"):
            with pytest.raises(ConfigError, match="sequential"):
                run_enumeration(
                    triangle,
                    EnumerationConfig(backend=backend, jobs=2),
                )


class TestResolveForBackend:
    def test_unsupported_store_raises_config_error(self):
        """Every backend runs every store; the one policy a backend can
        refuse is ``jobs``, and only a sequential one refuses it."""
        from repro.engine import resolve_for_backend

        @register_backend("test-sequential")
        def run_sequential(g, config, on_clique=None):
            """Never dispatched in this test."""

        try:
            with pytest.raises(ConfigError) as exc:
                resolve_for_backend(
                    EnumerationConfig(
                        backend="test-sequential", level_store="wah",
                        jobs=2,
                    ),
                    get_backend("test-sequential"),
                )
        finally:
            unregister_backend("test-sequential")
        assert str(exc.value) == (
            "backend 'test-sequential' is sequential; jobs is only "
            "valid for parallel backends (see `repro engines`)"
        )

    def test_supported_store_passes_through(self):
        from repro.engine import resolve_for_backend

        cfg = EnumerationConfig(backend="incore", level_store="wah")
        assert resolve_for_backend(cfg, get_backend("incore")) is cfg


class TestRegistry:
    def test_builtins_registered(self):
        assert {"incore", "bitscan", "threads"} <= set(
            available_backends()
        )
        assert "ooc" not in available_backends()

    def test_unknown_backend(self):
        with pytest.raises(ParameterError, match="unknown backend"):
            get_backend("does-not-exist")

    def test_unknown_backend_via_run(self, triangle):
        with pytest.raises(ParameterError, match="available"):
            run_enumeration(
                triangle, EnumerationConfig(backend="does-not-exist")
            )

    def test_register_and_unregister(self, triangle):
        @register_backend("test-null", description="no-op test backend")
        def run_null(g, config, on_clique=None):
            """No-op backend for registry tests."""
            from repro.core.clique_enumerator import EnumerationResult

            return EnumerationResult(backend="test-null")

        try:
            assert "test-null" in available_backends()
            res = run_enumeration(
                triangle, EnumerationConfig(backend="test-null")
            )
            assert res.backend == "test-null"
        finally:
            unregister_backend("test-null")
        assert "test-null" not in available_backends()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ParameterError, match="already registered"):
            register_backend("incore", lambda g, c, s: None)

    def test_backend_table_entries(self):
        table = backend_table()
        names = [info.name for info in table]
        assert names == sorted(names)
        assert [f.name for f in dataclasses.fields(table[0])] == [
            "name", "runner", "description", "parallel",
        ]
        threads = next(info for info in table if info.name == "threads")
        assert threads.parallel


class TestLevelStores:
    def test_memory_store_accounting(self):
        store = MemoryLevelStore()
        store.append(_sl([0], [1, 2]))
        store.append(_sl([1], [2, 3, 4]))
        assert len(store) == 2
        assert store.n_sublists == 2
        assert store.n_candidates == 5
        assert store.candidate_bytes > 0

    def test_memory_store_single_chunk(self):
        store = MemoryLevelStore()
        items = [_sl([0], [1, 2]), _sl([1], [2, 3])]
        for sl in items:
            store.append(sl)
        chunks = list(store.stream())
        assert len(chunks) == 1
        assert _key(chunks[0]) == [k for sl in items for k in _key(sl)]

    def test_empty_memory_store_streams_nothing(self):
        assert list(MemoryLevelStore().stream()) == []

    def test_disk_store_is_level_store(self, tmp_path):
        assert issubclass(DiskLevelStore, LevelStore)
        with DiskLevelStore(tmp_path) as store:
            assert isinstance(store, LevelStore)

    def test_disk_store_accounting_matches_memory(self, tmp_path):
        mem, disk = MemoryLevelStore(), DiskLevelStore(tmp_path)
        for sl in (_sl([0], [1, 2]), _sl([1], [2, 3, 4])):
            mem.append(sl)
            disk.append(sl)
        assert disk.n_sublists == mem.n_sublists
        assert disk.n_candidates == mem.n_candidates
        assert disk.candidate_bytes == mem.candidate_bytes
        disk.close()


class TestFacade:
    def test_default_config(self, triangle):
        res = EnumerationEngine().run(triangle)
        assert res.cliques == [(0, 1, 2)]
        assert res.backend == "incore"

    def test_engine_level_default_config(self, triangle):
        engine = EnumerationEngine(EnumerationConfig(backend="bitscan"))
        assert engine.run(triangle).backend == "bitscan"

    def test_per_call_config_overrides(self, triangle):
        engine = EnumerationEngine(EnumerationConfig(backend="bitscan"))
        res = engine.run(triangle, EnumerationConfig(backend="incore"))
        assert res.backend == "incore"

    def test_backends_listing(self):
        assert EnumerationEngine.backends() == available_backends()

    def test_wall_seconds_measured(self):
        res = run_enumeration(erdos_renyi(20, 0.3, seed=1))
        assert res.wall_seconds > 0

    def test_max_cliques_budget_across_backends(self):
        g = erdos_renyi(30, 0.5, seed=1)
        for backend, store in (
            ("incore", "memory"), ("bitscan", "memory"), ("incore", "disk")
        ):
            with pytest.raises(BudgetExceeded):
                run_enumeration(
                    g,
                    EnumerationConfig(
                        backend=backend, k_min=2, max_cliques=3,
                        level_store=store,
                    ),
                )

    def test_memory_budget_on_disk_backend(self):
        g = complete_graph(10)
        with pytest.raises(BudgetExceeded):
            run_enumeration(
                g,
                EnumerationConfig(
                    level_store="disk", k_min=2, max_candidate_bytes=10
                ),
            )

    def test_ooc_reports_io(self):
        g = erdos_renyi(25, 0.35, seed=2)
        res = run_enumeration(g, EnumerationConfig(level_store="disk"))
        assert res.io is not None
        assert res.io.bytes_written > 0
        assert res.io.bytes_read > 0

    def test_ooc_shared_directory_across_levels(
        self, tmp_path, monkeypatch
    ):
        """Consecutive levels spill into one directory without the next
        level's writer truncating the file the current level streams."""
        # small records, so the next level flushes while this one streams
        monkeypatch.setattr(out_of_core, "RECORD_ROWS", 4)
        current = DiskLevelStore(tmp_path)
        for i in range(10):
            current.append(_sl([i], [i + 1, i + 2]))
        following = DiskLevelStore(tmp_path)
        streamed = []
        for chunk in current.stream():
            streamed.extend(sl.prefix for sl in chunk.to_sublists())
            for sl in chunk.to_sublists():
                following.append(_sl(sl.prefix + (0,), [31]))
        assert streamed == [(i,) for i in range(10)]
        assert len(list(following.stream())) == 3
        # and the facade threads spill_dir through to the disk store
        g = erdos_renyi(120, 0.25, seed=9)
        cfg = EnumerationConfig(
            level_store="disk",
            k_min=2,
            spill_dir=str(tmp_path),
        )
        res = run_enumeration(g, cfg)
        ref = run_enumeration(g, EnumerationConfig(k_min=2))
        assert sorted(res.cliques) == sorted(ref.cliques)
        assert list(tmp_path.glob("*.spill")) == []

    def test_level_stats_match_across_store_backends(self):
        g = erdos_renyi(25, 0.35, seed=3)
        incore = run_enumeration(
            g, EnumerationConfig(backend="incore", k_min=2)
        )
        ooc = run_enumeration(
            g, EnumerationConfig(backend="incore", k_min=2, level_store="disk")
        )
        assert incore.level_stats == ooc.level_stats
