"""Tests for trace recording and machine-replay simulation."""

from __future__ import annotations

import pytest

from repro.core.clique_enumerator import (
    build_initial_sublists,
    build_sublists_from_k_cliques,
    enumerate_maximal_cliques,
    generate_next_level,
)
from repro.core.counters import OpCounters
from repro.core.generators import erdos_renyi, planted_partition
from repro.core.kclique import enumerate_k_cliques
from repro.errors import ParameterError
from repro.parallel.machine import MachineSpec
from repro.parallel.parallel_enumerator import (
    EnumerationTrace,
    TraceItem,
    record_trace,
    simulate_processor_sweep,
    simulate_run,
)


def reference_record_trace(g, k_min=2, k_max=None):
    """The per-sub-list recording loop (one step call per sub-list) that
    the one-expansion-per-level recording replaced."""
    k_min = max(2, k_min)
    trace = EnumerationTrace(
        n_vertices=g.n, k_min=k_min, k_max=k_max, seed_work=0
    )
    emit = trace.cliques.append
    seed_counters = OpCounters()
    if k_min == 2:
        sublists = build_initial_sublists(g, seed_counters, emit, True)
    else:
        kres = enumerate_k_cliques(g, k_min, seed_counters)
        for clique in kres.maximal:
            emit(clique)
        sublists = build_sublists_from_k_cliques(
            g, k_min, kres.non_maximal, seed_counters
        )
    trace.seed_work = seed_counters.total_work()
    ids = list(range(len(sublists)))
    next_id = len(sublists)
    parent_of = {}
    k = k_min
    while sublists and (k_max is None or k < k_max):
        records, new_sublists, new_ids = [], [], []
        for sl, sl_id in zip(sublists, ids):
            c = OpCounters()
            before = len(trace.cliques)
            children = generate_next_level([sl], g, c, emit)
            records.append(TraceItem(
                item_id=sl_id, level=k,
                parent_id=parent_of.get(sl_id, -1),
                estimate=sl.work_estimate(), work=c.total_work(),
                n_tails=len(sl),
                maximal_emitted=len(trace.cliques) - before,
            ))
            for ch in children:
                parent_of[next_id] = sl_id
                new_sublists.append(ch)
                new_ids.append(next_id)
                next_id += 1
        trace.levels.append(records)
        trace.level_ks.append(k)
        sublists, ids, k = new_sublists, new_ids, k + 1
    trace.total_maximal = len(trace.cliques)
    return trace


@pytest.fixture(scope="module")
def workload():
    g, _ = planted_partition(
        120, [12, 10, 10, 8, 8], p_in=0.95, p_out=0.03, seed=17
    )
    return g


@pytest.fixture(scope="module")
def trace(workload):
    return record_trace(workload, k_min=3)


@pytest.fixture(scope="module")
def spec():
    return MachineSpec(n_processors=1, seconds_per_work_unit=1e-6)


class TestRecordTrace:
    @pytest.mark.parametrize("k_min, k_max", [
        (2, None), (3, None), (4, 6), (6, None),
    ])
    def test_matches_one_step_call_per_sub_list(
        self, workload, k_min, k_max
    ):
        got = record_trace(workload, k_min=k_min, k_max=k_max)
        assert got == reference_record_trace(workload, k_min, k_max)

    def test_empty_seed(self):
        g = erdos_renyi(12, 0.0, seed=1)
        assert record_trace(g, k_min=3) == reference_record_trace(g, 3)

    def test_output_matches_sequential(self, workload, trace):
        seq = enumerate_maximal_cliques(workload, k_min=3)
        assert sorted(trace.cliques) == sorted(seq.cliques)
        assert trace.total_maximal == len(seq.cliques)

    def test_levels_consecutive(self, trace):
        assert trace.level_ks == sorted(trace.level_ks)
        for a, b in zip(trace.level_ks, trace.level_ks[1:]):
            assert b == a + 1

    def test_work_positive(self, trace):
        assert trace.seed_work > 0
        assert trace.total_work() > trace.seed_work

    def test_parentage_valid(self, trace):
        known = {-1} | {
            r.item_id for lv in trace.levels for r in lv
        }
        for li, lv in enumerate(trace.levels):
            for r in lv:
                assert r.parent_id in known
                if li == 0:
                    assert r.parent_id == -1
                else:
                    assert r.parent_id >= 0

    def test_invalid_range(self, workload):
        with pytest.raises(ParameterError):
            record_trace(workload, k_min=5, k_max=4)

    def test_k_min_promoted_to_2(self):
        g = erdos_renyi(15, 0.3, seed=0)
        t = record_trace(g, k_min=1)
        assert t.k_min == 2

    def test_k_max_respected(self, workload):
        t = record_trace(workload, k_min=3, k_max=5)
        assert max(t.level_ks) < 5 or not t.level_ks
        assert all(len(c) <= 5 for c in t.cliques)


class TestSimulateRun:
    def test_single_processor_time_is_total_work(self, trace, spec):
        run = simulate_run(trace, spec)
        busy = run.clock.total_busy()
        assert busy == pytest.approx(
            trace.total_work() * spec.seconds_per_work_unit, rel=1e-9
        )

    def test_more_processors_not_slower_at_low_p(self, trace, spec):
        t1 = simulate_run(trace, spec.with_processors(1)).elapsed_seconds
        t2 = simulate_run(trace, spec.with_processors(2)).elapsed_seconds
        assert t2 < t1

    def test_speedup_at_most_ideal(self, trace, spec):
        t1 = simulate_run(trace, spec.with_processors(1)).elapsed_seconds
        for p in (2, 4, 8):
            tp = simulate_run(trace, spec.with_processors(p)).elapsed_seconds
            assert t1 / tp <= p + 1e-9

    def test_deterministic(self, trace, spec):
        a = simulate_run(trace, spec.with_processors(8))
        b = simulate_run(trace, spec.with_processors(8))
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.n_transfers == b.n_transfers

    def test_no_balance_never_faster(self, trace, spec):
        """Balancing must help (or tie) on every processor count."""
        for p in (2, 4, 8, 16):
            bal = simulate_run(
                trace, spec.with_processors(p), balance=True
            ).elapsed_seconds
            raw = simulate_run(
                trace, spec.with_processors(p), balance=False
            ).elapsed_seconds
            assert bal <= raw * 1.05, f"p={p}: balanced {bal} vs raw {raw}"

    def test_per_level_records(self, trace, spec):
        run = simulate_run(trace, spec.with_processors(4))
        levels = run.per_level()
        # seed level + one record per trace level
        assert len(levels) == len(trace.levels) + 1
        for lv in levels:
            assert len(lv.busy_seconds) == 4
            assert lv.wall_seconds >= max(lv.busy_seconds)

    def test_efficiency_bounded(self, trace, spec):
        t1 = simulate_run(trace, spec.with_processors(1))
        run = simulate_run(trace, spec.with_processors(4))
        eff = run.efficiency(t1.elapsed_seconds)
        assert 0.0 < eff <= 1.0 + 1e-9


class TestSweep:
    def test_sweep_contains_all_counts(self, trace, spec):
        runs = simulate_processor_sweep(trace, spec, [1, 2, 4])
        assert sorted(runs) == [1, 2, 4]
        assert all(r.elapsed_seconds > 0 for r in runs.values())

    def test_sync_dominates_eventually(self, trace):
        """With brutal sync costs, more processors must hurt."""
        expensive = MachineSpec(
            n_processors=1,
            seconds_per_work_unit=1e-9,
            sync_seconds_per_processor=1e-2,
        )
        runs = simulate_processor_sweep(trace, expensive, [1, 256])
        assert runs[256].elapsed_seconds > runs[1].elapsed_seconds
