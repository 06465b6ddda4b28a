"""Level-synchronised multithreaded Clique Enumerator (paper Section 2.3).

The paper's parallel design: "The task scheduler divides all k-cliques
evenly to multiple threads and then signals them to start enumerating
(k+1)-cliques.  When all threads finish their work, they update their
results and wait for next start signal from the task scheduler.  The task
scheduler collects the results from threads, makes the load-balancing
decision, and redistributes the work."  Threads need no communication while
enumerating because sub-list expansions are independent; transfers pass
addresses and the receiving thread pays remote memory access.

Because only *timing* depends on the schedule (the algorithm's output is
schedule-invariant), the simulation splits into two phases:

1. :func:`record_trace` — run the real sequential algorithm once,
   measuring each sub-list's true work (the operations its expansion
   counts, tallied per sub-list by the level step), the
   scheduler-visible estimate, and the parent/child ownership structure.
2. :func:`simulate_run` — replay the trace on a
   :class:`~repro.parallel.machine.MachineSpec` at any processor count:
   per level, rebalance (centralised dynamic load balancer), charge each
   processor its items' virtual time (remote penalty for transferred
   items), then advance by the slowest processor plus the barrier cost.

One trace therefore yields the whole Figure 5/6/7 processor sweep — and
the per-processor busy times for Figure 8 — without re-running the
enumeration.  Genuine wall-clock parallelism is the engine's
``"threads"`` backend (:mod:`repro.parallel.thread_backend`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError
from repro.core.clique_enumerator import (
    LevelArrays,
    build_initial_sublists,
    build_sublists_from_k_cliques,
    expand_level,
)
from repro.core.counters import OpCounters
from repro.core.graph import Graph
from repro.core.kclique import enumerate_k_cliques
from repro.parallel.load_balancer import LoadBalancer, WorkItem
from repro.parallel.machine import LevelTiming, MachineSpec, VirtualClock

__all__ = [
    "TraceItem",
    "EnumerationTrace",
    "SimulatedRun",
    "record_trace",
    "simulate_run",
    "simulate_processor_sweep",
]


@dataclass(frozen=True)
class TraceItem:
    """Cost record for expanding one sub-list (level k -> k+1).

    ``estimate`` is what the scheduler sees before execution
    (:meth:`~repro.core.sublist.CliqueSubList.work_estimate`); ``work`` is
    the true counted work; ``parent_id`` identifies the sub-list whose
    expansion created this one (``-1`` for seed-level items).
    """

    item_id: int
    level: int
    parent_id: int
    estimate: int
    work: int
    n_tails: int
    maximal_emitted: int


@dataclass
class EnumerationTrace:
    """Complete work trace of one enumeration run.

    ``levels[i]`` holds the expansion records of the i-th processed level
    (clique size ``level_ks[i]``); ``seed_work`` is the work of building
    the first level (edge scan, or the Init_K k-clique enumeration), which
    the paper's framework also executes in parallel.
    """

    n_vertices: int
    k_min: int
    k_max: int | None
    seed_work: int
    levels: list[list[TraceItem]] = field(default_factory=list)
    level_ks: list[int] = field(default_factory=list)
    total_maximal: int = 0
    cliques: list[tuple[int, ...]] = field(default_factory=list)

    def total_work(self) -> int:
        """Seed plus all expansion work, in machine work units."""
        return self.seed_work + sum(
            it.work for lv in self.levels for it in lv
        )


@dataclass
class SimulatedRun:
    """Result of replaying a trace on a simulated machine."""

    spec: MachineSpec
    clock: VirtualClock
    n_transfers: int
    transferred_estimate: int
    balanced: bool

    @property
    def elapsed_seconds(self) -> float:
        """Simulated wall-clock of the whole run."""
        return self.clock.elapsed_seconds

    @property
    def n_processors(self) -> int:
        return self.spec.n_processors

    def per_level(self) -> list[LevelTiming]:
        """Level timing records (Figure 8 input)."""
        return self.clock.levels

    def efficiency(self, sequential_seconds: float) -> float:
        """Parallel efficiency against a sequential reference time."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return sequential_seconds / (
            self.elapsed_seconds * self.n_processors
        )


def record_trace(
    g: Graph, k_min: int = 2, k_max: int | None = None
) -> EnumerationTrace:
    """Run the real enumeration once, recording per-sub-list work.

    Parameters mirror
    :func:`~repro.core.clique_enumerator.enumerate_maximal_cliques`;
    ``k_min`` below 2 is promoted to 2 (isolated-vertex emission costs
    nothing schedulable).  The returned trace contains the emitted maximal
    cliques, so correctness can be cross-checked against the sequential
    driver.
    """
    k_min = max(2, k_min)
    if k_max is not None and k_max < k_min:
        raise ParameterError(f"k_max ({k_max}) must be >= k_min ({k_min})")
    trace = EnumerationTrace(
        n_vertices=g.n, k_min=k_min, k_max=k_max, seed_work=0
    )
    emit = trace.cliques.append

    seed_counters = OpCounters()
    if k_min == 2:
        sublists = build_initial_sublists(
            g, seed_counters, emit, emit_maximal_edges=True
        )
    else:
        kres = enumerate_k_cliques(g, k_min, seed_counters)
        for clique in kres.maximal:
            emit(clique)
        sublists = build_sublists_from_k_cliques(
            g, k_min, kres.non_maximal, seed_counters
        )
    trace.seed_work = seed_counters.total_work()

    # each level is expanded once; the step's per-sub-list tally gives
    # every item the work it would have counted expanded on its own
    n_words = g.adj.shape[1]
    level = (
        LevelArrays.from_sublists(sublists) if sublists
        else LevelArrays.empty(k_min, n_words)
    )
    ids = np.arange(len(level))
    parents = np.full(len(level), -1)
    k = k_min
    while len(level) and (k_max is None or k < k_max):
        tally = np.zeros((len(level), 4), dtype=np.int64)
        children = expand_level(level, g.adj, OpCounters(), emit, tally)
        generated, groups, maximal, n_children = tally.T
        t = np.diff(level.offsets)
        pairs = t * (t - 1) // 2
        work = OpCounters(
            pair_checks=pairs,
            cliques_generated=generated,
            bit_and_ops=generated + groups,
            bit_exist_checks=generated,
        ).total_work()
        estimate = pairs + t * max(1, n_words // 8)
        trace.levels.append([
            TraceItem(
                item_id=item, level=k, parent_id=parent, estimate=est,
                work=w, n_tails=n, maximal_emitted=mx,
            )
            for item, parent, est, w, n, mx in zip(
                ids.tolist(), parents.tolist(), estimate.tolist(),
                work.tolist(), t.tolist(), maximal.tolist(),
            )
        ])
        trace.level_ks.append(k)
        parents = np.repeat(ids, n_children)
        ids = ids[-1] + 1 + np.arange(len(children))
        level, k = children, k + 1
    # Final-level sub-lists (when k_max stopped the run) do no recorded
    # work; they are intentionally absent from the trace.
    trace.total_maximal = len(trace.cliques)
    return trace


def simulate_run(
    trace: EnumerationTrace,
    spec: MachineSpec,
    balance: bool = True,
    balancer_kwargs: dict | None = None,
) -> SimulatedRun:
    """Replay a trace on the simulated machine.

    Per level: (optionally) rebalance the work items, charge each
    processor its items — remote items pay the NUMA penalty — and advance
    the clock by the slowest processor plus the barrier cost.  Children
    inherit their creator's processor (the expansion writes them into its
    local memory), which is what makes rebalancing both necessary and
    costly — exactly the trade-off the paper discusses.
    """
    p = spec.n_processors
    balancer = LoadBalancer(p, trace.n_vertices, **(balancer_kwargs or {}))
    clock = VirtualClock()
    total_transfers = 0
    total_transferred = 0

    # Seed phase: first-level construction parallelises across vertices /
    # k-clique search subtrees; charge it evenly, with one barrier.
    if trace.seed_work:
        share = spec.work_seconds(trace.seed_work) / p
        clock.advance_level(
            LevelTiming(
                k=max(1, trace.k_min - 1),
                busy_seconds=tuple(share for _ in range(p)),
                sync_seconds=spec.sync_cost(),
                transfers=0,
                transferred_work=0,
            )
        )

    owner_of: dict[int, int] = {}
    # Observed cost ratios feed forward: the centralised scheduler saw
    # every item's execution time last level, so a child's estimate is
    # its static estimate scaled by its parent's observed true/estimate
    # ratio (children expand the same neighborhood their parent did).
    observed_ratio: dict[int, float] = {}
    for li, level in enumerate(trace.levels):
        items = [
            WorkItem(
                item_id=rec.item_id,
                estimate=max(
                    1,
                    int(
                        rec.estimate
                        * observed_ratio.get(rec.parent_id, 1.0)
                    ),
                ),
                true_work=rec.work,
                owner=owner_of.get(rec.item_id, 0),
                remote=False,
            )
            for rec in level
        ]
        for rec in level:
            observed_ratio[rec.item_id] = rec.work / max(1, rec.estimate)
        if li == 0:
            balancer.initial_distribution(items)
        if balance:
            decision = balancer.rebalance(items)
            total_transfers += decision.n_transfers
            total_transferred += decision.transferred_estimate
            level_transfers = decision.n_transfers
            level_transferred = decision.transferred_estimate
        else:
            level_transfers = 0
            level_transferred = 0
        busy = [0.0] * p
        executed_on: dict[int, int] = {}
        for item in items:
            busy[item.owner] += spec.work_seconds(
                item.true_work, remote=item.remote
            )
            executed_on[item.item_id] = item.owner
        clock.advance_level(
            LevelTiming(
                k=trace.level_ks[li],
                busy_seconds=tuple(busy),
                sync_seconds=spec.sync_cost(),
                transfers=level_transfers,
                transferred_work=level_transferred,
            )
        )
        # Children inherit the processor that expanded their parent.
        if li + 1 < len(trace.levels):
            for rec in trace.levels[li + 1]:
                owner_of[rec.item_id] = executed_on.get(rec.parent_id, 0)
    return SimulatedRun(
        spec=spec,
        clock=clock,
        n_transfers=total_transfers,
        transferred_estimate=total_transferred,
        balanced=balance,
    )


def simulate_processor_sweep(
    trace: EnumerationTrace,
    base_spec: MachineSpec,
    processor_counts: list[int],
    balance: bool = True,
) -> dict[int, SimulatedRun]:
    """Replay one trace at several processor counts (Figures 5–7)."""
    out: dict[int, SimulatedRun] = {}
    for p in processor_counts:
        out[p] = simulate_run(
            trace, base_spec.with_processors(p), balance=balance
        )
    return out
