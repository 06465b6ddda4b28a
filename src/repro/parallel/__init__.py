"""Parallel substrate: the simulated shared-memory machine and backends.

* :class:`~repro.parallel.machine.MachineSpec` /
  :class:`~repro.parallel.machine.VirtualClock` — the SGI Altix stand-in;
* :class:`~repro.parallel.load_balancer.LoadBalancer` — the paper's
  centralised dynamic load balancing policy;
* :func:`~repro.parallel.parallel_enumerator.record_trace` /
  :func:`~repro.parallel.parallel_enumerator.simulate_run` — trace-replay
  simulation of the multithreaded Clique Enumerator;
* :class:`~repro.parallel.thread_backend.ThreadedExpander` /
  :class:`~repro.parallel.load_balancer.StealingWorkQueue` — the
  shared-memory threaded substrate behind the engine's ``"threads"``
  backend: LPT-seeded worker threads with intra-level work stealing;
* :mod:`repro.parallel.metrics` — absolute/relative speedups and
  load-balance statistics as defined in the paper's Section 3.
"""

from repro.parallel.machine import (
    ALTIX_3700,
    LevelTiming,
    MachineSpec,
    VirtualClock,
)
from repro.parallel.load_balancer import (
    BalanceDecision,
    LoadBalancer,
    StealingWorkQueue,
    WorkItem,
)
from repro.parallel.parallel_enumerator import (
    EnumerationTrace,
    SimulatedRun,
    TraceItem,
    record_trace,
    simulate_processor_sweep,
    simulate_run,
)
from repro.parallel.thread_backend import (
    ThreadedExpander,
    resolve_worker_count,
)
from repro.parallel.metrics import (
    LoadBalanceStats,
    absolute_speedup,
    load_balance_stats,
    relative_speedups,
    speedup_table,
)

__all__ = [
    "ALTIX_3700",
    "MachineSpec",
    "VirtualClock",
    "LevelTiming",
    "LoadBalancer",
    "WorkItem",
    "BalanceDecision",
    "StealingWorkQueue",
    "ThreadedExpander",
    "resolve_worker_count",
    "EnumerationTrace",
    "TraceItem",
    "SimulatedRun",
    "record_trace",
    "simulate_run",
    "simulate_processor_sweep",
    "LoadBalanceStats",
    "absolute_speedup",
    "relative_speedups",
    "speedup_table",
    "load_balance_stats",
]
