"""Parallel clique enumeration: simulated Altix sweep + real threads.

Demonstrates both halves of the parallel substrate:

1. the trace-replay simulation of the paper's 256-processor SGI Altix —
   record the enumeration once, replay it at any processor count, and
   print the speedup/balance tables of Figures 5–8;
2. the real ``threads`` backend executing the identical
   level-synchronous algorithm on this machine's cores — selected, like
   its sequential siblings, by backend name through the unified
   enumeration engine.

Run:  python examples/parallel_scaling.py
"""

import threading
import time

from repro.core.generators import planted_partition
from repro.engine import EnumerationConfig, EnumerationEngine
from repro.parallel import (
    MachineSpec,
    load_balance_stats,
    record_trace,
    simulate_processor_sweep,
    speedup_table,
)


def main() -> None:
    g, _ = planted_partition(
        400, [16, 14, 13, 12, 11, 10, 9], p_in=0.95, p_out=0.015, seed=3
    )
    print(f"workload: {g}")

    # --- trace once, simulate any processor count ------------------------
    trace = record_trace(g, k_min=3)
    print(
        f"trace: {sum(len(l) for l in trace.levels)} sub-list expansions "
        f"over {len(trace.levels)} levels, "
        f"{trace.total_maximal} maximal cliques"
    )
    spec = MachineSpec(n_processors=1, seconds_per_work_unit=2e-7)
    runs = simulate_processor_sweep(
        trace, spec, [1, 2, 4, 8, 16, 32, 64, 128, 256]
    )
    print("\nsimulated Altix (virtual seconds):")
    print(f"{'p':>4} {'T(p)':>10} {'speedup':>8} {'efficiency':>10}")
    for p, tp, sp, eff in speedup_table(runs):
        print(f"{p:>4} {tp:>10.4f} {sp:>8.1f} {eff:>10.2f}")

    stats = load_balance_stats(runs[16])
    print(
        f"load balance at p=16: std/mean = {stats.std_over_mean:.1%}, "
        f"{stats.n_transfers} transfers (paper bound: 10%)"
    )

    # --- real threads on this host --------------------------------------
    # First measure what the host can deliver at all: two threads
    # burning GIL-releasing numpy concurrently.  Containers often cap
    # CPU bandwidth below the visible core count.
    host_scaling = _raw_two_thread_scaling()
    print(
        f"\nhost parallel capacity: 2-thread raw numpy scaling = "
        f"{host_scaling:.2f}x (ideal 2.0)"
    )

    print("real threads backend (shared-memory workers, work stealing):")
    engine = EnumerationEngine()
    seq = engine.run(g, EnumerationConfig(backend="incore", k_min=3))
    par = engine.run(
        g, EnumerationConfig(backend="threads", k_min=3, jobs=2)
    )

    assert sorted(seq.cliques) == sorted(par.cliques)
    print(
        f"  sequential: {seq.wall_seconds:.2f}s   "
        f"{par.n_workers} workers: {par.wall_seconds:.2f}s"
    )
    print(
        f"  identical output ({len(seq.cliques)} maximal cliques), "
        f"{par.transfers} stolen sub-list ranges; wall-clock ratio "
        f"{seq.wall_seconds / par.wall_seconds:.2f}x against a host "
        f"ceiling of {host_scaling:.2f}x"
    )


def _burn() -> None:
    import numpy as np

    a = np.arange(2_000_000, dtype=np.uint64)
    for _ in range(40):
        np.bitwise_count(a & np.uint64(0x5555555555555555)).sum()


def _raw_two_thread_scaling() -> float:
    """Measured speedup of two concurrent numpy burner threads vs one."""
    t0 = time.perf_counter()
    _burn()
    single = time.perf_counter() - t0
    workers = [threading.Thread(target=_burn) for _ in range(2)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    double = time.perf_counter() - t0
    return 2 * single / double if double > 0 else 1.0


if __name__ == "__main__":
    main()
