"""Record the ``threads`` backend's worker-scaling curves.

Runs two workloads through the ``threads`` backend on the ``wah`` store
at a sweep of worker counts and prints median wall-clock, speedup over
the first point, stolen sub-list ranges, and whether the worker pool
ran, per point:

* ``regression`` — the committed workload the speed and WAH baselines
  gate.  Every level of it is one range, so it runs on the calling
  thread and never starts the pool;
* ``fan-out`` — three larger planted cliques (20, 17 and 15 vertices)
  on the same background, whose levels cut into several ranges each
  (9 levels into 42 ranges at ``--jobs 2``), so the pool runs.

Every point must emit exactly the clique sequence and operation
counters of its curve's first point (``jobs=1`` by default), or the
script exits non-zero, so the fan-out curve checks the pool path
against the sequential step.  Each curve starts with one untimed run
at its first point, so the first timed point does not carry the
process's cold start (which read as a x1.4 "speedup" of an identical
``jobs=1`` point).  The timings are **recorded, not gated**:
scaling depends on the physical core count of the host, which CI
cannot pin, so the curves are evidence, not a pass/fail check — CI
runs this on its multi-core runner and the latest curves are
transcribed into ``ROADMAP.md``.

Usage::

    PYTHONPATH=src python benchmarks/thread_scaling.py [--jobs 1 2 4 8]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check_wah_baseline import WORKLOAD  # noqa: E402 — shared workload

from repro.core.generators import overlapping_cliques  # noqa: E402
from repro.engine import EnumerationConfig, EnumerationEngine  # noqa: E402

REPEATS = 3

#: name -> workload; ``fan-out`` is the regression workload's
#: background with cliques large enough that its levels fan out.
CURVES = {
    "regression": WORKLOAD,
    "fan-out": {**WORKLOAD, "clique_sizes": [20, 17, 15]},
}


def scaling_curve(
    engine: EnumerationEngine, name: str, workload: dict, jobs_sweep
) -> None:
    """Print one workload's curve; exit non-zero on any divergence
    from the first point's cliques or counters."""
    g, _ = overlapping_cliques(
        workload["n"],
        workload["clique_sizes"],
        workload["overlap"],
        p=workload["p"],
        seed=workload["seed"],
    )
    print(f"{name}: n={workload['n']} cliques {workload['clique_sizes']}")
    base = None
    reference = None
    reference_counters = None
    configs = [
        EnumerationConfig(
            k_min=workload["k_min"],
            backend="threads",
            jobs=jobs,
            level_store="wah",
        )
        for jobs in jobs_sweep
    ]
    engine.run(g, configs[0])  # warm-up: untimed
    for jobs, config in zip(jobs_sweep, configs):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            result = engine.run(g, config)
            times.append(time.perf_counter() - t0)
        counters = result.counters.snapshot()
        if reference is None:
            reference, reference_counters = result.cliques, counters
        elif result.cliques != reference:
            raise SystemExit(
                f"{name}: clique sequence diverged at jobs={jobs}"
            )
        elif counters != reference_counters:
            raise SystemExit(
                f"{name}: operation counters diverged at jobs={jobs}"
            )
        median = statistics.median(times)
        if base is None:
            base = median
        pool = "ran" if result.load_balance is not None else "not started"
        print(
            f"  jobs={jobs}: median {median:.4f}s  "
            f"speedup x{base / median:.2f}  "
            f"stolen ranges {result.transfers}  pool {pool}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, nargs="+", default=[1, 2, 4, 8],
        help="worker counts to sweep (default: 1 2 4 8)",
    )
    args = parser.parse_args(argv)
    engine = EnumerationEngine()
    print(f"host cpu_count={os.cpu_count()}")
    for name, workload in CURVES.items():
        scaling_curve(engine, name, workload, args.jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
