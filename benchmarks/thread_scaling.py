"""Record the ``threads`` backend's worker-scaling curve.

Runs the committed regression workload (the same one the speed and WAH
baselines gate) through the ``threads`` backend at a sweep of worker
counts and prints median wall-clock, speedup over one worker, stolen
sub-list ranges, and whether the worker pool ran, per point.  Every
point must emit exactly the clique sequence and operation counters of
the first (``jobs=1`` by default), or the script exits non-zero.  The
timings are **recorded, not gated**: scaling depends on the physical
core count of the host, which CI cannot pin, so the curve is evidence,
not a pass/fail check — CI runs this on its multi-core runner and the
latest curve is transcribed into ``ROADMAP.md``.

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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, nargs="+", default=[1, 2, 4, 8],
        help="worker counts to sweep (default: 1 2 4 8)",
    )
    args = parser.parse_args(argv)

    g, _ = overlapping_cliques(
        WORKLOAD["n"],
        WORKLOAD["clique_sizes"],
        WORKLOAD["overlap"],
        p=WORKLOAD["p"],
        seed=WORKLOAD["seed"],
    )
    engine = EnumerationEngine()
    print(f"host cpu_count={os.cpu_count()}  workload n={WORKLOAD['n']}")
    base = None
    reference = None
    reference_counters = None
    for jobs in args.jobs:
        config = EnumerationConfig(
            k_min=WORKLOAD["k_min"],
            backend="threads",
            jobs=jobs,
            level_store="wah",
        )
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            result = engine.run(g, config)
            times.append(time.perf_counter() - t0)
        counters = result.counters.snapshot()
        if reference is None:
            reference, reference_counters = result.cliques, counters
        elif result.cliques != reference:
            raise SystemExit(f"clique sequence diverged at jobs={jobs}")
        elif counters != reference_counters:
            raise SystemExit(f"operation counters diverged at jobs={jobs}")
        median = statistics.median(times)
        if base is None:
            base = median
        pool = "ran" if result.load_balance is not None else "not started"
        print(
            f"jobs={jobs}: median {median:.4f}s  "
            f"speedup x{base / median:.2f}  "
            f"stolen ranges {result.transfers}  pool {pool}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
