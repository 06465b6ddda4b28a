"""Command-line driver regenerating every table and figure.

Usage::

    python -m repro.experiments.runner            # everything
    python -m repro.experiments.runner table1 figure9
    python -m repro.experiments.runner table1 --backend bitscan

Each experiment prints its report; ``all`` (default) runs them in paper
order.  Regeneration is deterministic: workloads and traces are seeded
and cached.  ``--backend`` reruns the backend-aware experiments (those
that enumerate through :mod:`repro.engine`) on a different substrate.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.engine import backend_table
from repro.experiments import (
    ablations,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    maxclique_support,
    table1,
)

__all__ = ["EXPERIMENTS", "BACKEND_AWARE", "main"]

EXPERIMENTS = {
    "table1": table1.report,
    "maxclique": maxclique_support.report,
    "figure5": figure5.report,
    "figure6": figure6.report,
    "figure7": figure7.report,
    "figure8": figure8.report,
    "figure9": figure9.report,
    "figure9_stores": figure9.report_stores,
    "ablations": ablations.report,
}

#: experiments whose report() accepts a `backend` keyword.
BACKEND_AWARE = frozenset({"table1", "figure9", "figure9_stores"})


def _store_backends() -> list[str]:
    """Backends usable for the experiments: those that record the
    per-level statistics the figures are built from (the parallel pool
    aggregates across workers and keeps none)."""
    return [info.name for info in backend_table() if not info.parallel]


def main(argv: list[str] | None = None) -> int:
    """Run the requested experiments and print their reports."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help=f"one or more of: all, {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--backend",
        default="incore",
        choices=_store_backends(),
        metavar="NAME",
        help=(
            "enumeration backend for the backend-aware experiments "
            f"({', '.join(sorted(BACKEND_AWARE))}); limited to backends "
            "that record per-level statistics; choices: %(choices)s"
        ),
    )
    args = parser.parse_args(argv)
    names = args.experiments
    if "all" in names:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"choose from: all, {', '.join(EXPERIMENTS)}"
        )
    for name in names:
        t0 = time.perf_counter()
        print(f"\n=== {name} " + "=" * max(0, 66 - len(name)))
        if name in BACKEND_AWARE:
            print(EXPERIMENTS[name](backend=args.backend))
        else:
            print(EXPERIMENTS[name]())
        print(f"[{name} regenerated in {time.perf_counter() - t0:.1f} s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
