"""Ablation report: the design choices behind the paper's numbers.

Not a paper artifact, but the experiments DESIGN.md commits to: each row
removes or swaps one design element of the Clique Enumerator framework
and shows the cost, quantifying the paper's qualitative arguments.

* generation by tail-list pairs (Fig. 3) vs the rejected n-bit scan;
* in-core candidate storage vs the retired out-of-core spill mode;
* dynamic load balancing on vs off (simulated, 16 processors);
* remote-access penalty sensitivity at 256 processors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import EnumerationConfig, EnumerationEngine
from repro.parallel.machine import MachineSpec
from repro.parallel.metrics import load_balance_stats
from repro.parallel.parallel_enumerator import simulate_run
from repro.experiments.calibration import calibrated_spec, myogenic_trace
from repro.experiments.reporting import (
    format_bytes,
    format_seconds,
    render_table,
)
from repro.experiments.workloads import Workload, myogenic_like

__all__ = ["AblationResult", "run", "report"]


@dataclass(frozen=True)
class AblationResult:
    """All ablation measurements for one workload."""

    workload: str
    list_seconds: float
    bitscan_seconds: float
    bitscan_bits: int
    list_pair_checks: int
    in_core_seconds: float
    ooc_seconds: float
    ooc_bytes: int
    balanced_16p: float
    unbalanced_16p: float
    penalty_series: dict[float, float]


def run(workload: Workload | None = None) -> AblationResult:
    """Measure every ablation on the (default myogenic) workload.

    Generation variants are engine backends and storage substrates are
    level stores, so each ablation row is the same
    :meth:`~repro.engine.EnumerationEngine.run` call with a different
    backend or store name — the comparison measures exactly the
    substrate.
    """
    w = workload or myogenic_like()
    g = w.graph
    engine = EnumerationEngine()

    list_res = engine.run(g, EnumerationConfig(backend="incore", k_min=2))
    scan_res = engine.run(g, EnumerationConfig(backend="bitscan", k_min=2))

    in_core = engine.run(g, EnumerationConfig(backend="incore", k_min=3))
    ooc = engine.run(
        g, EnumerationConfig(backend="incore", k_min=3, level_store="disk")
    )

    spec = calibrated_spec()
    trace = myogenic_trace(18)
    balanced = simulate_run(trace, spec.with_processors(16), balance=True)
    unbalanced = simulate_run(
        trace, spec.with_processors(16), balance=False
    )
    penalties = {}
    for pen in (1.0, 1.3, 2.0, 4.0):
        custom = MachineSpec(
            n_processors=256,
            seconds_per_work_unit=spec.seconds_per_work_unit,
            remote_access_penalty=pen,
            sync_base_seconds=spec.sync_base_seconds,
            sync_seconds_per_processor=spec.sync_seconds_per_processor,
        )
        penalties[pen] = simulate_run(
            trace, custom, balance=True
        ).elapsed_seconds
    return AblationResult(
        workload=w.name,
        list_seconds=list_res.wall_seconds,
        bitscan_seconds=scan_res.wall_seconds,
        bitscan_bits=scan_res.counters.extra.get("bits_scanned", 0),
        list_pair_checks=list_res.counters.pair_checks,
        in_core_seconds=in_core.wall_seconds,
        ooc_seconds=ooc.wall_seconds,
        ooc_bytes=ooc.io.total_bytes,
        balanced_16p=load_balance_stats(balanced).std_over_mean,
        unbalanced_16p=load_balance_stats(unbalanced).std_over_mean,
        penalty_series=penalties,
    )


def report(result: AblationResult | None = None) -> str:
    """Render the ablation table."""
    r = result or run()
    rows = [
        [
            "generation: tail-list pairs (paper)",
            format_seconds(r.list_seconds),
            f"{r.list_pair_checks:,} pair checks",
        ],
        [
            "generation: n-bit scan (rejected)",
            format_seconds(r.bitscan_seconds),
            f"{r.bitscan_bits:,} bits scanned",
        ],
        [
            "storage: in-core candidates (paper)",
            format_seconds(r.in_core_seconds),
            "no disk traffic",
        ],
        [
            "storage: out-of-core spill (retired)",
            format_seconds(r.ooc_seconds),
            f"{format_bytes(r.ooc_bytes)} disk traffic",
        ],
        [
            "balancing on, 16p (std/mean)",
            f"{r.balanced_16p:.2%}",
            "simulated Altix",
        ],
        [
            "balancing off, 16p (std/mean)",
            f"{r.unbalanced_16p:.2%}",
            "simulated Altix",
        ],
    ]
    for pen, secs in sorted(r.penalty_series.items()):
        rows.append(
            [
                f"remote penalty {pen}x, 256p",
                format_seconds(secs),
                "virtual wall-clock",
            ]
        )
    return render_table(
        ["configuration", "cost", "notes"],
        rows,
        title=f"Ablations on {r.workload}",
    )
