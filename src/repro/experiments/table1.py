"""Table 1: Kose RAM vs the sequential Clique Enumerator.

Paper row (1 GHz PowerPC G4, 1 GB RAM)::

    Graph Size  Edge Density  Max Clique Size  Kose RAM    Sequential  Speedup
    12,422      0.008%        [3, 17]              17261 sec.  45 sec.     383

This experiment reruns both algorithms on the scaled analog
(:func:`~repro.experiments.workloads.mouse_brain_sparse`, full expression
pipeline, max clique 17) over the same clique range [3, 17], verifies
they emit identical maximal cliques, and reports the measured speedup.
The expected reproduction: the Clique Enumerator wins by a large factor —
smaller than 383 at 1/10 scale, since Kose's subset-containment overhead
grows with instance size (DESIGN.md §5).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.kose import kose_enumerate
from repro.engine import EnumerationConfig, run_enumeration
from repro.experiments.workloads import Workload, mouse_brain_sparse
from repro.experiments.reporting import format_seconds, render_table

__all__ = ["Table1Result", "run", "report"]

#: The paper's measured values for context in the report.
PAPER = {"kose_seconds": 17261.0, "ce_seconds": 45.0, "speedup": 383.0}


@dataclass(frozen=True)
class Table1Result:
    """Measured Table 1 reproduction.

    Alongside the run times, the peak clique-storage bytes of both
    algorithms are recorded — the paper: Clique Enumerator's candidate
    pruning "reduces not only the execution time, but also the memory
    requirements."
    """

    workload: str
    n_vertices: int
    density: float
    clique_range: tuple[int, int]
    n_maximal: int
    kose_seconds: float
    ce_seconds: float
    kose_peak_bytes: int
    ce_peak_bytes: int
    outputs_match: bool
    backend: str = "incore"

    @property
    def speedup(self) -> float:
        if self.ce_seconds <= 0:
            return float("inf")
        return self.kose_seconds / self.ce_seconds

    @property
    def memory_ratio(self) -> float:
        """Kose peak storage over Clique Enumerator peak storage."""
        if self.ce_peak_bytes <= 0:
            return float("inf")
        return self.kose_peak_bytes / self.ce_peak_bytes


def run(
    workload: Workload | None = None, backend: str = "incore"
) -> Table1Result:
    """Time both enumerators on the Table 1 workload.

    Each algorithm runs once (the instances are large enough that a
    single run dominates timer noise by orders of magnitude; the
    pytest-benchmark harness in ``benchmarks/bench_table1.py`` adds
    multi-round statistics).  ``backend`` selects the Clique Enumerator
    substrate from the :mod:`repro.engine` registry, so the comparison
    can be rerun on any of them (e.g. ``--backend bitscan`` through the
    experiments runner).
    """
    w = workload or mouse_brain_sparse()
    g = w.graph
    k_lo, k_hi = 3, w.expected_max_clique

    t0 = time.perf_counter()
    ce = run_enumeration(
        g, EnumerationConfig(backend=backend, k_min=k_lo, k_max=k_hi)
    )
    ce_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    ko = kose_enumerate(g, k_min=k_lo, k_max=k_hi)
    kose_seconds = time.perf_counter() - t0

    match = sorted(ce.cliques) == sorted(ko.cliques)
    return Table1Result(
        backend=backend,
        workload=w.name,
        n_vertices=g.n,
        density=g.density(),
        clique_range=(k_lo, k_hi),
        n_maximal=len(ce.cliques),
        kose_seconds=kose_seconds,
        ce_seconds=ce_seconds,
        kose_peak_bytes=ko.peak_stored_bytes(),
        ce_peak_bytes=ce.peak_candidate_bytes(),
        outputs_match=match,
    )


def report(
    result: Table1Result | None = None, backend: str = "incore"
) -> str:
    """Render the Table 1 reproduction next to the paper's row."""
    r = result or run(backend=backend)
    rows = [
        [
            "paper (12,422 v, 0.008%)",
            "[3, 17]",
            format_seconds(PAPER["kose_seconds"]),
            format_seconds(PAPER["ce_seconds"]),
            f"{PAPER['speedup']:.0f}x",
            "-",
            "-",
        ],
        [
            f"measured ({r.n_vertices} v, {r.density:.3%})",
            f"[{r.clique_range[0]}, {r.clique_range[1]}]",
            format_seconds(r.kose_seconds),
            format_seconds(r.ce_seconds),
            f"{r.speedup:.1f}x",
            f"{r.memory_ratio:.1f}x",
            "yes" if r.outputs_match else "NO",
        ],
    ]
    return render_table(
        ["run", "clique range", "Kose RAM", "Clique Enumerator",
         "speedup", "memory ratio", "outputs match"],
        rows,
        title=(
            "Table 1 - Kose RAM vs sequential Clique Enumerator "
            f"({r.n_maximal} maximal cliques); the paper's 383x is "
            "C-native at 10x scale, both implementations here are "
            "interpreter-bound (see EXPERIMENTS.md)"
        ),
    )
