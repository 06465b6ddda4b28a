"""Figure 9: candidate memory vs clique size.

Paper: "the memory used to keep all cliques of different sizes during the
procedure of clique enumeration on the graph with 2,895 vertices.  The
memory usage first increases with clique size and goes up to almost 20 GB
when clique size reaches 13, then it begins to drop quickly."  (And for
the denser 12,422-vertex graph, 607 GB + 404 GB before termination.)

Reproduction: the measured candidate-storage bytes per level on the
scaled myogenic workload enumerated from Init_K=3 (k-axis halved, so the
paper's peak at 13 of 28 corresponds to a peak near 7 of 14), alongside
the paper's own space formula
``M[k]*c + N[k]*((k-1)*c + ceil(n/8)) + pointers``.

The paper closes by noting the sparse bitmap index "can potentially
provide high compression rate"; :func:`compare_stores` /
:func:`report_stores` measure exactly that — the same series on all
three :data:`~repro.engine.config.LEVEL_STORES` substrates side by
side, with the WAH store's per-level compression ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.memory_model import MemoryProfile, memory_profile
from repro.engine import LEVEL_STORES, EnumerationConfig, run_enumeration
from repro.experiments.workloads import Workload, myogenic_like
from repro.experiments.reporting import format_bytes, render_table

__all__ = [
    "Figure9Result",
    "run",
    "report",
    "compare_stores",
    "report_stores",
]

#: Paper reference: peak near clique size 13 (of max 28).
PAPER_PEAK_K = 13
PAPER_MAX_CLIQUE = 28


@dataclass(frozen=True)
class Figure9Result:
    """Memory series of one full enumeration."""

    workload: str
    max_clique: int
    profile: MemoryProfile
    level_store: str = "memory"

    def peak_fraction(self) -> float:
        """Peak position as a fraction of the maximum clique size."""
        peak_k, _ = self.profile.peak()
        return peak_k / self.max_clique if self.max_clique else 0.0


def run(
    workload: Workload | None = None,
    backend: str = "incore",
    level_store: str = "memory",
) -> Figure9Result:
    """Enumerate from k=3 and collect the per-level memory series.

    Any :mod:`repro.engine` backend works — the level loop
    records the same ``N[k]``/``M[k]``
    :class:`~repro.core.clique_enumerator.LevelStats` whatever the
    substrate, while ``candidate_bytes`` measures what the chosen
    ``level_store`` actually holds (compressed bytes for ``"wah"``).
    """
    w = workload or myogenic_like()
    res = run_enumeration(
        w.graph,
        EnumerationConfig(
            backend=backend, k_min=3, level_store=level_store
        ),
    )
    return Figure9Result(
        workload=w.name,
        max_clique=res.max_clique_size(),
        profile=memory_profile(res.level_stats),
        level_store=level_store,
    )


def compare_stores(
    workload: Workload | None = None,
    backend: str = "incore",
    stores: tuple[str, ...] = LEVEL_STORES,
) -> dict[str, Figure9Result]:
    """The Figure 9 series on every level-store substrate.

    Returns ``{store_name: Figure9Result}`` for the same workload and
    backend, so the measured ``candidate_bytes`` are directly
    comparable level by level.
    """
    w = workload or myogenic_like()
    return {
        store: run(w, backend=backend, level_store=store)
        for store in stores
    }


def report(
    result: Figure9Result | None = None, backend: str = "incore"
) -> str:
    """Render the Figure 9 series with a text bar per level."""
    r = result or run(backend=backend)
    prof = r.profile
    peak_bytes = max(prof.measured_bytes) if prof.measured_bytes else 1
    rows = []
    for k, measured, formula, m_cand, n_sub in zip(
        prof.sizes, prof.measured_bytes, prof.formula_bytes,
        prof.candidates, prof.sublists,
    ):
        bar = "#" * max(
            0, round(30 * measured / peak_bytes) if peak_bytes else 0
        )
        rows.append(
            [k, n_sub, m_cand, format_bytes(measured),
             format_bytes(formula), bar]
        )
    peak_k, peak_b = prof.peak()
    note = (
        f"peak at clique size {peak_k} of {r.max_clique} "
        f"({r.peak_fraction():.0%} of max; paper: {PAPER_PEAK_K} of "
        f"{PAPER_MAX_CLIQUE} = {PAPER_PEAK_K / PAPER_MAX_CLIQUE:.0%}), "
        f"peak candidate storage {format_bytes(peak_b)}"
    )
    return (
        render_table(
            ["clique size k", "N[k] sub-lists", "M[k] candidates",
             "measured bytes", "paper-formula bytes", "profile"],
            rows,
            title=(
                f"Figure 9 - candidate memory by clique size "
                f"({r.workload}, rise-peak-fall)"
            ),
        )
        + "\n"
        + note
    )


def report_stores(
    workload: Workload | None = None,
    backend: str = "incore",
    stores: tuple[str, ...] = LEVEL_STORES,
) -> str:
    """Render the per-level candidate bytes of every substrate side by
    side, with the WAH store's compression ratio per level."""
    results = compare_stores(workload, backend=backend, stores=stores)
    first = next(iter(results.values())).profile
    rows = []
    for i, k in enumerate(first.sizes):
        row: list = [
            k, first.sublists[i], first.candidates[i],
        ]
        for store in stores:
            row.append(
                format_bytes(results[store].profile.measured_bytes[i])
            )
        if "memory" in results and "wah" in results:
            mem_b = results["memory"].profile.measured_bytes[i]
            wah_b = results["wah"].profile.measured_bytes[i]
            row.append(f"{mem_b / wah_b:.2f}x" if wah_b else "-")
        rows.append(row)
    headers = ["clique size k", "N[k]", "M[k]"] + [
        f"{store} bytes" for store in stores
    ]
    if "memory" in results and "wah" in results:
        headers.append("wah ratio")
    notes = []
    for store in stores:
        peak_k, peak_b = results[store].profile.peak()
        notes.append(f"{store}: peak {format_bytes(peak_b)} at k={peak_k}")
    if "memory" in results and "wah" in results:
        _, mem_peak = results["memory"].profile.peak()
        _, wah_peak = results["wah"].profile.peak()
        if wah_peak:
            notes.append(
                f"peak reduction {mem_peak / wah_peak:.2f}x "
                "(WAH-compressed candidates)"
            )
    workload_name = next(iter(results.values())).workload
    return (
        render_table(
            headers,
            rows,
            title=(
                f"Figure 9 - candidate memory by level store "
                f"({workload_name}, backend={backend})"
            ),
        )
        + "\n"
        + "; ".join(notes)
    )
