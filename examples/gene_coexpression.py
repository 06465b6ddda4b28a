"""Gene co-expression network analysis — the paper's primary workload.

Reproduces the paper's Section 3 pipeline end to end on synthetic
microarray data with planted co-expression modules:

1. generate expression (genes x conditions) with known modules,
2. normalize, compute the Spearman rank correlation matrix,
3. threshold to a sparse co-expression graph,
4. enumerate maximal cliques through the unified enumeration engine
   (swap ``backend="incore"`` for ``"threads"``, or add
   ``level_store="disk"``, to change the substrate without touching
   the pipeline),
5. check that the planted modules are recovered as cliques, and extend
   the largest one to a paraclique.

Run:  python examples/gene_coexpression.py
"""

from repro.bio.coexpression import coexpression_cliques
from repro.bio.expression import ModuleSpec, synthetic_expression
from repro.bio.threshold_selection import select_threshold, threshold_sweep
from repro.core.decomposition import paraclique_decomposition
from repro.core.maximum_clique import maximum_clique
from repro.core.memory_model import memory_profile
from repro.core.paraclique import paraclique, subgraph_density
from repro.engine import EnumerationConfig


def main() -> None:
    # --- synthetic microarray with planted modules ----------------------
    modules = [
        ModuleSpec(size=14, rho=0.97),
        ModuleSpec(size=11, rho=0.96),
        ModuleSpec(size=9, rho=0.95),
        ModuleSpec(size=7, rho=0.95),
    ]
    dataset = synthetic_expression(
        n_genes=600, n_conditions=60, modules=modules, seed=42
    )
    print(
        f"expression matrix: {dataset.n_genes} genes x "
        f"{dataset.n_conditions} conditions, "
        f"{len(dataset.modules)} planted modules"
    )

    # --- normalization -> Spearman -> threshold -> graph -> cliques -----
    res, enum = coexpression_cliques(
        dataset,
        target_density=0.002,
        config=EnumerationConfig(backend="incore", k_min=4),
    )
    g = res.graph
    print(
        f"co-expression graph: {g} "
        f"(|r| >= {res.threshold:.3f}, {res.method})"
    )
    print(
        f"maximal cliques of size >= 4: {len(enum.cliques)} "
        f"(backend={enum.backend}, {enum.wall_seconds:.2f}s)"
    )
    by_size = enum.by_size()
    for size in sorted(by_size):
        print(f"  size {size}: {len(by_size[size])}")

    # --- module recovery --------------------------------------------------
    clique_sets = [set(c) for c in enum.cliques]
    for i, module in enumerate(dataset.modules):
        recovered = any(set(module) <= cs for cs in clique_sets)
        print(
            f"module {i} (size {len(module)}): "
            f"{'recovered as clique' if recovered else 'NOT recovered'}"
        )

    # --- the paper's memory profile (Figure 9 shape) ---------------------
    prof = memory_profile(enum.level_stats)
    peak_k, peak_bytes = prof.peak()
    print(
        f"candidate memory peaks at clique size {peak_k} "
        f"({peak_bytes / 1024:.1f} KB) — rise-peak-fall, Figure 9"
    )

    # --- densely connected neighborhood of the top module ----------------
    top = maximum_clique(g)
    glommed = paraclique(g, glom=1, base=top)
    print(
        f"maximum clique has {len(top)} genes; paraclique extends it to "
        f"{len(glommed)} at density {subgraph_density(g, glommed):.2f}"
    )
    names = [dataset.gene_names[v] for v in top[:6]]
    print(f"first genes of the top module: {', '.join(names)} ...")

    # --- threshold selection by clique inflection (Section 2.1) ----------
    sweep = threshold_sweep(res.correlation, [0.9, 0.8, 0.7, 0.6, 0.5])
    chosen = select_threshold(sweep)
    print("\nthreshold sweep (max clique size per cutoff):")
    for p in sweep:
        marker = "  <- selected" if p is chosen else ""
        print(
            f"  |r| >= {p.threshold:.2f}: edges={p.n_edges:5d} "
            f"max clique={p.max_clique}{marker}"
        )

    # --- dimensionality reduction by paraclique peeling -------------------
    decomp = paraclique_decomposition(g, min_size=5, glom=1)
    print(
        f"\nparaclique decomposition: {len(decomp.modules)} modules "
        f"covering {decomp.coverage(g.n):.0%} of the genes"
    )
    for i, mod in enumerate(decomp.modules):
        print(
            f"  module {i}: {len(mod)} genes "
            f"(seed clique {mod.seed_clique_size}, "
            f"density {mod.density:.2f})"
        )


if __name__ == "__main__":
    main()
