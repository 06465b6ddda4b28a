"""Package-level smoke tests: public API surface and docstrings."""

from __future__ import annotations

import importlib

import pytest

import repro


PUBLIC_MODULES = [
    "repro.core.bitset",
    "repro.core.graph",
    "repro.core.graph_io",
    "repro.core.graph_ops",
    "repro.core.generators",
    "repro.core.degeneracy",
    "repro.core.bron_kerbosch",
    "repro.core.kclique",
    "repro.core.kose",
    "repro.core.sublist",
    "repro.core.clique_enumerator",
    "repro.core.maximum_clique",
    "repro.core.vertex_cover",
    "repro.core.paraclique",
    "repro.core.memory_model",
    "repro.core.counters",
    "repro.core.stats",
    "repro.core.out_of_core",
    "repro.core.decomposition",
    "repro.engine",
    "repro.engine.api",
    "repro.engine.backends",
    "repro.engine.config",
    "repro.engine.level_loop",
    "repro.engine.level_store",
    "repro.engine.registry",
    "repro.parallel.machine",
    "repro.parallel.load_balancer",
    "repro.parallel.parallel_enumerator",
    "repro.parallel.metrics",
    "repro.bio.expression",
    "repro.bio.correlation",
    "repro.bio.coexpression",
    "repro.bio.stoichiometry",
    "repro.bio.extreme_pathways",
    "repro.bio.ppi",
    "repro.bio.pathway_alignment",
    "repro.bio.fvs",
    "repro.bio.sequences",
    "repro.bio.pairwise",
    "repro.bio.msa",
    "repro.bio.motifs",
    "repro.bio.phylo_compat",
    "repro.bio.threshold_selection",
    "repro.experiments.workloads",
    "repro.experiments.reporting",
    "repro.experiments.calibration",
    "repro.experiments.table1",
    "repro.experiments.figure5",
    "repro.experiments.figure6",
    "repro.experiments.figure7",
    "repro.experiments.figure8",
    "repro.experiments.figure9",
    "repro.experiments.maxclique_support",
    "repro.experiments.runner",
    "repro.experiments.ablations",
    "repro.cli",
]


def test_version():
    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_importable_and_documented(name):
    mod = importlib.import_module(name)
    assert mod.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_all_exports_exist(name):
    mod = importlib.import_module(name)
    for sym in getattr(mod, "__all__", []):
        assert hasattr(mod, sym), f"{name}.__all__ lists missing {sym}"


def test_top_level_quickstart():
    """The README quickstart must work verbatim."""
    from repro import Graph, enumerate_maximal_cliques

    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    assert sorted(enumerate_maximal_cliques(g).cliques) == [
        (0, 1, 2), (2, 3), (3, 4),
    ]


def test_exception_hierarchy():
    assert issubclass(repro.GraphError, repro.ReproError)
    assert issubclass(repro.BitSetError, repro.ReproError)
    assert issubclass(repro.BudgetExceeded, repro.ReproError)
    assert issubclass(repro.ParseError, repro.ReproError)


def test_public_functions_have_docstrings():
    import inspect

    for name in PUBLIC_MODULES:
        mod = importlib.import_module(name)
        for sym in getattr(mod, "__all__", []):
            obj = getattr(mod, sym)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__doc__, f"{name}.{sym} lacks a docstring"
