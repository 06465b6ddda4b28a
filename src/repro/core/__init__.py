"""Core library: the paper's Clique Enumerator framework and substrates.

Public surface re-exported here:

* data representation — :class:`~repro.core.bitset.BitSet`,
  :class:`~repro.core.graph.Graph`;
* enumeration — :func:`~repro.core.clique_enumerator.
  enumerate_maximal_cliques` (the paper's algorithm),
  :func:`~repro.core.kclique.enumerate_k_cliques`,
  :func:`~repro.core.kose.kose_enumerate` and the Bron–Kerbosch baselines;
* optimisation — :func:`~repro.core.maximum_clique.maximum_clique`,
  :func:`~repro.core.vertex_cover.minimum_vertex_cover`,
  :func:`~repro.core.paraclique.paraclique`.
"""

from repro.core.bitset import BitSet
from repro.core.graph import Graph
from repro.core.counters import OpCounters
from repro.core.sublist import CliqueSubList
from repro.core.clique_enumerator import (
    EnumerationResult,
    LevelStats,
    enumerate_maximal_cliques,
)
from repro.core.kclique import KCliqueResult, enumerate_k_cliques
from repro.core.kose import KoseResult, kose_enumerate
from repro.core.bron_kerbosch import (
    bron_kerbosch_base,
    bron_kerbosch_degeneracy,
    bron_kerbosch_pivot,
)
from repro.core.maximum_clique import (
    greedy_clique,
    maximum_clique,
    maximum_clique_size,
    maximum_clique_via_vertex_cover,
)
from repro.core.vertex_cover import (
    minimum_vertex_cover,
    vertex_cover_decision,
)
from repro.core.paraclique import paraclique, proportional_paraclique
from repro.core.memory_model import memory_profile, MemoryProfile
from repro.core.stats import GraphSummary, summarize
from repro.core.decomposition import (
    Decomposition,
    Module,
    paraclique_decomposition,
)
from repro.core.out_of_core import DiskLevelStore, IOStats

__all__ = [
    "BitSet",
    "Graph",
    "OpCounters",
    "CliqueSubList",
    "EnumerationResult",
    "LevelStats",
    "enumerate_maximal_cliques",
    "KCliqueResult",
    "enumerate_k_cliques",
    "KoseResult",
    "kose_enumerate",
    "bron_kerbosch_base",
    "bron_kerbosch_pivot",
    "bron_kerbosch_degeneracy",
    "greedy_clique",
    "maximum_clique",
    "maximum_clique_size",
    "maximum_clique_via_vertex_cover",
    "minimum_vertex_cover",
    "vertex_cover_decision",
    "paraclique",
    "proportional_paraclique",
    "memory_profile",
    "MemoryProfile",
    "GraphSummary",
    "summarize",
    "Decomposition",
    "Module",
    "paraclique_decomposition",
    "DiskLevelStore",
    "IOStats",
]
