"""repro — reproduction of Zhang et al., SC 2005.

"Genome-Scale Computational Approaches to Memory-Intensive Applications in
Systems Biology": exact, parallel, scalable maximal-clique enumeration for
biological network analysis, built on bitmap memory indices, plus the
systems-biology substrates the paper's framework targets.

Quickstart
----------
>>> from repro import Graph, enumerate_maximal_cliques
>>> g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
>>> sorted(enumerate_maximal_cliques(g).cliques)
[(0, 1, 2), (2, 3), (3, 4)]

Subpackages
-----------
:mod:`repro.core`
    The Clique Enumerator, baselines, maximum clique / vertex cover, and
    the bitmap data structures.
:mod:`repro.engine`
    The pluggable enumeration engine: a backend registry (``incore``,
    ``bitscan``, ``threads``) over three level stores (``memory``,
    ``disk``, ``wah``) behind one configuration and result type.
:mod:`repro.parallel`
    The simulated large-shared-memory machine (SGI Altix stand-in), the
    centralised dynamic load balancer, and the shared-memory threaded
    expander behind the ``threads`` backend.
:mod:`repro.bio`
    Microarray expression pipeline, metabolic extreme pathways, PPI
    cleaning, pathway alignment, feedback vertex set, sequence alignment.
:mod:`repro.experiments`
    One module per paper table/figure, regenerating its rows/series.
"""

from repro._version import __version__
from repro.errors import (
    AlignmentError,
    BitSetError,
    BudgetExceeded,
    GraphError,
    ParameterError,
    ParseError,
    ReproError,
    SolverError,
)
from repro.core import (
    BitSet,
    Graph,
    enumerate_k_cliques,
    enumerate_maximal_cliques,
    kose_enumerate,
    maximum_clique,
    maximum_clique_size,
    minimum_vertex_cover,
    paraclique,
)
from repro.engine import (
    EnumerationConfig,
    EnumerationEngine,
    available_backends,
    run_enumeration,
)

__all__ = [
    "__version__",
    "ReproError",
    "GraphError",
    "BitSetError",
    "ParseError",
    "ParameterError",
    "BudgetExceeded",
    "SolverError",
    "AlignmentError",
    "BitSet",
    "Graph",
    "enumerate_maximal_cliques",
    "enumerate_k_cliques",
    "kose_enumerate",
    "maximum_clique",
    "maximum_clique_size",
    "minimum_vertex_cover",
    "paraclique",
    "EnumerationConfig",
    "EnumerationEngine",
    "available_backends",
    "run_enumeration",
]
