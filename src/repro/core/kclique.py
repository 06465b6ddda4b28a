"""The paper's k-clique enumerator (Section 2.2).

Enumerates *all* cliques of exactly size ``k`` — maximal and non-maximal —
in canonical (lexicographic) order.  It is Base Bron–Kerbosch altered in
the two respects the paper lists:

1. When ``|COMPSUB| == k`` the child sets ``NEW_CANDIDATES`` and
   ``NEW_NOT`` are examined: both empty means the k-clique is maximal,
   otherwise it is non-maximal; either way it is output and the branch
   returns (no deeper extension).
2. A boundary condition cuts any node where
   ``|COMPSUB| + |CANDIDATES| < k`` — too few vertices remain to ever
   reach size ``k``.

Additionally, all vertices of degree less than ``k - 1`` are eliminated
during preprocessing ("such vertices cannot be members of any k-clique by
definition").  The elimination is run to a fixed point — removing a vertex
can push a neighbor below the threshold — which is the (k-1)-core and only
removes vertices the single pass would eventually starve anyway.

The non-maximal k-cliques seed the Clique Enumerator of
:mod:`repro.core.clique_enumerator` at a user-chosen lower bound (the
``Init_K`` of the paper's evaluation).  The engine no longer seeds with
this recursion: :func:`repro.engine.level_loop.seed_level` reaches the
same sub-lists by running the level step from the edges of the
(k-1)-core (:func:`k_core_mask`).  The enumerator now feeds the
Figure 5–8 trace (:func:`repro.parallel.parallel_enumerator.
record_trace`), whose seed work it counts, and stays the public
k-clique enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError
from repro.core import bitset as bs
from repro.core.counters import OpCounters
from repro.core.graph import Graph

__all__ = ["KCliqueResult", "enumerate_k_cliques", "k_core_mask"]

_ONE = np.uint64(1)


@dataclass
class KCliqueResult:
    """Output of :func:`enumerate_k_cliques`.

    Attributes
    ----------
    k:
        The clique size requested.
    maximal:
        k-cliques that are maximal in the graph, canonical order.
    non_maximal:
        k-cliques contained in some (k+1)-clique, canonical order.
        These are the Clique Enumerator's seed candidates.
    counters:
        Operation counts accumulated during the search.
    """

    k: int
    maximal: list[tuple[int, ...]] = field(default_factory=list)
    non_maximal: list[tuple[int, ...]] = field(default_factory=list)
    counters: OpCounters = field(default_factory=OpCounters)

    def all_cliques(self) -> list[tuple[int, ...]]:
        """All k-cliques in canonical order."""
        return sorted(self.maximal + self.non_maximal)


def k_core_mask(g: Graph, k: int) -> np.ndarray:
    """Boolean mask of vertices surviving iterated degree-(k-1) elimination.

    A vertex needs at least ``k - 1`` neighbors to belong to a k-clique;
    eliminating one vertex can disqualify others, so the rule is applied to
    a fixed point (equivalently: the (k-1)-core membership mask).  Each
    round peels every vertex below the threshold at once, on the edge
    arrays: one ``bincount`` of the lost neighbors.
    """
    alive = np.ones(g.n, dtype=bool)
    deg = g.degrees()
    u, v = g.edge_arrays()
    while True:
        drop = alive & (deg < k - 1)
        if not drop.any():
            return alive
        alive &= ~drop
        # each edge losing one endpoint costs the other one degree
        cut_u, cut_v = drop[u], drop[v]
        deg -= np.bincount(
            np.concatenate((v[cut_u], u[cut_v])), minlength=g.n
        )
        live = ~(cut_u | cut_v)
        u, v = u[live], v[live]


def enumerate_k_cliques(
    g: Graph, k: int, counters: OpCounters | None = None
) -> KCliqueResult:
    """Enumerate every k-clique, split into maximal and non-maximal.

    Parameters
    ----------
    g: input graph.
    k: clique size, ``k >= 1``.
    counters: optional shared operation counters.

    Returns
    -------
    KCliqueResult
        Cliques as sorted tuples in canonical order.

    Notes
    -----
    ``k = 1`` returns each vertex; isolated vertices are the maximal ones.
    ``k = 2`` returns each edge; edges without common neighbors *and*
    without a proper superset... an edge is maximal iff its endpoints have
    no common neighbor.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    c = counters if counters is not None else OpCounters()
    result = KCliqueResult(k=k, counters=c)
    n = g.n
    if n == 0:
        return result

    alive = k_core_mask(g, k)
    alive_words = bs.indices_to_words(np.flatnonzero(alive).tolist(), n)

    if k == 1:
        for v in range(n):
            clique = (v,)
            if g.degree(v) == 0:
                result.maximal.append(clique)
            else:
                result.non_maximal.append(clique)
            c.cliques_generated += 1
        c.maximal_emitted += len(result.maximal)
        return result

    adj = g.adj

    def extend(r: list[int], p: np.ndarray, x: np.ndarray) -> None:
        # Boundary condition: |COMPSUB| + |CANDIDATES| < k can never reach k.
        c.bit_exist_checks += 1
        if len(r) + int(np.bitwise_count(p).sum()) < k:
            return
        for v in bs.words_to_indices(p, n).tolist():
            p[v >> 6] &= ~(_ONE << np.uint64(v & 63))
            c.bit_and_ops += 2
            new_p = p & adj[v]
            new_x = x & adj[v]
            r.append(v)
            if len(r) == k:
                clique = tuple(r)
                c.cliques_generated += 1
                c.bit_exist_checks += 2
                if not new_p.any() and not new_x.any():
                    result.maximal.append(clique)
                    c.maximal_emitted += 1
                else:
                    result.non_maximal.append(clique)
            else:
                extend(r, new_p, new_x)
            r.pop()
            x[v >> 6] |= _ONE << np.uint64(v & 63)

    p0 = alive_words.copy()
    x0 = np.zeros_like(p0)
    extend([], p0, x0)
    return result
