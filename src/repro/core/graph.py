"""Undirected graphs stored as bit-adjacency matrices.

The paper's framework keeps the whole graph in memory as an array of
neighbor bit strings: row ``i`` of the adjacency bitmap holds one bit per
vertex, set when ``{i, j}`` is an edge (Figure 2 of the paper).  This makes
the two clique-enumeration primitives — common-neighbor intersection and
maximality testing — single vectorised word operations.

:class:`Graph` is that representation: an ``(n, ceil(n/64))`` ``uint64``
matrix plus a degree vector.  Vertices are the integers ``0 .. n-1``; the
graph is simple (no self loops, no parallel edges) and undirected (the
matrix is kept symmetric by construction).

The raw word matrix is exposed as the ``adj`` attribute for the enumeration
hot loops; everything else should go through the methods.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphError
from repro.core import bitset as bs
from repro.core.bitset import BitSet, WORD_BITS

__all__ = ["Graph"]

_ONE = np.uint64(1)


class Graph:
    """A simple undirected graph over vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices.

    Attributes
    ----------
    n:
        Number of vertices.
    adj:
        ``uint64`` array of shape ``(n, n_words(n))``; row ``v`` is the
        neighbor bitmap of ``v``.  Treat as read-only outside this class.

    Examples
    --------
    >>> g = Graph(4)
    >>> g.add_edge(0, 1); g.add_edge(1, 2)
    >>> g.degree(1)
    2
    >>> sorted(g.neighbors(1).tolist())
    [0, 2]
    """

    __slots__ = ("n", "adj", "_degrees", "_m")

    def __init__(self, n: int):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        self.n = n
        self.adj = np.zeros((n, bs.n_words(n)), dtype=np.uint64)
        self._degrees = np.zeros(n, dtype=np.int64)
        self._m = 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Duplicate and reversed pairs are ignored.  An out-of-range
        vertex or a self loop raises :class:`GraphError` for the first
        offending pair in input order (``u`` checked before ``v``, both
        before the self loop), as a loop of :meth:`add_edge` calls
        would; the pairs are checked and set as one ``(m, 2)`` array.
        """
        g = cls(n)
        pairs = edges if isinstance(edges, np.ndarray) else list(edges)
        if not len(pairs):
            return g
        try:
            arr = np.asarray(pairs)
        except (ValueError, TypeError):
            arr = None
        if arr is None or arr.dtype.kind not in "bi" or (
            arr.shape != (len(pairs), 2)
        ):
            # pairs numpy cannot hold as int64 (huge or non-integer
            # ids, ragged tuples): add_edge raises their legacy errors
            for u, v in pairs:
                g.add_edge(u, v)
            return g
        u, v = arr.astype(np.int64, copy=False).T
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
        if bad.any():
            g.add_edge(*pairs[int(np.argmax(bad))])  # raises
        g._set_edges(u, v)
        return g

    @classmethod
    def from_adjacency(cls, matrix: np.ndarray) -> "Graph":
        """Build from a square boolean/0-1 adjacency matrix.

        The matrix must be symmetric with a zero diagonal.
        """
        a = np.asarray(matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GraphError(f"adjacency matrix must be square, got {a.shape}")
        a = a.astype(bool)
        if a.diagonal().any():
            raise GraphError("adjacency matrix has non-zero diagonal entries")
        if not np.array_equal(a, a.T):
            raise GraphError("adjacency matrix is not symmetric")
        g = cls(a.shape[0])
        g._set_edges(*np.nonzero(np.triu(a, k=1)))
        return g

    @classmethod
    def from_networkx(cls, nxg) -> "Graph":
        """Build from a ``networkx`` graph with integer-convertible nodes.

        Nodes are sorted and relabelled to ``0..n-1``; the mapping is
        returned on the graph as plain relabelling is positional.
        """
        nodes = sorted(nxg.nodes())
        index = {v: i for i, v in enumerate(nodes)}
        return cls.from_edges(
            len(nodes),
            [(index[u], index[v]) for u, v in nxg.edges() if u != v],
        )

    def copy(self) -> "Graph":
        """Deep copy."""
        g = Graph(self.n)
        g.adj[:] = self.adj
        g._degrees[:] = self._degrees
        g._m = self._m
        return g

    def _set_edges(self, u: np.ndarray, v: np.ndarray) -> None:
        """Fill an empty graph with the edges ``{u[i], v[i]}`` (valid,
        in any orientation, repeats allowed).

        Degrees and ``m`` are counted from the bits set, so repeated
        and reversed pairs need no deduplication (a sort, whose first
        call in a process costs ~3 MB of RSS and ~15 ms of set-up).
        """
        for a, b in ((u, v), (v, u)):
            np.bitwise_or.at(
                self.adj, (a, b >> 6),
                np.left_shift(_ONE, (b & 63).astype(np.uint64)),
            )
        self._degrees = np.bitwise_count(self.adj).sum(
            axis=1, dtype=np.int64
        )
        self._m = int(self._degrees.sum()) // 2

    # -- mutation ------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range [0, {self.n})")

    def add_edge(self, u: int, v: int) -> None:
        """Insert edge ``{u, v}``; no-op when already present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self loop at vertex {u} is not allowed")
        if self.has_edge(u, v):
            return
        self.adj[u, v // WORD_BITS] |= _ONE << np.uint64(v % WORD_BITS)
        self.adj[v, u // WORD_BITS] |= _ONE << np.uint64(u % WORD_BITS)
        self._degrees[u] += 1
        self._degrees[v] += 1
        self._m += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``{u, v}``; raises when absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) not present")
        self.adj[u, v // WORD_BITS] &= ~(_ONE << np.uint64(v % WORD_BITS))
        self.adj[v, u // WORD_BITS] &= ~(_ONE << np.uint64(u % WORD_BITS))
        self._degrees[u] -= 1
        self._degrees[v] -= 1
        self._m -= 1

    # -- queries -------------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``{u, v}`` is an edge."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        return bool(
            (self.adj[u, v // WORD_BITS] >> np.uint64(v % WORD_BITS)) & _ONE
        )

    def degree(self, v: int) -> int:
        """Number of neighbors of ``v``."""
        self._check_vertex(v)
        return int(self._degrees[v])

    def degrees(self) -> np.ndarray:
        """Copy of the degree vector."""
        return self._degrees.copy()

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def density(self) -> float:
        """Edge density ``m / C(n, 2)``; zero for ``n < 2``."""
        if self.n < 2:
            return 0.0
        return self._m / (self.n * (self.n - 1) / 2)

    def neighbors(self, v: int) -> np.ndarray:
        """Ascending array of neighbors of ``v``."""
        self._check_vertex(v)
        return bs.words_to_indices(self.adj[v], self.n)

    def neighbor_bitset(self, v: int) -> BitSet:
        """Neighbor set of ``v`` as a :class:`BitSet` (shares storage)."""
        self._check_vertex(v)
        return BitSet(self.n, self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges as ``(u, v)`` with ``u < v``, in canonical order."""
        u, v = self.edge_arrays()
        return zip(u.tolist(), v.tolist())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges as two ``int64`` arrays ``(u, v)``, ``u < v``, in
        canonical order.

        Only the non-zero adjacency words on or above the diagonal are
        unpacked (one ``nonzero``, one ``unpackbits``), so the cost
        follows the edge count, never ``n * n`` bits.
        """
        rows, cols = np.nonzero(self.adj)
        upper = cols * WORD_BITS + (WORD_BITS - 1) > rows
        rows, cols = rows[upper], cols[upper]
        words = self.adj[rows, cols].astype("<u8", copy=False)
        bits = np.unpackbits(
            words.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )
        word, bit = np.nonzero(bits)
        u, v = rows[word], cols[word] * WORD_BITS + bit
        keep = v > u
        return u[keep], v[keep]

    def vertices(self) -> range:
        """The vertex range ``0 .. n-1``."""
        return range(self.n)

    def is_clique(self, vertices: Sequence[int]) -> bool:
        """True when the given vertices are pairwise adjacent and distinct."""
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            return False
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                if not self.has_edge(u, v):
                    return False
        return True

    def common_neighbors(self, vertices: Sequence[int]) -> BitSet:
        """Bit string of vertices adjacent to *all* of ``vertices``.

        This is the paper's per-clique common-neighbor index: the bitwise
        AND of the neighbor rows.  Members of ``vertices`` are excluded
        automatically because no vertex is its own neighbor.
        """
        vs = list(vertices)
        if not vs:
            return BitSet.ones(self.n)
        acc = self.adj[vs[0]].copy()
        for v in vs[1:]:
            self._check_vertex(v)
            np.bitwise_and(acc, self.adj[v], out=acc)
        return BitSet(self.n, acc)

    # -- derived graphs -----------------------------------------------------

    def complement(self) -> "Graph":
        """Complement graph (no self loops)."""
        g = Graph(self.n)
        full = BitSet.ones(self.n).words
        g.adj[:] = np.bitwise_and(~self.adj, full)
        # clear the diagonal bits
        for v in range(self.n):
            g.adj[v, v // WORD_BITS] &= ~(_ONE << np.uint64(v % WORD_BITS))
        g._degrees = (
            np.bitwise_count(g.adj).sum(axis=1).astype(np.int64)
        )
        g._m = int(g._degrees.sum()) // 2
        return g

    def subgraph(self, vertices: Sequence[int]) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices`` (relabelled ``0..k-1``).

        Returns ``(graph, mapping)`` where ``mapping[i]`` is the original
        label of the subgraph vertex ``i``.  ``vertices`` must be distinct.
        """
        vs = np.asarray(sorted(vertices), dtype=np.int64)
        if vs.size and (np.unique(vs).size != vs.size):
            raise GraphError("subgraph vertex list contains duplicates")
        for v in vs.tolist():
            self._check_vertex(v)
        index = {int(v): i for i, v in enumerate(vs)}
        g = Graph(len(vs))
        for i, v in enumerate(vs.tolist()):
            for u in self.neighbors(v).tolist():
                j = index.get(u)
                if j is not None and j > i:
                    g.add_edge(i, j)
        return g, vs

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Relabelled copy: new vertex ``perm[v]`` takes old vertex ``v``.

        ``perm`` must be a permutation of ``0..n-1``.
        """
        p = np.asarray(perm, dtype=np.int64)
        if p.shape != (self.n,) or np.unique(p).size != self.n or (
            self.n and (p.min() != 0 or p.max() != self.n - 1)
        ):
            raise GraphError("perm must be a permutation of 0..n-1")
        u, v = self.edge_arrays()
        g = Graph(self.n)
        g._set_edges(p[u], p[v])
        return g

    def to_networkx(self):
        """Convert to a ``networkx.Graph``."""
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_nodes_from(range(self.n))
        nxg.add_edges_from(self.edges())
        return nxg

    # -- integrity ---------------------------------------------------------

    def validate(self) -> None:
        """Check internal invariants; raises :class:`GraphError` on breach.

        Verifies symmetry, zero diagonal, degree consistency, and tail-bit
        cleanliness.  Intended for tests and after bulk construction.
        """
        counted = np.bitwise_count(self.adj).sum(axis=1).astype(np.int64)
        if not np.array_equal(counted, self._degrees):
            raise GraphError("degree cache inconsistent with adjacency bits")
        if int(counted.sum()) != 2 * self._m:
            raise GraphError("edge count inconsistent with adjacency bits")
        if self.n:
            mask = bs.tail_mask(self.n)
            if (self.adj[:, -1] & ~mask).any():
                raise GraphError("tail bits beyond n are set")
        for v in range(self.n):
            if v in self.neighbor_bitset(v):
                raise GraphError(f"self loop bit set at {v}")
        for u in range(self.n):
            for v in self.neighbors(u).tolist():
                if not self.has_edge(v, u):
                    raise GraphError(f"asymmetric edge ({u}, {v})")

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.adj, other.adj))

    def __hash__(self) -> int:
        return hash((self.n, self.adj.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Graph(n={self.n}, m={self._m}, "
            f"density={self.density():.4%})"
        )

    def nbytes(self) -> int:
        """Bytes held by the adjacency bitmap."""
        return self.adj.nbytes
