"""The Clique Enumerator: the paper's maximal-clique algorithm (Section 2.3).

The algorithm proceeds level by level.  At level ``k`` it holds only the
*candidate* k-cliques — those contained in some (k+1)-clique — grouped into
sub-lists sharing a (k-1)-clique prefix (:class:`~repro.core.sublist.
CliqueSubList`).  One generation step (:func:`generate_next_level`, the
paper's ``GenerateKCliques`` of Figure 3) turns level ``k`` into level
``k+1``:

* for each sub-list and each tail vertex ``v`` (except the last), the
  common neighbors of ``prefix + (v,)`` are one bitwise AND:
  ``CN(prefix) & N(v)``;
* each higher tail ``u`` adjacent to ``v`` yields the (k+1)-clique
  ``prefix + (v, u)``;
* that clique is **maximal** iff ``CN(prefix+(v,)) & N(u)`` has no 1-bit —
  the paper's ``BitOneExists`` test — and is then emitted immediately;
* non-maximal cliques become the new sub-list for prefix ``prefix + (v,)``;
  sub-lists with fewer than two members are dropped (a single candidate
  can pair with nothing, and — per the paper's observation — a k-clique
  that shares no (k-1) vertices with another k-clique seeds no (k+1)-clique
  that would not be found elsewhere).

Consequently maximal cliques are emitted in **non-decreasing order of
size**, each exactly once, and memory holds only candidates — the two
properties the paper contrasts against Kose et al. and Bron–Kerbosch.

The step runs on one array form of a level (:class:`~repro.core.
sublist.LevelArrays`: an ``(N, k-1)`` prefix matrix, flat tails with
offsets, an ``(N, n_words)`` CN row matrix) — the form the ``memory``
and ``disk`` level stores take and yield — so its Python runs per
pair batch: pairs come from segment arithmetic over the tail offsets,
groups and children from ``flatnonzero`` over the batch.  The
compressed-domain step (:mod:`repro.core.compressed_domain`) shares the
pair builder and the group selector.

Drivers
-------
:func:`enumerate_maximal_cliques` runs the complete pipeline: seeding at
``k_min`` — edges for ``k_min <= 2`` (:func:`build_initial_sublists`,
one pass over the edge arrays), and for ``k_min >= 3`` the paper's
``Init_K``, which the engine seeds by running this step from the edges
of the ``(k_min-1)``-core up to ``k_min``
(:func:`repro.engine.level_loop.seed_level`) — then levels until
exhaustion or ``k_max``.  Per-level statistics (the paper's ``N[k]``,
``M[k]``) are recorded for the memory-usage experiment (Figure 9) and
for the parallel machine model.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError
from repro.core import bitset as bs
from repro.core.counters import IOStats, OpCounters
from repro.core.graph import Graph
from repro.core.sublist import (
    INDEX_BYTES,
    POINTER_BYTES,
    CliqueSubList,
    LevelArrays,
)

__all__ = [
    "LevelStats",
    "EnumerationResult",
    "LevelArrays",
    "paper_formula_bytes",
    "expand_level",
    "edge_level",
    "generate_next_level",
    "generate_next_level_bitscan",
    "build_initial_sublists",
    "build_sublists_from_k_cliques",
    "enumerate_maximal_cliques",
]


@dataclass(frozen=True)
class LevelStats:
    """Accounting for one level of the enumeration.

    Attributes
    ----------
    k:
        Clique size of this level's candidates.
    n_sublists:
        The paper's ``N[k]`` — number of candidate sub-lists.
    n_candidates:
        The paper's ``M[k]`` — total candidate k-cliques.
    maximal_emitted:
        Maximal cliques of size ``k`` emitted while generating this level.
    candidate_bytes:
        Measured bytes held by the candidate sub-lists at this level.
    paper_formula_bytes:
        The paper's estimate ``M[k]*c + N[k]*((k-1)*c + ceil(n/8))``
        plus ``N[k]`` pointers.
    """

    k: int
    n_sublists: int
    n_candidates: int
    maximal_emitted: int
    candidate_bytes: int
    paper_formula_bytes: int


def paper_formula_bytes(k: int, n_sublists: int, n_candidates: int,
                        n_vertices: int) -> int:
    """The paper's Section 2.3 space estimate for level ``k``."""
    bitstring = bs.n_words(n_vertices) * 8
    return (
        n_candidates * INDEX_BYTES
        + n_sublists * ((k - 1) * INDEX_BYTES + bitstring)
        + n_sublists * POINTER_BYTES
    )


@dataclass
class EnumerationResult:
    """The canonical result of one enumeration run, whatever the backend.

    Every registered :mod:`repro.engine` backend returns this type, so
    callers can switch substrates without touching their result handling.

    Attributes
    ----------
    cliques:
        Maximal cliques as sorted tuples, in emission order —
        non-decreasing size, canonical within a size.  Empty when a
        callback consumed them instead.
    level_stats:
        One :class:`LevelStats` per candidate level processed (empty for
        backends that do not track levels centrally).
    counters:
        Operation counts (feed the parallel machine model).
    completed:
        False when stopped early by ``k_max`` with candidates remaining.
    k_min, k_max:
        The requested size range.
    backend:
        Registry name of the backend that produced this result.
    io:
        Disk traffic of the run, for disk-backed substrates; ``None``
        for purely in-memory backends.
    wall_seconds:
        Wall-clock duration of the run as measured by the engine facade
        (0.0 when the backend was invoked directly).
    n_workers:
        Workers used (1 for sequential substrates).
    transfers:
        Sub-list ranges stolen between workers by the work-stealing
        scheduler (0 for sequential substrates).
    domain_stats:
        Compressed-domain telemetry of a ``wah``-store run, empty on
        the ``memory`` and ``disk`` stores:
        ``decompressed_bytes_avoided`` (raw-equivalent bytes of every
        level streamed, all of which stayed compressed end to end),
        ``kernel_word_ops`` (CN words the AND kernels read and wrote,
        plus the adjacency groups they probed) and ``kernel_ands``
        (one per AND or BitOneExists pair).  Deliberately *not* part of
        ``counters``: the operation counters follow the paper's
        representation-independent model and stay byte-identical across
        level stores.
    level_seconds:
        Wall-clock seconds per candidate level as timed by the shared
        level loop — entry 0 is the seeding step, entry ``i`` the
        generation of ``level_stats[i]``.  Empty for backends that do
        not run the shared loop.
    load_balance:
        Measured per-worker load-balance summary of a real parallel
        run (the paper's Figure 8 signal, computed for actual threaded
        runs by :func:`repro.parallel.metrics.worker_load_balance`):
        ``n_workers``, ``mean_busy`` / ``std_busy`` seconds,
        ``std_over_mean`` against the paper's ±10% criterion, and the
        transfer count.  ``None`` for sequential runs and for parallel
        runs whose every level was one range (never fanned out).
    """

    cliques: list[tuple[int, ...]] = field(default_factory=list)
    level_stats: list[LevelStats] = field(default_factory=list)
    counters: OpCounters = field(default_factory=OpCounters)
    completed: bool = True
    k_min: int = 1
    k_max: int | None = None
    backend: str = "incore"
    io: IOStats | None = None
    wall_seconds: float = 0.0
    n_workers: int = 1
    transfers: int = 0
    domain_stats: dict = field(default_factory=dict)
    level_seconds: list[float] = field(default_factory=list)
    load_balance: dict | None = None

    @property
    def levels(self) -> int:
        """Highest candidate level reached (mirrors ``counters.levels``)."""
        return self.counters.levels

    def by_size(self) -> dict[int, list[tuple[int, ...]]]:
        """Group the collected cliques by size."""
        out: dict[int, list[tuple[int, ...]]] = {}
        for c in self.cliques:
            out.setdefault(len(c), []).append(c)
        return out

    def max_clique_size(self) -> int:
        """Largest maximal clique size seen (0 when none)."""
        return max((len(c) for c in self.cliques), default=0)

    def peak_candidate_bytes(self) -> int:
        """Peak measured candidate memory over all levels (Figure 9)."""
        return max(
            (ls.candidate_bytes for ls in self.level_stats), default=0
        )


# ---------------------------------------------------------------------------
# Core generation step (Figure 3 of the paper)
# ---------------------------------------------------------------------------

#: byte budget of one pair batch, shared by the bitset and WAH steps.
#: Each charges a pair what it holds per pair, so every array a batch
#: builds is bounded by the budget however wide the level is: the bitset
#: step a ``8 * n_words``-byte test row (:func:`pair_batches`), the WAH
#: step an index entry per CN group it gathers (:func:`gathered_batches`).
PAIR_BATCH_BYTES = 1 << 20


def pair_batch_limit(n_words: int) -> int:
    """Pairs per bitset-step batch for adjacency rows of ``n_words`` words.

    Batches split only at sub-list boundaries, so a sub-list with more
    pairs than this is a batch of its own.
    """
    return PAIR_BATCH_BYTES // (8 * max(n_words, 1))


def pair_batches(tail_counts, n_words: int) -> list[tuple[int, int]]:
    """Cut a level into contiguous ``[start, end)`` sub-list ranges.

    ``tail_counts[i]`` is sub-list ``i``'s tail count.  Each range
    holds at most :func:`pair_batch_limit` pairs, except that a range
    always takes at least one sub-list, so a sub-list over the limit
    is a range of its own.  The bitset step cuts its pair batches by
    this rule, and the ``threads`` backend its ranges of a raw-word
    chunk.
    """
    t = np.asarray(tail_counts, dtype=np.int64)
    return weight_batches(t * (t - 1) // 2, pair_batch_limit(n_words))


def gathered_batches(
    tail_counts, gathered, n_workers: int = 1
) -> list[tuple[int, int]]:
    """The WAH step's cut, by :func:`pair_batches`' rule: sub-list ``i``
    weighs ``INDEX_BYTES * pairs * (1 + gathered[i])`` bytes, one index
    entry per tail pair and per nonzero CN group a pair gathers.

    The limit is ``PAIR_BATCH_BYTES // n_workers``: the ``threads``
    backend cuts its ranges for ``n_workers`` concurrent batches, so
    together they hold one batch's budget, and the step's own cut of
    such a range is the range itself."""
    t = np.asarray(tail_counts, dtype=np.int64)
    return weight_batches(
        INDEX_BYTES * (t * (t - 1) // 2) * (1 + np.asarray(gathered)),
        PAIR_BATCH_BYTES // n_workers,
    )


def weight_batches(weights, limit: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, end)`` ranges of at most ``limit`` total
    weight, each taking at least one item (the rule of
    :func:`pair_batches`, over any per-item weight)."""
    cum = np.cumsum(np.asarray(weights, dtype=np.int64))
    ranges: list[tuple[int, int]] = []
    start, base = 0, 0
    while start < cum.size:
        end = int(np.searchsorted(cum, base + limit, side="right"))
        end = max(end, start + 1)
        ranges.append((start, end))
        start, base = end, int(cum[end - 1])
    return ranges


def tail_pairs(
    offsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every tail pair of a run of sub-lists, by segment arithmetic.

    The sub-lists' tails are ``tails[offsets[s]:offsets[s + 1]]`` of
    one flat array.  Returns ``(i, j, sid)``: the flat positions
    ``i < j`` of the two tails of every pair within a sub-list and the
    pair's sub-list (0-based over ``offsets``), sub-list by sub-list
    in ``np.triu_indices`` order — the canonical order of the
    generated cliques.
    """
    counts = np.diff(offsets)
    owner = np.repeat(np.arange(counts.size), counts)
    pos = np.arange(offsets[0], offsets[-1])
    above = offsets[1:][owner] - 1 - pos  # partners after each tail
    i = np.repeat(pos, above)
    # pair q of tail p (run starting at pair run[p]) has j = p+1+q-run[p]
    run = np.cumsum(above) - above
    j = np.arange(i.size) + np.repeat(pos + 1 - run, above)
    return i, j, np.repeat(owner, above)


def generated_cliques(
    adj: np.ndarray,
    tails: np.ndarray,
    offsets: np.ndarray,
    counters: OpCounters,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (k+1)-cliques a run of sub-lists generates: its tail pairs
    that are edges, found by one adjacency gather over
    :func:`tail_pairs`.

    Returns ``(first, v_i, v_j, sid)`` per generated clique, ``first``
    being the flat tail position of ``v_i``.  Counts one adjacency
    check per pair, and per generated clique the AND and BitOneExists
    of its maximality test.
    """
    i, j, sid = tail_pairs(offsets)
    counters.pair_checks += int(i.size)
    vi, vj = tails[i], tails[j]
    hit = np.flatnonzero(
        (adj[vi, vj >> 6] >> (vj & 63).astype(np.uint64)) & np.uint64(1)
    )
    n = int(hit.size)
    counters.cliques_generated += n
    counters.bit_exist_checks += n
    counters.bit_and_ops += n
    return i[hit], vi[hit], vj[hit], sid[hit]


def pair_groups(first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parent groups of the generated cliques: runs of equal ``first``.

    ``first`` is each generated clique's flat tail position of ``v_i``
    (non-empty, non-decreasing), so a run is one ``(sub-list, v_i)``
    parent.  Returns each group's first clique and each clique's group.
    """
    boundary = np.empty(first.size, dtype=bool)
    boundary[0] = True
    np.not_equal(first[1:], first[:-1], out=boundary[1:])
    return np.flatnonzero(boundary), np.cumsum(boundary) - 1


def select_children(
    nonmax: np.ndarray, starts: np.ndarray, group_of: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The groups retained as child sub-lists: at least two non-maximal
    cliques.  Returns the retained groups, a mask of the cliques that
    become their tails, and each retained group's tail count."""
    n_nonmax = np.add.reduceat(nonmax, starts, dtype=np.int64)
    retained = n_nonmax > 1
    kids = np.flatnonzero(retained)
    return kids, nonmax & retained[group_of], n_nonmax[kids]


def emit_cliques(
    cliques: np.ndarray,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None],
) -> None:
    """Emit the rows of a clique matrix, in row order."""
    rows = cliques.tolist()
    counters.maximal_emitted += len(rows)
    for row in rows:
        emit(tuple(row))


def _expand_batch(
    level: LevelArrays,
    adj: np.ndarray,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None] | None,
    tally: np.ndarray | None,
) -> LevelArrays:
    """Run the pair scan for one batch of sub-lists with batched word ops."""
    first, vi, vj, sid = generated_cliques(
        adj, level.tails, level.offsets, counters
    )
    if not first.size:
        return LevelArrays.empty(level.prefixes.shape[1] + 2, adj.shape[1])
    # maximality for every generated clique at once:
    # CN(prefix) & N(v_i) & N(v_j) row-wise, ANDed in place
    tests = adj[vi]
    np.bitwise_and(tests, adj[vj], out=tests)
    np.bitwise_and(tests, level.cn[sid], out=tests)
    nonmax = tests.any(axis=1)
    del tests
    starts, group_of = pair_groups(first)
    counters.bit_and_ops += int(starts.size)  # child CN derivations
    kids, keep, counts = select_children(nonmax, starts, group_of)
    parent = starts[kids]  # each child's first generated clique
    if tally is not None:
        n = len(level)
        tally[:, 0] += np.bincount(sid, minlength=n)
        tally[:, 1] += np.bincount(sid[starts], minlength=n)
        tally[:, 2] += np.bincount(sid[~nonmax], minlength=n)
        tally[:, 3] += np.bincount(sid[parent], minlength=n)
    if emit is not None:
        maximal = np.flatnonzero(~nonmax)
        emit_cliques(
            np.column_stack(
                (level.prefixes[sid[maximal]], vi[maximal], vj[maximal])
            ),
            counters,
            emit,
        )
    counters.sublists_created += int(kids.size)
    cn = level.cn[sid[parent]]
    np.bitwise_and(cn, adj[vi[parent]], out=cn)
    offsets = np.zeros(kids.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return LevelArrays(
        prefixes=np.column_stack((level.prefixes[sid[parent]], vi[parent])),
        tails=vj[keep],
        offsets=offsets,
        cn=cn,
    )


def expand_level(
    level: LevelArrays,
    adj: np.ndarray,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None] | None,
    tally: np.ndarray | None = None,
) -> LevelArrays:
    """One ``GenerateKCliques`` step on the array form of a level.

    The tail pairs of each :data:`PAIR_BATCH_BYTES` batch of sub-lists
    are built by segment arithmetic (:func:`tail_pairs`), tested for
    adjacency in one gather and for maximality in one row-wise
    ``CN(prefix) & N(v_i) & N(v_j)``; the maximal cliques are emitted
    in pair order, and each ``(sub-list, v_i)`` group with at least two
    non-maximal cliques becomes a child sub-list whose CN string is one
    batched AND.  ``emit=None`` generates without emitting (nor
    counting ``maximal_emitted``): the ``Init_K`` seed levels below
    ``k_min``.  ``tally``, an ``(N, 4)`` ``int64`` array, accumulates
    per sub-list the generated cliques, groups, maximal cliques and
    children (the work records of
    :func:`repro.parallel.parallel_enumerator.record_trace`).
    """
    parts = [
        _expand_batch(
            level.rows(start, end), adj, counters, emit,
            None if tally is None else tally[start:end],
        )
        for start, end in pair_batches(np.diff(level.offsets), adj.shape[1])
    ]
    if not parts:
        return LevelArrays.empty(level.prefixes.shape[1] + 2, adj.shape[1])
    return LevelArrays.concat(parts)


def generate_next_level(
    level: LevelArrays,
    g: Graph,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None],
) -> LevelArrays:
    """One ``GenerateKCliques`` step: level k -> level k+1.

    Emits maximal (k+1)-cliques through ``emit`` and returns the
    candidate (k+1)-clique sub-lists.  Pure with respect to its inputs:
    the level is never mutated, so the parallel driver can hand
    disjoint row ranges (:meth:`~repro.core.sublist.LevelArrays.rows`)
    to different workers and concatenate the outputs.

    The level stays in array form in and out (:func:`expand_level`).
    Pairs are batched across sub-lists — one adjacency gather for every
    (i, j) tail pair of a batch, then the combined maximality test
    ``CN(prefix) & N(v_i) & N(v_j)`` row-wise — chunked at sub-list
    boundaries to :data:`PAIR_BATCH_BYTES` of test rows, so temporary
    memory does not grow with the level.  The recorded counters follow
    the *paper's* operation model (one AND to derive each child
    common-neighbor string, one AND plus one BitOneExists per generated
    clique, one adjacency check per scanned pair), so analyses and the
    machine model stay faithful to Figure 3 even though the word-level
    arithmetic is batched.
    """
    return expand_level(level, g.adj, counters, emit)


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def edge_level(
    adj: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None] | None = None,
) -> LevelArrays:
    """Level 2 over the edges ``u < v`` (canonical order), as arrays.

    Tests every edge for a common neighbor (``(adj[u] & adj[v]).any``,
    in :data:`PAIR_BATCH_BYTES` chunks) and groups the non-maximal ones
    by low endpoint: one sub-list per low endpoint with at least two
    candidates, its CN string that endpoint's adjacency row.  Maximal
    edges are emitted through ``emit`` in canonical order; ``emit=None``
    emits nothing (the ``Init_K`` seed's first level).
    """
    m = int(u.size)
    counters.cliques_generated += m
    counters.bit_and_ops += m
    counters.bit_exist_checks += m
    nonmax = np.zeros(m, dtype=bool)
    chunk = max(1, pair_batch_limit(adj.shape[1]))
    for a in range(0, m, chunk):
        tests = adj[u[a:a + chunk]]
        np.bitwise_and(tests, adj[v[a:a + chunk]], out=tests)
        nonmax[a:a + chunk] = tests.any(axis=1)
    if emit is not None:
        emit_cliques(
            np.column_stack((u[~nonmax], v[~nonmax])), counters, emit
        )
    cu, cv = u[nonmax], v[nonmax]
    if not cu.size:
        return LevelArrays.empty(2, adj.shape[1])
    starts, group_of = pair_groups(cu)
    counts = np.diff(np.append(starts, cu.size))
    kept = counts > 1
    counters.sublists_created += int(kept.sum())
    offsets = np.zeros(int(kept.sum()) + 1, dtype=np.int64)
    np.cumsum(counts[kept], out=offsets[1:])
    lows = cu[starts[kept]]
    return LevelArrays(lows[:, None], cv[kept[group_of]], offsets, adj[lows])


def build_initial_sublists(
    g: Graph,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None],
    emit_maximal_edges: bool,
) -> LevelArrays:
    """Level-2 sub-lists from the edge set (one per low-endpoint vertex).

    An edge ``{v, u}`` (``v < u``) lives in the sub-list whose prefix is
    ``(v,)``.  Maximal edges — no common neighbor — are emitted (when
    ``emit_maximal_edges``) in canonical edge order and excluded from
    the candidates; sub-lists with fewer than two candidates are
    dropped.  One pass over :meth:`~repro.core.graph.Graph.edge_arrays`
    (:func:`edge_level`); the CN rows are the low endpoints' adjacency
    rows, gathered into one matrix.
    """
    u, v = g.edge_arrays()
    return edge_level(
        g.adj, u, v, counters, emit if emit_maximal_edges else None
    )


def build_sublists_from_k_cliques(
    g: Graph,
    k: int,
    cliques: list[tuple[int, ...]],
    counters: OpCounters,
) -> list[CliqueSubList]:
    """Group non-maximal k-cliques into level-k sub-lists (Init_K seeding).

    ``cliques`` must be sorted tuples in canonical order (as produced by
    :func:`repro.core.kclique.enumerate_k_cliques`); maximal k-cliques must
    already have been emitted by the caller and excluded here.  The
    Figure 5–8 trace (:func:`repro.parallel.parallel_enumerator.
    record_trace`) seeds with it; the engine seeds ``Init_K`` through
    the level step instead, to the same sub-lists.
    """
    if k < 2:
        raise ParameterError(f"sub-lists exist for k >= 2, got {k}")
    out: list[CliqueSubList] = []
    adj = g.adj
    i = 0
    cliques = sorted(cliques)
    while i < len(cliques):
        prefix = cliques[i][:-1]
        j = i
        tails: list[int] = []
        while j < len(cliques) and cliques[j][:-1] == prefix:
            tails.append(cliques[j][-1])
            j += 1
        if len(tails) > 1:
            cn = adj[prefix[0]].copy()
            for p in prefix[1:]:
                counters.bit_and_ops += 1
                np.bitwise_and(cn, adj[p], out=cn)
            counters.sublists_created += 1
            out.append(
                CliqueSubList(prefix, np.asarray(tails, dtype=np.int64), cn)
            )
        i = j
    return out


# ---------------------------------------------------------------------------
# Driver (compatibility shim over the engine layer)
# ---------------------------------------------------------------------------

def enumerate_maximal_cliques(
    g: Graph,
    k_min: int = 1,
    k_max: int | None = None,
    on_clique: Callable[[tuple[int, ...]], None] | None = None,
    max_cliques: int | None = None,
    max_candidate_bytes: int | None = None,
) -> EnumerationResult:
    """Enumerate all maximal cliques with sizes in ``[k_min, k_max]``.

    This is the historical entry point, now a thin shim over the
    ``"incore"`` backend of :mod:`repro.engine` — the unified driver that
    also powers the bit-scan, out-of-core, and threaded substrates.
    Prefer :class:`repro.engine.EnumerationEngine` for new code; this
    function remains for the paper-faithful sequential algorithm.

    Parameters
    ----------
    g:
        Input graph.
    k_min:
        Lower size bound (the paper's ``Init_K``).  For ``k_min >= 3`` the
        k-clique enumerator seeds the levels; smaller values start from
        edges (and vertices for ``k_min = 1``).
    k_max:
        Optional upper size bound; enumeration stops after emitting
        maximal cliques of this size.  ``completed`` is False when
        candidates remained.
    on_clique:
        Optional sink.  When given, cliques stream to it and are *not*
        collected in the result (the paper's terabyte-scale outputs make
        collection optional by necessity).
    max_cliques:
        Optional budget; exceeding it raises
        :class:`~repro.errors.BudgetExceeded`.
    max_candidate_bytes:
        Optional cap on measured candidate memory per level; exceeding it
        raises :class:`~repro.errors.BudgetExceeded`.

    Returns
    -------
    EnumerationResult
        Maximal cliques in non-decreasing size order plus per-level stats.

    Examples
    --------
    >>> from repro.core.generators import barbell_graph
    >>> res = enumerate_maximal_cliques(barbell_graph(3))
    >>> sorted(res.cliques)
    [(0, 1, 2), (2, 3), (3, 4, 5)]
    """
    from repro.engine import EnumerationConfig, run_enumeration

    config = EnumerationConfig(
        backend="incore",
        k_min=k_min,
        k_max=k_max,
        max_cliques=max_cliques,
        max_candidate_bytes=max_candidate_bytes,
    )
    return run_enumeration(g, config, on_clique=on_clique)


# ---------------------------------------------------------------------------
# Ablation: the paper's rejected bit-scan generation variant
# ---------------------------------------------------------------------------

def generate_next_level_bitscan(
    level: LevelArrays,
    g: Graph,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None],
) -> LevelArrays:
    """The paper's alternative generation: scan the bit string directly.

    Section 2.3: "there is another way to generate (k+1)-cliques by
    taking advantage of the bit strings.  Going through each bit of the
    bit string, we are able to identify the common neighbors.  [...]
    However, we do not use this method because for each clique, every bit
    in the bit string of length n must be visited, which requires n
    comparisons while our method checks only the list of common neighbors
    whose size is bounded by (n-k)."

    Implemented for the ablation benchmark: output is identical to
    :func:`generate_next_level`; the cost model charges the full
    ``n``-bit scan per clique (tracked in ``counters.extra`` under
    ``bits_scanned``), and the wall-clock difference is measurable on
    sparse graphs where tail lists are far shorter than ``n``.  The
    level's rows are read in place and the children gathered into
    arrays; the scan itself stays one ``n``-bit pass per tail.
    """
    adj = g.adj
    n = g.n
    prefixes: list[list[int]] = []
    tails: list[np.ndarray] = []
    cns: list[np.ndarray] = []
    o = level.offsets.tolist()
    for prefix, a, b, cn in zip(level.prefixes.tolist(), o, o[1:], level.cn):
        for v in level.tails[a:b].tolist()[:-1]:
            counters.bit_and_ops += 1
            child_cn = cn & adj[v]
            # mask away bits <= v, then scan the entire bit string
            masked = child_cn.copy()
            word = v >> 6
            masked[:word] = 0
            keep_high = ~((np.uint64(1) << np.uint64((v & 63) + 1))
                          - np.uint64(1)) if (v & 63) < 63 else np.uint64(0)
            masked[word] &= keep_high
            partners = bs.words_to_indices(masked, n)
            counters.extra["bits_scanned"] = (
                counters.extra.get("bits_scanned", 0) + n
            )
            if partners.size == 0:
                continue
            counters.cliques_generated += int(partners.size)
            counters.bit_and_ops += int(partners.size)
            counters.bit_exist_checks += int(partners.size)
            tests = adj[partners] & child_cn[None, :]
            nonmax = tests.any(axis=1)
            child_prefix = tuple(prefix) + (v,)
            for u in partners[~nonmax].tolist():
                counters.maximal_emitted += 1
                emit(child_prefix + (int(u),))
            cand = partners[nonmax]
            if cand.size > 1:
                counters.sublists_created += 1
                prefixes.append(prefix + [v])
                tails.append(cand)
                cns.append(child_cn)
    if not prefixes:
        return LevelArrays.empty(level.prefixes.shape[1] + 2, adj.shape[1])
    offsets = np.zeros(len(tails) + 1, dtype=np.int64)
    np.cumsum([t.size for t in tails], out=offsets[1:])
    return LevelArrays(
        prefixes=np.array(prefixes, dtype=np.int64),
        tails=np.concatenate(tails),
        offsets=offsets,
        cn=np.stack(cns),
    )
