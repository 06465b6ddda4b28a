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

Drivers
-------
:func:`enumerate_maximal_cliques` runs the complete pipeline: seeding at
``k_min`` (edges for ``k_min <= 2``, the k-clique enumerator of
:mod:`repro.core.kclique` for ``k_min >= 3`` — the paper's ``Init_K``),
then levels until exhaustion or ``k_max``.  Per-level statistics (the
paper's ``N[k]``, ``M[k]``) are recorded for the memory-usage experiment
(Figure 9) and for the parallel machine model.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError
from repro.core import bitset as bs
from repro.core.counters import IOStats, OpCounters
from repro.core.graph import Graph
from repro.core.sublist import CliqueSubList

__all__ = [
    "LevelStats",
    "EnumerationResult",
    "paper_formula_bytes",
    "generate_next_level",
    "generate_next_level_bitscan",
    "build_initial_sublists",
    "build_sublists_from_k_cliques",
    "enumerate_maximal_cliques",
]

#: bytes per stored vertex index (the paper's ``c``); we store int64.
INDEX_BYTES = 8
#: bytes per sub-list pointer in the paper's space formula.
POINTER_BYTES = 8


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
        ``decompressed_bytes`` (sub-list bytes materialised in raw form
        while streaming levels), ``decompressed_bytes_avoided`` (raw
        bytes that stayed compressed end to end), ``kernel_word_ops`` /
        ``kernel_ands`` (compressed words touched / kernel calls), and
        ``adj_rows_compressed``.  Deliberately *not* part of
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

_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triu_pairs(t: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached upper-triangle index pairs for sub-lists of ``t`` tails."""
    cached = _TRIU_CACHE.get(t)
    if cached is None:
        cached = np.triu_indices(t, k=1)
        _TRIU_CACHE[t] = cached
    return cached


#: byte budget of one pair batch, shared by the bitset and WAH steps.
#: A batch takes at most ``PAIR_BATCH_BYTES // (8 * n_words)`` pairs,
#: so every array it holds per pair — the bitset step's
#: ``adj[v_i] & adj[v_j] & CN`` test rows, the WAH step's operand
#: streams — is bounded by the budget, however wide the level is.
PAIR_BATCH_BYTES = 1 << 20


def pair_batch_limit(n_words: int) -> int:
    """Pairs per step batch for adjacency rows of ``n_words`` words.

    Batches split only at sub-list boundaries, so a sub-list with more
    pairs than this is a batch of its own.
    """
    return PAIR_BATCH_BYTES // (8 * max(n_words, 1))


def pair_batches(tail_counts, n_words: int) -> list[tuple[int, int]]:
    """Cut a level into contiguous ``[start, end)`` sub-list ranges.

    ``tail_counts[i]`` is sub-list ``i``'s tail count.  Each range
    holds at most :func:`pair_batch_limit` pairs, except that a range
    always takes at least one sub-list, so a sub-list over the limit
    is a range of its own.  Both generation steps cut their pair
    batches with this rule, and the ``threads`` backend its work units.
    """
    t = np.asarray(tail_counts, dtype=np.int64)
    return weight_batches(t * (t - 1) // 2, pair_batch_limit(n_words))


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


def _process_batch(
    batch: list[CliqueSubList],
    g: Graph,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None],
    out: list[CliqueSubList],
) -> None:
    """Run the pair scan for one batch of sub-lists with batched word ops."""
    adj = g.adj
    one = np.uint64(1)
    vi_parts: list[np.ndarray] = []
    vj_parts: list[np.ndarray] = []
    pair_counts: list[int] = []
    for sl in batch:
        iu, ju = _triu_pairs(int(sl.tails.size))
        vi_parts.append(sl.tails[iu])
        vj_parts.append(sl.tails[ju])
        pair_counts.append(int(iu.size))
    all_vi = np.concatenate(vi_parts)
    all_vj = np.concatenate(vj_parts)
    all_sid = np.repeat(
        np.arange(len(batch), dtype=np.int64),
        np.asarray(pair_counts, dtype=np.int64),
    )
    counters.pair_checks += int(all_vi.size)
    # adjacency bit of every (v_i, v_j) pair in one gather
    bits = (adj[all_vi, all_vj >> 6] >> (all_vj & 63).astype(np.uint64)) & one
    mask = bits.astype(bool)
    if not mask.any():
        return
    pvi = all_vi[mask]
    pvj = all_vj[mask]
    psid = all_sid[mask]
    n_pairs = int(pvi.size)
    counters.cliques_generated += n_pairs
    counters.bit_exist_checks += n_pairs
    counters.bit_and_ops += n_pairs
    # maximality for every generated clique at once:
    # CN(prefix) & N(v_i) & N(v_j) row-wise over the whole batch
    cn_stack = np.stack([sl.cn_words for sl in batch])
    tests = adj[pvi] & adj[pvj]
    np.bitwise_and(tests, cn_stack[psid], out=tests)
    nonmax = tests.any(axis=1)
    # group boundaries: (sub-list, v_i) pairs are emitted in canonical
    # order because sub-lists arrive prefix-sorted and iu ascends
    boundary = np.concatenate(
        ([True], (psid[1:] != psid[:-1]) | (pvi[1:] != pvi[:-1]))
    )
    starts = np.flatnonzero(boundary)
    n_nonmax = np.add.reduceat(nonmax, starts).astype(np.int64)
    ends = np.concatenate((starts[1:], [n_pairs]))
    sizes = ends - starts
    starts_l = starts.tolist()
    ends_l = ends.tolist()
    sizes_l = sizes.tolist()
    n_nonmax_l = n_nonmax.tolist()
    pvj_list = pvj.tolist()
    nonmax_list = nonmax.tolist()
    counters.bit_and_ops += len(starts_l)  # child CN derivations (paper)
    for gi in range(len(starts_l)):
        s = starts_l[gi]
        size = sizes_l[gi]
        nm = n_nonmax_l[gi]
        if nm == size and nm <= 1:
            continue  # nothing maximal to emit, nothing to retain
        e = ends_l[gi]
        sl = batch[int(psid[s])]
        v = int(pvi[s])
        child_prefix = sl.prefix + (v,)
        if nm < size:  # some generated cliques are maximal: emit them
            for idx in range(s, e):
                if not nonmax_list[idx]:
                    counters.maximal_emitted += 1
                    emit(child_prefix + (pvj_list[idx],))
        if nm > 1:  # at least two candidates: retain the sub-list
            cand = pvj[s:e][nonmax[s:e]]
            counters.sublists_created += 1
            out.append(
                CliqueSubList(child_prefix, cand, sl.cn_words & adj[v])
            )


def generate_next_level(
    sublists: list[CliqueSubList],
    g: Graph,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None],
) -> list[CliqueSubList]:
    """One ``GenerateKCliques`` step: level k sub-lists -> level k+1.

    Emits maximal (k+1)-cliques through ``emit`` and returns the candidate
    (k+1)-clique sub-lists.  Pure with respect to its inputs: sub-lists are
    never mutated, so the parallel driver can hand disjoint slices of
    ``sublists`` to different workers and merge the outputs.

    The implementation batches the pair scan across sub-lists — one
    adjacency gather for every (i, j) tail pair of the level, then the
    combined maximality test ``CN(prefix) & N(v_i) & N(v_j)`` row-wise —
    chunked at sub-list boundaries to :data:`PAIR_BATCH_BYTES` of test
    rows, so temporary memory does not grow with the level.  The
    recorded counters follow the *paper's* operation model (one AND to
    derive each child common-neighbor string, one AND plus one
    BitOneExists per generated clique, one adjacency check per scanned
    pair), so analyses and the machine model stay faithful to Figure 3
    even though the word-level arithmetic is batched.
    """
    out: list[CliqueSubList] = []
    live = [sl for sl in sublists if sl.tails.size >= 2]
    tail_counts = [sl.tails.size for sl in live]
    for start, end in pair_batches(tail_counts, g.adj.shape[1]):
        _process_batch(live[start:end], g, counters, emit, out)
    return out


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def build_initial_sublists(
    g: Graph,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None],
    emit_maximal_edges: bool,
) -> list[CliqueSubList]:
    """Level-2 sub-lists from the edge set (one per low-endpoint vertex).

    An edge ``{v, u}`` (``v < u``) lives in the sub-list whose prefix is
    ``(v,)``.  Maximal edges — no common neighbor — are emitted (when
    ``emit_maximal_edges``) and excluded from the candidates; sub-lists
    with fewer than two candidates are dropped.
    """
    adj = g.adj
    out: list[CliqueSubList] = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        tails = nbrs[nbrs > v]
        if tails.size == 0:
            continue
        counters.cliques_generated += int(tails.size)
        counters.bit_and_ops += int(tails.size)
        counters.bit_exist_checks += int(tails.size)
        tests = adj[tails] & adj[v][None, :]
        nonmax = tests.any(axis=1)
        if emit_maximal_edges:
            for u in tails[~nonmax].tolist():
                counters.maximal_emitted += 1
                emit((v, int(u)))
        cand = tails[nonmax]
        if cand.size > 1:
            counters.sublists_created += 1
            out.append(CliqueSubList((v,), cand, adj[v]))
    return out


def build_sublists_from_k_cliques(
    g: Graph,
    k: int,
    cliques: list[tuple[int, ...]],
    counters: OpCounters,
) -> list[CliqueSubList]:
    """Group non-maximal k-cliques into level-k sub-lists (Init_K seeding).

    ``cliques`` must be sorted tuples in canonical order (as produced by
    :func:`repro.core.kclique.enumerate_k_cliques`); maximal k-cliques must
    already have been emitted by the caller and excluded here.
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
    sublists: list[CliqueSubList],
    g: Graph,
    counters: OpCounters,
    emit: Callable[[tuple[int, ...]], None],
) -> list[CliqueSubList]:
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
    sparse graphs where tail lists are far shorter than ``n``.
    """
    adj = g.adj
    n = g.n
    out: list[CliqueSubList] = []
    for sl in sublists:
        tails = sl.tails
        cn = sl.cn_words
        for v in tails.tolist()[:-1]:
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
            child_prefix = sl.prefix + (v,)
            for u in partners[~nonmax].tolist():
                counters.maximal_emitted += 1
                emit(child_prefix + (int(u),))
            cand = partners[nonmax]
            if cand.size > 1:
                counters.sublists_created += 1
                out.append(CliqueSubList(child_prefix, cand, child_cn))
    return out
