"""Compressed-domain generation: the level step that never decompresses.

The paper closes Section 2.3 by observing that the sparsity of its
bitmap memory index "can potentially provide high compression rate and
allow for bitwise operations to be performed on the compressed data."
PR 3's :class:`~repro.engine.level_store.CompressedLevelStore` delivered
the first half — candidates rest WAH-compressed — but still decompressed
every chunk back to raw ``uint64`` words for expansion, paying the codec
twice and materialising the full working set anyway.  This module
delivers the second half: a generation step whose common-neighbor
derivations and ``BitOneExists`` maximality tests run *directly on the
WAH words* via the batched :mod:`repro.core.wah_kernels`, emitting new
tails and CN strings as WAH words without a ``BitSet`` round trip.

:class:`CompressedExpander` matches the engine's
:data:`~repro.engine.level_loop.GenerationStep` signature, so it plugs
into the shared level loop exactly where
:func:`~repro.core.clique_enumerator.generate_next_level` does — and it
charges the *identical* operation counters: the
:class:`~repro.core.counters.OpCounters` model counts the paper's
algorithmic operations (one AND per child CN derivation, one AND plus
one BitOneExists per generated clique, one adjacency probe per scanned
pair), which are representation-independent.  Output cliques,
per-level sub-list and candidate counts, and merged counters are
therefore byte-identical to the raw-word step the ``memory`` and
``disk`` level stores run; only the word arithmetic — and the
telemetry reported via :meth:`CompressedExpander.stats` — differs.
The ``wah`` level store is the one that runs this step.

Two step models are provided, mirroring the two bitset steps so each
backend keeps its documented counter model:

``"pairs"``
    The paper's tail-list generation (Figure 3), used by ``incore`` and
    ``threads``.
``"bitscan"``
    The rejected Section 2.3 bit-scan variant, used by ``bitscan``
    (including its ``bits_scanned`` cost accounting), with the partner
    scan run as one vectorised ``batch_indices_above`` per parent
    chunk.

Both models lift whole level chunks into the structure-of-arrays word
layout of :mod:`repro.core.wah_kernels`: batched adjacency probes, one
vectorised ``batch_and`` per parent group, and one ``batch_and_any``
sweep per chunk of generated cliques.  The counter model charges
algorithmic operations, not loop iterations, so bulk charging a batch
equals charging its pairs one by one.  Every batch kernel produces the
byte-identical words of the scalar :class:`~repro.core.compressed.
WahBitmap` kernels, which stay as the oracle
``tests/core/test_wah_kernel_arrays.py`` replays them against.

Thread safety: one expander serves one run, but its :meth:`step` may be
called concurrently by the ``threads`` backend's workers — the WAH
adjacency-row caches are shared under a lock, and each worker thread
gets its own :class:`~repro.core.compressed.WahScratch`.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

import numpy as np

from repro.errors import ParameterError
from repro.core.bitset import WORD_BITS
from repro.core.clique_enumerator import (
    _triu_pairs,
    pair_batches,
    weight_batches,
)
from repro.core.compressed import WahScratch
from repro.core.counters import OpCounters
from repro.core.graph import Graph
from repro.obs.runtime import get_observability
from repro.core.sublist import CompressedLevelBatch
from repro.core.wah_kernels import (
    batch_and,
    batch_and_any,
    batch_encode_indices,
    batch_encode_words,
    batch_indices_above,
    take_streams,
)

__all__ = ["CompressedExpander", "STEP_MODELS"]

#: the two generation-step counter models an expander can mirror.
STEP_MODELS = ("pairs", "bitscan")

#: bitscan partner scans decode a (parents, universe) bit matrix; cap
#: parents per batch so that transient stays bounded (~32 MB of uint32).
_BITSCAN_BITS_BUDGET = 8_000_000


class CompressedExpander:
    """A generation step running the level expansion in the WAH domain.

    Parameters
    ----------
    g:
        The input graph; its adjacency rows are WAH-compressed lazily,
        one row per vertex the expansion actually touches, and cached
        for the whole run.
    model:
        Which bitset step's structure (and counter model) to mirror:
        ``"pairs"`` (:func:`~repro.core.clique_enumerator.
        generate_next_level`) or ``"bitscan"``
        (:func:`~repro.core.clique_enumerator.
        generate_next_level_bitscan`).

    :meth:`step` takes a whole :class:`~repro.core.sublist.
    CompressedLevelBatch`, as ``CompressedLevelStore.stream_batches``
    yields it (or a row slice of one, under ``threads``), and returns
    the children as one batch, so a level never materialises
    per-entry objects.
    """

    def __init__(self, g: Graph, model: str = "pairs"):
        if model not in STEP_MODELS:
            raise ParameterError(
                f"step model must be one of {', '.join(STEP_MODELS)}, "
                f"got {model!r}"
            )
        self._g = g
        self._adj = g.adj
        self._model = model
        #: bit universe of every CN string / tail bitmap of this graph —
        #: the full 64-bit word span, matching CompressedLevelBatch.
        self._universe = WORD_BITS * int(g.adj.shape[1]) if g.n else 0
        self._n_groups = (self._universe + 30) // 31
        #: adjacency-row cache: an SoA ``(words, offsets, slot)``
        #: triple where ``slot[v]`` is row ``v``'s stream id (-1 while
        #: uncached).  Replaced atomically as a whole tuple, so
        #: lock-free readers always see a consistent snapshot.
        self._row_cache: tuple[np.ndarray, np.ndarray, np.ndarray] = (
            np.empty(0, dtype=np.uint32),
            np.zeros(1, dtype=np.int64),
            np.full(g.n, -1, dtype=np.int64),
        )
        self._rows_compressed = 0
        self._scratches: list[WahScratch] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        # the ambient tracer, captured once per expander (== per run);
        # the disabled plane costs one None check per step
        tracer = get_observability().tracer
        self._tracer = tracer if tracer.enabled else None

    # -- shared state --------------------------------------------------------

    def _rows_for(
        self, verts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """An SoA snapshot of the adjacency-row cache covering ``verts``.

        Returns ``(words, offsets, slot)``; rows not yet cached are
        batch-encoded under the lock first.  Snapshots are append-only,
        so a slot id stays valid in every later snapshot.
        """
        words, offsets, slot = self._row_cache
        verts = np.unique(verts)
        missing = verts[slot[verts] < 0]
        if missing.size:
            with self._lock:
                words, offsets, slot = self._row_cache
                missing = missing[slot[missing] < 0]
                if missing.size:
                    new_w, new_o = batch_encode_words(
                        self._adj[missing], self._universe
                    )
                    base = offsets.size - 1
                    offsets = np.concatenate(
                        (offsets, new_o[1:] + offsets[-1])
                    )
                    words = np.concatenate((words, new_w))
                    slot = slot.copy()
                    slot[missing] = base + np.arange(missing.size)
                    self._row_cache = (words, offsets, slot)
                    self._rows_compressed += int(missing.size)
        return words, offsets, slot

    def _scratch(self) -> WahScratch:
        """This thread's kernel workspace (created on first use)."""
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = WahScratch()
            self._local.scratch = scratch
            with self._lock:
                self._scratches.append(scratch)
        return scratch

    def stats(self) -> dict:
        """Telemetry for ``EnumerationResult.domain_stats``.

        Read after the run (the threads backend joins its pool at every
        level barrier, so worker scratches are quiescent by then).
        """
        with self._lock:
            return {
                "kernel_word_ops": sum(
                    s.word_ops for s in self._scratches
                ),
                "kernel_ands": sum(s.and_ops for s in self._scratches),
                "adj_rows_compressed": self._rows_compressed,
            }

    # -- the generation step -------------------------------------------------

    def step(
        self,
        batch: CompressedLevelBatch,
        g: Graph,
        counters: OpCounters,
        emit: Callable[[tuple[int, ...]], None],
    ) -> CompressedLevelBatch:
        """One ``GenerateKCliques`` step in the compressed domain.

        Matches the engine's ``GenerationStep`` signature; ``g`` must be
        the graph the expander was built for.
        """
        run = (
            self._step_pairs if self._model == "pairs"
            else self._step_bitscan
        )
        if self._tracer is None:
            return run(batch, counters, emit)
        with self._tracer.span(
            "expand", model=self._model, parents=len(batch)
        ) as span:
            children = run(batch, counters, emit)
            span.set(children=len(children))
            return children

    # -- the structure-of-arrays step ----------------------------------------

    def _load(self, batch: CompressedLevelBatch):
        """Normalise one level batch into SoA form for the batch kernels.

        Returns ``(prefixes, tails, cn_words, cn_offsets)`` where
        ``tails`` holds one ascending ``int64`` index array per
        sub-list.  Sub-lists with fewer than two tails are dropped
        here: neither step model can derive anything from them.
        """
        cw, co = batch.cn_words, batch.cn_offsets
        prefixes = list(batch.prefixes)
        keep = np.flatnonzero(batch.n_tails >= 2)
        if keep.size < len(prefixes):
            cw, co = take_streams(cw, co, keep)
            prefixes = [prefixes[i] for i in keep.tolist()]
        # every producer in the level loop caches the decoded tails, so
        # this slices the kept streams straight out of the cache
        flat, offs = batch.decoded_tails()
        tails = [flat[offs[i]:offs[i + 1]] for i in keep.tolist()]
        return prefixes, tails, cw, co

    def _children(self, out_prefixes, out_cands, parts):
        """Materialise the retained children as one level batch.

        ``parts`` holds per-batch SoA fragments of the kept child CN
        streams, in emission order; ``out_cands`` the matching ascending
        tail-index arrays.
        """
        universe = self._universe
        if not out_prefixes:
            return CompressedLevelBatch.empty(universe)
        words = np.concatenate([w for w, _ in parts])
        lens = np.concatenate([np.diff(o) for _, o in parts])
        offsets = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        counts = np.fromiter(
            (c.size for c in out_cands),
            dtype=np.int64,
            count=len(out_cands),
        )
        idx_offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=idx_offsets[1:])
        flat_cands = np.concatenate(out_cands)
        tw, to = batch_encode_indices(flat_cands, idx_offsets, universe)
        return CompressedLevelBatch(
            prefixes=tuple(out_prefixes),
            universe=universe,
            n_tails=counts,
            tails_words=tw,
            tails_offsets=to,
            cn_words=words,
            cn_offsets=offsets,
            tails_idx=(flat_cands, idx_offsets),
        )

    def _step_pairs(self, batch, counters, emit):
        """The tail-list model: counters match ``generate_next_level``.

        Cuts pair batches at sub-list boundaries by the same byte budget
        and rule as the bitset step (:func:`~repro.core.
        clique_enumerator.pair_batches`), so the transients stay flat
        however wide the level is.  Counters, emitted cliques, and
        children are byte-identical to the raw-word step's at any batch
        size.
        """
        prefixes, tails, cn_w, cn_o = self._load(batch)
        scratch = self._scratch()
        out_prefixes: list[tuple[int, ...]] = []
        out_cands: list[np.ndarray] = []
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        tail_counts = [t.size for t in tails]
        for start, end in pair_batches(tail_counts, self._adj.shape[1]):
            self._pairs_batch(
                start, end, prefixes, tails, cn_w, cn_o,
                counters, emit, scratch, out_prefixes, out_cands, parts,
            )
        return self._children(out_prefixes, out_cands, parts)

    def _pairs_batch(
        self, lo, hi, prefixes, tails, cn_w, cn_o,
        counters, emit, scratch, out_prefixes, out_cands, parts,
    ):
        """Expand sub-lists ``[lo, hi)`` as one vectorised pair batch."""
        ng = self._n_groups
        vi_parts, vj_parts, sid_parts = [], [], []
        for s in range(lo, hi):
            iu, ju = _triu_pairs(int(tails[s].size))
            vi_parts.append(tails[s][iu])
            vj_parts.append(tails[s][ju])
            sid_parts.append(np.full(iu.size, s, dtype=np.int64))
        all_vi = np.concatenate(vi_parts)
        all_vj = np.concatenate(vj_parts)
        all_sid = np.concatenate(sid_parts)
        counters.pair_checks += int(all_vi.size)
        if not all_vi.size:
            return
        adjacent = (
            self._adj[all_vi, all_vj >> 6]
            >> (all_vj & 63).astype(np.uint64)
        ) & np.uint64(1)
        mask = adjacent.astype(bool)
        if not mask.any():
            return
        pvi, pvj, psid = all_vi[mask], all_vj[mask], all_sid[mask]
        n_pairs = int(pvi.size)
        counters.cliques_generated += n_pairs
        counters.bit_and_ops += n_pairs
        counters.bit_exist_checks += n_pairs
        # parent groups: one child-CN derivation per distinct (sl, vi)
        boundary = np.empty(n_pairs, dtype=bool)
        boundary[0] = True
        np.logical_or(
            psid[1:] != psid[:-1], pvi[1:] != pvi[:-1], out=boundary[1:]
        )
        starts = np.flatnonzero(boundary)
        group_of = np.cumsum(boundary) - 1
        n_groups_here = int(starts.size)
        counters.bit_and_ops += n_groups_here
        gvi, gsid = pvi[starts], psid[starts]
        rw, ro, slot = self._rows_for(np.concatenate((gvi, pvj)))
        aw, ao = take_streams(cn_w, cn_o, gsid)
        bw, bo = take_streams(rw, ro, slot[gvi])
        chw, cho = batch_and(aw, ao, bw, bo, ng)
        scratch.and_ops += n_groups_here
        scratch.word_ops += int(ao[-1] + bo[-1] + cho[-1])
        # BitOneExists(child_cn & adj[vj]) for every generated clique
        taw, tao = take_streams(chw, cho, group_of)
        tbw, tbo = take_streams(rw, ro, slot[pvj])
        nonmax = batch_and_any(taw, tao, tbw, tbo, ng)
        scratch.and_ops += n_pairs
        scratch.word_ops += int(tao[-1] + tbo[-1])
        n_nonmax = np.add.reduceat(nonmax.astype(np.int64), starts)
        ends = np.append(starts[1:], n_pairs)
        pvj_l, nonmax_l = pvj.tolist(), nonmax.tolist()
        starts_l, ends_l = starts.tolist(), ends.tolist()
        kept: list[int] = []
        for gi in range(n_groups_here):
            s, e = starts_l[gi], ends_l[gi]
            nm = int(n_nonmax[gi])
            size = e - s
            if nm == size and nm <= 1:
                continue
            child_prefix = prefixes[int(gsid[gi])] + (int(gvi[gi]),)
            if nm < size:
                for idx in range(s, e):
                    if not nonmax_l[idx]:
                        counters.maximal_emitted += 1
                        emit(child_prefix + (pvj_l[idx],))
            if nm > 1:
                counters.sublists_created += 1
                kept.append(gi)
                out_prefixes.append(child_prefix)
                out_cands.append(pvj[s:e][nonmax[s:e]])
        if kept:
            parts.append(
                take_streams(chw, cho, np.asarray(kept, dtype=np.int64))
            )

    def _step_bitscan(self, batch, counters, emit):
        """The bit-scan model: counters match
        ``generate_next_level_bitscan`` — including the documented
        full-``n`` ``bits_scanned`` cost accounting — while the partner
        scan runs as one ``batch_indices_above`` per parent chunk.
        """
        prefixes, tails, cn_w, cn_o = self._load(batch)
        scratch = self._scratch()
        out_prefixes: list[tuple[int, ...]] = []
        out_cands: list[np.ndarray] = []
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        cap = max(64, _BITSCAN_BITS_BUDGET // max(self._universe, 64))
        n_parents = [t.size - 1 for t in tails]
        for start, end in weight_batches(n_parents, cap):
            self._bitscan_batch(
                start, end, prefixes, tails, cn_w, cn_o,
                counters, emit, scratch, out_prefixes, out_cands, parts,
            )
        return self._children(out_prefixes, out_cands, parts)

    def _bitscan_batch(
        self, lo, hi, prefixes, tails, cn_w, cn_o,
        counters, emit, scratch, out_prefixes, out_cands, parts,
    ):
        """Expand sub-lists ``[lo, hi)`` as one vectorised parent batch."""
        ng, universe = self._n_groups, self._universe
        psid = np.concatenate(
            [
                np.full(tails[s].size - 1, s, dtype=np.int64)
                for s in range(lo, hi)
            ]
        )
        pvi = np.concatenate([tails[s][:-1] for s in range(lo, hi)])
        n_parents = int(pvi.size)
        if not n_parents:
            return
        # one child-CN AND and one full-n scan charged per parent,
        # whatever representation runs it — the documented cost model
        counters.bit_and_ops += n_parents
        counters.extra["bits_scanned"] = (
            counters.extra.get("bits_scanned", 0) + self._g.n * n_parents
        )
        rw, ro, slot = self._rows_for(pvi)
        aw, ao = take_streams(cn_w, cn_o, psid)
        bw, bo = take_streams(rw, ro, slot[pvi])
        chw, cho = batch_and(aw, ao, bw, bo, ng)
        scratch.and_ops += n_parents
        scratch.word_ops += int(ao[-1] + bo[-1] + cho[-1])
        flat_p, p_off = batch_indices_above(chw, cho, ng, universe, pvi)
        n_partners = int(flat_p.size)
        if not n_partners:
            return
        counters.cliques_generated += n_partners
        counters.bit_and_ops += n_partners
        counters.bit_exist_checks += n_partners
        parent_of = np.repeat(
            np.arange(n_parents, dtype=np.int64), np.diff(p_off)
        )
        rw, ro, slot = self._rows_for(flat_p)
        taw, tao = take_streams(chw, cho, parent_of)
        tbw, tbo = take_streams(rw, ro, slot[flat_p])
        nonmax = batch_and_any(taw, tao, tbw, tbo, ng)
        scratch.and_ops += n_partners
        scratch.word_ops += int(tao[-1] + tbo[-1])
        flat_l, nonmax_l = flat_p.tolist(), nonmax.tolist()
        p_off_l = p_off.tolist()
        kept: list[int] = []
        for p in range(n_parents):
            s, e = p_off_l[p], p_off_l[p + 1]
            if s == e:
                continue
            sub_nm = nonmax[s:e]
            nm = int(sub_nm.sum())
            size = e - s
            if nm == size and nm <= 1:
                continue
            child_prefix = prefixes[int(psid[p])] + (int(pvi[p]),)
            if nm < size:
                for idx in range(s, e):
                    if not nonmax_l[idx]:
                        counters.maximal_emitted += 1
                        emit(child_prefix + (flat_l[idx],))
            if nm > 1:
                counters.sublists_created += 1
                kept.append(p)
                out_prefixes.append(child_prefix)
                out_cands.append(flat_p[s:e][sub_nm])
        if kept:
            parts.append(
                take_streams(chw, cho, np.asarray(kept, dtype=np.int64))
            )
