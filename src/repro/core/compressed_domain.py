"""Compressed-domain generation: the level step that never decompresses.

The paper closes Section 2.3 by observing that the sparsity of its
bitmap memory index "can potentially provide high compression rate and
allow for bitwise operations to be performed on the compressed data."
:class:`~repro.engine.level_store.CompressedLevelStore` delivers the
first half: candidates rest WAH-compressed.  This module delivers the
second half: a generation step whose common-neighbor derivations and
``BitOneExists`` maximality tests run *directly on the WAH words* via
the batched :mod:`repro.core.wah_kernels`, emitting new CN strings as
WAH words without a ``BitSet`` round trip; tails stay ``int64`` index
arrays throughout.  The other operand of every AND is a vertex's
adjacency row, which the step reads raw from ``Graph.adj``: the
kernels probe it only at the CN string's nonzero groups, so it is
never encoded, cached or copied.

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
    scan run as one vectorised ``batch_indices_above`` per batch of
    parents.

Both models run on the structure-of-arrays word layout of
:mod:`repro.core.wah_kernels` and share one children assembly with the
bitset step's helpers (``pair_groups``, ``select_children``,
``emit_cliques``), with no per-sub-list or per-parent loop.  A
``"pairs"`` batch decodes each CN string once, as a parent: the child
CN strings' nonzero units (``batch_and_units``) are written as words
(``batch_encode_units``) and, gathered per generated clique, feed its
maximality test (``batch_units_any``); ``"bitscan"`` scans the child
words for partners, so it runs the composed ``batch_and_rows`` and
``batch_and_rows_any``.  The counter model charges algorithmic
operations, not loop iterations, so bulk charging a batch equals
charging its pairs one by one.  Every batch kernel produces the
byte-identical words of its scalar oracle in ``tests/wah_oracle.py``
(``tests/core/test_wah_kernel_arrays.py``).

Thread safety: one expander serves one run, but its :meth:`step` may be
called concurrently by the ``threads`` backend's workers.  The step
shares only read-only state (the graph's adjacency); each worker
thread gets its own :class:`~repro.core.wah_kernels.WahScratch` for the
kernel tallies, registered under a lock.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

import numpy as np

from repro.errors import ParameterError
from repro.core.bitset import WORD_BITS
from repro.core.clique_enumerator import (
    emit_cliques,
    gathered_batches,
    generated_cliques,
    pair_groups,
    select_children,
)
from repro.core.counters import OpCounters
from repro.core.graph import Graph
from repro.obs.runtime import get_observability
from repro.core.sublist import CompressedLevelBatch
from repro.core.wah_kernels import (
    WahScratch,
    batch_and_rows,
    batch_and_rows_any,
    batch_and_units,
    batch_encode_units,
    batch_indices_above,
    batch_units_any,
    nonzero_group_counts,
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
        The input graph; the kernels read its raw adjacency rows.
    model:
        Which bitset step's structure (and counter model) to mirror:
        ``"pairs"`` (:func:`~repro.core.clique_enumerator.
        generate_next_level`) or ``"bitscan"``
        (:func:`~repro.core.clique_enumerator.
        generate_next_level_bitscan`).

    :meth:`step` takes a whole :class:`~repro.core.sublist.
    CompressedLevelBatch`, as ``CompressedLevelStore.stream`` yields it
    (or a row slice of one, under ``threads``), and returns the
    children as one batch, so a level never materialises per-entry
    objects.
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
        #: bit universe of every CN string of this graph — the full
        #: 64-bit word span, matching CompressedLevelBatch.
        self._universe = WORD_BITS * int(g.adj.shape[1]) if g.n else 0
        self._scratches: list[WahScratch] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        # the ambient tracer, captured once per expander (== per run);
        # the disabled plane costs one None check per step
        tracer = get_observability().tracer
        self._tracer = tracer if tracer.enabled else None

    # -- shared state --------------------------------------------------------

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

    def _step_pairs(self, batch, counters, emit):
        """The tail-list model: counters match ``generate_next_level``.

        Cuts pair batches at sub-list boundaries by the CN groups they
        gather (:func:`~repro.core.clique_enumerator.gathered_batches`),
        so the transients stay flat however wide the level is, and
        builds and groups each batch's pairs with the bitset step's own
        helpers.  Counters, emitted cliques, and children are
        byte-identical to the raw-word step's at any batch size.
        """
        scratch = self._scratch()
        gathered = nonzero_group_counts(batch.cn_words, batch.cn_offsets)
        return self._join(batch, [
            self._pairs_batch(start, end, batch, counters, emit, scratch)
            for start, end in gathered_batches(batch.n_tails, gathered)
        ])

    def _pairs_batch(self, lo, hi, batch, counters, emit, scratch):
        """Expand sub-lists ``[lo, hi)`` as one vectorised pair batch.

        The AND's units are the child CN strings and feed the
        maximality tests.  Returns the children as a batch, or None
        when it retains none.
        """
        first, pvi, pvj, psid = generated_cliques(
            self._adj, batch.tails, batch.tail_offsets[lo:hi + 1], counters
        )
        if not first.size:
            return None
        # parent groups: one child-CN derivation per distinct (sl, vi)
        starts, group_of = pair_groups(first)
        counters.bit_and_ops += int(starts.size)
        part = batch.rows(lo, hi)
        units = batch_and_units(
            part.cn_words, part.cn_offsets, self._adj, pvi[starts],
            psid[starts], scratch,
        )
        streams = batch_encode_units(units, part.n_groups, scratch)
        # BitOneExists(child_cn & adj[vj]) for every generated clique
        nonmax = batch_units_any(
            units, streams[1], self._adj, pvj, group_of, scratch
        )
        return self._children(
            batch, psid + lo, pvi, pvj, nonmax, starts, group_of,
            streams, None, counters, emit,
        )

    def _step_bitscan(self, batch, counters, emit):
        """The bit-scan model: counters match
        ``generate_next_level_bitscan`` — including the documented
        full-``n`` ``bits_scanned`` cost accounting — while the partner
        scan runs as one ``batch_indices_above`` per batch of parents.

        Every tail but a sub-list's last is a parent; parents are cut
        into batches of at most ``_BITSCAN_BITS_BUDGET`` scanned bits.
        """
        n_tails = batch.n_tails
        is_parent = np.ones(batch.tails.size, dtype=bool)
        is_parent[batch.tail_offsets[1:][n_tails > 0] - 1] = False
        pvi = batch.tails[is_parent]
        psid = np.repeat(
            np.arange(len(batch), dtype=np.int64), np.maximum(n_tails - 1, 0)
        )
        cap = max(64, _BITSCAN_BITS_BUDGET // max(self._universe, 64))
        scratch = self._scratch()
        return self._join(batch, [
            self._bitscan_batch(
                batch, psid[a:a + cap], pvi[a:a + cap],
                counters, emit, scratch,
            )
            for a in range(0, pvi.size, cap)
        ])

    def _bitscan_batch(self, batch, psid, pvi, counters, emit, scratch):
        """Expand one batch of parents ``(sub-list psid, tail pvi)``.

        Returns the children as a batch, or None when it retains none.
        """
        n_parents = int(pvi.size)
        # one child-CN AND and one full-n scan charged per parent,
        # whatever representation runs it — the documented cost model
        counters.bit_and_ops += n_parents
        counters.extra["bits_scanned"] = (
            counters.extra.get("bits_scanned", 0) + self._g.n * n_parents
        )
        lo = int(psid[0])
        part = batch.rows(lo, int(psid[-1]) + 1)
        chw, cho = batch_and_rows(
            part.cn_words, part.cn_offsets, self._adj, pvi, psid - lo,
            scratch,
        )
        flat_p, p_off = batch_indices_above(
            chw, cho, part.n_groups, self._universe, pvi
        )
        n_partners = int(flat_p.size)
        if not n_partners:
            return None
        counters.cliques_generated += n_partners
        counters.bit_and_ops += n_partners
        counters.bit_exist_checks += n_partners
        parent_of = np.repeat(
            np.arange(n_parents, dtype=np.int64), np.diff(p_off)
        )
        nonmax = batch_and_rows_any(
            chw, cho, self._adj, flat_p, parent_of, scratch
        )
        # a parent's partners form one group, as a (sub-list, v_i)
        # pair group does in the tail-list model
        starts, group_of = pair_groups(parent_of)
        return self._children(
            batch, psid[parent_of], pvi[parent_of], flat_p, nonmax,
            starts, group_of, (chw, cho), parent_of[starts],
            counters, emit,
        )

    def _children(
        self, batch, sid, vi, vj, nonmax, starts, group_of, streams,
        stream_of, counters, emit,
    ):
        """Emit and select the cliques of one batch: both models' one
        children assembly.

        Generated clique ``c`` is ``prefix[sid[c]] + (vi[c], vj[c])``,
        maximal where ``nonmax[c]`` is false; the cliques from
        ``starts[g]`` on form group ``g`` (``group_of[c]``), whose child
        CN is stream ``stream_of[g]`` of the SoA batch ``streams``
        (stream ``g`` when ``stream_of`` is None).  The maximal cliques
        are emitted in order, and every group with at least two
        non-maximal cliques becomes a child sub-list.  Returns the
        children as a batch, or None when there are none.
        """
        maximal = np.flatnonzero(~nonmax)
        emit_cliques(
            np.column_stack(
                (batch.prefixes[sid[maximal]], vi[maximal], vj[maximal])
            ),
            counters,
            emit,
        )
        kids, keep, counts = select_children(nonmax, starts, group_of)
        if not kids.size:
            return None
        counters.sublists_created += int(kids.size)
        parent = starts[kids]
        tail_offsets = np.zeros(kids.size + 1, dtype=np.int64)
        np.cumsum(counts, out=tail_offsets[1:])
        cn_words, cn_offsets = take_streams(
            *streams, kids if stream_of is None else stream_of[kids]
        )
        return CompressedLevelBatch(
            prefixes=np.column_stack(
                (batch.prefixes[sid[parent]], vi[parent])
            ),
            universe=self._universe,
            tails=vj[keep],
            tail_offsets=tail_offsets,
            cn_words=cn_words,
            cn_offsets=cn_offsets,
        )

    def _join(self, batch, parts):
        """The children of ``batch``'s pair or parent batches, in order."""
        parts = [part for part in parts if part is not None]
        if not parts:
            return CompressedLevelBatch.empty(
                batch.prefixes.shape[1] + 2, self._universe
            )
        return CompressedLevelBatch.concat(parts)
