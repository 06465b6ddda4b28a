"""The k-clique sub-list: the Clique Enumerator's working data structure.

Section 2.3 of the paper: "the k-cliques generated from a same (k-1)-clique
naturally form a sub-list consisting of the (k-1)-clique with a list of
common neighbors of this (k-1)-clique.  [...] to avoid the duplication of
cliques, only the common neighbors whose indices [are] higher than the
index of the (k-1)-th vertex need to be kept" and "the algorithm keeps the
common neighbors of the shared (k-1)-clique for each k-clique sub-list
instead of each k-clique, which avoids large memory requirement as well as
repetitive bit operations."

A :class:`CliqueSubList` therefore stores

* ``prefix`` — the shared (k-1)-clique, an ascending vertex tuple stored
  once for the whole sub-list,
* ``tails`` — the k-th vertices, ascending, all greater than
  ``prefix[-1]``; entry ``t`` represents the k-clique ``prefix + (t,)``,
* ``cn_words`` — the common-neighbor bit string of *the prefix* (not of
  each member clique), so a member's common neighbors cost one AND.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bitset import WORD_BITS, words_to_indices
from repro.core.compressed import WahBitmap
from repro.core.wah_kernels import (
    batch_decode_indices,
    batch_decode_words,
    batch_encode_indices,
    batch_encode_words,
)

__all__ = ["CliqueSubList", "CompressedSubList", "CompressedLevelBatch"]


@dataclass(frozen=True)
class CliqueSubList:
    """One sub-list of candidate k-cliques sharing a (k-1)-clique prefix.

    Attributes
    ----------
    prefix:
        The shared (k-1)-clique, ascending vertex indices.
    tails:
        ``int64`` array of k-th vertices, ascending, each greater than
        ``prefix[-1]``.  ``len(tails)`` is the number of candidate
        k-cliques in the sub-list.
    cn_words:
        ``uint64`` bit-string words of the common neighbors of ``prefix``.
    """

    prefix: tuple[int, ...]
    tails: np.ndarray
    cn_words: np.ndarray

    @property
    def k(self) -> int:
        """Size of the cliques this sub-list holds."""
        return len(self.prefix) + 1

    def __len__(self) -> int:
        return int(self.tails.size)

    def cliques(self) -> list[tuple[int, ...]]:
        """Materialise the member k-cliques (for tests and debugging)."""
        return [self.prefix + (int(t),) for t in self.tails.tolist()]

    def nbytes(self, index_bytes: int = 8, pointer_bytes: int = 8) -> int:
        """Measured storage: prefix + tails + bit string + list pointer.

        Mirrors the paper's space accounting
        ``M[k]*c + N[k]*((k-1)*c + ceil(n/8)) + N[k]*sizeof(pointer)``
        contribution of a single sub-list with ``c = index_bytes``.
        """
        return (
            self.tails.size * index_bytes
            + len(self.prefix) * index_bytes
            + self.cn_words.nbytes
            + pointer_bytes
        )

    def work_estimate(self) -> int:
        """Units of generation work this sub-list will cost.

        Dominated by the pairwise adjacency checks among tails —
        ``O(|tails|^2)`` — plus one length-n AND per tail.  The load
        balancer (:mod:`repro.parallel.load_balancer`) divides sub-lists
        across threads by this estimate.
        """
        t = int(self.tails.size)
        return t * (t - 1) // 2 + t * max(1, self.cn_words.size // 8)

    def __repr__(self) -> str:
        return (
            f"CliqueSubList(prefix={self.prefix}, "
            f"tails={self.tails.tolist()[:8]}"
            f"{'...' if self.tails.size > 8 else ''}, k={self.k})"
        )


@dataclass(frozen=True)
class CompressedSubList:
    """A :class:`CliqueSubList` with both arrays WAH-compressed.

    The paper closes by observing that the sparsity of the bitmap memory
    index "can potentially provide high compression rate"; this is the
    per-entry form of that candidate representation.  Tails are
    ascending and unique, so they are losslessly held as a bitmap over
    the same vertex universe as the common-neighbor string — on sparse
    genome-scale graphs both compress to a handful of words.  Levels
    are stored and expanded as :class:`CompressedLevelBatch` objects;
    this form is the scalar-codec oracle the batch encoders are checked
    against, and what :meth:`CompressedLevelBatch.to_entries` (the
    store's per-entry ``stream_entries`` view) yields.

    Attributes
    ----------
    prefix:
        The shared (k-1)-clique, stored uncompressed (it is k-1 small
        integers).
    n_tails:
        ``len(tails)``, cached so accounting never pays a
        compressed-domain :meth:`~repro.core.compressed.WahBitmap.count`.
    tails:
        Compressed bitmap of the k-th vertices.
    cn:
        Compressed common-neighbor string of ``prefix``.
    """

    prefix: tuple[int, ...]
    n_tails: int
    tails: WahBitmap
    cn: WahBitmap

    @classmethod
    def from_sublist(cls, sl: CliqueSubList) -> "CompressedSubList":
        """Compress one sub-list (universe = the cn word span)."""
        n_bits = WORD_BITS * int(sl.cn_words.size)
        return cls(
            prefix=sl.prefix,
            n_tails=int(sl.tails.size),
            tails=WahBitmap.from_indices(n_bits, sl.tails),
            cn=WahBitmap.from_words(sl.cn_words),
        )

    def to_sublist(self) -> CliqueSubList:
        """Decompress back to the hot-loop representation.

        Exact inverse of :meth:`from_sublist`: tails come back as the
        ascending ``int64`` array, ``cn_words`` as the ``uint64``
        bit-string words the generation step ANDs against adjacency.
        """
        return CliqueSubList(
            prefix=self.prefix,
            tails=words_to_indices(self.tails.to_words(), self.tails.n),
            cn_words=self.cn.to_words(),
        )

    def __len__(self) -> int:
        return self.n_tails

    def nbytes(self, index_bytes: int = 8, pointer_bytes: int = 8) -> int:
        """Measured compressed storage, comparable to
        :meth:`CliqueSubList.nbytes` (prefix + both compressed payloads
        + the list pointer)."""
        return (
            len(self.prefix) * index_bytes
            + self.tails.nbytes()
            + self.cn.nbytes()
            + pointer_bytes
        )

    def uncompressed_nbytes(
        self, index_bytes: int = 8, pointer_bytes: int = 8
    ) -> int:
        """What :meth:`CliqueSubList.nbytes` would charge for this
        sub-list, computed without decompressing anything.

        The tails array would be ``n_tails`` indices and the
        common-neighbor string ``cn.n / 8`` bytes of raw ``uint64``
        words (the universe is always a whole number of 64-bit words,
        see :meth:`from_sublist`).  This is the per-entry baseline the
        compressed paths report as *decompressed bytes avoided*.
        """
        return (
            self.n_tails * index_bytes
            + len(self.prefix) * index_bytes
            + self.cn.n // 8
            + pointer_bytes
        )

    def __repr__(self) -> str:
        return (
            f"CompressedSubList(prefix={self.prefix}, "
            f"n_tails={self.n_tails}, "
            f"words={self.tails.compressed_words()}"
            f"+{self.cn.compressed_words()})"
        )


@dataclass(frozen=True)
class CompressedLevelBatch:
    """A whole level chunk of compressed sub-lists, structure-of-arrays.

    The batch counterpart of a ``list[CompressedSubList]``: instead of
    one Python object (and two :class:`~repro.core.compressed.WahBitmap`
    wrappers) per sub-list, the level chunk holds **two flat ``uint32``
    word arrays** — every tails stream concatenated, every CN stream
    concatenated — plus ``int64`` offset arrays, the layout the
    :mod:`repro.core.wah_kernels` batch kernels consume directly.  All
    streams share one bit universe (the graph's 64-bit-padded vertex
    span), so the batch AND / decode / encode kernels can treat the
    whole chunk as run-boundary arithmetic on two arrays.

    Attributes
    ----------
    prefixes:
        The shared (k-1)-clique of each sub-list, in level order.
    universe:
        Bit universe of every tails/CN stream (``64 * ceil(n / 64)``).
    n_tails:
        ``int64`` per-entry tail counts (cached like
        :attr:`CompressedSubList.n_tails`).
    tails_words / tails_offsets:
        SoA batch of the compressed tails bitmaps; stream ``i`` is
        ``tails_words[tails_offsets[i]:tails_offsets[i + 1]]``.
    cn_words / cn_offsets:
        SoA batch of the compressed common-neighbor strings.
    tails_idx:
        Optional decoded-tails cache ``(flat_idx, idx_offsets)`` —
        exactly what :func:`~repro.core.wah_kernels.
        batch_decode_indices` would return for the tails batch.
        Constructors that already hold the indices (the batch encoder,
        the numpy generation step) attach them so consumers never pay
        the round-trip decode; purely derived data, excluded from
        comparison and repr.
    """

    prefixes: tuple[tuple[int, ...], ...]
    universe: int
    n_tails: np.ndarray
    tails_words: np.ndarray
    tails_offsets: np.ndarray
    cn_words: np.ndarray
    cn_offsets: np.ndarray
    tails_idx: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    def decoded_tails(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flat_idx, idx_offsets)`` of every tails stream, cached."""
        if self.tails_idx is not None:
            return self.tails_idx
        return batch_decode_indices(
            self.tails_words, self.tails_offsets,
            self.n_groups, self.universe,
        )

    def __len__(self) -> int:
        return len(self.prefixes)

    @property
    def n_groups(self) -> int:
        """Shared WAH group count of every stream in the batch."""
        return (self.universe + 30) // 31

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sublists(
        cls, sublists: list[CliqueSubList]
    ) -> "CompressedLevelBatch":
        """Batch-compress raw sub-lists (one vectorised encode each way).

        Produces byte-identical streams to
        :meth:`CompressedSubList.from_sublist` entry by entry — the
        canonicalisation lives in one shared kernel — so accounting and
        storage measurements are independent of which path compressed a
        chunk.
        """
        if not sublists:
            return cls.empty(0)
        universe = WORD_BITS * int(sublists[0].cn_words.size)
        cn_words, cn_offsets = batch_encode_words(
            np.stack([sl.cn_words for sl in sublists]), universe
        )
        counts = np.fromiter(
            (sl.tails.size for sl in sublists),
            dtype=np.int64,
            count=len(sublists),
        )
        idx_offsets = np.zeros(len(sublists) + 1, dtype=np.int64)
        np.cumsum(counts, out=idx_offsets[1:])
        flat_idx = (
            np.concatenate([sl.tails for sl in sublists])
            if idx_offsets[-1]
            else np.zeros(0, dtype=np.int64)
        )
        tails_words, tails_offsets = batch_encode_indices(
            flat_idx, idx_offsets, universe
        )
        return cls(
            prefixes=tuple(sl.prefix for sl in sublists),
            universe=universe,
            n_tails=counts,
            tails_words=tails_words,
            tails_offsets=tails_offsets,
            cn_words=cn_words,
            cn_offsets=cn_offsets,
            tails_idx=(flat_idx, idx_offsets),
        )

    @classmethod
    def concat(
        cls, batches: "list[CompressedLevelBatch]"
    ) -> "CompressedLevelBatch":
        """Concatenate batches over the same universe, in order.

        Pure array concatenation — streams are copied verbatim, never
        re-encoded — so the result is byte-for-byte the batch that would
        have been built from the combined entries.  The decoded-tails
        cache survives when every input carries one.
        """
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls.empty(0)

        def _cat(words, offsets):
            lens = np.concatenate([np.diff(o) for o in offsets])
            out = np.zeros(lens.size + 1, dtype=np.int64)
            np.cumsum(lens, out=out[1:])
            return np.concatenate(words), out

        tw, to = _cat(
            [b.tails_words for b in batches],
            [b.tails_offsets for b in batches],
        )
        cw, co = _cat(
            [b.cn_words for b in batches],
            [b.cn_offsets for b in batches],
        )
        idx = None
        if all(b.tails_idx is not None for b in batches):
            flat, offs = _cat(
                [b.tails_idx[0] for b in batches],
                [b.tails_idx[1] for b in batches],
            )
            idx = (flat, offs)
        return cls(
            prefixes=tuple(
                p for b in batches for p in b.prefixes
            ),
            universe=batches[0].universe,
            n_tails=np.concatenate([b.n_tails for b in batches]),
            tails_words=tw,
            tails_offsets=to,
            cn_words=cw,
            cn_offsets=co,
            tails_idx=idx,
        )

    @classmethod
    def empty(cls, universe: int) -> "CompressedLevelBatch":
        """The zero-entry batch over ``universe`` bits."""
        return cls(
            prefixes=(),
            universe=universe,
            n_tails=np.zeros(0, dtype=np.int64),
            tails_words=np.zeros(0, dtype=np.uint32),
            tails_offsets=np.zeros(1, dtype=np.int64),
            cn_words=np.zeros(0, dtype=np.uint32),
            cn_offsets=np.zeros(1, dtype=np.int64),
            tails_idx=(
                np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
            ),
        )

    def rows(self, start: int, end: int) -> "CompressedLevelBatch":
        """Sub-lists ``[start, end)`` as a batch of their own.

        The word arrays and the decoded-tails cache are views into this
        batch, never copies; only the ``end - start + 1`` offsets are
        rebased.
        """
        to, co = self.tails_offsets, self.cn_offsets
        idx = None
        if self.tails_idx is not None:
            flat, offs = self.tails_idx
            idx = (
                flat[offs[start]:offs[end]],
                offs[start:end + 1] - offs[start],
            )
        return CompressedLevelBatch(
            prefixes=self.prefixes[start:end],
            universe=self.universe,
            n_tails=self.n_tails[start:end],
            tails_words=self.tails_words[to[start]:to[end]],
            tails_offsets=to[start:end + 1] - to[start],
            cn_words=self.cn_words[co[start]:co[end]],
            cn_offsets=co[start:end + 1] - co[start],
            tails_idx=idx,
        )

    # -- conversions -------------------------------------------------------

    def to_entries(self) -> list[CompressedSubList]:
        """Per-entry view: ``CompressedSubList`` objects sharing the
        flat word arrays (zero word copies — the bitmap wrappers are
        read-only views into the batch)."""
        universe = self.universe
        to = self.tails_offsets
        co = self.cn_offsets
        tw = self.tails_words
        cw = self.cn_words
        tw.setflags(write=False)
        cw.setflags(write=False)
        return [
            CompressedSubList(
                prefix=self.prefixes[i],
                n_tails=int(self.n_tails[i]),
                tails=WahBitmap._trusted(
                    universe, tw[to[i]:to[i + 1]]
                ),
                cn=WahBitmap._trusted(universe, cw[co[i]:co[i + 1]]),
            )
            for i in range(len(self.prefixes))
        ]

    def to_sublists(self) -> list[CliqueSubList]:
        """Batch-decompress to the raw hot-loop representation.

        Entry-by-entry equal to :meth:`CompressedSubList.to_sublist`,
        via two vectorised decodes instead of ``2 N`` group walks.
        """
        if not self.prefixes:
            return []
        mat = batch_decode_words(
            self.cn_words, self.cn_offsets, self.n_groups, self.universe
        )
        flat_idx, idx_offsets = self.decoded_tails()
        return [
            CliqueSubList(
                prefix=self.prefixes[i],
                tails=flat_idx[idx_offsets[i]:idx_offsets[i + 1]],
                cn_words=mat[i],
            )
            for i in range(len(self.prefixes))
        ]

    # -- accounting --------------------------------------------------------

    def nbytes(self, index_bytes: int = 8, pointer_bytes: int = 8) -> int:
        """Sum of the per-entry :meth:`CompressedSubList.nbytes`."""
        prefix_len = sum(len(p) for p in self.prefixes)
        return (
            prefix_len * index_bytes
            + 4 * int(self.tails_words.size + self.cn_words.size)
            + pointer_bytes * len(self.prefixes)
        )

    def uncompressed_nbytes(
        self, index_bytes: int = 8, pointer_bytes: int = 8
    ) -> int:
        """Sum of the per-entry
        :meth:`CompressedSubList.uncompressed_nbytes`."""
        prefix_len = sum(len(p) for p in self.prefixes)
        return (
            int(self.n_tails.sum()) * index_bytes
            + prefix_len * index_bytes
            + (self.universe // 8 + pointer_bytes) * len(self.prefixes)
        )

    def __repr__(self) -> str:
        return (
            f"CompressedLevelBatch(entries={len(self.prefixes)}, "
            f"universe={self.universe}, "
            f"words={int(self.tails_words.size + self.cn_words.size)})"
        )
