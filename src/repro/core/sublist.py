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

from dataclasses import dataclass

import numpy as np

from repro.core.bitset import WORD_BITS
from repro.core.compressed import WahBitmap
from repro.core.wah_kernels import batch_decode_words, batch_encode_words

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
    """A :class:`CliqueSubList` whose common-neighbor string is WAH words.

    The paper closes by observing that the sparsity of the bitmap memory
    index "can potentially provide high compression rate"; the bitmap
    index is the common-neighbor string, so that is the one array held
    compressed.  Tails stay the ascending ``int64`` index array the
    generation step reads.  Levels are stored and expanded as
    :class:`CompressedLevelBatch` objects; this per-entry form is what
    :meth:`CompressedLevelBatch.to_entries` (the store's
    ``stream_entries`` view) yields.

    Attributes
    ----------
    prefix:
        The shared (k-1)-clique, ascending vertex indices.
    tails:
        ``int64`` array of k-th vertices, ascending, as in
        :class:`CliqueSubList`.
    cn:
        Compressed common-neighbor string of ``prefix``.
    """

    prefix: tuple[int, ...]
    tails: np.ndarray
    cn: WahBitmap

    def __len__(self) -> int:
        return int(self.tails.size)

    def nbytes(self, index_bytes: int = 8, pointer_bytes: int = 8) -> int:
        """Measured storage, comparable to :meth:`CliqueSubList.nbytes`
        (prefix + tails + the compressed CN payload + the list
        pointer)."""
        return (
            (self.tails.size + len(self.prefix)) * index_bytes
            + self.cn.nbytes()
            + pointer_bytes
        )

    def uncompressed_nbytes(
        self, index_bytes: int = 8, pointer_bytes: int = 8
    ) -> int:
        """What :meth:`CliqueSubList.nbytes` would charge for this
        sub-list, computed without decompressing anything.

        The common-neighbor string would be ``cn.n / 8`` bytes of raw
        ``uint64`` words (the universe is always a whole number of
        64-bit words).  This is the per-entry baseline the compressed
        paths report as *decompressed bytes avoided*.
        """
        return (
            (self.tails.size + len(self.prefix)) * index_bytes
            + self.cn.n // 8
            + pointer_bytes
        )

    def __repr__(self) -> str:
        return (
            f"CompressedSubList(prefix={self.prefix}, "
            f"n_tails={len(self)}, words={self.cn.compressed_words()})"
        )


@dataclass(frozen=True)
class CompressedLevelBatch:
    """A whole level chunk of compressed sub-lists, structure-of-arrays.

    The batch counterpart of a ``list[CompressedSubList]``: instead of
    one Python object (and a :class:`~repro.core.compressed.WahBitmap`
    wrapper) per sub-list, the level chunk holds **one flat ``uint32``
    word array** of every CN stream concatenated and **one flat
    ``int64`` tails array**, each with an ``int64`` offset array — the
    layout the :mod:`repro.core.wah_kernels` batch kernels consume
    directly.  All CN streams share one bit universe (the graph's
    64-bit-padded vertex span), so the batch AND / decode / encode
    kernels can treat the whole chunk as run-boundary arithmetic on one
    array.  Tails are not compressed: on the genome graph their WAH
    words are no smaller than 8-byte indices, and the generation step
    reads indices.

    Attributes
    ----------
    prefixes:
        The shared (k-1)-clique of each sub-list, in level order.
    universe:
        Bit universe of every CN stream (``64 * ceil(n / 64)``).
    tails / tail_offsets:
        Every sub-list's ascending tail indices, concatenated; sub-list
        ``i`` owns ``tails[tail_offsets[i]:tail_offsets[i + 1]]``.
    cn_words / cn_offsets:
        SoA batch of the compressed common-neighbor strings; stream
        ``i`` is ``cn_words[cn_offsets[i]:cn_offsets[i + 1]]``.
    """

    prefixes: tuple[tuple[int, ...], ...]
    universe: int
    tails: np.ndarray
    tail_offsets: np.ndarray
    cn_words: np.ndarray
    cn_offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.prefixes)

    @property
    def n_tails(self) -> np.ndarray:
        """``int64`` per-entry tail counts."""
        return np.diff(self.tail_offsets)

    @property
    def n_groups(self) -> int:
        """Shared WAH group count of every CN stream in the batch."""
        return (self.universe + 30) // 31

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_parts(
        cls,
        prefixes: tuple[tuple[int, ...], ...],
        universe: int,
        tails: list[np.ndarray],
        tail_counts,
        cn_parts: list[tuple[np.ndarray, np.ndarray]],
    ) -> "CompressedLevelBatch":
        """Assemble a batch from tail and CN fragments.

        ``tails`` are ``int64`` fragments whose concatenation is every
        sub-list's ascending tails in order, ``tail_counts[i]`` the
        number of sub-list ``i``'s tails; ``cn_parts`` are SoA
        ``(words, offsets)`` batches whose streams, taken in order, are
        the sub-lists' compressed CN strings.
        """
        if not prefixes:
            return cls.empty(universe)
        tail_offsets = np.zeros(len(prefixes) + 1, dtype=np.int64)
        np.cumsum(tail_counts, out=tail_offsets[1:])
        cn_words, cn_offsets = _cat(
            [w for w, _ in cn_parts], [o for _, o in cn_parts]
        )
        return cls(
            prefixes=prefixes,
            universe=universe,
            tails=np.concatenate(tails),
            tail_offsets=tail_offsets,
            cn_words=cn_words,
            cn_offsets=cn_offsets,
        )

    @classmethod
    def from_sublists(
        cls, sublists: list[CliqueSubList]
    ) -> "CompressedLevelBatch":
        """Batch-compress raw sub-lists (one vectorised CN encode).

        Each CN stream is byte-identical to ``WahBitmap.from_words`` of
        that sub-list's ``cn_words`` — the canonicalisation lives in
        one shared kernel — so accounting and storage measurements are
        independent of which path compressed a chunk.
        """
        if not sublists:
            return cls.empty(0)
        universe = WORD_BITS * int(sublists[0].cn_words.size)
        return cls.from_parts(
            tuple(sl.prefix for sl in sublists),
            universe,
            [sl.tails for sl in sublists],
            [sl.tails.size for sl in sublists],
            [
                batch_encode_words(
                    np.stack([sl.cn_words for sl in sublists]), universe
                )
            ],
        )

    @classmethod
    def concat(
        cls, batches: "list[CompressedLevelBatch]"
    ) -> "CompressedLevelBatch":
        """Concatenate batches over the same universe, in order.

        Pure array concatenation — streams are copied verbatim, never
        re-encoded — so the result is byte-for-byte the batch that would
        have been built from the combined entries.
        """
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls.empty(0)
        tails, tail_offsets = _cat(
            [b.tails for b in batches], [b.tail_offsets for b in batches]
        )
        cn_words, cn_offsets = _cat(
            [b.cn_words for b in batches], [b.cn_offsets for b in batches]
        )
        return cls(
            prefixes=tuple(
                p for b in batches for p in b.prefixes
            ),
            universe=batches[0].universe,
            tails=tails,
            tail_offsets=tail_offsets,
            cn_words=cn_words,
            cn_offsets=cn_offsets,
        )

    @classmethod
    def empty(cls, universe: int) -> "CompressedLevelBatch":
        """The zero-entry batch over ``universe`` bits."""
        return cls(
            prefixes=(),
            universe=universe,
            tails=np.zeros(0, dtype=np.int64),
            tail_offsets=np.zeros(1, dtype=np.int64),
            cn_words=np.zeros(0, dtype=np.uint32),
            cn_offsets=np.zeros(1, dtype=np.int64),
        )

    def rows(self, start: int, end: int) -> "CompressedLevelBatch":
        """Sub-lists ``[start, end)`` as a batch of their own.

        The tails and word arrays are views into this batch, never
        copies; only the ``end - start + 1`` offsets are rebased.
        """
        to, co = self.tail_offsets, self.cn_offsets
        return CompressedLevelBatch(
            prefixes=self.prefixes[start:end],
            universe=self.universe,
            tails=self.tails[to[start]:to[end]],
            tail_offsets=to[start:end + 1] - to[start],
            cn_words=self.cn_words[co[start]:co[end]],
            cn_offsets=co[start:end + 1] - co[start],
        )

    # -- conversions -------------------------------------------------------

    def to_entries(self) -> list[CompressedSubList]:
        """Per-entry view: ``CompressedSubList`` objects sharing the
        flat arrays (zero copies — tails are views and the bitmap
        wrappers are read-only views into the batch)."""
        universe = self.universe
        to, co = self.tail_offsets, self.cn_offsets
        cw = self.cn_words
        cw.setflags(write=False)
        return [
            CompressedSubList(
                prefix=self.prefixes[i],
                tails=self.tails[to[i]:to[i + 1]],
                cn=WahBitmap._trusted(universe, cw[co[i]:co[i + 1]]),
            )
            for i in range(len(self.prefixes))
        ]

    def to_sublists(self) -> list[CliqueSubList]:
        """Batch-decompress to the raw hot-loop representation, via one
        vectorised CN decode; tails are views of :attr:`tails`."""
        if not self.prefixes:
            return []
        mat = batch_decode_words(
            self.cn_words, self.cn_offsets, self.n_groups, self.universe
        )
        to = self.tail_offsets
        return [
            CliqueSubList(
                prefix=self.prefixes[i],
                tails=self.tails[to[i]:to[i + 1]],
                cn_words=mat[i],
            )
            for i in range(len(self.prefixes))
        ]

    # -- accounting --------------------------------------------------------

    def nbytes(self, index_bytes: int = 8, pointer_bytes: int = 8) -> int:
        """Sum of the per-entry :meth:`CompressedSubList.nbytes`."""
        prefix_len = sum(len(p) for p in self.prefixes)
        return (
            (self.tails.size + prefix_len) * index_bytes
            + 4 * self.cn_words.size
            + pointer_bytes * len(self.prefixes)
        )

    def uncompressed_nbytes(
        self, index_bytes: int = 8, pointer_bytes: int = 8
    ) -> int:
        """Sum of the per-entry
        :meth:`CompressedSubList.uncompressed_nbytes`."""
        prefix_len = sum(len(p) for p in self.prefixes)
        return (
            (self.tails.size + prefix_len) * index_bytes
            + (self.universe // 8 + pointer_bytes) * len(self.prefixes)
        )

    def __repr__(self) -> str:
        return (
            f"CompressedLevelBatch(entries={len(self.prefixes)}, "
            f"universe={self.universe}, tails={self.tails.size}, "
            f"words={self.cn_words.size})"
        )


def _cat(
    flats: list[np.ndarray], offsets: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``(flat, offsets)`` batches, rebasing the offsets."""
    lens = np.concatenate([np.diff(o) for o in offsets])
    out = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=out[1:])
    return np.concatenate(flats), out
