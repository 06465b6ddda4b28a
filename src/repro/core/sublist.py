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

A level is held and stepped in chunk form, never as one object per
sub-list: :class:`LevelArrays` (prefix matrix, flat tails with offsets,
CN row matrix) in the ``memory`` and ``disk`` stores and the bitset
step, :class:`CompressedLevelBatch` (the same with WAH-compressed CN
strings) in the ``wah`` store; :data:`LevelChunk` is either.
:class:`LevelStore` is the base of those stores: the single-pass
contract and the paper's per-level accounting, written once.
:class:`CliqueSubList` remains the per-sub-list view the Figure 5–8
trace seeds from.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.errors import LevelStoreError
from repro.core.bitset import WORD_BITS
from repro.core.wah_kernels import batch_decode_words, batch_encode_words

__all__ = [
    "CliqueSubList",
    "LevelArrays",
    "CompressedLevelBatch",
    "LevelChunk",
    "LevelStore",
]

#: bytes per stored vertex index (the paper's ``c``); we store int64.
INDEX_BYTES = 8
#: bytes per sub-list pointer in the paper's space formula.
POINTER_BYTES = 8


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
class LevelArrays:
    """A chunk of one candidate level, as arrays.

    The array counterpart of a ``list[CliqueSubList]``: sub-list ``i``
    has prefix ``prefixes[i]`` (a row of the ``(N, k-1)`` ``int64``
    matrix), ascending tails ``tails[offsets[i]:offsets[i + 1]]`` (one
    flat ``int64`` array) and prefix common-neighbor string ``cn[i]``
    (a row of the ``(N, n_words)`` ``uint64`` matrix).  The ``memory``
    and ``disk`` level stores take and yield this form, and the step
    (:func:`~repro.core.clique_enumerator.expand_level`) reads and
    writes it, so its Python runs once per pair batch, not once per
    sub-list or group.
    """

    prefixes: np.ndarray
    tails: np.ndarray
    offsets: np.ndarray
    cn: np.ndarray

    def __len__(self) -> int:
        return self.prefixes.shape[0]

    @property
    def n_tails(self) -> np.ndarray:
        """``int64`` per-sub-list tail counts."""
        return np.diff(self.offsets)

    def nbytes(self, index_bytes: int = 8, pointer_bytes: int = 8) -> int:
        """Sum of the per-sub-list :meth:`CliqueSubList.nbytes`: tails
        and prefixes at ``index_bytes`` per index, the CN rows, and one
        pointer per sub-list."""
        return (
            (self.tails.size + self.prefixes.size) * index_bytes
            + self.cn.nbytes
            + len(self) * pointer_bytes
        )

    @classmethod
    def empty(cls, k: int, n_words: int) -> "LevelArrays":
        """The zero-sub-list level of ``k``-cliques."""
        return cls(
            prefixes=np.zeros((0, k - 1), dtype=np.int64),
            tails=np.zeros(0, dtype=np.int64),
            offsets=np.zeros(1, dtype=np.int64),
            cn=np.zeros((0, n_words), dtype=np.uint64),
        )

    @classmethod
    def from_sublists(cls, sublists: list[CliqueSubList]) -> "LevelArrays":
        """Gather a non-empty list of one level's sub-lists."""
        counts = [sl.tails.size for sl in sublists]
        offsets = np.zeros(len(sublists) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            prefixes=np.array(
                [sl.prefix for sl in sublists], dtype=np.int64
            ).reshape(len(sublists), -1),
            tails=np.concatenate([sl.tails for sl in sublists]),
            offsets=offsets,
            cn=np.array([sl.cn_words for sl in sublists]),
        )

    @classmethod
    def concat(cls, levels: list["LevelArrays"]) -> "LevelArrays":
        """Concatenate chunks of the same ``k`` (at least one), in
        order; a single chunk is returned as-is, uncopied."""
        if len(levels) == 1:
            return levels[0]
        counts = np.concatenate([lv.n_tails for lv in levels])
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            prefixes=np.concatenate([lv.prefixes for lv in levels]),
            tails=np.concatenate([lv.tails for lv in levels]),
            offsets=offsets,
            cn=np.concatenate([lv.cn for lv in levels]),
        )

    def rows(self, start: int, end: int) -> "LevelArrays":
        """Sub-lists ``[start, end)`` as views, offsets rebased."""
        o = self.offsets
        return LevelArrays(
            prefixes=self.prefixes[start:end],
            tails=self.tails[o[start]:o[end]],
            offsets=o[start:end + 1] - o[start],
            cn=self.cn[start:end],
        )

    def to_sublists(self) -> list[CliqueSubList]:
        """The level as sub-lists whose tails and CN strings are views
        of these arrays."""
        o = self.offsets.tolist()
        return [
            CliqueSubList(tuple(prefix), self.tails[a:b], cn)
            for prefix, a, b, cn in zip(
                self.prefixes.tolist(), o, o[1:], self.cn
            )
        ]


@dataclass(frozen=True)
class CompressedLevelBatch:
    """A whole level chunk of compressed sub-lists, structure-of-arrays.

    :class:`LevelArrays` with the CN row matrix replaced by WAH words:
    the chunk holds the ``(N, k-1)`` ``int64`` prefix matrix, **one
    flat ``int64`` tails array** and **one flat ``uint32`` word array**
    of every CN stream concatenated, each with an ``int64`` offset
    array — the layout the :mod:`repro.core.wah_kernels` batch kernels
    consume directly.  All CN streams share one bit universe (the
    graph's 64-bit-padded vertex span), so the batch AND / decode /
    encode kernels can treat the whole chunk as run-boundary arithmetic
    on one array.  Tails are not compressed: on the genome graph their
    WAH words are no smaller than 8-byte indices, and the generation
    step reads indices.

    Attributes
    ----------
    prefixes:
        The ``(N, k-1)`` ``int64`` matrix of each sub-list's shared
        (k-1)-clique, in level order.
    universe:
        Bit universe of every CN stream (``64 * ceil(n / 64)``).
    tails / tail_offsets:
        Every sub-list's ascending tail indices, concatenated; sub-list
        ``i`` owns ``tails[tail_offsets[i]:tail_offsets[i + 1]]``.
    cn_words / cn_offsets:
        SoA batch of the compressed common-neighbor strings; stream
        ``i`` is ``cn_words[cn_offsets[i]:cn_offsets[i + 1]]``.
    """

    prefixes: np.ndarray
    universe: int
    tails: np.ndarray
    tail_offsets: np.ndarray
    cn_words: np.ndarray
    cn_offsets: np.ndarray

    def __len__(self) -> int:
        return self.prefixes.shape[0]

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
    def from_level(cls, level: LevelArrays) -> "CompressedLevelBatch":
        """Batch-compress a :class:`LevelArrays` chunk (one vectorised
        CN encode over its row matrix); prefixes and tails are shared.

        Each CN stream is the canonical WAH encoding of that sub-list's
        CN row — the canonicalisation lives in one shared kernel — so
        accounting and storage measurements are independent of how a
        level was cut into chunks.
        """
        universe = WORD_BITS * int(level.cn.shape[1])
        cn_words, cn_offsets = batch_encode_words(level.cn, universe)
        return cls(
            prefixes=level.prefixes,
            universe=universe,
            tails=level.tails,
            tail_offsets=level.offsets,
            cn_words=cn_words,
            cn_offsets=cn_offsets,
        )

    @classmethod
    def concat(
        cls, batches: "list[CompressedLevelBatch]"
    ) -> "CompressedLevelBatch":
        """Concatenate batches of the same ``k`` and universe (at least
        one), in order; a single batch is returned as-is, uncopied.

        Pure array concatenation — streams are copied verbatim, never
        re-encoded — so the result is byte-for-byte the batch that would
        have been built from the combined entries.
        """
        if len(batches) == 1:
            return batches[0]
        tails, tail_offsets = _cat(
            [b.tails for b in batches], [b.tail_offsets for b in batches]
        )
        cn_words, cn_offsets = _cat(
            [b.cn_words for b in batches], [b.cn_offsets for b in batches]
        )
        return cls(
            prefixes=np.concatenate([b.prefixes for b in batches]),
            universe=batches[0].universe,
            tails=tails,
            tail_offsets=tail_offsets,
            cn_words=cn_words,
            cn_offsets=cn_offsets,
        )

    @classmethod
    def empty(cls, k: int, universe: int) -> "CompressedLevelBatch":
        """The zero-entry batch of ``k``-cliques over ``universe`` bits."""
        return cls(
            prefixes=np.zeros((0, k - 1), dtype=np.int64),
            universe=universe,
            tails=np.zeros(0, dtype=np.int64),
            tail_offsets=np.zeros(1, dtype=np.int64),
            cn_words=np.zeros(0, dtype=np.uint32),
            cn_offsets=np.zeros(1, dtype=np.int64),
        )

    def rows(self, start: int, end: int) -> "CompressedLevelBatch":
        """Sub-lists ``[start, end)`` as a batch of their own.

        The prefix, tails and word arrays are views into this batch,
        never copies; only the ``end - start + 1`` offsets are rebased.
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

    def to_level(self) -> LevelArrays:
        """Batch-decompress to a :class:`LevelArrays` chunk, via one
        vectorised CN decode; prefixes, tails and offsets are shared."""
        return LevelArrays(
            prefixes=self.prefixes,
            tails=self.tails,
            offsets=self.tail_offsets,
            cn=batch_decode_words(
                self.cn_words, self.cn_offsets, self.n_groups,
                self.universe,
            ),
        )

    # -- accounting --------------------------------------------------------

    def nbytes(self, index_bytes: int = 8, pointer_bytes: int = 8) -> int:
        """:meth:`LevelArrays.nbytes` with each CN row charged as its
        WAH words (4 bytes each)."""
        return (
            (self.tails.size + self.prefixes.size) * index_bytes
            + 4 * self.cn_words.size
            + pointer_bytes * len(self)
        )

    def uncompressed_nbytes(
        self, index_bytes: int = 8, pointer_bytes: int = 8
    ) -> int:
        """What :meth:`LevelArrays.nbytes` charges for the decompressed
        chunk, computed without decompressing anything: each CN row is
        ``universe / 8`` bytes of raw ``uint64`` words (the universe is
        always a whole number of 64-bit words).  This is the baseline
        the ``wah`` store reports as *decompressed bytes avoided*."""
        return (
            (self.tails.size + self.prefixes.size) * index_bytes
            + (self.universe // 8 + pointer_bytes) * len(self)
        )

    def __repr__(self) -> str:
        return (
            f"CompressedLevelBatch(entries={len(self)}, "
            f"universe={self.universe}, tails={self.tails.size}, "
            f"words={self.cn_words.size})"
        )


#: one level chunk, in the form its store holds and its step computes
#: in: arrays on the ``memory`` and ``disk`` stores, a compressed batch
#: on ``wah``; both are cut with ``rows`` and joined with ``concat``
LevelChunk = LevelArrays | CompressedLevelBatch


class LevelStore:
    """Single-pass storage for one level of candidate sub-lists.

    The Clique Enumerator touches a level in one pattern only:
    ``append`` the complete level as one or more :data:`LevelChunk`
    chunks, ``stream`` it back exactly once, in insertion order, then
    ``close``.  This base owns that contract — a second ``stream()``,
    or an ``append()`` once streaming began, raises
    :class:`~repro.errors.LevelStoreError` instead of replaying or
    corrupting the level — and the paper's per-level accounting, which
    the level loop reads for statistics and memory budgets without
    materialising the level.  An empty chunk stores nothing.

    A store decides only where the level lives, through four hooks:

    * ``_to_parts(level)`` — the chunk in the store's own form, as
      parts (the chunk itself unless overridden);
    * ``_keep(part)`` — hold one non-empty part;
    * ``_stream()`` — an iterator over the held parts as chunks, in
      insertion order;
    * ``_release()`` — free what the store holds; idempotent.
    """

    def __init__(self) -> None:
        self._n_sublists = 0
        self._n_candidates = 0
        self._candidate_bytes = 0
        self._streamed = False

    def append(self, level: LevelChunk) -> None:
        """Add a chunk of sub-lists to the level."""
        if self._streamed:
            raise LevelStoreError(
                "append() after stream(): the level store is single-pass"
            )
        for part in self._to_parts(level):
            if len(part):
                self._n_sublists += len(part)
                self._n_candidates += int(part.tails.size)
                self._candidate_bytes += part.nbytes(
                    INDEX_BYTES, POINTER_BYTES
                )
                self._keep(part)

    def stream(self) -> Iterator[LevelChunk]:
        """Yield the level back in insertion order, chunk by chunk."""
        if self._streamed:
            raise LevelStoreError(
                "stream() called twice on a single-pass level store"
            )
        self._streamed = True
        return self._stream()

    def __len__(self) -> int:
        return self._n_sublists

    @property
    def n_sublists(self) -> int:
        """The paper's ``N[k]`` for this level."""
        return self._n_sublists

    @property
    def n_candidates(self) -> int:
        """The paper's ``M[k]`` for this level."""
        return self._n_candidates

    @property
    def candidate_bytes(self) -> int:
        """Measured candidate storage of this level: the bytes its
        parts hold in memory (CN strings as WAH words on ``wah``)."""
        return self._candidate_bytes

    def close(self) -> None:
        """Release the store's resources; idempotent."""
        self._release()

    def __enter__(self) -> "LevelStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _to_parts(self, level: LevelChunk) -> Iterable[LevelChunk]:
        return (level,)

    def _keep(self, part: LevelChunk) -> None:
        raise NotImplementedError

    def _stream(self) -> Iterator[LevelChunk]:
        raise NotImplementedError

    def _release(self) -> None:
        raise NotImplementedError


def _cat(
    flats: list[np.ndarray], offsets: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``(flat, offsets)`` batches, rebasing the offsets."""
    lens = np.concatenate([np.diff(o) for o in offsets])
    out = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=out[1:])
    return np.concatenate(flats), out
