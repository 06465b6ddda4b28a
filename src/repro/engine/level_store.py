"""Level storage substrates for the unified enumeration loop.

The Clique Enumerator touches its candidate sub-lists in exactly one
pattern: append the whole next level, then stream it back once for
expansion.  :class:`LevelStore` captures that single-pass contract plus
the accounting the level loop needs (``N[k]``, ``M[k]``, measured bytes
— the paper's per-level statistics), so the storage substrate becomes a
policy choice (:attr:`repro.engine.config.EnumerationConfig.level_store`):

* :class:`MemoryLevelStore` — candidates stay in RAM; streaming yields
  the whole level as one chunk so the generation step keeps its full
  cross-sub-list batching (the paper's in-core mode);
* :class:`~repro.core.out_of_core.DiskLevelStore` — candidates spill to
  disk and stream back chunk by chunk with counted I/O (the retired
  out-of-core mode, kept measurable);
* :class:`CompressedLevelStore` — common-neighbor strings held
  WAH-compressed (:mod:`repro.core.compressed`), realising the paper's
  closing remark that the sparse bitmap index "can potentially provide
  high compression rate"; the level streams back still compressed, and
  the compressed-domain step expands it without decompressing.

All are driven by the same loop in :mod:`repro.engine.level_loop`, and
all enforce the single-pass contract: a second ``stream()`` — or an
``append()`` once streaming began — raises
:class:`~repro.errors.LevelStoreError` instead of silently replaying or
corrupting the level.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator

from repro.errors import LevelStoreError, ParameterError
from repro.core.clique_enumerator import INDEX_BYTES, POINTER_BYTES
from repro.core.out_of_core import DiskLevelStore
from repro.core.sublist import (
    CliqueSubList,
    CompressedLevelBatch,
    CompressedSubList,
)

__all__ = [
    "LevelStore",
    "MemoryLevelStore",
    "DiskLevelStore",
    "CompressedLevelStore",
]


class LevelStore(ABC):
    """Single-pass storage for one level of candidate sub-lists.

    Contract: ``append`` the complete level, then ``stream`` it back
    exactly once (in insertion order, as chunks), then ``close``.  The
    contract is enforced — a second ``stream()`` or a late ``append()``
    raises :class:`~repro.errors.LevelStoreError`.  The accounting
    properties must reflect everything appended so far; the level loop
    reads them for per-level statistics and memory budgets without
    materialising the level.
    """

    @abstractmethod
    def append(self, sl: CliqueSubList) -> None:
        """Add one sub-list to the level."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored sub-lists."""

    @property
    @abstractmethod
    def n_sublists(self) -> int:
        """The paper's ``N[k]`` for this level."""

    @property
    @abstractmethod
    def n_candidates(self) -> int:
        """The paper's ``M[k]`` for this level."""

    @property
    @abstractmethod
    def candidate_bytes(self) -> int:
        """Measured candidate storage of this level, in bytes."""

    @abstractmethod
    def stream(self) -> Iterator[list[CliqueSubList]]:
        """Yield the sub-lists back in insertion order, chunk by chunk."""

    @abstractmethod
    def close(self) -> None:
        """Release any backing resources; idempotent."""

    def __enter__(self) -> "LevelStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryLevelStore(LevelStore):
    """In-memory level store: a list with the paper's accounting.

    ``stream`` yields the entire level as a single chunk, so the
    generation step sees every sub-list at once and batches pairs
    across sub-lists under its byte budget (``PAIR_BATCH_BYTES``).
    """

    def __init__(self) -> None:
        self._sublists: list[CliqueSubList] = []
        self._n_candidates = 0
        self._candidate_bytes = 0
        self._streamed = False

    def append(self, sl: CliqueSubList) -> None:
        """Add one sub-list to the level."""
        if self._streamed:
            raise LevelStoreError(
                "append() after stream(): the level store is single-pass"
            )
        self._sublists.append(sl)
        self._n_candidates += len(sl)
        self._candidate_bytes += sl.nbytes(INDEX_BYTES, POINTER_BYTES)

    def __len__(self) -> int:
        return len(self._sublists)

    @property
    def n_sublists(self) -> int:
        """The paper's ``N[k]`` for this level."""
        return len(self._sublists)

    @property
    def n_candidates(self) -> int:
        """The paper's ``M[k]`` for this level."""
        return self._n_candidates

    @property
    def candidate_bytes(self) -> int:
        """Measured candidate storage of this level, in bytes."""
        return self._candidate_bytes

    def stream(self) -> Iterator[list[CliqueSubList]]:
        """Yield the whole level as one chunk (full batching preserved)."""
        if self._streamed:
            raise LevelStoreError(
                "stream() called twice on a single-pass level store"
            )
        self._streamed = True
        return self._stream()

    def _stream(self) -> Iterator[list[CliqueSubList]]:
        if self._sublists:
            yield self._sublists

    def close(self) -> None:
        """Drop the level (lists are garbage-collected)."""
        self._sublists = []


class CompressedLevelStore(LevelStore):
    """WAH-compressed in-memory level store — the paper's "work underway".

    The level is held as :class:`~repro.core.sublist.
    CompressedLevelBatch` parts: common-neighbor strings are WAH words
    in one flat array per part and tails one flat ``int64`` index
    array, so :attr:`candidate_bytes` — the figure the Figure-9
    experiment and the ``max_candidate_bytes`` budget read — is the
    bytes the level holds: :class:`MemoryLevelStore`'s charge with each
    raw CN string replaced by its WAH words.  On sparse genome-scale
    graphs the deep-level common-neighbor strings are a few set bits
    in a universe of thousands, where WAH shrinks them by an order of
    magnitude.

    Raw :meth:`append` calls (the seed level) are buffered and
    batch-encoded ``chunk_size`` at a time through
    :meth:`~repro.core.sublist.CompressedLevelBatch.from_sublists`;
    :meth:`append_batch` stores a whole batch as-is, which is how the
    compressed-domain step (:class:`~repro.core.compressed_domain.
    CompressedExpander`, the step every backend runs on this store)
    hands back its children.  The WAH encoding is canonical, so stored
    words — and therefore every accounting property — are
    byte-identical to encoding each sub-list on its own.

    Three streams read the level back, each in insertion order and
    under one single-pass contract (one streaming pass total, whichever
    method starts it):

    * :meth:`stream_batches` yields the stored batches coalesced into
      one, never decompressing — the stream the level loop runs;
    * :meth:`stream` decompresses one stored part at a time (a
      ``chunk_size`` run of raw appends, or one appended batch), so
      only that part's full-width bit strings are live;
    * :meth:`stream_entries` yields per-entry
      :class:`~repro.core.sublist.CompressedSubList` views over the
      stored arrays, without decompressing the CN strings.

    The two counters :attr:`decompressed_bytes` /
    :attr:`bypassed_bytes` record which path each streamed byte took,
    feeding the run's ``domain_stats["decompressed_bytes"]`` /
    ``["decompressed_bytes_avoided"]`` telemetry.

    Parameters
    ----------
    chunk_size:
        Raw appends encoded per stored part.  Larger parts keep more of
        a decompressing consumer's cross-sub-list batching; smaller
        parts bound its transient decompressed working set.
    """

    def __init__(self, chunk_size: int = 256):
        if chunk_size < 1:
            raise ParameterError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.chunk_size = chunk_size
        self._pending: list[CliqueSubList] = []
        #: the stored batches, in insertion order
        self._parts: list[CompressedLevelBatch] = []
        self._n_sublists = 0
        self._n_candidates = 0
        self._candidate_bytes = 0
        self._uncompressed_bytes = 0
        self._streamed = False
        #: raw sub-list bytes materialised by the decompressing stream().
        self.decompressed_bytes = 0
        #: raw-equivalent bytes streamed without decompressing — the
        #: "decompressed bytes avoided".
        self.bypassed_bytes = 0

    def append(self, sl: CliqueSubList) -> None:
        """Buffer one raw sub-list for batch compression."""
        if self._streamed:
            raise LevelStoreError(
                "append() after stream(): the level store is single-pass"
            )
        self._pending.append(sl)
        if len(self._pending) >= self.chunk_size:
            self._flush_pending()

    def _flush_pending(self) -> None:
        """Store the buffered raw appends as one batch part.

        Called before any other part is stored and before any read, so
        the parts keep the level's insertion order.
        """
        if self._pending:
            pending, self._pending = self._pending, []
            self._store_batch(CompressedLevelBatch.from_sublists(pending))

    def _store_batch(self, batch: CompressedLevelBatch) -> None:
        # batch.nbytes()/uncompressed_nbytes() equal the per-entry sums
        # exactly (same formulas over the same canonical words), so the
        # bulk charge is byte-identical to entry-at-a-time accounting.
        self._parts.append(batch)
        self._n_sublists += len(batch)
        self._n_candidates += int(batch.n_tails.sum())
        self._candidate_bytes += batch.nbytes(INDEX_BYTES, POINTER_BYTES)
        self._uncompressed_bytes += batch.uncompressed_nbytes(
            INDEX_BYTES, POINTER_BYTES
        )

    def append_batch(self, batch: CompressedLevelBatch) -> None:
        """Store a whole compressed level batch.

        The batch is held as-is — one part, no per-entry objects — and
        accounted in bulk; :meth:`stream_batches` later yields it back
        untouched, so the level loop never materialises an entry.
        """
        if self._streamed:
            raise LevelStoreError(
                "append() after stream(): the level store is single-pass"
            )
        if len(batch):
            self._flush_pending()
            self._store_batch(batch)

    def __len__(self) -> int:
        return self._n_sublists + len(self._pending)

    @property
    def n_sublists(self) -> int:
        """The paper's ``N[k]`` for this level."""
        return self._n_sublists + len(self._pending)

    @property
    def n_candidates(self) -> int:
        """The paper's ``M[k]`` for this level."""
        self._flush_pending()
        return self._n_candidates

    @property
    def candidate_bytes(self) -> int:
        """Measured *compressed* candidate storage, in bytes."""
        self._flush_pending()
        return self._candidate_bytes

    @property
    def uncompressed_bytes(self) -> int:
        """What :class:`MemoryLevelStore` would have charged for this
        level — the baseline for :meth:`compression_ratio`."""
        self._flush_pending()
        return self._uncompressed_bytes

    def compression_ratio(self) -> float:
        """Uncompressed bytes over compressed bytes (>= 1 means win)."""
        if not self.candidate_bytes:
            return 1.0
        return self._uncompressed_bytes / self._candidate_bytes

    def _begin_stream(self) -> list[CompressedLevelBatch]:
        """Start the single streaming pass; the stored parts."""
        self._flush_pending()
        self._streamed = True
        return self._parts

    def stream(self) -> Iterator[list[CliqueSubList]]:
        """Decompress and yield one stored part at a time."""
        if self._streamed:
            raise LevelStoreError(
                "stream() called twice on a single-pass level store"
            )
        return self._stream(self._begin_stream())

    def _stream(
        self, parts: list[CompressedLevelBatch]
    ) -> Iterator[list[CliqueSubList]]:
        for part in parts:
            self.decompressed_bytes += part.uncompressed_nbytes(
                INDEX_BYTES, POINTER_BYTES
            )
            yield part.to_sublists()

    def stream_batches(self) -> Iterator[CompressedLevelBatch]:
        """Yield the whole level as one :class:`CompressedLevelBatch`.

        The stored parts are coalesced: the consumer's per-call fixed
        cost dominates the array concat, and nothing decompresses
        either way, so there is no working-set concern.  The words never
        leave compressed form.
        """
        if self._streamed:
            raise LevelStoreError(
                "stream() called twice on a single-pass level store"
            )
        return self._stream_batches(self._begin_stream())

    def _stream_batches(
        self, parts: list[CompressedLevelBatch]
    ) -> Iterator[CompressedLevelBatch]:
        if parts:
            merged = CompressedLevelBatch.concat(parts)
            self.bypassed_bytes += merged.uncompressed_nbytes(
                INDEX_BYTES, POINTER_BYTES
            )
            yield merged

    def stream_entries(self) -> Iterator[list[CompressedSubList]]:
        """Yield per-entry views of the stored parts, never
        decompressing.

        Each chunk is one stored part as :class:`CompressedSubList`
        objects sharing its word arrays
        (:meth:`~repro.core.sublist.CompressedLevelBatch.to_entries`).
        """
        if self._streamed:
            raise LevelStoreError(
                "stream() called twice on a single-pass level store"
            )
        return self._stream_entries(self._begin_stream())

    def _stream_entries(
        self, parts: list[CompressedLevelBatch]
    ) -> Iterator[list[CompressedSubList]]:
        for part in parts:
            self.bypassed_bytes += part.uncompressed_nbytes(
                INDEX_BYTES, POINTER_BYTES
            )
            yield part.to_entries()

    def close(self) -> None:
        """Drop the compressed level."""
        self._parts = []
        self._pending = []


# The disk substrate implements the same interface structurally; register
# it so isinstance(LevelStore) holds without making repro.core depend on
# the engine package.
LevelStore.register(DiskLevelStore)
