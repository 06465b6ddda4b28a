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
* :class:`CompressedLevelStore` — candidates held WAH-compressed
  (:mod:`repro.core.compressed`), realising the paper's closing remark
  that the sparse bitmap index "can potentially provide high
  compression rate"; decompression happens one chunk at a time as the
  level streams back for expansion.

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

    Every appended sub-list is held as a
    :class:`~repro.core.sublist.CompressedSubList`: tails and the
    common-neighbor string become
    :class:`~repro.core.compressed.WahBitmap` payloads, so
    :attr:`candidate_bytes` — the figure the Figure-9 experiment and the
    ``max_candidate_bytes`` budget read — is the *compressed* footprint.
    On sparse genome-scale graphs the deep-level common-neighbor strings
    are a few set bits in a universe of thousands, where WAH shrinks
    them by an order of magnitude.

    ``stream`` decompresses ``chunk_size`` sub-lists at a time, so at
    most one chunk of full-width bit strings is live while the
    generation step expands the level; everything not yet streamed stays
    compressed.  ``stream_entries`` skips even that: it yields the
    stored :class:`CompressedSubList` entries themselves, which is how
    the compressed-domain generation step
    (:class:`~repro.core.compressed_domain.CompressedExpander`, the step
    every backend runs on this store) consumes a level with zero
    decompression.
    Both share the single-pass contract.  The two counters
    :attr:`decompressed_bytes` / :attr:`bypassed_bytes` record which
    path each streamed byte took, feeding the run's
    ``domain_stats["decompressed_bytes"]`` /
    ``["decompressed_bytes_avoided"]`` telemetry.

    Raw appends are buffered and batch-encoded ``chunk_size`` at a time
    through :meth:`~repro.core.sublist.CompressedLevelBatch.
    from_sublists` (one vectorised encode instead of per-entry group
    walks), the decompressing :meth:`stream` decodes each chunk with one
    vectorised pass, and the :meth:`append_batch` /
    :meth:`stream_batches` pair moves whole
    :class:`~repro.core.sublist.CompressedLevelBatch` levels in and out
    without materialising per-entry objects at all — the
    structure-of-arrays fast path of the generation step.  Every stream
    yields the level in insertion order, whatever mix of raw, entry,
    and batch appends built it.  The WAH encoding is canonical, so
    stored words — and therefore every accounting property — are
    byte-identical to encoding each sub-list on its own.

    Parameters
    ----------
    chunk_size:
        Sub-lists decompressed per streamed chunk.  Larger chunks keep
        more of the generation step's cross-sub-list batching; smaller
        chunks bound the transient decompressed working set.
    """

    def __init__(self, chunk_size: int = 256):
        if chunk_size < 1:
            raise ParameterError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.chunk_size = chunk_size
        self._pending: list[CliqueSubList] = []
        #: ordered mix of per-entry and whole-batch parts; insertion
        #: order across both kinds is the level's canonical order.
        self._parts: list[CompressedSubList | CompressedLevelBatch] = []
        self._n_sublists = 0
        self._n_candidates = 0
        self._candidate_bytes = 0
        self._uncompressed_bytes = 0
        self._streamed = False
        #: raw sub-list bytes materialised by the decompressing stream().
        self.decompressed_bytes = 0
        #: raw-equivalent bytes that stayed compressed through
        #: stream_entries() — the "decompressed bytes avoided".
        self.bypassed_bytes = 0

    def append(self, sl: CliqueSubList | CompressedSubList) -> None:
        """Store one sub-list, compressing unless it already is.

        A :class:`CompressedSubList` (as produced by the
        compressed-domain generation step) is stored as-is — no
        re-encode; the WAH encoder is canonical, so the stored words
        are identical either way.
        """
        if self._streamed:
            raise LevelStoreError(
                "append() after stream(): the level store is single-pass"
            )
        if not isinstance(sl, CompressedSubList):
            self._pending.append(sl)
            if len(self._pending) >= self.chunk_size:
                self._flush_pending()
            return
        self._flush_pending()
        self._parts.append(sl)
        self._n_sublists += 1
        self._n_candidates += len(sl)
        self._candidate_bytes += sl.nbytes(INDEX_BYTES, POINTER_BYTES)
        self._uncompressed_bytes += sl.uncompressed_nbytes(
            INDEX_BYTES, POINTER_BYTES
        )

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
        untouched, so a batches-mode level loop never materialises an
        entry.  Equivalent byte for byte to appending
        ``batch.to_entries()`` one at a time.
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

    def entries(self) -> list[CompressedSubList]:
        """The compressed sub-lists, for compressed-domain consumers."""
        self._flush_pending()
        out: list[CompressedSubList] = []
        for part in self._parts:
            if isinstance(part, CompressedLevelBatch):
                out.extend(part.to_entries())
            else:
                out.append(part)
        return out

    def _iter_runs(
        self,
    ) -> Iterator[CompressedLevelBatch | list[CompressedSubList]]:
        """The stored parts in insertion order: whole batches as-is,
        loose entries re-chunked ``chunk_size`` at a time between them.
        """
        buf: list[CompressedSubList] = []
        for part in self._parts:
            if isinstance(part, CompressedLevelBatch):
                if buf:
                    yield buf
                    buf = []
                yield part
            else:
                buf.append(part)
                if len(buf) >= self.chunk_size:
                    yield buf
                    buf = []
        if buf:
            yield buf

    def stream(self) -> Iterator[list[CliqueSubList]]:
        """Decompress and yield ``chunk_size`` sub-lists at a time."""
        if self._streamed:
            raise LevelStoreError(
                "stream() called twice on a single-pass level store"
            )
        self._flush_pending()
        self._streamed = True
        return self._stream()

    def _stream(self) -> Iterator[list[CliqueSubList]]:
        for run in self._iter_runs():
            if isinstance(run, CompressedLevelBatch):
                self.decompressed_bytes += run.uncompressed_nbytes(
                    INDEX_BYTES, POINTER_BYTES
                )
                yield run.to_sublists()
                continue
            self.decompressed_bytes += sum(
                entry.uncompressed_nbytes(INDEX_BYTES, POINTER_BYTES)
                for entry in run
            )
            yield CompressedLevelBatch.from_entries(run).to_sublists()

    def stream_batches(self) -> Iterator[CompressedLevelBatch]:
        """Yield the level as :class:`CompressedLevelBatch` chunks.

        The structure-of-arrays counterpart of :meth:`stream_entries`
        for the compressed-domain generation step: same chunking, same
        single-pass contract, same ``bypassed_bytes`` accounting — the
        words never leave compressed form.
        """
        if self._streamed:
            raise LevelStoreError(
                "stream() called twice on a single-pass level store"
            )
        self._flush_pending()
        self._streamed = True
        return self._stream_batches()

    def _stream_batches(self) -> Iterator[CompressedLevelBatch]:
        # consecutive batch parts are coalesced into one yield: the
        # consumer's per-call fixed cost dominates the array concat, and
        # nothing decompresses either way, so no working-set concern
        batch_run: list[CompressedLevelBatch] = []
        for run in self._iter_runs():
            if isinstance(run, CompressedLevelBatch):
                batch_run.append(run)
                continue
            if batch_run:
                yield self._merge_batches(batch_run)
                batch_run = []
            self.bypassed_bytes += sum(
                entry.uncompressed_nbytes(INDEX_BYTES, POINTER_BYTES)
                for entry in run
            )
            yield CompressedLevelBatch.from_entries(run)
        if batch_run:
            yield self._merge_batches(batch_run)

    def _merge_batches(
        self, batch_run: list[CompressedLevelBatch]
    ) -> CompressedLevelBatch:
        merged = CompressedLevelBatch.concat(batch_run)
        self.bypassed_bytes += merged.uncompressed_nbytes(
            INDEX_BYTES, POINTER_BYTES
        )
        return merged

    def stream_entries(self) -> Iterator[list[CompressedSubList]]:
        """Yield the compressed entries themselves, never decompressing.

        The zero-round-trip counterpart of :meth:`stream` for
        compressed-domain consumers; shares the same single-pass
        contract (one streaming pass total, whichever method starts
        it).  Chunking follows ``chunk_size`` so the generation step's
        chunk granularity matches the decompressing path.
        """
        if self._streamed:
            raise LevelStoreError(
                "stream() called twice on a single-pass level store"
            )
        self._flush_pending()
        self._streamed = True
        return self._stream_entries()

    def _stream_entries(self) -> Iterator[list[CompressedSubList]]:
        for run in self._iter_runs():
            if isinstance(run, CompressedLevelBatch):
                self.bypassed_bytes += run.uncompressed_nbytes(
                    INDEX_BYTES, POINTER_BYTES
                )
                yield run.to_entries()
                continue
            self.bypassed_bytes += sum(
                entry.uncompressed_nbytes(INDEX_BYTES, POINTER_BYTES)
                for entry in run
            )
            yield run

    def close(self) -> None:
        """Drop the compressed level."""
        self._parts = []
        self._pending = []


# The disk substrate implements the same interface structurally; register
# it so isinstance(LevelStore) holds without making repro.core depend on
# the engine package.
LevelStore.register(DiskLevelStore)
