"""Level storage substrates for the unified enumeration loop.

The Clique Enumerator touches its candidate sub-lists in exactly one
pattern: append the whole next level, then stream it back once for
expansion.  :class:`LevelStore` captures that single-pass contract plus
the accounting the level loop needs (``N[k]``, ``M[k]``, measured bytes
— the paper's per-level statistics), so the storage substrate becomes a
policy choice (:attr:`repro.engine.config.EnumerationConfig.level_store`).
Each store takes and yields exactly the level chunk form
(:data:`~repro.core.sublist.LevelChunk`) its generation step computes
in, so no per-sub-list object — and no conversion — sits between store
and step:

* :class:`MemoryLevelStore` — :class:`~repro.core.sublist.LevelArrays`
  chunks held in RAM as appended; streaming yields the whole level as
  one chunk so the generation step keeps its full cross-sub-list
  batching (the paper's in-core mode);
* :class:`~repro.core.out_of_core.DiskLevelStore` —
  :class:`~repro.core.sublist.LevelArrays` rows spilled to disk as raw
  array records and streamed back record by record with counted I/O
  (the retired out-of-core mode, kept measurable);
* :class:`CompressedLevelStore` — :class:`~repro.core.sublist.
  CompressedLevelBatch` chunks, common-neighbor strings held
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

from repro.errors import LevelStoreError
from repro.core.clique_enumerator import INDEX_BYTES, POINTER_BYTES
from repro.core.out_of_core import DiskLevelStore
from repro.core.sublist import CompressedLevelBatch, LevelArrays, LevelChunk

__all__ = [
    "LevelStore",
    "MemoryLevelStore",
    "DiskLevelStore",
    "CompressedLevelStore",
]


class LevelStore(ABC):
    """Single-pass storage for one level of candidate sub-lists.

    Contract: ``append`` the complete level as one or more
    :data:`~repro.core.sublist.LevelChunk` chunks of the store's form,
    then ``stream`` it back exactly once (in insertion order, as chunks
    of that form), then ``close``.  An empty chunk stores nothing.  The
    contract is enforced — a second ``stream()`` or a late ``append()``
    raises :class:`~repro.errors.LevelStoreError`.  The accounting
    properties must reflect everything appended so far; the level loop
    reads them for per-level statistics and memory budgets without
    materialising the level.
    """

    @abstractmethod
    def append(self, level: LevelChunk) -> None:
        """Add a chunk of sub-lists to the level."""

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
    def stream(self) -> Iterator[LevelChunk]:
        """Yield the sub-lists back in insertion order, chunk by chunk."""

    @abstractmethod
    def close(self) -> None:
        """Release any backing resources; idempotent."""

    def __enter__(self) -> "LevelStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryLevelStore(LevelStore):
    """In-memory level store: the appended arrays, with the paper's
    accounting read off them (:meth:`~repro.core.sublist.LevelArrays.
    nbytes`).

    ``stream`` yields the entire level as a single chunk, so the
    generation step sees every sub-list at once and batches pairs
    across sub-lists under its byte budget (``PAIR_BATCH_BYTES``).  A
    level appended as one chunk — every engine run's — streams back
    that chunk, uncopied.
    """

    def __init__(self) -> None:
        self._chunks: list[LevelArrays] = []
        self._n_sublists = 0
        self._n_candidates = 0
        self._candidate_bytes = 0
        self._streamed = False

    def append(self, level: LevelArrays) -> None:
        """Add a chunk of sub-lists to the level."""
        if self._streamed:
            raise LevelStoreError(
                "append() after stream(): the level store is single-pass"
            )
        if len(level):
            self._chunks.append(level)
            self._n_sublists += len(level)
            self._n_candidates += int(level.tails.size)
            self._candidate_bytes += level.nbytes(INDEX_BYTES, POINTER_BYTES)

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
        """Measured candidate storage of this level, in bytes."""
        return self._candidate_bytes

    def stream(self) -> Iterator[LevelArrays]:
        """Yield the whole level as one chunk (full batching preserved)."""
        if self._streamed:
            raise LevelStoreError(
                "stream() called twice on a single-pass level store"
            )
        self._streamed = True
        return self._stream()

    def _stream(self) -> Iterator[LevelArrays]:
        if self._chunks:
            yield LevelArrays.concat(self._chunks)

    def close(self) -> None:
        """Drop the level (the arrays are garbage-collected)."""
        self._chunks = []


#: rows of an appended :class:`~repro.core.sublist.LevelArrays` chunk
#: (the seed level) encoded per stored part: ``batch_encode_words``
#: unpacks each row to about 10 bytes per bit, so encoding a wide seed
#: whole would scale the transient with the level's width
ENCODE_ROWS = 256


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

    :meth:`append` stores a batch as-is — how the compressed-domain
    step (:class:`~repro.core.compressed_domain.CompressedExpander`,
    the step every backend runs on this store) hands back its children
    — and batch-encodes a :class:`~repro.core.sublist.LevelArrays`
    chunk (the seed level) :data:`ENCODE_ROWS` rows per stored part.
    The WAH encoding is canonical, so stored words — and therefore
    every accounting property — are byte-identical however the level
    was cut.  :meth:`stream` yields the stored parts coalesced into one
    batch, never decompressed, and adds its raw-equivalent bytes to
    :attr:`bypassed_bytes` — the run's
    ``domain_stats["decompressed_bytes_avoided"]``.
    """

    def __init__(self) -> None:
        #: the stored batches, in insertion order
        self._parts: list[CompressedLevelBatch] = []
        self._n_sublists = 0
        self._n_candidates = 0
        self._candidate_bytes = 0
        self._uncompressed_bytes = 0
        self._streamed = False
        #: raw-equivalent bytes streamed without decompressing — the
        #: "decompressed bytes avoided".
        self.bypassed_bytes = 0

    def append(self, level: LevelChunk) -> None:
        """Store a compressed batch, or encode a raw-word chunk
        :data:`ENCODE_ROWS` rows per stored part."""
        if self._streamed:
            raise LevelStoreError(
                "append() after stream(): the level store is single-pass"
            )
        if isinstance(level, CompressedLevelBatch):
            parts = [level]
        else:
            parts = [
                CompressedLevelBatch.from_level(
                    level.rows(start, min(start + ENCODE_ROWS, len(level)))
                )
                for start in range(0, len(level), ENCODE_ROWS)
            ]
        for part in parts:
            if len(part):
                self._parts.append(part)
                self._n_sublists += len(part)
                self._n_candidates += int(part.tails.size)
                self._candidate_bytes += part.nbytes(
                    INDEX_BYTES, POINTER_BYTES
                )
                self._uncompressed_bytes += part.uncompressed_nbytes(
                    INDEX_BYTES, POINTER_BYTES
                )

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
        """Measured *compressed* candidate storage, in bytes."""
        return self._candidate_bytes

    @property
    def uncompressed_bytes(self) -> int:
        """What :class:`MemoryLevelStore` would have charged for this
        level — the baseline for :meth:`compression_ratio`."""
        return self._uncompressed_bytes

    def compression_ratio(self) -> float:
        """Uncompressed bytes over compressed bytes (>= 1 means win)."""
        if not self.candidate_bytes:
            return 1.0
        return self._uncompressed_bytes / self._candidate_bytes

    def stream(self) -> Iterator[CompressedLevelBatch]:
        """Yield the whole level as one :class:`CompressedLevelBatch`.

        The stored parts are coalesced: the step's per-call fixed cost
        dominates the array concat, and nothing decompresses either
        way, so there is no working-set concern.
        """
        if self._streamed:
            raise LevelStoreError(
                "stream() called twice on a single-pass level store"
            )
        self._streamed = True
        return self._stream(self._parts)

    def _stream(
        self, parts: list[CompressedLevelBatch]
    ) -> Iterator[CompressedLevelBatch]:
        if parts:
            merged = CompressedLevelBatch.concat(parts)
            self.bypassed_bytes += merged.uncompressed_nbytes(
                INDEX_BYTES, POINTER_BYTES
            )
            yield merged

    # nothing calls these; perfbench's layer spans wrap them by name
    # (perfbench/spans.py TARGETS)
    append_batch = append
    stream_batches = stream
    stream_entries = stream

    def close(self) -> None:
        """Drop the compressed level."""
        self._parts = []


# The disk substrate implements the same interface structurally; register
# it so isinstance(LevelStore) holds without making repro.core depend on
# the engine package.
LevelStore.register(DiskLevelStore)
