"""Level storage substrates for the unified enumeration loop.

The Clique Enumerator touches its candidate sub-lists in exactly one
pattern: append the whole next level, then stream it back once for
expansion.  :class:`~repro.core.sublist.LevelStore` writes that
single-pass contract and the accounting the level loop needs
(``N[k]``, ``M[k]``, measured bytes — the paper's per-level
statistics) once, so the storage substrate is only a policy choice
(:attr:`repro.engine.config.EnumerationConfig.level_store`): each
store below subclasses it and supplies where the parts of a level
live.  Each store takes and yields exactly the level chunk form
(:data:`~repro.core.sublist.LevelChunk`) its generation step computes
in, so no per-sub-list object — and no conversion — sits between
store and step:

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
  WAH-compressed (:mod:`repro.core.wah_kernels`), realising the paper's
  closing remark that the sparse bitmap index "can potentially provide
  high compression rate"; the level streams back still compressed, and
  the compressed-domain step expands it without decompressing.

All are driven by the same loop in :mod:`repro.engine.level_loop`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.core.out_of_core import DiskLevelStore
from repro.core.sublist import (
    INDEX_BYTES,
    POINTER_BYTES,
    CompressedLevelBatch,
    LevelArrays,
    LevelChunk,
    LevelStore,
)

__all__ = [
    "LevelStore",
    "MemoryLevelStore",
    "DiskLevelStore",
    "CompressedLevelStore",
]


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
        super().__init__()
        self._parts: list[LevelArrays] = []

    def _keep(self, part: LevelArrays) -> None:
        self._parts.append(part)

    def _stream(self) -> Iterator[LevelArrays]:
        if self._parts:
            yield LevelArrays.concat(self._parts)

    def _release(self) -> None:
        self._parts = []


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
    batch, never decompressed (the step's per-call fixed cost dominates
    the array concat), and adds its raw-equivalent bytes to
    :attr:`bypassed_bytes` — the run's
    ``domain_stats["decompressed_bytes_avoided"]``.
    """

    def __init__(self) -> None:
        super().__init__()
        #: the stored batches, in insertion order
        self._parts: list[CompressedLevelBatch] = []
        self._uncompressed_bytes = 0
        #: raw-equivalent bytes streamed without decompressing — the
        #: "decompressed bytes avoided".
        self.bypassed_bytes = 0

    @property
    def uncompressed_bytes(self) -> int:
        """What :class:`MemoryLevelStore` would have charged for this
        level — the baseline for :meth:`compression_ratio`."""
        return self._uncompressed_bytes

    def compression_ratio(self) -> float:
        """Uncompressed bytes over compressed bytes (>= 1 means win)."""
        if not self.candidate_bytes:
            return 1.0
        return self._uncompressed_bytes / self.candidate_bytes

    def _to_parts(self, level: LevelChunk) -> Iterable[CompressedLevelBatch]:
        if isinstance(level, CompressedLevelBatch):
            return (level,)
        return (
            CompressedLevelBatch.from_level(
                level.rows(start, min(start + ENCODE_ROWS, len(level)))
            )
            for start in range(0, len(level), ENCODE_ROWS)
        )

    def _keep(self, part: CompressedLevelBatch) -> None:
        self._parts.append(part)
        self._uncompressed_bytes += part.uncompressed_nbytes(
            INDEX_BYTES, POINTER_BYTES
        )

    def _stream(self) -> Iterator[CompressedLevelBatch]:
        if self._parts:
            merged = CompressedLevelBatch.concat(self._parts)
            self.bypassed_bytes += self._uncompressed_bytes
            yield merged

    def _release(self) -> None:
        self._parts = []

    # nothing calls these; perfbench's layer spans wrap them by name
    # (perfbench/spans.py TARGETS)
    append_batch = LevelStore.append
    stream_batches = stream_entries = LevelStore.stream
