"""Out-of-core level store — the bottleneck the paper escaped.

The paper's motivation (Section 1): "we have previously developed an
out-of-core algorithm ... However, the algorithm could not finish after
one week of execution ... Intensive disk I/O access has been the major
bottleneck."  The in-memory Clique Enumerator on a large shared-memory
machine is the paper's answer.

This module provides the disk-backed level store so the comparison is
measurable: a :class:`DiskLevelStore` spills each level's candidate
sub-lists to disk and streams them back for expansion, touching memory
with only one read-chunk at a time.  Every byte written/read is counted,
so the ablation report and ``benchmarks/bench_engines.py`` can show the
I/O volume that the in-core algorithm avoids.

It subclasses :class:`~repro.core.sublist.LevelStore`, which owns the
single-pass contract and the ``N[k]``/``M[k]`` accounting; this module
supplies only the spill.  It takes and yields
:class:`~repro.core.sublist.LevelArrays` chunks, the form the raw-word
step computes in, and spills them as raw contiguous blocks: each
record is :data:`RECORD_ROWS` rows' arrays behind a fixed ``int64``
header, read back with ``np.frombuffer`` — no object per sub-list and
no unpickling of files in a directory a client may have chosen.  The
enumeration logic is the unmodified
:func:`~repro.core.clique_enumerator.generate_next_level`; only the
storage layer changes — exactly the framing of the paper's argument.
Any engine backend runs on it with ``level_store="disk"`` (e.g.
``EnumerationConfig(backend="incore", level_store="disk")``); the level
loop itself lives in :mod:`repro.engine.level_loop`.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from repro.errors import LevelStoreError
from repro.core.counters import IOStats
from repro.core.sublist import LevelArrays, LevelStore

__all__ = ["IOStats", "DiskLevelStore"]

#: sub-lists per spill record (filled across appends): amortises the
#: per-record overhead that killed the original out-of-core
#: implementation
RECORD_ROWS = 256

#: ``int64`` fields of a record header: rows, prefix width (``k - 1``),
#: tail count and CN words per row
_HEADER_FIELDS = 4


class DiskLevelStore(LevelStore):
    """Spill-and-stream storage for one level of candidate sub-lists.

    Sub-lists are appended as :class:`~repro.core.sublist.LevelArrays`
    chunks and spilled as records of :data:`RECORD_ROWS` rows (filled
    across appends), then streamed back in insertion order exactly
    once, one record per chunk.  A record is an 8-byte little-endian
    length, then the ``int64`` header (rows, ``k - 1``, tail count, CN
    words per row) and the raw prefix, offset, tail and CN arrays.  A
    record that runs past the end of the file, or whose header
    disagrees with its length, raises
    :class:`~repro.errors.LevelStoreError`.  Its ``candidate_bytes``
    is the level as if held in memory, comparable across substrates;
    the disk traffic is in :attr:`stats`.

    Parameters
    ----------
    directory: where the spill file lives (a temp dir when omitted).
        Each store gets a unique spill filename, so consecutive levels
        can safely share one directory (the writer of level k+1 must
        not truncate the file level k is still streaming from).
    stats: shared I/O counter, updated on every operation.
    """

    _seq = itertools.count()

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        stats: IOStats | None = None,
    ):
        super().__init__()
        self._tmp = (
            tempfile.TemporaryDirectory(prefix="repro-ooc-")
            if directory is None
            else None
        )
        self.directory = Path(
            self._tmp.name if self._tmp else directory
        )
        self.stats = stats if stats is not None else IOStats()
        self._path: Path | None = None
        #: rows of a record not yet full, carried across appends
        self._pending: LevelArrays | None = None
        self._fh = None

    # -- writing ------------------------------------------------------------

    def _keep(self, level: LevelArrays) -> None:
        """Queue a chunk of sub-lists; writes every full record."""
        size = RECORD_ROWS
        if self._pending is not None:
            # top up the carried record; only its few rows are copied
            head = min(len(level), size - len(self._pending))
            record = LevelArrays.concat([self._pending, level.rows(0, head)])
            level = level.rows(head, len(level))
            self._pending = None
            if len(record) < size:
                self._pending = record
                return
            self._write(record)
        full = len(level) - len(level) % size
        for start in range(0, full, size):
            self._write(level.rows(start, start + size))
        if full < len(level):
            self._pending = level.rows(full, len(level))

    def _ensure_open(self):
        if self._fh is None:
            self._path = (
                self.directory / f"level-{next(self._seq)}.spill"
            )
            self._fh = self._path.open("wb")
        return self._fh

    def _write(self, record: LevelArrays) -> None:
        arrays = [
            np.array(
                [len(record), record.prefixes.shape[1], record.tails.size,
                 record.cn.shape[1]],
                dtype=np.int64,
            ),
            np.ascontiguousarray(record.prefixes, dtype=np.int64),
            np.ascontiguousarray(record.offsets, dtype=np.int64),
            np.ascontiguousarray(record.tails, dtype=np.int64),
            np.ascontiguousarray(record.cn, dtype=np.uint64),
        ]
        size = sum(a.nbytes for a in arrays)
        fh = self._ensure_open()
        fh.write(size.to_bytes(8, "little"))
        for a in arrays:
            fh.write(a.data)
        self.stats.bytes_written += size + 8
        self.stats.write_ops += 1

    # -- reading --------------------------------------------------------------

    def _stream(self) -> Iterator[LevelArrays]:
        """Write the pending record and close the spill file now, when
        ``stream()`` is called; the records are read back lazily and
        the file is deleted after the last."""
        if self._pending is not None:
            self._write(self._pending)
            self._pending = None
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return self._read_chunks()

    def _read_chunks(self) -> Iterator[LevelArrays]:
        if self._path is None:
            return
        with self._path.open("rb") as fh:
            end = os.fstat(fh.fileno()).st_size
            while fh.tell() < end:
                header = fh.read(8)
                size = int.from_bytes(header, "little")
                if len(header) < 8 or size > end - fh.tell():
                    raise LevelStoreError(
                        f"spill record at byte {fh.tell() - len(header)} "
                        f"of {self._path} runs past the end of the file"
                    )
                payload = fh.read(size)
                self.stats.bytes_read += size + 8
                self.stats.read_ops += 1
                yield self._decode(payload)
        self._path.unlink()
        self._path = None

    def _decode(self, payload: bytes) -> LevelArrays:
        """One record's arrays, as read-only views of ``payload``."""
        words = np.frombuffer(
            payload, dtype=np.int64, count=len(payload) // 8
        )
        if words.size < _HEADER_FIELDS:
            raise LevelStoreError(
                f"spill record of {len(payload)} bytes in {self._path} "
                "is shorter than its header"
            )
        rows, width, n_tails, n_words = words[:_HEADER_FIELDS].tolist()
        bounds = list(itertools.accumulate(
            [_HEADER_FIELDS, rows * width, rows + 1, n_tails, rows * n_words]
        ))
        if min(rows, width, n_tails, n_words) < 0 or (
            8 * bounds[-1] != len(payload)
        ):
            raise LevelStoreError(
                f"spill record header {[rows, width, n_tails, n_words]} "
                f"in {self._path} disagrees with its {len(payload)} bytes"
            )
        prefixes, offsets, tails, cn = np.split(words, bounds)[1:5]
        return LevelArrays(
            prefixes=prefixes.reshape(rows, width),
            tails=tails,
            offsets=offsets,
            cn=cn.view(np.uint64).reshape(rows, n_words),
        )

    def _release(self) -> None:
        """Remove the spill file and the temp dir."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if self._path is not None:
            self._path.unlink(missing_ok=True)
            self._path = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
