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

Like every level store it takes and yields
:class:`~repro.core.sublist.LevelArrays` chunks; the spill format — a
record of ``chunk_size`` pickled :class:`~repro.core.sublist.
CliqueSubList` objects — is converted to and from rows at the store's
own boundary.  The enumeration logic is the unmodified
:func:`~repro.core.clique_enumerator.generate_next_level`; only the
storage layer changes — exactly the framing of the paper's argument.
Any engine backend runs on it with ``level_store="disk"`` (e.g.
``EnumerationConfig(backend="incore", level_store="disk")``); the level
loop itself lives in :mod:`repro.engine.level_loop`.
"""

from __future__ import annotations

import itertools
import pickle
import tempfile
from collections.abc import Iterator
from pathlib import Path

from repro.errors import LevelStoreError, ParameterError
from repro.core.clique_enumerator import INDEX_BYTES, POINTER_BYTES
from repro.core.counters import IOStats
from repro.core.sublist import CliqueSubList, LevelArrays

__all__ = ["IOStats", "DiskLevelStore"]


class DiskLevelStore:
    """Spill-and-stream storage for one level of candidate sub-lists.

    Sub-lists are appended as :class:`~repro.core.sublist.LevelArrays`
    chunks and spilled as records of ``chunk_size`` pickled sub-lists
    (filled across appends), then streamed back in insertion order
    exactly once, one record per chunk.  The store is single-pass by
    design — the level-wise algorithm never revisits a consumed level.

    Implements the :class:`repro.engine.level_store.LevelStore` interface
    (including the ``n_sublists`` / ``n_candidates`` / ``candidate_bytes``
    accounting the unified level loop reads for per-level statistics and
    memory budgets).

    Parameters
    ----------
    directory: where the spill file lives (a temp dir when omitted).
        Each store gets a unique spill filename, so consecutive levels
        can safely share one directory (the writer of level k+1 must
        not truncate the file level k is still streaming from).
    chunk_size: sub-lists per pickle record (amortises the per-record
        overhead that killed the original out-of-core implementation).
    stats: shared I/O counter, updated on every operation.
    """

    _seq = itertools.count()

    def __init__(
        self,
        directory: str | Path | None = None,
        chunk_size: int = 256,
        stats: IOStats | None = None,
    ):
        if chunk_size < 1:
            raise ParameterError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self._own_dir = directory is None
        self._tmp = (
            tempfile.TemporaryDirectory(prefix="repro-ooc-")
            if directory is None
            else None
        )
        self.directory = Path(
            self._tmp.name if self._tmp else directory
        )
        self.chunk_size = chunk_size
        self.stats = stats if stats is not None else IOStats()
        self._path: Path | None = None
        self._write_buffer: list[CliqueSubList] = []
        self._fh = None
        self._count = 0
        self._n_candidates = 0
        self._candidate_bytes = 0
        self._streamed = False

    def __len__(self) -> int:
        return self._count

    @property
    def n_sublists(self) -> int:
        """Number of stored sub-lists (the paper's ``N[k]``)."""
        return self._count

    @property
    def n_candidates(self) -> int:
        """Total candidate cliques stored (the paper's ``M[k]``)."""
        return self._n_candidates

    @property
    def candidate_bytes(self) -> int:
        """Measured bytes of the stored sub-lists (as if held in memory).

        This is the *algorithmic* candidate footprint, comparable across
        storage substrates; the actual disk traffic is in :attr:`stats`.
        """
        return self._candidate_bytes

    # -- writing ------------------------------------------------------------

    def append(self, level: LevelArrays) -> None:
        """Queue a chunk of sub-lists; writes every full record."""
        if self._streamed:
            raise LevelStoreError(
                "append() after stream(): the level store is single-pass"
            )
        self._count += len(level)
        self._n_candidates += int(level.tails.size)
        self._candidate_bytes += level.nbytes(INDEX_BYTES, POINTER_BYTES)
        buffer = self._write_buffer
        buffer.extend(level.to_sublists())
        full = len(buffer) - len(buffer) % self.chunk_size
        for start in range(0, full, self.chunk_size):
            self._write(buffer[start:start + self.chunk_size])
        del buffer[:full]

    def _ensure_open(self):
        if self._fh is None:
            self._path = (
                self.directory / f"level-{next(self._seq)}.spill"
            )
            self._fh = self._path.open("wb")
        return self._fh

    def _write(self, record: list[CliqueSubList]) -> None:
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        fh = self._ensure_open()
        fh.write(len(payload).to_bytes(8, "little"))
        fh.write(payload)
        self.stats.bytes_written += len(payload) + 8
        self.stats.write_ops += 1

    # -- reading --------------------------------------------------------------

    def stream(self) -> Iterator[LevelArrays]:
        """Yield the stored sub-lists record by record, then delete the
        file.

        Single-pass: a second ``stream()`` — or an ``append()`` once
        streaming began — raises :class:`~repro.errors.LevelStoreError`.
        """
        if self._streamed:
            raise LevelStoreError(
                "stream() called twice on a single-pass level store"
            )
        self._streamed = True
        if self._write_buffer:
            self._write(self._write_buffer)
            self._write_buffer = []
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return self._read_chunks()

    def _read_chunks(self) -> Iterator[LevelArrays]:
        if self._path is None:
            return
        with self._path.open("rb") as fh:
            while True:
                header = fh.read(8)
                if not header:
                    break
                size = int.from_bytes(header, "little")
                payload = fh.read(size)
                self.stats.bytes_read += size + 8
                self.stats.read_ops += 1
                yield LevelArrays.from_sublists(pickle.loads(payload))
        self._path.unlink()
        self._path = None

    def close(self) -> None:
        """Release backing storage: spill file and temp dir removed."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if self._path is not None:
            self._path.unlink(missing_ok=True)
            self._path = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "DiskLevelStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
