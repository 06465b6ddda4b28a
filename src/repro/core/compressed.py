"""Word-Aligned Hybrid (WAH) compressed bitmaps.

The paper observes that its bitmap memory index is sparse and that "the
sparcity of the bitmap memory index can potentially provide high compression
rate and allow for bitwise operations to be performed on the compressed
data.  The work in this direction is underway."  This module implements that
direction: the classic WAH encoding of Wu, Otoo and Shoshani, in which a
bitmap is split into 31-bit *groups* and encoded as a sequence of 32-bit
words of two kinds:

literal word
    Most-significant bit 0; the low 31 bits hold one group verbatim.

fill word
    Most-significant bit 1; bit 30 holds the fill bit value; the low 30
    bits hold the run length measured in groups.  A fill word of length
    ``L`` represents ``L`` consecutive all-zero or all-one groups.

Logical AND/OR run directly on the compressed form without decompression,
which is what makes the representation attractive for the paper's
common-neighbor intersections on very sparse genome-scale graphs.

The encoder always produces *canonical* output: adjacent fills of the same
bit value are merged and a fill of length 1 is still a fill (one word), so
equal bitmaps encode to equal word sequences.  The full word layout, the
fill encoding, and the group-coverage invariant the constructor enforces
are documented in ``docs/wah-format.md``.

Two layers are provided, mirroring :mod:`repro.core.bitset`:

:class:`WahBitmap`
    A safe, validated wrapper with set algebra on the compressed form,
    used by the level stores and the public API.

word-array kernels (:func:`wah_and_into`, :func:`wah_and_any`,
:func:`wah_and_count`, :func:`wah_indices_above`)
    Allocation-light primitives over raw WAH word lists, one bitmap
    pair per call.  They are the scalar oracle the batched
    :mod:`repro.core.wah_kernels` — which the compressed-domain
    generation step runs — are replayed against.  A reusable
    :class:`WahScratch` carries the output buffer and the word-op tally
    between calls.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import BitSetError
from repro.core.bitset import WORD_BITS, BitSet

__all__ = [
    "WahBitmap",
    "GROUP_BITS",
    "WahScratch",
    "wah_and_into",
    "wah_and_any",
    "wah_and_count",
    "wah_indices_above",
]

#: Number of payload bits per WAH group/literal.
GROUP_BITS = 31

_LITERAL_MASK = (1 << GROUP_BITS) - 1          # 0x7FFFFFFF
_FILL_FLAG = 1 << 31
_FILL_BIT = 1 << 30
_FILL_LEN_MASK = (1 << 30) - 1


def _is_fill(word: int) -> bool:
    return bool(word & _FILL_FLAG)


def _fill_bit(word: int) -> int:
    return 1 if word & _FILL_BIT else 0


def _fill_len(word: int) -> int:
    return word & _FILL_LEN_MASK


def _make_fill(bit: int, length: int) -> int:
    if not 0 < length <= _FILL_LEN_MASK:
        raise BitSetError(f"fill run length {length} out of range")
    return _FILL_FLAG | (_FILL_BIT if bit else 0) | length


class _GroupReader:
    """Sequential reader yielding one 31-bit group per ``next_group`` call."""

    __slots__ = ("words", "pos", "pending_fill", "pending_bit")

    def __init__(self, words: list[int]):
        self.words = words
        self.pos = 0
        self.pending_fill = 0
        self.pending_bit = 0

    def next_group(self) -> int:
        if self.pending_fill:
            self.pending_fill -= 1
            return _LITERAL_MASK if self.pending_bit else 0
        word = self.words[self.pos]
        self.pos += 1
        if _is_fill(word):
            self.pending_bit = _fill_bit(word)
            self.pending_fill = _fill_len(word) - 1
            return _LITERAL_MASK if self.pending_bit else 0
        return word


class _Builder:
    """Accumulates groups into canonical WAH words."""

    __slots__ = ("out", "run_bit", "run_len")

    def __init__(self) -> None:
        self.out: list[int] = []
        self.run_bit = -1
        self.run_len = 0

    def _flush_run(self) -> None:
        if self.run_len:
            self.out.append(_make_fill(self.run_bit, self.run_len))
            self.run_len = 0
            self.run_bit = -1

    def add_group(self, group: int) -> None:
        if group == 0 or group == _LITERAL_MASK:
            bit = 1 if group else 0
            if self.run_bit == bit and self.run_len < _FILL_LEN_MASK:
                self.run_len += 1
            else:
                self._flush_run()
                self.run_bit = bit
                self.run_len = 1
        else:
            self._flush_run()
            self.out.append(group)

    def finish(self) -> list[int]:
        self._flush_run()
        return self.out


class WahBitmap:
    """A WAH-compressed bitmap over a fixed universe of ``n`` bits.

    Construct via :meth:`from_bitset`, :meth:`from_indices`, or the boolean
    operators on existing instances.  Instances are immutable.

    Examples
    --------
    >>> a = WahBitmap.from_indices(100, [0, 50, 99])
    >>> b = WahBitmap.from_indices(100, [50, 60])
    >>> sorted((a & b).to_bitset())
    [50]
    >>> a.count()
    3
    """

    __slots__ = ("n", "_words", "_n_groups")

    def __init__(self, n: int, words):
        if n < 0:
            raise BitSetError(f"universe size must be non-negative, got {n}")
        self.n = n
        self._n_groups = (n + GROUP_BITS - 1) // GROUP_BITS
        if isinstance(words, np.ndarray):
            if words.dtype != np.uint32:
                raise BitSetError(
                    f"WAH word array must be uint32, got {words.dtype}"
                )
            # never freeze (or share mutable state with) a caller array
            arr = words.copy() if words.flags.writeable else words
        else:
            try:
                arr = np.asarray(words, dtype=np.uint32)
            except (OverflowError, ValueError, TypeError):
                for i, word in enumerate(words):
                    if not 0 <= word < (1 << 32):
                        raise BitSetError(
                            f"WAH word {i} out of 32-bit range: {word!r}"
                        ) from None
                raise
        # Validate group coverage up front: a truncated or padded stream
        # must fail here with a precise message, not surface later as a
        # confusing group-count error from count() or a wrong __eq__.
        is_fill = (arr & np.uint32(_FILL_FLAG)) != 0
        fill_len = (arr & np.uint32(_FILL_LEN_MASK)).astype(np.int64)
        zero_fill = is_fill & (fill_len == 0)
        if zero_fill.any():
            raise BitSetError(
                f"WAH word {int(zero_fill.argmax())} is a fill of "
                f"zero run length"
            )
        covered = int(np.where(is_fill, fill_len, 1).sum())
        if covered != self._n_groups:
            raise BitSetError(
                f"WAH stream covers {covered} group(s), expected "
                f"{self._n_groups} for a {n}-bit universe"
            )
        # The final group's padding bits must be zero, or count(),
        # iteration, and __eq__ all go wrong (e.g. iter_indices would
        # yield vertex indices >= n).
        rem = n % GROUP_BITS
        if rem and arr.size:
            last = int(arr[-1])
            padding_set = (
                _fill_bit(last)
                if _is_fill(last)
                else last >> rem
            )
            if padding_set:
                raise BitSetError(
                    f"WAH stream sets padding bits beyond the "
                    f"{n}-bit universe in its final group"
                )
        if arr.flags.writeable:
            arr.setflags(write=False)
        self._words = arr

    @classmethod
    def _trusted(cls, n: int, words: np.ndarray) -> "WahBitmap":
        """Wrap an already-canonical ``uint32`` word array, unvalidated.

        Internal fast path for streams produced by this module's own
        encoders and by the :mod:`~repro.core.wah_kernels` batch codecs,
        whose outputs are canonical by construction.  The array is
        frozen in place; callers hand over ownership.
        """
        bm = object.__new__(cls)
        bm.n = n
        bm._n_groups = (n + GROUP_BITS - 1) // GROUP_BITS
        if words.flags.writeable:
            words.setflags(write=False)
        bm._words = words
        return bm

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bitset(cls, bs: BitSet) -> "WahBitmap":
        """Compress a :class:`BitSet`."""
        n = bs.n
        n_groups = (n + GROUP_BITS - 1) // GROUP_BITS
        if n_groups == 0:
            return cls(n, [])
        # Expand to single bits once, then pack 31 at a time.  This is an
        # O(n) encode; fine because encoding happens off the hot path.
        bits = np.unpackbits(bs.words.view(np.uint8), bitorder="little")[:n]
        padded = np.zeros(n_groups * GROUP_BITS, dtype=np.uint8)
        padded[:n] = bits
        groups = padded.reshape(n_groups, GROUP_BITS)
        weights = (1 << np.arange(GROUP_BITS, dtype=np.int64))
        vals = (groups.astype(np.int64) * weights).sum(axis=1)
        builder = _Builder()
        for v in vals.tolist():
            builder.add_group(int(v))
        return cls._trusted(
            n, np.asarray(builder.finish(), dtype=np.uint32)
        )

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "WahBitmap":
        """Compress the set containing exactly ``indices``."""
        return cls.from_bitset(BitSet.from_indices(n, indices))

    @classmethod
    def from_words(
        cls, words: np.ndarray, n: int | None = None
    ) -> "WahBitmap":
        """Compress a raw ``uint64`` bit-string word array.

        ``words`` is the :class:`~repro.core.bitset.BitSet` layout used
        by the enumeration hot loops (a row of ``LevelArrays.cn``).  When
        ``n`` is omitted the full ``64 * len(words)``-bit universe is
        used, which round-trips exactly through :meth:`to_words` for any
        word array whose tail invariant holds.

        Examples
        --------
        >>> import numpy as np
        >>> bm = WahBitmap.from_words(np.array([0b1011], dtype=np.uint64))
        >>> (bm.n, sorted(bm.iter_indices()))
        (64, [0, 1, 3])
        >>> np.array_equal(
        ...     bm.to_words(), np.array([0b1011], dtype=np.uint64)
        ... )
        True
        """
        arr = np.ascontiguousarray(words, dtype=np.uint64)
        if n is None:
            n = WORD_BITS * int(arr.size)
        return cls.from_bitset(BitSet(n, arr))

    @classmethod
    def zeros(cls, n: int) -> "WahBitmap":
        """All-zero bitmap."""
        return cls.from_bitset(BitSet.zeros(n))

    # -- decompression -----------------------------------------------------

    def to_bitset(self) -> BitSet:
        """Decompress to a :class:`BitSet`."""
        if self._n_groups == 0:
            return BitSet.zeros(self.n)
        reader = _GroupReader(self._words.tolist())
        vals = np.fromiter(
            (reader.next_group() for _ in range(self._n_groups)),
            dtype=np.int64,
            count=self._n_groups,
        )
        shifts = np.arange(GROUP_BITS, dtype=np.int64)
        bits = ((vals[:, None] >> shifts) & 1).astype(np.uint8)
        flat = bits.reshape(-1)[: self.n]
        out = BitSet.zeros(self.n)
        idx = np.flatnonzero(flat)
        if idx.size:
            out.words[:] = BitSet.from_indices(self.n, idx).words
        return out

    def to_words(self) -> np.ndarray:
        """Decompress to raw ``uint64`` bit-string words.

        Inverse of :meth:`from_words`: the returned array is the
        :class:`~repro.core.bitset.BitSet` word layout the enumeration
        hot loops operate on.  Like :meth:`wah_words`, the array is
        returned read-only; copy it before mutating.
        """
        words = self.to_bitset().words
        words.setflags(write=False)
        return words

    def iter_indices(self) -> Iterator[int]:
        """Yield the set-bit indices, ascending, without decompressing.

        Zero fills advance the cursor in O(1) whatever their run
        length; only literal words and one-fills cost time, so
        iteration is proportional to the *compressed* size plus the
        population count — the op the paper's "bitwise operations ...
        on the compressed data" remark asks for.
        """
        base = 0
        for word in self._words.tolist():
            if _is_fill(word):
                span = _fill_len(word) * GROUP_BITS
                if _fill_bit(word):
                    yield from range(base, min(base + span, self.n))
                base += span
            else:
                value = int(word)
                while value:
                    low = value & -value
                    yield base + low.bit_length() - 1
                    value ^= low
                base += GROUP_BITS

    def __iter__(self) -> Iterator[int]:
        return self.iter_indices()

    # -- compressed-domain operations ---------------------------------------

    def _check(self, other: "WahBitmap") -> None:
        if not isinstance(other, WahBitmap):
            raise TypeError(f"expected WahBitmap, got {type(other).__name__}")
        if other.n != self.n:
            raise BitSetError(f"universe mismatch: {self.n} vs {other.n}")

    def _binary(self, other: "WahBitmap", op) -> "WahBitmap":
        """Group-synchronous merge.

        Runs of fills are consumed in bulk when both operands are mid-fill,
        so the cost is proportional to the *compressed* sizes, not ``n``.
        """
        self._check(other)
        ra = _GroupReader(self._words.tolist())
        rb = _GroupReader(other._words.tolist())
        builder = _Builder()
        remaining = self._n_groups
        while remaining:
            ga = ra.next_group()
            gb = rb.next_group()
            # Bulk-skip: while both readers sit inside fills, the op result
            # is constant; emit it for the overlapping run length.
            bulk = min(ra.pending_fill, rb.pending_fill, remaining - 1)
            g = op(ga, gb) & _LITERAL_MASK
            builder.add_group(g)
            if bulk > 0 and (ga in (0, _LITERAL_MASK)) and (
                gb in (0, _LITERAL_MASK)
            ):
                for _ in range(bulk):
                    builder.add_group(g)
                ra.pending_fill -= bulk
                rb.pending_fill -= bulk
                remaining -= bulk
            remaining -= 1
        return WahBitmap._trusted(
            self.n, np.asarray(builder.finish(), dtype=np.uint32)
        )

    def __and__(self, other: "WahBitmap") -> "WahBitmap":
        return self._binary(other, lambda a, b: a & b)

    def __or__(self, other: "WahBitmap") -> "WahBitmap":
        return self._binary(other, lambda a, b: a | b)

    def __xor__(self, other: "WahBitmap") -> "WahBitmap":
        return self._binary(other, lambda a, b: a ^ b)

    def andnot(self, other: "WahBitmap") -> "WahBitmap":
        """Compressed-domain ``self & ~other``."""
        return self._binary(other, lambda a, b: a & ~b)

    def intersect_any(self, other: "WahBitmap") -> bool:
        """``(self & other).any()`` without materialising the AND.

        The paper's ``BitOneExists`` maximality test on compressed
        operands: the merged scan stops at the first overlapping group
        and bulk-skips aligned fill runs, so a hit costs only the
        compressed prefix before the overlap.

        Examples
        --------
        >>> a = WahBitmap.from_indices(10_000, [3, 9_000])
        >>> a.intersect_any(WahBitmap.from_indices(10_000, [9_000]))
        True
        >>> a.intersect_any(WahBitmap.from_indices(10_000, [4, 8_999]))
        False
        """
        self._check(other)
        ra = _GroupReader(self._words.tolist())
        rb = _GroupReader(other._words.tolist())
        remaining = self._n_groups
        while remaining:
            ga = ra.next_group()
            gb = rb.next_group()
            if ga & gb:
                return True
            # both mid-fill with a zero AND: at least one side is a
            # zero fill, so the AND stays zero for the whole overlap
            bulk = min(ra.pending_fill, rb.pending_fill, remaining - 1)
            if bulk > 0:
                ra.pending_fill -= bulk
                rb.pending_fill -= bulk
                remaining -= bulk
            remaining -= 1
        return False

    def any(self) -> bool:
        """True when any bit is set, without decompression."""
        for w in self._words.tolist():
            if _is_fill(w):
                if _fill_bit(w):
                    return True
            elif w:
                return True
        return False

    def count(self) -> int:
        """Population count, computed on the compressed form."""
        total = 0
        for w in self._words.tolist():
            if _is_fill(w):
                if _fill_bit(w):
                    total += _fill_len(w) * GROUP_BITS
            else:
                total += int(w).bit_count()
        # group coverage and zero padding are validated at
        # construction, so no tail correction is needed here
        return total

    # -- storage metrics ----------------------------------------------------

    def wah_words(self) -> np.ndarray:
        """The raw compressed WAH words, for the word-array kernels.

        Returns the internal canonical word array — a *read-only*
        ``np.uint32`` ndarray, shared without copying (``.tolist()`` it
        for the pure-Python kernels' fastest indexing).  This is the
        representation :func:`wah_and_into` / :func:`wah_and_any` /
        :func:`wah_and_count` and the :mod:`~repro.core.wah_kernels`
        batch kernels operate on, paired with the bitmap's group count
        ``(n + 30) // 31``.

        Examples
        --------
        >>> [hex(w) for w in WahBitmap.from_indices(93, [0]).wah_words()]
        ['0x1', '0x80000002']
        """
        return self._words

    def compressed_words(self) -> int:
        """Number of 32-bit words in the compressed encoding."""
        return len(self._words)

    def nbytes(self) -> int:
        """Bytes of compressed payload."""
        return 4 * len(self._words)

    def compression_ratio(self) -> float:
        """Uncompressed bitmap bytes divided by compressed bytes.

        Ratios above 1 mean the compression helps; very sparse or very
        dense bitmaps compress best.  Returns ``inf`` for an empty stream
        over a non-empty universe (cannot happen for canonical encodings)
        and 1.0 for the empty universe.
        """
        raw = 4 * self._n_groups
        if raw == 0:
            return 1.0
        if self._words.size == 0:
            return float("inf")
        return raw / self.nbytes()

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WahBitmap):
            return NotImplemented
        return self.n == other.n and np.array_equal(
            self._words, other._words
        )

    def __hash__(self) -> int:
        return hash((self.n, self._words.tobytes()))

    def __repr__(self) -> str:
        return (
            f"WahBitmap(n={self.n}, words={len(self._words)}, "
            f"count={self.count()})"
        )


# ---------------------------------------------------------------------------
# Word-array kernels: the scalar oracle of the batched kernels
# ---------------------------------------------------------------------------
#
# These functions operate on raw canonical WAH word lists (as returned by
# :meth:`WahBitmap.wah_words`) plus an explicit group count, skipping the
# per-call universe validation the `WahBitmap` constructor performs.  The
# batched kernels of :mod:`repro.core.wah_kernels` must reproduce their
# output word for word, so the contract is deliberately lean:
#
# * both operands must be canonical encodings covering exactly `n_groups`
#   groups (every `WahBitmap` guarantees this at construction);
# * outputs are canonical, so kernel results and encoder results for the
#   same bit content are byte-identical word sequences;
# * fill runs are consumed in bulk on both operands, so the cost is
#   proportional to the *compressed* sizes, never to the universe.


class WahScratch:
    """Reusable workspace and op tally for the word-array kernels.

    One scratch serves one thread of kernel calls: ``buf`` is the
    reusable output buffer :func:`wah_and_into` writes into (cleared at
    each call, so a result that must outlive the next call has to be
    copied with ``list(...)``), and the counters record the kernel
    traffic the compressed-domain benchmarks report:

    ``word_ops``
        Compressed 32-bit words consumed plus produced across all calls
        (the batch row kernels of :mod:`repro.core.wah_kernels` count
        the CN words they read and write plus the adjacency groups
        they probe).
    ``and_ops``
        Kernel invocations (one per compressed-domain AND / test; one
        per pair for the batch kernels).

    Examples
    --------
    >>> scratch = WahScratch()
    >>> a = WahBitmap.from_indices(62, [0, 40])
    >>> b = WahBitmap.from_indices(62, [40, 41])
    >>> out = wah_and_into(a.wah_words(), b.wah_words(), 2, scratch)
    >>> (out is scratch.buf, scratch.and_ops)
    (True, 1)
    >>> sorted(WahBitmap(62, list(out)).iter_indices())
    [40]
    """

    __slots__ = ("buf", "word_ops", "and_ops")

    def __init__(self) -> None:
        self.buf: list[int] = []
        self.word_ops = 0
        self.and_ops = 0

    def reset_stats(self) -> None:
        """Zero the tallies (the buffer is managed by the kernels)."""
        self.word_ops = 0
        self.and_ops = 0


def _flush_run(out: list[int], bit: int, length: int) -> None:
    """Append a canonical fill run, chunked at the 30-bit length cap."""
    while length > _FILL_LEN_MASK:
        out.append(_make_fill(bit, _FILL_LEN_MASK))
        length -= _FILL_LEN_MASK
    if length:
        out.append(_make_fill(bit, length))


def wah_and_into(
    a: Sequence[int],
    b: Sequence[int],
    n_groups: int,
    scratch: WahScratch | None = None,
) -> list[int]:
    """AND two canonical WAH word streams without decompressing either.

    Returns the canonical word list of ``a & b`` — written into
    ``scratch.buf`` when a scratch is given (copy it before the next
    kernel call if it must survive), a fresh list otherwise.  Aligned
    fill runs are consumed in bulk, so the merge touches each compressed
    word exactly once.

    Examples
    --------
    >>> a = WahBitmap.from_indices(10_000, [5, 9_000])
    >>> b = WahBitmap.from_indices(10_000, [5, 70, 9_001])
    >>> n_groups = (10_000 + 30) // 31
    >>> out = wah_and_into(a.wah_words(), b.wah_words(), n_groups)
    >>> sorted(WahBitmap(10_000, out).iter_indices())
    [5]
    >>> out == (a & b).wah_words().tolist()   # canonical == encoder
    True
    """
    if isinstance(a, np.ndarray):
        a = a.tolist()
    if isinstance(b, np.ndarray):
        b = b.tolist()
    if scratch is None:
        out: list[int] = []
    else:
        out = scratch.buf
        out.clear()
    ia = ib = 0
    a_pend = b_pend = 0
    a_val = b_val = 0
    a_fill = b_fill = False
    run_bit = -1
    run_len = 0
    remaining = n_groups
    while remaining:
        if not a_pend:
            w = a[ia]
            ia += 1
            if w & _FILL_FLAG:
                a_pend = w & _FILL_LEN_MASK
                a_val = _LITERAL_MASK if w & _FILL_BIT else 0
                a_fill = True
            else:
                a_pend = 1
                a_val = w
                a_fill = False
        if not b_pend:
            w = b[ib]
            ib += 1
            if w & _FILL_FLAG:
                b_pend = w & _FILL_LEN_MASK
                b_val = _LITERAL_MASK if w & _FILL_BIT else 0
                b_fill = True
            else:
                b_pend = 1
                b_val = w
                b_fill = False
        # overlap of the two current runs; >1 only when both sides are
        # mid-fill, in which case the AND is constant over the overlap
        take = a_pend if a_pend < b_pend else b_pend
        g = a_val & b_val
        if g == 0 or g == _LITERAL_MASK:
            bit = 1 if g else 0
            if run_bit == bit:
                run_len += take
            else:
                if run_len:
                    _flush_run(out, run_bit, run_len)
                run_bit = bit
                run_len = take
        else:
            # a literal result implies at least one literal operand,
            # whose run length is 1 — so take == 1 here
            if run_len:
                _flush_run(out, run_bit, run_len)
                run_len = 0
                run_bit = -1
            out.append(g)
        a_pend -= take
        b_pend -= take
        remaining -= take
    if run_len:
        _flush_run(out, run_bit, run_len)
    if scratch is not None:
        scratch.word_ops += ia + ib + len(out)
        scratch.and_ops += 1
    return out


def wah_and_any(
    a: Sequence[int],
    b: Sequence[int],
    n_groups: int,
    scratch: WahScratch | None = None,
) -> bool:
    """``BitOneExists(a & b)`` on compressed operands, allocation-free.

    The per-candidate maximality test of the compressed-domain
    generation step: stops at the first overlapping group and bulk-skips
    aligned fill runs, so a hit costs only the compressed prefix before
    the overlap and a miss costs one pass over the compressed words.

    Examples
    --------
    >>> a = WahBitmap.from_indices(10_000, [5, 9_000])
    >>> n_groups = (10_000 + 30) // 31
    >>> wah_and_any(
    ...     a.wah_words(),
    ...     WahBitmap.from_indices(10_000, [9_000]).wah_words(),
    ...     n_groups,
    ... )
    True
    >>> wah_and_any(
    ...     a.wah_words(), WahBitmap.zeros(10_000).wah_words(), n_groups
    ... )
    False
    """
    if isinstance(a, np.ndarray):
        a = a.tolist()
    if isinstance(b, np.ndarray):
        b = b.tolist()
    ia = ib = 0
    a_pend = b_pend = 0
    a_val = b_val = 0
    remaining = n_groups
    hit = False
    while remaining:
        if not a_pend:
            w = a[ia]
            ia += 1
            if w & _FILL_FLAG:
                a_pend = w & _FILL_LEN_MASK
                a_val = _LITERAL_MASK if w & _FILL_BIT else 0
            else:
                a_pend = 1
                a_val = w
        if not b_pend:
            w = b[ib]
            ib += 1
            if w & _FILL_FLAG:
                b_pend = w & _FILL_LEN_MASK
                b_val = _LITERAL_MASK if w & _FILL_BIT else 0
            else:
                b_pend = 1
                b_val = w
        if a_val & b_val:
            hit = True
            break
        take = a_pend if a_pend < b_pend else b_pend
        a_pend -= take
        b_pend -= take
        remaining -= take
    if scratch is not None:
        scratch.word_ops += ia + ib
        scratch.and_ops += 1
    return hit


def wah_and_count(
    a: Sequence[int],
    b: Sequence[int],
    n_groups: int,
    scratch: WahScratch | None = None,
) -> int:
    """Population count of ``a & b`` without materialising the AND.

    Examples
    --------
    >>> a = WahBitmap.from_indices(200, range(0, 200, 2))
    >>> b = WahBitmap.from_indices(200, range(0, 200, 3))
    >>> wah_and_count(a.wah_words(), b.wah_words(), (200 + 30) // 31)
    34
    >>> len([i for i in range(200) if i % 6 == 0])
    34
    """
    if isinstance(a, np.ndarray):
        a = a.tolist()
    if isinstance(b, np.ndarray):
        b = b.tolist()
    ia = ib = 0
    a_pend = b_pend = 0
    a_val = b_val = 0
    remaining = n_groups
    total = 0
    while remaining:
        if not a_pend:
            w = a[ia]
            ia += 1
            if w & _FILL_FLAG:
                a_pend = w & _FILL_LEN_MASK
                a_val = _LITERAL_MASK if w & _FILL_BIT else 0
            else:
                a_pend = 1
                a_val = w
        if not b_pend:
            w = b[ib]
            ib += 1
            if w & _FILL_FLAG:
                b_pend = w & _FILL_LEN_MASK
                b_val = _LITERAL_MASK if w & _FILL_BIT else 0
            else:
                b_pend = 1
                b_val = w
        take = a_pend if a_pend < b_pend else b_pend
        g = a_val & b_val
        if g == _LITERAL_MASK:
            total += GROUP_BITS * take
        elif g:
            total += g.bit_count()
        a_pend -= take
        b_pend -= take
        remaining -= take
    if scratch is not None:
        scratch.word_ops += ia + ib
        scratch.and_ops += 1
    return total


def wah_indices_above(words: Sequence[int], lo: int) -> Iterator[int]:
    """Yield the set-bit indices strictly greater than ``lo``, ascending.

    The compressed-domain partner scan of the bit-scan generation
    variant: zero fills advance the cursor in O(1) whatever their run
    length, and literal groups entirely at or below ``lo`` are skipped
    without a bit scan, so the cost is the compressed size plus the
    yielded population.

    Examples
    --------
    >>> bm = WahBitmap.from_indices(10_000, [3, 800, 801, 9_000])
    >>> list(wah_indices_above(bm.wah_words(), 800))
    [801, 9000]
    """
    if isinstance(words, np.ndarray):
        words = words.tolist()
    base = 0
    floor = lo + 1
    for w in words:
        if w & _FILL_FLAG:
            span = (w & _FILL_LEN_MASK) * GROUP_BITS
            if w & _FILL_BIT:
                start = base if base >= floor else floor
                end = base + span
                if start < end:
                    yield from range(start, end)
            base += span
        else:
            if w and base + GROUP_BITS > floor:
                value = w
                while value:
                    low = value & -value
                    idx = base + low.bit_length() - 1
                    if idx >= floor:
                        yield idx
                    value ^= low
            base += GROUP_BITS
