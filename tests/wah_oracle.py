"""The scalar WAH oracle: the canonical codec and per-pair kernels.

The package ships only the batched numpy kernels of
:mod:`repro.core.wah_kernels`, which the compressed-domain generation
step runs.  This module is what they are checked against: the classic
Word-Aligned Hybrid encoding of Wu, Otoo and Shoshani, written one
group and one word at a time so that each step can be read off the
format.  A bitmap is split into 31-bit *groups* and encoded as a
sequence of 32-bit words of two kinds:

literal word
    Most-significant bit 0; the low 31 bits hold one group verbatim.

fill word
    Most-significant bit 1; bit 30 holds the fill bit value; the low 30
    bits hold the run length measured in groups.  A fill word of length
    ``L`` represents ``L`` consecutive all-zero or all-one groups.

The encoder always produces *canonical* output: adjacent fills of the same
bit value are merged and a fill of length 1 is still a fill (one word), so
equal bitmaps encode to equal word sequences.  The full word layout, the
fill encoding, and the group-coverage invariant the constructor enforces
are documented in ``docs/wah-format.md``.

Two layers, each the reference for one side of the batch kernels:

:class:`WahBitmap`
    The canonical codec: a validated bitmap built from a
    :class:`~repro.core.bitset.BitSet`, indices or raw ``uint64`` words,
    decoded back to each of them.  The batch encoder must write its
    words exactly.

word-array kernels (:func:`wah_and_into`, :func:`wah_and_any`,
:func:`wah_indices_above`)
    The scalar oracle of the batch AND, ``BitOneExists`` and partner
    scan: raw canonical word lists, one bitmap pair per call, tallied
    on a :class:`~repro.core.wah_kernels.WahScratch` when one is given.
    Their outputs are held to the encoder of the expected set, so the
    chain runs batch kernels, then these, then the ``BitSet`` truth.

Tests import this module as ``wah_oracle`` (pytest puts ``tests/`` on
``sys.path``); from the repository root it is ``tests.wah_oracle``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import BitSetError
from repro.core.bitset import WORD_BITS, BitSet
from repro.core.wah_kernels import GROUP_BITS, WahScratch

__all__ = [
    "WahBitmap",
    "wah_and_into",
    "wah_and_any",
    "wah_indices_above",
]

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

    Construct via :meth:`from_bitset`, :meth:`from_indices` or
    :meth:`from_words`, or from raw words, which the constructor
    validates.  Instances are immutable.

    Examples
    --------
    >>> a = WahBitmap.from_indices(100, [0, 50, 99])
    >>> sorted(a.to_bitset())
    [0, 50, 99]
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bitset(cls, bs: BitSet) -> "WahBitmap":
        """Compress a :class:`BitSet`."""
        n = bs.n
        n_groups = (n + GROUP_BITS - 1) // GROUP_BITS
        if n_groups == 0:
            return cls(n, [])
        # Expand to single bits once, then pack 31 at a time.
        bits = np.unpackbits(bs.words.view(np.uint8), bitorder="little")[:n]
        padded = np.zeros(n_groups * GROUP_BITS, dtype=np.uint8)
        padded[:n] = bits
        groups = padded.reshape(n_groups, GROUP_BITS)
        weights = (1 << np.arange(GROUP_BITS, dtype=np.int64))
        vals = (groups.astype(np.int64) * weights).sum(axis=1)
        builder = _Builder()
        for v in vals.tolist():
            builder.add_group(int(v))
        return cls(n, builder.finish())

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
        population count.
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

    # -- storage -------------------------------------------------------------

    def wah_words(self) -> np.ndarray:
        """The raw compressed WAH words, for the word-array kernels.

        Returns the internal canonical word array — a *read-only*
        ``np.uint32`` ndarray, shared without copying (``.tolist()`` it
        for the pure-Python kernels' fastest indexing).  This is the
        representation :func:`wah_and_into` / :func:`wah_and_any` and
        the :mod:`~repro.core.wah_kernels` batch kernels operate on,
        paired with the bitmap's group count ``(n + 30) // 31``.

        Examples
        --------
        >>> [hex(w) for w in WahBitmap.from_indices(93, [0]).wah_words()]
        ['0x1', '0x80000002']
        """
        return self._words

    def nbytes(self) -> int:
        """Bytes of compressed payload."""
        return 4 * len(self._words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WahBitmap):
            return NotImplemented
        return self.n == other.n and np.array_equal(
            self._words, other._words
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
#   proportional to the *compressed* sizes, never to the universe;
# * a scratch, when given, tallies the words read plus written
#   (`word_ops`) and one call (`and_ops`).


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

    Returns the canonical word list of ``a & b``.  Aligned fill runs
    are consumed in bulk, so the merge touches each compressed word
    exactly once.

    Examples
    --------
    >>> a = WahBitmap.from_indices(10_000, [5, 9_000])
    >>> b = WahBitmap.from_indices(10_000, [5, 70, 9_001])
    >>> n_groups = (10_000 + 30) // 31
    >>> out = wah_and_into(a.wah_words(), b.wah_words(), n_groups)
    >>> sorted(WahBitmap(10_000, out).iter_indices())
    [5]
    >>> out == WahBitmap.from_indices(10_000, [5]).wah_words().tolist()
    True
    """
    if isinstance(a, np.ndarray):
        a = a.tolist()
    if isinstance(b, np.ndarray):
        b = b.tolist()
    out: list[int] = []
    ia = ib = 0
    a_pend = b_pend = 0
    a_val = b_val = 0
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
