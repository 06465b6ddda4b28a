"""Vectorised numpy kernels over batches of WAH word streams.

:mod:`repro.core.compressed` gives two layers: the validated
:class:`~repro.core.compressed.WahBitmap` wrapper and per-call Python
word-array kernels (:func:`~repro.core.compressed.wah_and_into` and
friends).  Both touch every compressed word from the interpreter, which
is why the committed speed baseline showed the compressed-domain paths
at a multiple of ``incore``.  This module is the third layer: the same
operations expressed as numpy array programs over **many bitmaps at
once**, in a structure-of-arrays (SoA) layout:

``words``
    One flat ``uint32`` array holding the canonical WAH words of every
    stream in the batch, concatenated in stream order.
``offsets``
    ``int64`` array of ``N + 1`` word offsets; stream ``i`` is
    ``words[offsets[i]:offsets[i + 1]]``.

All streams in one batch share the same group count ``n_groups`` (the
universe is fixed per graph), which buys the central trick: the global
group position of every word — its stream index times ``n_groups`` plus
its start inside the stream — is simply the running sum of run lengths
across the flat array.  Fill runs therefore become *run-boundary index
arithmetic* (cumsum / searchsorted / reduceat) instead of per-word
branching, and literal-dense stretches reduce to one aligned
``np.bitwise_and``.

Equivalence contract: every kernel here produces byte-identical
canonical words (and identical predicates / counts) to the Python
kernels in :mod:`repro.core.compressed` for the same operands — the
property ``tests/core/test_wah_kernel_arrays.py`` drives at random.
These batch kernels are the only compressed path the engine runs; the
Python kernels stay as their oracle.

The kernels are pure functions of ndarray inputs and release the GIL
inside every numpy op.  That has not made the ``threads`` backend
scale the compressed domain: on the genome graph at ``jobs=2`` its
measured parallelism is 1.34, at wall-time parity with ``incore``
(ROADMAP.md records the runs).
"""

from __future__ import annotations

import numpy as np

from repro.errors import BitSetError
from repro.core.bitset import WORD_BITS
from repro.core.compressed import GROUP_BITS

__all__ = [
    "concat_streams",
    "take_streams",
    "batch_and",
    "batch_and_any",
    "batch_and_count",
    "batch_decode_groups",
    "batch_decode_words",
    "batch_indices_above",
    "batch_encode_words",
]

_LITERAL_MASK = np.uint32((1 << GROUP_BITS) - 1)
_FILL_FLAG = np.uint32(1 << 31)
_FILL_BIT = np.uint32(1 << 30)
_FILL_LEN_MASK = np.uint32((1 << 30) - 1)

_EMPTY_U32 = np.zeros(0, dtype=np.uint32)
_EMPTY_I64 = np.zeros(0, dtype=np.int64)

#: 31 group-bit weights, shared by the encode/decode bit transposes.
_GROUP_SHIFTS = np.arange(GROUP_BITS, dtype=np.uint32)
_GROUP_WEIGHTS = (np.uint32(1) << _GROUP_SHIFTS).astype(np.uint32)


def _check_groups(n_groups: int) -> None:
    # one fill word can cover at most 2**30 - 1 groups; batches never
    # chunk runs, so the whole universe must fit in a single fill
    if n_groups > int(_FILL_LEN_MASK):
        raise BitSetError(
            f"universe of {n_groups} groups exceeds the single-fill "
            f"limit {int(_FILL_LEN_MASK)}"
        )


def concat_streams(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-stream word arrays into one SoA ``(words, offsets)``."""
    if not parts:
        return _EMPTY_U32, np.zeros(1, dtype=np.int64)
    lens = np.fromiter(
        (len(p) for p in parts), dtype=np.int64, count=len(parts)
    )
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    words = (
        np.concatenate(parts).astype(np.uint32, copy=False)
        if offsets[-1]
        else _EMPTY_U32
    )
    return words, offsets


def take_streams(
    words: np.ndarray, offsets: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather streams ``ids`` (with repeats) into a new SoA batch.

    The variable-length gather: stream ``ids[i]`` of the source becomes
    stream ``i`` of the result, so expander stages can assemble operand
    batches (one CN stream per child, one adjacency row per generated
    clique) without a Python-level loop.
    """
    ids = np.asarray(ids, dtype=np.int64)
    lens = offsets[ids + 1] - offsets[ids]
    out_offsets = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(lens, out=out_offsets[1:])
    total = int(out_offsets[-1])
    if total == 0:
        return _EMPTY_U32, out_offsets
    # flat source index: per-element offset base plus position in run
    base = np.repeat(offsets[ids], lens)
    pos = np.arange(total, dtype=np.int64) - np.repeat(
        out_offsets[:-1], lens
    )
    return words[base + pos], out_offsets


def _expand(
    words: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-word ``(vals, lengths, gstart)`` for one SoA batch.

    ``vals`` is each word's group value (fills collapse to all-zero or
    all-one), ``lengths`` its run length in groups, and ``gstart`` its
    *global* starting group — stream index × ``n_groups`` + local start,
    which the shared-universe invariant makes a plain running sum.
    """
    is_fill = (words & _FILL_FLAG) != 0
    lengths = np.where(
        is_fill, (words & _FILL_LEN_MASK).astype(np.int64), 1
    )
    vals = np.where(
        is_fill,
        np.where((words & _FILL_BIT) != 0, _LITERAL_MASK, np.uint32(0)),
        words & _LITERAL_MASK,
    )
    gstart = np.cumsum(lengths) - lengths
    return vals, lengths, gstart


def _encode_runs(
    seg_pair: np.ndarray,
    seg_len: np.ndarray,
    seg_val: np.ndarray,
    n_streams: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical WAH words from value-uniform segments, batch-wide.

    ``seg_*`` describe consecutive group runs in global order: the
    stream each belongs to, its length in groups, and its uniform group
    value.  Emits exactly the words the Python ``_Builder`` would:
    all-zero/all-one runs become fills (merged across adjacent segments
    of the same class within a stream, single groups included), mixed
    values become literals, literals never merge.  This one helper is
    shared by every encoding path — fresh encodes and AND outputs — so
    batch results are byte-identical to the per-call encoder.
    """
    if seg_val.size == 0:
        return _EMPTY_U32, np.zeros(n_streams + 1, dtype=np.int64)
    # a one-group joins a one-fill, a zero-group a zero-fill; a mixed
    # (literal) group never merges
    one = seg_val == _LITERAL_MASK
    lit = seg_val != 0
    lit &= ~one
    brk = np.empty(seg_val.size, dtype=bool)
    brk[0] = True
    np.not_equal(seg_pair[1:], seg_pair[:-1], out=brk[1:])
    brk[1:] |= one[1:] != one[:-1]
    brk[1:] |= lit[1:]
    brk[1:] |= lit[:-1]
    starts = brk.nonzero()[0]
    fills = np.add.reduceat(seg_len, starts).astype(np.uint32)
    fills |= one[starts] * _FILL_BIT
    fills |= _FILL_FLAG
    out_words = np.where(lit[starts], seg_val[starts], fills)
    out_offsets = np.zeros(n_streams + 1, dtype=np.int64)
    np.bincount(seg_pair[starts], minlength=n_streams).cumsum(
        out=out_offsets[1:]
    )
    return out_words.astype(np.uint32, copy=False), out_offsets


def _merged_segments(
    a_words: np.ndarray,
    a_offsets: np.ndarray,
    b_words: np.ndarray,
    b_offsets: np.ndarray,
    n_groups: int,
):
    """Segment both operand batches on their merged run boundaries.

    Returns ``(seg_pair, seg_len, va, vb)``: for every maximal group
    range on which *both* operands are value-uniform, the owning pair,
    its length in groups, and the two operand group values.  This is
    the run-boundary arithmetic replacing the per-word merge loop: the
    boundary set is the sorted union of both operands' word starts, and
    each operand's value on a segment is found by binary search over
    its (globally sorted) start keys.
    """
    n_pairs = a_offsets.size - 1
    va_w, _, ka = _expand(a_words, a_offsets)
    vb_w, _, kb = _expand(b_words, b_offsets)
    # sorted unique boundary union (np.union1d is an order of magnitude
    # slower than a raw sort + dedupe at these sizes)
    sk = np.sort(np.concatenate((ka, kb)))
    keep = np.empty(sk.size, dtype=bool)
    keep[0] = True
    np.not_equal(sk[1:], sk[:-1], out=keep[1:])
    bkeys = sk[keep]
    va = va_w[np.searchsorted(ka, bkeys, side="right") - 1]
    vb = vb_w[np.searchsorted(kb, bkeys, side="right") - 1]
    total = n_pairs * n_groups
    seg_len = np.diff(bkeys, append=total)
    seg_pair = bkeys // n_groups
    return seg_pair, seg_len, va, vb


def batch_and(
    a_words: np.ndarray,
    a_offsets: np.ndarray,
    b_words: np.ndarray,
    b_offsets: np.ndarray,
    n_groups: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``a[i] & b[i]`` for every stream pair, canonical SoA output.

    The batch counterpart of :func:`repro.core.compressed.wah_and_into`:
    operand ``i`` of each batch is ANDed with operand ``i`` of the
    other, and the results come back as one canonical SoA batch —
    byte-identical, stream for stream, to the Python kernel's output.
    """
    n_pairs = a_offsets.size - 1
    if n_pairs == 0 or n_groups == 0:
        return _EMPTY_U32, np.zeros(n_pairs + 1, dtype=np.int64)
    _check_groups(n_groups)
    seg_pair, seg_len, va, vb = _merged_segments(
        a_words, a_offsets, b_words, b_offsets, n_groups
    )
    return _encode_runs(seg_pair, seg_len, va & vb, n_pairs)


def batch_and_any(
    a_words: np.ndarray,
    a_offsets: np.ndarray,
    b_words: np.ndarray,
    b_offsets: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """``BitOneExists(a[i] & b[i])`` for every pair, as a bool array.

    The batch maximality test.  No merged-boundary sort is needed: a
    pair intersects iff some *nonzero* word of ``a`` overlaps nonzero
    content of ``b`` — a literal probes ``b``'s covering word directly,
    a one-fill asks whether ``b`` has any nonzero group inside the
    fill's span, answered by a prefix sum of ``b``'s nonzero run
    lengths.  Two binary searches per nonzero ``a`` word, no per-word
    Python.
    """
    n_pairs = a_offsets.size - 1
    out = np.zeros(n_pairs, dtype=bool)
    if n_pairs == 0 or n_groups == 0:
        return out
    _check_groups(n_groups)
    va, la, ka = _expand(a_words, a_offsets)
    vb, lb, kb = _expand(b_words, b_offsets)
    probe = np.flatnonzero(va != 0)
    if probe.size == 0:
        return out
    nz_b = vb != 0
    nz_cum = np.zeros(kb.size + 1, dtype=np.int64)
    np.cumsum(np.where(nz_b, lb, 0), out=nz_cum[1:])

    def nonzero_before(x: np.ndarray) -> np.ndarray:
        """Nonzero ``b`` groups in ``[0, x)``, global positions."""
        j = np.searchsorted(kb, x, side="right") - 1
        partial = np.where(
            nz_b[j], np.minimum(x - kb[j], lb[j]), 0
        )
        return nz_cum[j] + partial

    s = ka[probe]
    is_fill = la[probe] > 1
    lit_probe = ~is_fill  # literals and length-1 fills: exact value test
    hit = np.zeros(probe.size, dtype=bool)
    j = np.searchsorted(kb, s, side="right") - 1
    hit[lit_probe] = (va[probe][lit_probe] & vb[j][lit_probe]) != 0
    if is_fill.any():
        e = s[is_fill] + la[probe][is_fill]
        hit[is_fill] = nonzero_before(e) > nonzero_before(s[is_fill])
    out[(s[hit] // n_groups)] = True
    return out


def batch_and_count(
    a_words: np.ndarray,
    a_offsets: np.ndarray,
    b_words: np.ndarray,
    b_offsets: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """``popcount(a[i] & b[i])`` for every pair, as an int64 array."""
    n_pairs = a_offsets.size - 1
    out = np.zeros(n_pairs, dtype=np.int64)
    if n_pairs == 0 or n_groups == 0:
        return out
    _check_groups(n_groups)
    seg_pair, seg_len, va, vb = _merged_segments(
        a_words, a_offsets, b_words, b_offsets, n_groups
    )
    # uniform: a literal segment has length 1, a fill segment's AND is
    # uniform over its span, so popcount * length covers both
    weights = np.bitwise_count(va & vb).astype(np.int64) * seg_len
    np.add.at(out, seg_pair, weights)
    return out


# ---------------------------------------------------------------------------
# Batch codec: SoA WAH <-> group values <-> raw uint64 words
# ---------------------------------------------------------------------------


def batch_decode_groups(
    words: np.ndarray, offsets: np.ndarray, n_groups: int
) -> np.ndarray:
    """Decode a batch to its ``(N, n_groups)`` group-value matrix."""
    n = offsets.size - 1
    if n == 0 or n_groups == 0:
        return np.zeros((n, n_groups), dtype=np.uint32)
    vals, lengths, _ = _expand(words, offsets)
    return np.repeat(vals, lengths).reshape(n, n_groups)


def batch_decode_words(
    words: np.ndarray, offsets: np.ndarray, n_groups: int, n_bits: int
) -> np.ndarray:
    """Decode a batch to raw ``uint64`` bit-string words, ``(N, n/64)``.

    ``n_bits`` must be a whole number of 64-bit words (every CN universe
    is, by construction) and fit the group span.
    """
    n = offsets.size - 1
    if n_bits % WORD_BITS:
        raise BitSetError(
            f"universe {n_bits} is not a whole number of 64-bit words"
        )
    w64 = n_bits // WORD_BITS
    if n == 0 or w64 == 0:
        return np.zeros((n, w64), dtype=np.uint64)
    groups = batch_decode_groups(words, offsets, n_groups)
    bits = (
        (groups[:, :, None] >> _GROUP_SHIFTS) & np.uint32(1)
    ).astype(np.uint8)
    flat = bits.reshape(n, n_groups * GROUP_BITS)[:, :n_bits]
    packed = np.packbits(flat, axis=1, bitorder="little")
    return packed.view(np.uint64)


def batch_indices_above(
    words: np.ndarray,
    offsets: np.ndarray,
    n_groups: int,
    n_bits: int,
    lo: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-stream set-bit indices strictly greater than ``lo[i]``.

    The batch partner scan of the bit-scan generation model
    (:func:`repro.core.compressed.wah_indices_above` per stream).
    """
    n = offsets.size - 1
    if n == 0 or n_groups == 0:
        return _EMPTY_I64, np.zeros(n + 1, dtype=np.int64)
    groups = batch_decode_groups(words, offsets, n_groups)
    bits = (
        (groups[:, :, None] >> _GROUP_SHIFTS) & np.uint32(1)
    ).reshape(n, n_groups * GROUP_BITS)
    cols = np.arange(n_groups * GROUP_BITS, dtype=np.int64)
    keep = cols[None, :] > np.asarray(lo, dtype=np.int64)[:, None]
    rows, idx = np.nonzero(bits.astype(bool) & keep)
    inside = idx < n_bits
    rows, idx = rows[inside], idx[inside]
    counts = np.bincount(rows, minlength=n)
    idx_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=idx_offsets[1:])
    return idx, idx_offsets


def batch_encode_words(
    mat: np.ndarray, n_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Encode raw ``uint64`` bit-string rows into a canonical SoA batch.

    The batch counterpart of :meth:`WahBitmap.from_words` row by row:
    ``mat`` is ``(N, n_bits / 64)`` with the tail invariant (bits at or
    above ``n_bits`` zero).
    """
    mat = np.ascontiguousarray(mat, dtype=np.uint64)
    n = mat.shape[0]
    n_groups = (n_bits + GROUP_BITS - 1) // GROUP_BITS
    if n == 0 or n_groups == 0:
        return _EMPTY_U32, np.zeros(n + 1, dtype=np.int64)
    _check_groups(n_groups)
    bits = np.unpackbits(
        mat.view(np.uint8), axis=1, bitorder="little"
    )
    padded = np.zeros((n, n_groups * GROUP_BITS), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    groups = (
        padded.reshape(n, n_groups, GROUP_BITS).astype(np.uint32)
        * _GROUP_WEIGHTS
    ).sum(axis=2, dtype=np.uint32)
    return _encode_runs(
        np.repeat(np.arange(n, dtype=np.int64), n_groups),
        np.ones(n * n_groups, dtype=np.int64),
        groups.reshape(-1),
        n,
    )
