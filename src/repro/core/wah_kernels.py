"""Vectorised numpy kernels over batches of WAH word streams.

Every WAH operation the package runs is here, on the word-aligned
hybrid format of Wu, Otoo and Shoshani (31-bit groups held as literal
or fill 32-bit words, always canonical, so equal bitmaps encode to
equal words; ``docs/wah-format.md`` pins every bit).  The kernels are
numpy array programs over **many bitmaps at once**, in a
structure-of-arrays (SoA) layout:

``words``
    One flat ``uint32`` array holding the canonical WAH words of every
    stream in the batch, concatenated in stream order.
``offsets``
    ``int64`` array of ``N + 1`` word offsets; stream ``i`` is
    ``words[offsets[i]:offsets[i + 1]]``.

All streams in one batch share the same group count ``n_groups`` (the
universe is fixed per graph), so the global group position of every
word (its stream index times ``n_groups`` plus its start inside the
stream) is simply the running sum of run lengths across the flat array.
Fill runs therefore become run-boundary index arithmetic (cumsum /
reduceat) instead of per-word branching.

The generation step's two operations pair a compressed common-neighbor
(CN) stream with a *raw* adjacency row, the ``uint64`` row of
``Graph.adj`` the step already holds: :func:`batch_and_rows` derives
the child CN string and :func:`batch_and_rows_any` is the
``BitOneExists`` maximality test.  Both read only the stream's nonzero
groups, its *units*: group ``G`` of a row is bits ``[31G, 31G + 31)``,
at most two ``uint64`` loads, so zero fills cost nothing and one-fills
are split into unit groups.  The adjacency operand is never encoded or
copied.  Both compose halves the step calls itself, so it tests its
child CN strings' units without decoding the words it encoded.

Equivalence contract: every kernel here produces byte-identical
canonical words (and identical predicates) to the scalar kernels of the
test-side oracle, ``tests/wah_oracle.py``, for the same operands, the
adjacency row taken as its canonical encoding.
``tests/core/test_wah_kernel_arrays.py`` drives that property at
random.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BitSetError
from repro.core.bitset import WORD_BITS

__all__ = [
    "GROUP_BITS",
    "WahScratch",
    "concat_streams",
    "take_streams",
    "batch_and_rows",
    "batch_and_rows_any",
    "batch_and_units",
    "batch_encode_units",
    "batch_units_any",
    "nonzero_group_counts",
    "batch_decode_groups",
    "batch_decode_words",
    "batch_indices_above",
    "batch_encode_words",
]

#: Number of payload bits per WAH group/literal.
GROUP_BITS = 31

_LITERAL_MASK = np.uint32((1 << GROUP_BITS) - 1)
_FILL_FLAG = np.uint32(1 << 31)
_FILL_BIT = np.uint32(1 << 30)
_FILL_LEN_MASK = np.uint32((1 << 30) - 1)

_EMPTY_U32 = np.zeros(0, dtype=np.uint32)
_EMPTY_I64 = np.zeros(0, dtype=np.int64)

#: 31 group-bit weights, shared by the encode/decode bit transposes.
_GROUP_SHIFTS = np.arange(GROUP_BITS, dtype=np.uint32)
_GROUP_WEIGHTS = (np.uint32(1) << _GROUP_SHIFTS).astype(np.uint32)


class WahScratch:
    """Tallies of the row kernels' compressed traffic; one per thread.

    ``word_ops``
        CN words read and written plus adjacency groups probed.
    ``and_ops``
        Kernel pairs: one per AND or ``BitOneExists`` test.

    The compressed-domain step keeps one per worker thread and reports
    their sums as its ``kernel_word_ops`` and ``kernel_ands``.
    """

    __slots__ = ("word_ops", "and_ops")

    def __init__(self) -> None:
        self.word_ops = 0
        self.and_ops = 0


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


def _take_index(
    offsets: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat source positions of streams ``ids`` (with repeats), and the
    gathered batch's offsets: the index half of :func:`take_streams`."""
    ids = np.asarray(ids, dtype=np.int64)
    start = offsets[ids]
    lens = offsets[ids + 1] - start
    out_offsets = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(lens, out=out_offsets[1:])
    # element q of output stream i is source start[i] + q
    src = np.arange(int(out_offsets[-1]), dtype=np.int64)
    src += np.repeat(start - out_offsets[:-1], lens)
    return src, out_offsets


def take_streams(
    words: np.ndarray, offsets: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather streams ``ids`` (with repeats) into a new SoA batch.

    The variable-length gather: stream ``ids[i]`` of the source becomes
    stream ``i`` of the result, so expander stages can assemble operand
    batches (one CN stream per child) without a Python-level loop.
    """
    src, out_offsets = _take_index(offsets, ids)
    if not src.size:
        return _EMPTY_U32, out_offsets
    return words[src], out_offsets


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
    value.  Emits exactly the words the oracle's ``_Builder`` would:
    all-zero/all-one runs become fills (merged across adjacent segments
    of the same class within a stream, single groups included), mixed
    values become literals, literals never merge.  This one helper is
    shared by every encoding path — fresh encodes and AND outputs — so
    batch results are byte-identical to the oracle's encoder.
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


# ---------------------------------------------------------------------------
# Compressed x raw: a CN stream against a raw adjacency row
# ---------------------------------------------------------------------------


def _row_groups(n_words: int) -> int:
    """WAH groups spanning a raw row of ``n_words`` ``uint64`` words."""
    return (WORD_BITS * n_words + GROUP_BITS - 1) // GROUP_BITS


def _cum_at(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Running total of ``x`` at each offset: segment ``i`` of ``x``
    sums to ``out[i + 1] - out[i]``, an empty segment to zero."""
    cum = np.zeros(x.size + 1, dtype=np.int64)
    np.cumsum(x, out=cum[1:])
    return cum[offsets]


def nonzero_group_counts(
    words: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Each stream's nonzero-group count, read off its words: a literal
    counts 1, a one-fill its length, a zero fill 0 — the number of
    units :func:`_nonzero_groups` gives it, none built."""
    vals, lengths, _ = _expand(words, offsets)
    return np.diff(_cum_at(np.where(vals != 0, lengths, 0), offsets))


#: *units* ``(vals, groups, offsets)``: stream ``i``'s nonzero groups
#: are ``vals[offsets[i]:offsets[i + 1]]``, at local groups ``groups``.
Units = tuple[np.ndarray, np.ndarray, np.ndarray]


def _nonzero_groups(
    words: np.ndarray, offsets: np.ndarray, n_groups: int
) -> Units:
    """Every stream's nonzero groups, as units.

    A literal is one unit; a one-fill of ``L`` groups becomes ``L``
    all-ones units; zero fills vanish.
    """
    _check_groups(n_groups)
    vals, lengths, gstart = _expand(words, offsets)
    count = np.where(vals != 0, lengths, 0)
    nz = np.flatnonzero(count)
    reps = count[nz]
    # unit u of nonzero word w sits at gstart[w] + (u - first unit of w)
    first = np.cumsum(reps) - reps
    pos = np.arange(int(reps.sum()), dtype=np.int64)
    pos += np.repeat(gstart[nz] - first, reps)
    return np.repeat(vals[nz], reps), pos % n_groups, _cum_at(count, offsets)


def _probe(
    adj: np.ndarray, rows: np.ndarray, groups: np.ndarray
) -> np.ndarray:
    """Group ``groups[i]`` of raw row ``adj[rows[i]]``, as ``uint32``.

    Group ``G`` is bits ``[31G, 31G + 31)``: the word holding bit
    ``31G``, shifted down, ORed with the next word shifted up when the
    group starts past bit 33.  A group with no next word in its row
    shifts that (clipped) load by 63, so only its bit 0 survives, at
    bit 63, which the 31-bit mask drops: it reads as zero.
    """
    n_words = adj.shape[1]
    bit = np.arange(_row_groups(n_words), dtype=np.int64) * GROUP_BITS
    word, low = bit >> 6, bit & 63
    high = np.where((low > 33) & (word + 1 < n_words), 64 - low, 63)
    at = rows * n_words + word[groups]
    flat = adj.reshape(-1)
    val = flat[at] >> low.astype(np.uint64)[groups]
    val |= flat.take(at + 1, mode="clip") << high.astype(np.uint64)[groups]
    return (val & np.uint64(_LITERAL_MASK)).astype(np.uint32)


def _and_units(
    units: Units, offsets: np.ndarray, adj: np.ndarray,
    rows: np.ndarray, ids: np.ndarray, scratch: WahScratch | None,
) -> Units:
    """Stream ``ids[i]``'s units, gathered by index, ANDed with
    ``adj[rows[i]]``: every pair's units, values possibly zero.

    Tallies one AND per pair, the CN words it reads (by the streams'
    word ``offsets``) and the adjacency groups it probes.
    """
    vals, groups, nz_offsets = units
    src, unit_offsets = _take_index(nz_offsets, ids)
    pair = np.repeat(
        np.arange(ids.size, dtype=np.int64), np.diff(unit_offsets)
    )
    groups = groups[src]
    vals = vals[src] & _probe(adj, rows[pair], groups)
    if scratch is not None:
        scratch.and_ops += int(ids.size)
        scratch.word_ops += int(
            (offsets[ids + 1] - offsets[ids]).sum() + src.size
        )
    return vals, groups, unit_offsets


def batch_and_units(
    words: np.ndarray, offsets: np.ndarray, adj: np.ndarray,
    rows: np.ndarray, ids: np.ndarray, scratch: WahScratch | None = None,
) -> Units:
    """The units half of :func:`batch_and_rows`: the nonzero groups of
    every ``stream[ids[i]] & adj[rows[i]]``, exactly the units
    :func:`_nonzero_groups` decodes from the encoded result.  Each
    stream is decoded once, however many pairs reference it."""
    units = _nonzero_groups(words, offsets, _row_groups(adj.shape[1]))
    vals, groups, unit_offsets = _and_units(
        units, offsets, adj, rows, ids, scratch
    )
    nz = vals != 0
    return vals[nz], groups[nz], _cum_at(nz, unit_offsets)


def batch_encode_units(
    units: Units, n_groups: int, scratch: WahScratch | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The encode half of :func:`batch_and_rows`: every stream of units
    as canonical WAH words over ``n_groups`` groups, written by
    :func:`_encode_runs`; ``scratch`` tallies the words written."""
    vals, groups, unit_offsets = units
    n_pairs = unit_offsets.size - 1
    # each stream's runs: a zero gap before every unit, a zero tail after
    # its last; slot 2u + pair[u] is unit u's gap, the next its group
    n_units = int(groups.size)
    count = np.diff(unit_offsets)
    pair = np.repeat(np.arange(n_pairs, dtype=np.int64), count)
    has = count > 0
    prev_end = np.zeros(n_units, dtype=np.int64)
    prev_end[1:] = groups[:-1] + 1
    prev_end[unit_offsets[:-1][has]] = 0
    tail = np.full(n_pairs, n_groups, dtype=np.int64)
    tail[has] -= groups[unit_offsets[1:][has] - 1] + 1
    seg_len = np.ones(2 * n_units + n_pairs, dtype=np.int64)
    seg_val = np.zeros(seg_len.size, dtype=np.uint32)
    gap = 2 * np.arange(n_units, dtype=np.int64) + pair
    seg_len[gap] = groups - prev_end
    seg_val[gap + 1] = vals
    seg_len[2 * unit_offsets[1:] + np.arange(n_pairs)] = tail
    seg_pair = np.repeat(np.arange(n_pairs, dtype=np.int64), 2 * count + 1)
    keep = seg_len > 0
    out_words, out_offsets = _encode_runs(
        seg_pair[keep], seg_len[keep], seg_val[keep], n_pairs
    )
    if scratch is not None:
        scratch.word_ops += int(out_words.size)
    return out_words, out_offsets


def batch_units_any(
    units: Units, offsets: np.ndarray, adj: np.ndarray,
    rows: np.ndarray, ids: np.ndarray, scratch: WahScratch | None = None,
) -> np.ndarray:
    """``BitOneExists(stream[ids[i]] & adj[rows[i]])`` for every pair,
    from the streams' nonzero units and word ``offsets``: the step
    feeds its AND's units here rather than re-decode the child CN
    strings it just encoded."""
    vals, _, pair_offsets = _and_units(
        units, offsets, adj, rows, ids, scratch
    )
    return np.diff(_cum_at(vals != 0, pair_offsets)) > 0


def batch_and_rows(
    words: np.ndarray, offsets: np.ndarray, adj: np.ndarray,
    rows: np.ndarray, ids: np.ndarray, scratch: WahScratch | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``stream[ids[i]] & adj[rows[i]]`` for every pair, canonical SoA.

    ``words``/``offsets`` is a batch of WAH streams over the universe of
    ``adj``'s rows (``64 * adj.shape[1]`` bits) and ``adj`` a raw
    ``uint64`` bit matrix.  Only the streams' nonzero groups are probed
    in the rows (:func:`batch_and_units`); zero runs between them pass
    through as zero fills (:func:`batch_encode_units`), so every output
    stream is byte-identical to the oracle's ``wah_and_into`` of the
    stream and the canonical encoding of ``adj[rows[i]]``.
    """
    n_groups = _row_groups(adj.shape[1])
    if len(ids) == 0 or n_groups == 0:
        return _EMPTY_U32, np.zeros(len(ids) + 1, dtype=np.int64)
    return batch_encode_units(
        batch_and_units(words, offsets, adj, rows, ids, scratch),
        n_groups, scratch,
    )


def batch_and_rows_any(
    words: np.ndarray, offsets: np.ndarray, adj: np.ndarray,
    rows: np.ndarray, ids: np.ndarray, scratch: WahScratch | None = None,
) -> np.ndarray:
    """``BitOneExists(stream[ids[i]] & adj[rows[i]])`` for every pair.

    The batch maximality test over the operands of
    :func:`batch_and_rows`: a pair intersects iff one of its stream's
    nonzero groups meets the row (:func:`batch_units_any`).  Matches
    the oracle's ``wah_and_any`` pair for pair.
    """
    n_groups = _row_groups(adj.shape[1])
    if len(ids) == 0 or n_groups == 0:
        return np.zeros(len(ids), dtype=bool)
    units = _nonzero_groups(words, offsets, n_groups)
    return batch_units_any(units, offsets, adj, rows, ids, scratch)


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

    The batch partner scan of the bit-scan generation model (the
    oracle's ``wah_indices_above`` per stream).
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

    Each row becomes its canonical encoding, word for word what the
    oracle's encoder writes: ``mat`` is ``(N, n_bits / 64)`` with the
    tail invariant (bits at or above ``n_bits`` zero).
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
