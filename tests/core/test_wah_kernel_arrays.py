"""The SoA batch kernels against the per-stream scalar oracle.

:mod:`repro.core.wah_kernels` re-implements the WAH hot loop as numpy
word-array operations over many streams at once; the compressed-domain
generation step runs them in place of the scalar kernels, which stay
as the oracle for *byte-identical* words.  This suite pins that
contract: every batch kernel is replayed stream by stream through
the ``wah_oracle`` kernels and its canonical encoder ``WahBitmap``, and
the results compared exactly — words, offsets, predicates, and decoded
indices — across the boundary shapes the step actually produces:
fill/literal alternation, all-ones fills, universes that are not a
multiple of the 31-bit group, empty streams inside a batch, and empty
batches.  The AND kernels pair a stream with a raw ``uint64`` row; the
oracle takes that row as ``WahBitmap.from_words(row)``.  The step's own
path through them (the AND's units, their encode, and ``BitOneExists``
fed those units) is held to the composed kernels on the same cases.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import BitSetError
from repro.core import wah_kernels
from repro.core.wah_kernels import (
    GROUP_BITS,
    WahScratch,
    _nonzero_groups,
    _probe,
    batch_and_rows,
    batch_and_rows_any,
    batch_and_units,
    batch_decode_groups,
    batch_decode_words,
    batch_encode_units,
    batch_encode_words,
    batch_indices_above,
    batch_units_any,
    concat_streams,
    nonzero_group_counts,
    take_streams,
    take_units,
    unit_word_counts,
)
from wah_oracle import WahBitmap, wah_and_any, wah_and_into

#: empty, sub-group, exact group/word multiples, n % 31 != 0 tails.
UNIVERSES = [0, 1, 30, 31, 32, 62, 63, 64, 93, 100, 128, 500, 2000]

#: raw-row universes: whole 64-bit words, none a multiple of 31, so
#: every last group runs past the final word (12,480 is the genome
#: graph's 64-bit-padded span)
ROW_UNIVERSES = [64, 128, 192, 640, 12_480]

#: densities spanning all-zero fills, sparse, dense, and all-ones fills.
DENSITIES = [0.0, 0.01, 0.2, 0.5, 0.95, 1.0]


def _n_groups(n: int) -> int:
    return (n + GROUP_BITS - 1) // GROUP_BITS


def _random_indices(rng, n, density):
    return [i for i in range(n) if rng.random() < density]


def _random_batch(rng, n, n_streams):
    """A batch of WahBitmaps plus its SoA form."""
    maps = [
        WahBitmap.from_indices(
            n, _random_indices(rng, n, rng.choice(DENSITIES))
        )
        for _ in range(n_streams)
    ]
    words, offsets = concat_streams([m.wah_words() for m in maps])
    return maps, words, offsets


def _words_matrix(sets, n):
    """Raw ``uint64`` rows over ``n`` bits (a multiple of 64)."""
    mat = np.zeros((len(sets), n // 64), dtype=np.uint64)
    for r, s in enumerate(sets):
        for i in s:
            mat[r, i // 64] |= np.uint64(1 << (i % 64))
    return mat


def _with_runs(rng, n, density):
    """Random indices plus, half the time, a contiguous run of ones
    long enough to encode as a one-fill mid-stream."""
    idx = set(_random_indices(rng, n, density))
    if rng.random() < 0.5:
        a = rng.randrange(n)
        idx.update(range(a, min(n, a + rng.randrange(31, 200))))
    return sorted(idx)


def _row_case(rng, n, n_streams, n_rows, n_pairs):
    """CN streams, raw rows and the (stream, row) pair lists."""
    maps = [
        WahBitmap.from_indices(
            n, _with_runs(rng, n, rng.choice(DENSITIES))
        )
        for _ in range(n_streams)
    ]
    words, offsets = concat_streams([m.wah_words() for m in maps])
    adj = _words_matrix(
        [_with_runs(rng, n, rng.choice(DENSITIES)) for _ in range(n_rows)],
        n,
    )
    ids = np.array(
        [rng.randrange(n_streams) for _ in range(n_pairs)], dtype=np.int64
    )
    rows = np.array(
        [rng.randrange(n_rows) for _ in range(n_pairs)], dtype=np.int64
    )
    return maps, words, offsets, adj, ids, rows


def _assert_fused_path(words, offsets, adj, ids, rows):
    """The step's path against the composed kernels: the AND's units
    encode to ``batch_and_rows``' words and are exactly the units
    ``_nonzero_groups`` decodes from them; ``BitOneExists`` fed those
    units matches ``batch_and_rows_any`` on the encoded words for every
    child against every row; and both paths tally the same."""
    ng = _n_groups(64 * adj.shape[1])
    fused, composed = WahScratch(), WahScratch()
    units = batch_and_units(words, offsets, adj, rows, ids, fused)
    cw, co = batch_encode_units(units, ng, fused)
    ref_w, ref_o = batch_and_rows(words, offsets, adj, rows, ids, composed)
    np.testing.assert_array_equal(cw, ref_w)
    np.testing.assert_array_equal(co, ref_o)
    for got, want in zip(units, _nonzero_groups(cw, co, ng)):
        np.testing.assert_array_equal(got, want)
    kid, row = (
        a.ravel()
        for a in np.meshgrid(np.arange(ids.size), np.arange(adj.shape[0]))
    )
    np.testing.assert_array_equal(
        batch_units_any(units, co, adj, row, kid, fused),
        batch_and_rows_any(cw, co, adj, row, kid, composed),
    )
    assert (fused.and_ops, fused.word_ops) == (
        composed.and_ops, composed.word_ops
    )


def _assert_matches_oracle(maps, words, offsets, adj, ids, rows):
    """Both row kernels, pair by pair, against the scalar kernels, and
    the step's fused path against both."""
    _assert_fused_path(words, offsets, adj, ids, rows)
    ng = _n_groups(WahBitmap.from_words(adj[0]).n)
    got_w, got_o = batch_and_rows(words, offsets, adj, rows, ids)
    got_any = batch_and_rows_any(words, offsets, adj, rows, ids)
    assert got_o.tolist()[0] == 0 and got_o.size == ids.size + 1
    assert got_any.shape == ids.shape
    for i, (s, r) in enumerate(zip(ids.tolist(), rows.tolist())):
        a_w = maps[s].wah_words().tolist()
        b_w = WahBitmap.from_words(adj[r]).wah_words().tolist()
        np.testing.assert_array_equal(
            got_w[got_o[i]:got_o[i + 1]],
            np.array(wah_and_into(a_w, b_w, ng), dtype=np.uint32),
            err_msg=f"pair {i} (stream {s}, row {r})",
        )
        assert got_any[i] == wah_and_any(a_w, b_w, ng)


class TestStreamPlumbing:
    """concat/take round-trips on mixed-shape batches."""

    @pytest.mark.parametrize("seed", range(3))
    def test_concat_take_roundtrip(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            n = rng.choice(UNIVERSES)
            maps, words, offsets = _random_batch(
                rng, n, rng.randrange(0, 12)
            )
            if not maps:
                assert offsets.tolist() == [0]
                continue
            # take with repeats and reordering
            ids = [
                rng.randrange(len(maps))
                for _ in range(rng.randrange(0, 2 * len(maps)))
            ]
            tw, to = take_streams(
                words, offsets, np.asarray(ids, dtype=np.int64)
            )
            for out_i, src_i in enumerate(ids):
                got = tw[to[out_i]:to[out_i + 1]]
                np.testing.assert_array_equal(
                    got, maps[src_i].wah_words()
                )

    def test_empty_batch(self):
        words, offsets = concat_streams([])
        assert words.size == 0 and offsets.tolist() == [0]
        tw, to = take_streams(
            words, offsets, np.zeros(0, dtype=np.int64)
        )
        assert tw.size == 0 and to.tolist() == [0]


class TestAndKernels:
    """Row AND / AND-any against per-pair oracle replay."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_stream_oracle(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(25):
            n = rng.choice(ROW_UNIVERSES[:-1])
            _assert_matches_oracle(*_row_case(
                rng, n, rng.randrange(1, 8), rng.randrange(1, 6),
                rng.randrange(0, 12),
            ))

    def test_genome_universe(self):
        # sparse streams over the genome graph's 12,480-bit span, one
        # with a one-fill run, against sparse, dense and all-ones rows
        rng = random.Random(12_480)
        n = 12_480
        maps = [
            WahBitmap.from_indices(n, _random_indices(rng, n, d))
            for d in (0.0, 0.001, 0.01, 0.05)
        ] + [WahBitmap.from_indices(n, sorted(
            set(range(600, 900)) | set(_random_indices(rng, n, 0.01))
        ))]
        words, offsets = concat_streams([m.wah_words() for m in maps])
        adj = _words_matrix(
            [_random_indices(rng, n, d) for d in (0.001, 0.01, 0.3)]
            + [list(range(n))],
            n,
        )
        ids, rows = np.meshgrid(np.arange(5), np.arange(4))
        _assert_matches_oracle(
            maps, words, offsets, adj, ids.ravel(), rows.ravel()
        )

    def test_last_group_past_final_word(self):
        # at 64 bits group 2 is bits 62..92: two in the word, 29 past it
        # (the last rows meet the stream only at a group's bit 0)
        n = 64
        cn = WahBitmap.from_indices(n, [0, 33, 62, 63])
        adj = _words_matrix([[62, 63], [63], [0, 33], [], [0], [62]], n)
        words, offsets = concat_streams([cn.wah_words()])
        rows = np.arange(6, dtype=np.int64)
        ids = np.zeros(6, dtype=np.int64)
        _assert_matches_oracle([cn], words, offsets, adj, ids, rows)
        got_w, got_o = batch_and_rows(words, offsets, adj, rows, ids)
        out = WahBitmap(n, got_w[got_o[0]:got_o[1]].tolist())
        assert list(out.iter_indices()) == [62, 63]

    def test_probe_reads_zero_past_the_last_word(self):
        # the part of a last group past the row reads as zero, not as
        # the next row's first word (no valid CN string can show this:
        # its bits past the universe are zero too)
        adj = _words_matrix([[62, 63], list(range(64))], 64)
        got = _probe(adj, np.array([0, 1, 0]), np.array([2, 2, 1]))
        assert got.tolist() == [0b11, 0b11, 0]

    def test_all_ones_fills(self):
        # all-ones streams AND all-ones rows stay canonical one-fills
        # (up to the last group, which runs past the final word)
        for n in ROW_UNIVERSES:
            full = WahBitmap.from_indices(n, list(range(n)))
            words, offsets = concat_streams([full.wah_words()] * 3)
            adj = _words_matrix([list(range(n))] * 2, n)
            ids = np.array([0, 1, 2], dtype=np.int64)
            rows = np.array([1, 0, 1], dtype=np.int64)
            rw, ro = batch_and_rows(words, offsets, adj, rows, ids)
            for i in range(3):
                np.testing.assert_array_equal(
                    rw[ro[i]:ro[i + 1]], full.wah_words()
                )
            assert batch_and_rows_any(words, offsets, adj, rows, ids).all()
            _assert_matches_oracle(
                [full] * 3, words, offsets, adj, ids, rows
            )

    def test_empty_pairs(self):
        adj = _words_matrix([[1, 5]], 64)
        none = np.zeros(0, dtype=np.int64)
        # an empty batch, and pairs over an empty stream list
        w, o = concat_streams([])
        rw, ro = batch_and_rows(w, o, adj, none, none)
        assert rw.size == 0 and ro.tolist() == [0]
        assert batch_and_rows_any(w, o, adj, none, none).size == 0
        _assert_fused_path(w, o, adj, none, none)
        # zero-length pair lists over a non-empty batch
        w, o = concat_streams([WahBitmap.from_indices(64, [5]).wah_words()])
        rw, ro = batch_and_rows(w, o, adj, none, none)
        assert rw.size == 0 and ro.tolist() == [0]
        assert batch_and_rows_any(w, o, adj, none, none).size == 0
        _assert_fused_path(w, o, adj, none, none)
        # a zero-row universe has no groups
        empty_adj = np.zeros((1, 0), dtype=np.uint64)
        zero = np.zeros(1, dtype=np.int64)
        rw, ro = batch_and_rows(w, o, empty_adj, zero, zero)
        assert rw.size == 0 and ro.tolist() == [0, 0]
        assert not batch_and_rows_any(w, o, empty_adj, zero, zero).any()

    def test_scratch_tally(self):
        """One AND per pair; CN words read, groups probed and (AND
        only) words written."""
        n = 128
        cn = WahBitmap.from_indices(n, [3, 40, 41, 100])  # 3 literals
        words, offsets = concat_streams([cn.wah_words()])
        adj = _words_matrix([[3], [41, 100]], n)
        ids = np.zeros(2, dtype=np.int64)
        rows = np.arange(2, dtype=np.int64)
        scratch = WahScratch()
        rw, _ = batch_and_rows(words, offsets, adj, rows, ids, scratch)
        n_words = len(cn.wah_words())
        assert scratch.and_ops == 2
        assert scratch.word_ops == 2 * n_words + 2 * 3 + rw.size
        scratch = WahScratch()
        batch_and_rows_any(words, offsets, adj, rows, ids, scratch)
        assert (scratch.and_ops, scratch.word_ops) == (2, 2 * n_words + 6)


def _random_units(rng, n_groups, n_streams):
    """Random unit streams over ``n_groups`` groups: ascending groups,
    nonzero values, about half of them all ones (so adjacent one-units
    occur), some streams empty and some full."""
    vals, groups, offsets = [], [], [0]
    for _ in range(n_streams):
        density = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
        for grp in range(n_groups):
            if rng.random() < density:
                groups.append(grp)
                vals.append(
                    (1 << GROUP_BITS) - 1 if rng.random() < 0.5
                    else rng.randrange(1, (1 << GROUP_BITS) - 1)
                )
        offsets.append(len(groups))
    return (
        np.array(vals, dtype=np.uint32),
        np.array(groups, dtype=np.int64),
        np.array(offsets, dtype=np.int64),
    )


class TestUnitKernels:
    """The step's units path: word counts without encoding, the gather
    of kept streams, and the two-phase ``BitOneExists``."""

    @pytest.mark.parametrize("seed", range(3))
    def test_unit_word_counts_match_the_encode(self, seed):
        rng = random.Random(700 + seed)
        seen = set()
        for _ in range(60):
            n_groups = rng.choice([1, 2, 3, 5, 31, 64, 403])
            units = _random_units(rng, n_groups, rng.randrange(0, 9))
            vals, groups, offsets = units
            words, word_offsets = batch_encode_units(units, n_groups)
            np.testing.assert_array_equal(
                unit_word_counts(units, n_groups), np.diff(word_offsets)
            )
            # the random units are what a decode of their words gives
            for got, want in zip(
                _nonzero_groups(words, word_offsets, n_groups), units
            ):
                np.testing.assert_array_equal(got, want)
            ones = vals == (1 << GROUP_BITS) - 1
            adjacent = any(
                (one[1:] & one[:-1] & (np.diff(grp) == 1)).any()
                for one, grp in (
                    (ones[a:b], groups[a:b])
                    for a, b in zip(offsets[:-1], offsets[1:])
                )
            )
            seen.update(
                name for name, hit in (
                    ("adjacent ones", adjacent),
                    ("group 0", (groups == 0).any()),
                    ("last group", (groups == n_groups - 1).any()),
                    ("empty stream", (np.diff(offsets) == 0).any()),
                    ("one group", n_groups == 1 and vals.size > 0),
                ) if hit
            )
        assert seen == {
            "adjacent ones", "group 0", "last group", "empty stream",
            "one group",
        }

    def test_unit_word_counts_of_no_streams(self):
        units = take_units(_random_units(random.Random(1), 4, 3), [])
        assert unit_word_counts(units, 4).size == 0
        assert batch_encode_units(units, 4)[1].tolist() == [0]

    def test_take_units_gathers_streams(self):
        rng = random.Random(5)
        units = _random_units(rng, 31, 6)
        ids = np.array([4, 0, 4, 2], dtype=np.int64)
        words, offsets = batch_encode_units(units, 31)
        got_w, got_o = batch_encode_units(take_units(units, ids), 31)
        ref_w, ref_o = take_streams(words, offsets, ids)
        np.testing.assert_array_equal(got_w, ref_w)
        np.testing.assert_array_equal(got_o, ref_o)

    def test_units_any_probes_the_rest_only_after_a_miss(
        self, monkeypatch
    ):
        """First unit hits, first misses and a later one hits, nothing
        hits: the pair-for-pair answer is the oracle's, each unit is
        probed at most once (the first of every pair with units, the
        rest only of pairs that missed it), and the tallies are the
        full test's: every pair's words and every one of its units."""
        n = 640
        ng = _n_groups(n)
        cns = [
            WahBitmap.from_indices(n, [3, 100, 200, 400]),
            # a one-fill over groups 2..5, then a literal
            WahBitmap.from_indices(n, list(range(62, 186)) + [500]),
            WahBitmap.from_indices(n, []),
            WahBitmap.from_indices(n, [639]),
        ]
        rows = [[3], [400], [5, 101, 639], [70, 500], list(range(n))]
        words, offsets = concat_streams([m.wah_words() for m in cns])
        adj = _words_matrix(rows, n)
        ids, row = (
            a.ravel() for a in np.meshgrid(
                np.arange(len(cns)), np.arange(len(rows))
            )
        )
        units = _nonzero_groups(words, offsets, ng)
        probed = []
        real_probe = wah_kernels._probe

        def spy(adj, rows, groups):
            probed.append(int(groups.size))
            return real_probe(adj, rows, groups)

        monkeypatch.setattr(wah_kernels, "_probe", spy)
        scratch = WahScratch()
        got = batch_units_any(units, offsets, adj, row, ids, scratch)
        want, first_hit, n_units, n_words = [], [], [], []
        for s, r in zip(ids.tolist(), row.tolist()):
            cn = list(cns[s].iter_indices())
            both = set(cn) & set(rows[r])
            want.append(wah_and_any(
                cns[s].wah_words(),
                WahBitmap.from_words(adj[r]).wah_words(), ng,
            ))
            first_hit.append(bool(cn) and any(
                i // GROUP_BITS == cn[0] // GROUP_BITS for i in both
            ))
            n_units.append(len({i // GROUP_BITS for i in cn}))
            n_words.append(len(cns[s].wah_words()))
        assert got.tolist() == want
        outcomes = {
            (bool(u), f, w) for u, f, w in zip(n_units, first_hit, want)
        }
        # a first-unit hit, a later hit after a miss, a miss on every
        # unit, and a pair with no units at all
        assert {
            (True, True, True), (True, False, True), (True, False, False),
            (False, False, False),
        } <= outcomes
        assert sum(probed) == sum(
            1 if f else u for u, f in zip(n_units, first_hit)
        )
        assert sum(probed) < sum(n_units)
        assert (scratch.and_ops, scratch.word_ops) == (
            ids.size, sum(n_words) + sum(n_units)
        )

    def test_nonzero_group_counts_off_word_headers(self):
        """A nonzero literal counts 1, a one-fill its length, a zero
        fill and a zero literal 0, on canonical and non-canonical
        streams alike (adjacent fills, literal 0 and all-ones words)."""
        ng = 7
        streams = [
            [0x80000007],
            [0xC0000007],
            [0x00000001, 0x80000005, 0x7FFFFFFF],
            [0x00000000, 0xC0000002, 0xC0000001, 0x80000003],
            [0x7FFFFFFF] * 7,
            [0x00000000] * 7,
            [0x80000001, 0x80000002, 0x40000000, 0xC0000003],
        ]
        words, offsets = concat_streams(
            [np.array(s, dtype=np.uint32) for s in streams]
        )
        want = (batch_decode_groups(words, offsets, ng) != 0).sum(axis=1)
        np.testing.assert_array_equal(
            nonzero_group_counts(words, offsets), want
        )
        assert want.tolist() == [0, 7, 2, 3, 7, 0, 4]
        rng = random.Random(9)
        maps, words, offsets = _random_batch(rng, 500, 20)
        np.testing.assert_array_equal(
            nonzero_group_counts(words, offsets),
            [len({i // GROUP_BITS for i in m.iter_indices()})
             for m in maps],
        )


class TestCodec:
    """encode/decode kernels against WahBitmap construction."""

    @pytest.mark.parametrize("n", [64, 128, 512, 1984])
    def test_encode_words_roundtrip(self, n):
        # word-encode requires 64-bit-word universes (CN strings)
        rng = random.Random(n)
        sets = [
            _random_indices(rng, n, d) for d in DENSITIES for _ in (0, 1)
        ]
        mat = _words_matrix(sets, n)
        words, offsets = batch_encode_words(mat, n)
        for i, s in enumerate(sets):
            np.testing.assert_array_equal(
                words[offsets[i]:offsets[i + 1]],
                WahBitmap.from_indices(n, s).wah_words(),
            )
        np.testing.assert_array_equal(
            batch_decode_words(words, offsets, _n_groups(n), n), mat
        )

    def test_decode_words_rejects_ragged_universe(self):
        with pytest.raises(BitSetError):
            batch_decode_words(
                np.zeros(0, dtype=np.uint32),
                np.zeros(1, dtype=np.int64),
                1,
                31,
            )


class TestIndicesAbove:
    """batch partner scan against the scalar oracle."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar(self, seed):
        rng = random.Random(300 + seed)
        for _ in range(25):
            n = rng.choice([u for u in UNIVERSES if u])
            maps, words, offsets = _random_batch(
                rng, n, rng.randrange(1, 8)
            )
            lo = np.array(
                [rng.randrange(-1, n) for _ in maps], dtype=np.int64
            )
            flat, offs = batch_indices_above(
                words, offsets, _n_groups(n), n, lo
            )
            for i, m in enumerate(maps):
                expect = [
                    j for j in m.iter_indices() if j > int(lo[i])
                ]
                assert flat[offs[i]:offs[i + 1]].tolist() == expect
