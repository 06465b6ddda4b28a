"""The SoA batch kernels against the per-stream WahBitmap oracle.

:mod:`repro.core.wah_kernels` re-implements the WAH hot loop as numpy
word-array operations over many streams at once; the compressed-domain
generation step runs them in place of the scalar kernels, which stay
as the oracle for *byte-identical* words.  This suite pins that
contract: every batch kernel is replayed stream by stream through
:class:`~repro.core.compressed.WahBitmap` (the canonical encoder) and
the results compared exactly — words, offsets, counts, and decoded
indices — across the boundary shapes the step actually produces:
fill/literal alternation, all-ones fills, universes that are not a
multiple of the 31-bit group, empty streams inside a batch, and empty
batches.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import BitSetError
from repro.core.compressed import (
    GROUP_BITS,
    WahBitmap,
    wah_and_any,
    wah_and_count,
    wah_and_into,
)
from repro.core.wah_kernels import (
    batch_and,
    batch_and_any,
    batch_and_count,
    batch_decode_words,
    batch_encode_words,
    batch_indices_above,
    concat_streams,
    take_streams,
)

#: empty, sub-group, exact group/word multiples, n % 31 != 0 tails.
UNIVERSES = [0, 1, 30, 31, 32, 62, 63, 64, 93, 100, 128, 500, 2000]

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
    """batch AND / any / count against per-stream oracle replay."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_stream_oracle(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(25):
            n = rng.choice(UNIVERSES)
            n_streams = rng.randrange(1, 10)
            a_maps, aw, ao = _random_batch(rng, n, n_streams)
            b_maps, bw, bo = _random_batch(rng, n, n_streams)
            ng = _n_groups(n)

            got_w, got_o = batch_and(aw, ao, bw, bo, ng)
            got_any = batch_and_any(aw, ao, bw, bo, ng)
            got_cnt = batch_and_count(aw, ao, bw, bo, ng)

            for i, (a, b) in enumerate(zip(a_maps, b_maps)):
                a_w = a.wah_words().tolist()
                b_w = b.wah_words().tolist()
                np.testing.assert_array_equal(
                    got_w[got_o[i]:got_o[i + 1]],
                    np.array(
                        wah_and_into(a_w, b_w, ng), dtype=np.uint32
                    ),
                    err_msg=f"stream {i} of n={n}",
                )
                assert got_any[i] == wah_and_any(a_w, b_w, ng)
                assert got_cnt[i] == wah_and_count(a_w, b_w, ng)

    def test_all_ones_fills(self):
        # multi-word one-fills AND one-fills stay canonical fills
        for n in (93, 124, 500):
            full = WahBitmap.from_indices(n, list(range(n)))
            w, o = concat_streams([full.wah_words()] * 3)
            rw, ro = batch_and(w, o, w, o, _n_groups(n))
            for i in range(3):
                np.testing.assert_array_equal(
                    rw[ro[i]:ro[i + 1]], full.wah_words()
                )

    def test_empty_pairs(self):
        w, o = concat_streams([])
        rw, ro = batch_and(w, o, w, o, 4)
        assert rw.size == 0 and ro.tolist() == [0]
        assert batch_and_any(w, o, w, o, 4).size == 0
        assert batch_and_count(w, o, w, o, 4).size == 0


class TestCodec:
    """encode/decode kernels against WahBitmap construction."""

    @pytest.mark.parametrize("n", [64, 128, 512, 1984])
    def test_encode_words_roundtrip(self, n):
        # word-encode requires 64-bit-word universes (CN strings)
        rng = random.Random(n)
        sets = [
            _random_indices(rng, n, d) for d in DENSITIES for _ in (0, 1)
        ]
        mat = np.zeros((len(sets), n // 64), dtype=np.uint64)
        for r, s in enumerate(sets):
            for i in s:
                mat[r, i // 64] |= np.uint64(1 << (i % 64))
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
